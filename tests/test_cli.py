import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxion.chain import TIE_TOL, CouplingProfile, chebyshev_order, row_sum_bound, transfer_amplitude
from fluxion.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    resolve,
    run,
    validate,
)
from fluxion.experiments import EXPERIMENTS, PARAM_SPECS, TableOutput
from test_tracing_contract import load_tracing

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_basic(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\nexperiment = transfer-single\nseed = 11\n\n[params]\nn_qubits = 4\nJt = 2.5\n",
    )
    config = load_config(path, "transfer-single")
    assert config.experiment == "transfer-single"
    assert config.seed == 11
    assert config.parameters == {"n_qubits": "4", "Jt": "2.5"}  # key case preserved
    assert load_config(path, "transfer-single", seed_override=3).seed == 3


def test_load_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"), "table1")
    bad_section = write_config(tmp_path, "[run]\nexperiment = table1\n\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(bad_section, "table1")
    assert any("extra" in d for d in err.value.diagnostics)
    bad_key = write_config(tmp_path, "[run]\nexperiment = table1\nworkers = 4\n")
    with pytest.raises(ConfigError):
        load_config(bad_key, "table1")
    mismatch = write_config(tmp_path, "[run]\nexperiment = table1\n")
    with pytest.raises(ConfigError) as err:
        load_config(mismatch, "uqcm-circuit")
    assert any("table1" in d for d in err.value.diagnostics)
    bad_seed = write_config(tmp_path, "[run]\nexperiment = table1\nseed = soon\n")
    with pytest.raises(ConfigError):
        load_config(bad_seed, "table1")


def test_validate_collects_diagnostics():
    assert validate(RunConfig("table1", {})) == []
    diags = validate(RunConfig("no-such-experiment", {}))
    assert len(diags) == 1 and "no-such-experiment" in diags[0]
    diags = validate(RunConfig("transfer-disorder", {"sigma": "-0.5", "trials": "0"}))
    assert any("sigma" in d for d in diags)
    assert any("trials" in d for d in diags)
    diags = validate(RunConfig("uqcm-chain", {"n_qubits": "3"}))
    assert diags == ["unknown parameter 'n_qubits' for uqcm-chain"]
    diags = validate(RunConfig("perfect-transfer", {"n_list": "1, 4"}))
    assert len(diags) == 1 and "n_list" in diags[0]
    diags = validate(RunConfig("open-flux", {"n_qubits": "2", "target_qubit": "5"}))
    assert any("target_qubit" in d for d in diags)
    diags = validate(RunConfig("table1", {"stray": "1"}))
    assert any("stray" in d for d in diags)
    diags = validate(RunConfig("universality-scan", {"lambdas": "0, inf", "t_max": "nan"}))
    assert any("lambdas must be finite" in d for d in diags)
    assert any("t_max must be finite" in d for d in diags)
    for eta_min in ("-0.5", "0"):
        diags = validate(RunConfig("transfer-sweep", {"eta_min": eta_min}))
        assert diags == ["eta_min must be positive"]
    assert validate(RunConfig("table1", {}, seed=-1))
    assert validate(RunConfig("table1", {}, seed=2**64))


def test_resolve_types():
    params = resolve(RunConfig("transfer-single", {"n_qubits": "5", "eta": "0.4"}))
    assert params["n_qubits"] == 5
    assert params["eta"] == 0.4
    assert params["Jt"] == 0.0  # default fills in
    params = resolve(RunConfig("perfect-transfer", {"n_list": "4, 9"}))
    assert params["n_list"] == (4, 9)
    with pytest.raises(ConfigError):
        resolve(RunConfig("transfer-single", {"eta": "wide"}))


def test_run_table1_and_read_back(tmp_path):
    config = RunConfig("table1", {})
    paths = run(config, out_dir=str(tmp_path))
    csvs = [p for p in paths if p.endswith(".csv")]
    assert len(csvs) == 1
    with open(csvs[0]) as fh:
        header, *rows = [tuple(line.rstrip("\n").split(",")) for line in fh]
    assert header[0] == "operator"
    assert len(rows) == 6
    lookup = {row[0]: row[1:] for row in rows}
    assert lookup["X1"] == ("X1X2", "X1X2X3", "X1X2X3", "X1X2X3")
    assert lookup["Z2"] == ("Z1Z2", "Z1Z2", "Z1Z2", "Z1Z2")


def test_reruns_byte_identical(tmp_path):
    config = RunConfig(
        "transfer-disorder",
        {"n_qubits": "6", "trials": "8", "t_max": "6.0", "t_step": "0.5"},
        seed=42,
    )
    a_paths = run(config, out_dir=str(tmp_path / "a"))
    b_paths = run(config, out_dir=str(tmp_path / "b"))
    data_a = sorted(p for p in a_paths if not p.endswith(".meta"))
    data_b = sorted(p for p in b_paths if not p.endswith(".meta"))
    assert [os.path.basename(p) for p in data_a] == [os.path.basename(p) for p in data_b]
    for pa, pb in zip(data_a, data_b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_seed_changes_disorder_output(tmp_path):
    base = {"n_qubits": "6", "trials": "8", "t_max": "6.0", "t_step": "0.5"}
    a = run(RunConfig("transfer-disorder", dict(base), seed=1), out_dir=str(tmp_path / "a"))
    b = run(RunConfig("transfer-disorder", dict(base), seed=2), out_dir=str(tmp_path / "b"))
    csv_a = next(p for p in a if p.endswith("trials.csv"))
    csv_b = next(p for p in b if p.endswith("trials.csv"))
    with open(csv_a) as fa, open(csv_b) as fb:
        assert fa.read() != fb.read()


def test_summary_precision(tmp_path):
    config = RunConfig("transfer-single", {"n_qubits": "4", "eta": "0.7", "Jt": "3.2"})
    paths = run(config, out_dir=str(tmp_path))
    txt = next(p for p in paths if p.endswith(".txt"))
    items = {}
    with open(txt) as fh:
        for line in fh:
            key, value = line.split(" = ", 1)
            items[key] = value.strip()
    f = transfer_amplitude(CouplingProfile.uniform_eta(4, 1.0, 0.7), 3.2)
    assert float(items["abs_f"]) == pytest.approx(abs(f), abs=1e-14)
    assert float(items["I_XX"]) == pytest.approx(f.real, abs=1e-14)
    assert float(items["worst_case_fidelity"]) == pytest.approx(abs(f) ** 2, abs=1e-14)


def test_metadata_sidecar_contents(tmp_path):
    config = RunConfig("transfer-single", {"Jt": "1.0"}, seed=5)
    paths = run(config, out_dir=str(tmp_path))
    meta_path = next(p for p in paths if p.endswith(".meta"))
    meta = {}
    with open(meta_path) as fh:
        for line in fh:
            key, value = line.split(" = ", 1)
            meta[key] = value.strip()
    assert meta["experiment"] == "transfer-single"
    assert meta["seed"] == "5"
    assert meta["param.Jt"] == "1.0"  # raw config string, not a reformatted value
    assert "created_utc" in meta and "wall_time_s" in meta


def test_preparation_sidecar_carries_spectral_gap(tmp_path):
    """The optimality certificate lands in the sidecar; the data file keeps
    its keys and prints the zero amplitude unsigned."""
    txt, meta_path = run(RunConfig("uqcm-prep-opt", {"constraint": "symmetric-universal"}), out_dir=str(tmp_path))
    with open(meta_path) as fh:
        meta = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    assert float(meta["health.spectral_gap"]) == pytest.approx(2 / 3, abs=1e-14)
    with open(txt) as fh:
        items = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    assert list(items) == [
        "constraint", "amplitude_00", "amplitude_01", "amplitude_10", "amplitude_11", "flux", "constraint_residual"
    ]
    assert items["amplitude_11"] == "0"


def _read_meta(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


def test_chain_sidecars_carry_health_keys(tmp_path):
    """transfer-sweep records the argmax tie count and the largest |f|,
    transfer-disorder the largest |f| over all trials, transfer-single and
    perfect-transfer the largest |f| they computed; all four record the
    Chebyshev order the engine took."""
    common = {"experiment", "seed", "version", "wall_time_s", "created_utc"}
    cost = {"cost.chebyshev_order"}
    sweep_params = {"n_qubits": "5", "eta_min": "0.5", "eta_max": "0.7", "t_max": "6.0"}
    paths = run(RunConfig("transfer-sweep", sweep_params), out_dir=str(tmp_path / "sweep"))
    meta = _read_meta(next(p for p in paths if p.endswith(".csv.meta")))
    assert set(meta) == common | cost | {f"param.{k}" for k in sweep_params} | {
        "eta_max", "Jt_max", "flux_max", "worst_case_fidelity", "health.argmax_ties", "health.max_abs_f"
    }
    with open(next(p for p in paths if p.endswith(".csv"))) as fh:
        abs_f = np.array([float(line.split(",")[2]) for line in list(fh)[1:]])
    assert int(meta["health.argmax_ties"]) == int((abs_f >= abs_f.max() - TIE_TOL).sum()) >= 1
    assert float(meta["health.max_abs_f"]) == abs_f.max() >= float(meta["flux_max"])
    # alpha = 2 where the two unit couplings of the 5-site chains meet, up to t = 6
    assert int(meta["cost.chebyshev_order"]) == chebyshev_order(2 * 6.0)

    disorder_params = {"n_qubits": "6", "trials": "8", "t_max": "6.0", "t_step": "0.5"}
    paths = run(RunConfig("transfer-disorder", disorder_params), out_dir=str(tmp_path / "disorder"))
    metas = {os.path.basename(p): _read_meta(p) for p in paths if p.endswith(".meta")}
    base = common | {f"param.{k}" for k in disorder_params}
    assert set(metas["transfer-disorder-trials.csv.meta"]) == base
    meta = metas["transfer-disorder.csv.meta"]
    assert set(meta) == base | cost | {
        "mean_max_flux", "median_argmax_Jt", "negative_coupling_trials", "health.max_abs_f"
    }
    with open(tmp_path / "disorder" / "transfer-disorder-trials.csv") as fh:
        max_flux = [float(line.split(",")[1]) for line in list(fh)[1:]]
    assert float(meta["health.max_abs_f"]) == max(max_flux)
    clean = CouplingProfile.uniform_eta(6, 1.0, 0.5)
    trials = [CouplingProfile.disordered(clean, 0.05, np.random.default_rng([0, k])) for k in range(8)]
    alpha = row_sum_bound(np.array([trial.couplings for trial in trials]))
    assert int(meta["cost.chebyshev_order"]) == chebyshev_order(alpha * 6.0)

    single_params = {"n_qubits": "7", "eta": "0.5", "Jt": "4.0"}
    txt, meta_path = run(RunConfig("transfer-single", single_params), out_dir=str(tmp_path / "single"))
    meta = _read_meta(meta_path)
    assert set(meta) == common | cost | {f"param.{k}" for k in single_params} | {"health.max_abs_f"}
    with open(txt) as fh:
        items = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    assert meta["health.max_abs_f"] == items["abs_f"]
    assert int(meta["cost.chebyshev_order"]) == chebyshev_order(2 * 4.0)

    perfect_params = {"n_list": "4, 7"}
    csv, meta_path = run(RunConfig("perfect-transfer", perfect_params), out_dir=str(tmp_path / "perfect"))
    meta = _read_meta(meta_path)
    assert set(meta) == common | cost | {f"param.{k}" for k in perfect_params} | {"health.max_abs_f"}
    with open(csv) as fh:
        abs_f = [float(line.split(",")[1]) for line in list(fh)[1:]]
    assert float(meta["health.max_abs_f"]) == max(abs_f)
    alpha = max(row_sum_bound(CouplingProfile.perfect(n, 1.0).couplings) for n in (4, 7))
    assert int(meta["cost.chebyshev_order"]) == chebyshev_order(alpha * np.pi)


def test_dense_sidecars_carry_eigensolve_cost(tmp_path):
    """uqcm-chain and universality-scan count their sector eigh calls and the
    largest block diagonalized; the data files keep their columns."""
    common = {"experiment", "seed", "version", "wall_time_s", "created_utc"}
    cost = {"cost.eigensolves", "health.largest_block"}
    # the three-site chain splits into excitation sectors of sizes 1, 3, 3, 1; the input
    # kets of a psi+ register touch only the two sectors of size 3
    for experiment, params, solves, columns in (
        ("uqcm-chain", {}, "2", "Jt,I_XX,I_YY,I_ZZ,fidelity"),
        ("universality-scan", {"lambdas": "0, 1, 2, 3"}, "8", "lambda,anisotropy_deviation"),
    ):
        data, meta_path = run(RunConfig(experiment, params), out_dir=str(tmp_path / experiment))
        meta = _read_meta(meta_path)
        assert set(meta) == common | {f"param.{k}" for k in params} | cost
        assert (meta["cost.eigensolves"], meta["health.largest_block"]) == (solves, "3")
        with open(data) as fh:
            assert fh.readline().rstrip("\n") == columns


def test_tracer_counts_rows_and_open_grid_span():
    """The benchmark's tracer counts the rows of every output and reads open-flux's
    grid span off its first column; on four shipped configs it reads 6 + 7 + (1201 + 200)
    + 51 rows and a span of 5."""
    tracing = load_tracing()
    rec = tracing.Recorder()
    installed = tracing.Installed(rec)
    rec.run_id = "configs"
    try:
        for experiment in ("table1", "uqcm-prep-opt", "transfer-disorder", "open-flux"):
            config = load_config(str(CONFIGS / f"{experiment}.ini"), experiment)
            EXPERIMENTS[experiment](resolve(config), config.seed)
    finally:
        rec.run_id = None
        installed.uninstall()
    assert rec.counts["configs"]["cli.rows_written"] == 1465
    assert rec.counts["configs"]["lindblad.grid_span"] == 5.0


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(
        tmp_path, "[run]\nexperiment = transfer-single\n\n[params]\nJt = 1.5\n"
    )
    code = main(["transfer-single", "--config", good, "--out", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith(".txt") for p in printed)
    assert all(os.path.exists(p) for p in printed)

    bad = write_config(tmp_path, "[run]\nexperiment = transfer-single\n\n[params]\neta = -1\n")
    code = main(["transfer-single", "--config", bad, "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err

    code = main(["transfer-single", "--config", good, "--threads", "0"])
    assert code == 2
    capsys.readouterr()

    # parameters that could not change the answer are gone: the chain results
    # depend on Jt and the profile's shape, and the preparation optimizer has no starts to count
    removed_parameters = (
        ("uqcm-chain", "J"), ("universality-scan", "J"), ("perfect-transfer", "lam"), ("uqcm-prep-opt", "restarts")
    )
    for experiment, key in removed_parameters:
        removed = write_config(
            tmp_path, f"[run]\nexperiment = {experiment}\n\n[params]\n{key} = 1\n", name="removed.ini"
        )
        out = tmp_path / f"removed-{experiment}"
        assert main([experiment, "--config", removed, "--out", str(out)]) == 2
        assert f"config error: unknown parameter '{key}' for {experiment}" in capsys.readouterr().err
        assert not out.exists()

    # valid config whose run overflows the series truncation at runtime
    runtime = write_config(
        tmp_path,
        "[run]\nexperiment = series-check\n\n[params]\nJt = 30\ntruncation_order = 20\n",
        name="runtime.ini",
    )
    code = main(["series-check", "--config", runtime, "--out", str(tmp_path / "rt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, param, array",
    [
        ("transfer-sweep", "t_step = 1e-12", "sweep surface"),  # numpy asked for 437 TiB
        ("transfer-single", "n_qubits = 100000000", "moment recurrence"),
        ("transfer-single", "Jt = 1e9", "moment recurrence"),  # alpha t = 2e9, K = 2 000 016 095
        ("transfer-sweep", "eta_step = 1e-6", "sweep surface"),
        ("transfer-disorder", "trials = 1000000", "disorder surface"),
        # integers too large for a float
        ("transfer-single", f"n_qubits = {10**400}", "moment recurrence"),
        ("perfect-transfer", f"n_list = 4, {10**400}", "moment recurrence"),
        ("transfer-disorder", f"trials = {10**400}", "disorder surface"),
        ("series-check", "truncation_order = 1000000000", "series recurrence steps"),
        ("series-check", "Jt = 1e308", "series working digits"),  # was an OverflowError, exit 1
    ],
)
def test_main_rejects_oversized_arrays(tmp_path, capsys, experiment, param, array):
    config = write_config(tmp_path, f"[run]\nexperiment = {experiment}\n\n[params]\n{param}\n")
    out = tmp_path / "out"
    assert main([experiment, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and array in err
    assert not out.exists() or not any(out.iterdir())


def test_array_limit_boundary():
    """(K + 1) x n_qubits site updates of exactly 2e7 pass and one order more does not:
    K is the engine's own chebyshev_order at the clean profile's alpha = 2 times Jt."""
    lo, hi = 0.0, 1e4  # K(2 lo) <= 19 999 < K(2 hi)
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if chebyshev_order(2 * mid) <= 19_999 else (lo, mid)
    assert validate(RunConfig("transfer-single", {"n_qubits": "1000", "Jt": repr(lo)})) == []
    diags = validate(RunConfig("transfer-single", {"n_qubits": "1000", "Jt": repr(hi)}))
    assert diags == ["the moment recurrence's site updates per profile ((K + 1) x n_qubits) would have "
                     "2e+07 elements, more than 2e+07"]
    assert validate(RunConfig("perfect-transfer", {"n_list": "4, 4473"}))


@pytest.mark.parametrize("param", ["Jt = inf", "eta = nan"])
def test_main_rejects_non_finite_floats(tmp_path, capsys, param):
    config = write_config(tmp_path, f"[run]\nexperiment = transfer-single\n\n[params]\n{param}\n")
    out = tmp_path / "out"
    code = main(["transfer-single", "--config", config, "--out", str(out)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "experiment, param, diagnostic",
    [
        # each merged into one row or produced a header-only CSV with exit 0
        ("universality-scan", "lambdas = 2, 2.0, 1", "lambdas must not repeat a value, got 2.0, 2.0, 1.0"),
        ("universality-scan", "lambdas =", "lambdas must list at least one value"),
        ("universality-scan", "lambdas = ,", "lambdas must list at least one value"),
        ("perfect-transfer", "n_list =", "n_list must list at least one value"),
    ],
)
def test_main_rejects_empty_or_repeated_lists(tmp_path, capsys, experiment, param, diagnostic):
    config = write_config(tmp_path, f"[run]\nexperiment = {experiment}\n\n[params]\n{param}\n")
    out = tmp_path / "out"
    assert main([experiment, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {diagnostic}"]
    assert not out.exists()


def test_threads_flag_accepts_only_one(tmp_path, capsys):
    config = write_config(
        tmp_path, "[run]\nexperiment = transfer-single\n\n[params]\nJt = 1.5\n"
    )
    out = tmp_path / "two"
    assert main(["transfer-single", "--config", config, "--out", str(out), "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "one"
    assert main(["transfer-single", "--config", config, "--out", str(out), "--threads", "1"]) == 0
    assert any(p.suffix == ".txt" for p in out.iterdir())
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "--threads" not in capsys.readouterr().out


# A small config per experiment, and per parameter a value that must move its output.
_SMALL_CONFIGS = {
    "uqcm-prep-opt": {},
    "uqcm-chain": {"t_max": "0.4", "t_step": "0.2"},
    "universality-scan": {"lambdas": "1.0, 3.0", "t_max": "0.4", "t_step": "0.2"},
    "transfer-single": {"n_qubits": "4", "eta": "0.7", "Jt": "1.5"},
    "transfer-sweep": {
        "n_qubits": "4", "eta_min": "0.5", "eta_max": "0.7", "eta_step": "0.1", "t_max": "2.0", "t_step": "0.5",
    },
    "transfer-disorder": {"n_qubits": "4", "eta": "0.7", "trials": "3", "t_max": "2.0", "t_step": "0.5"},
    "perfect-transfer": {"n_list": "4, 7"},
    "series-check": {"n_qubits": "4", "Jt": "1.0", "truncation_order": "40"},
    "open-flux": {"n_qubits": "2", "J": "0.5", "target_qubit": "2", "t_max": "1.0", "t_step": "0.5"},
}
_CHANGED_VALUES = {
    ("uqcm-prep-opt", "constraint"): "fully-biased",
    ("uqcm-chain", "t_min"): "0.2",
    ("uqcm-chain", "t_max"): "0.6",
    ("uqcm-chain", "t_step"): "0.1",
    ("universality-scan", "lambdas"): "0.0, 3.0",
    ("universality-scan", "t_min"): "0.1",
    ("universality-scan", "t_max"): "0.6",
    ("universality-scan", "t_step"): "0.3",
    ("transfer-single", "n_qubits"): "5",
    ("transfer-single", "eta"): "0.5",
    ("transfer-single", "Jt"): "2.0",
    ("transfer-sweep", "n_qubits"): "5",
    ("transfer-sweep", "eta_min"): "0.6",
    ("transfer-sweep", "eta_max"): "0.8",
    ("transfer-sweep", "eta_step"): "0.2",
    ("transfer-sweep", "t_min"): "0.5",
    ("transfer-sweep", "t_max"): "2.5",
    ("transfer-sweep", "t_step"): "0.25",
    ("transfer-disorder", "n_qubits"): "5",
    ("transfer-disorder", "eta"): "0.5",
    ("transfer-disorder", "sigma"): "0.1",
    ("transfer-disorder", "trials"): "4",
    ("transfer-disorder", "t_min"): "0.5",
    ("transfer-disorder", "t_max"): "2.5",
    ("transfer-disorder", "t_step"): "0.25",
    ("perfect-transfer", "n_list"): "4, 8",
    ("series-check", "n_qubits"): "5",
    ("series-check", "eta"): "0.7",
    ("series-check", "Jt"): "1.5",
    ("series-check", "truncation_order"): "30",
    ("open-flux", "n_qubits"): "3",
    ("open-flux", "damping"): "0.2",
    ("open-flux", "dephasing"): "0.1",
    ("open-flux", "n_bar"): "0.1",
    ("open-flux", "J"): "1.0",
    ("open-flux", "input_qubit"): "2",
    ("open-flux", "target_qubit"): "1",
    ("open-flux", "t_min"): "0.5",
    ("open-flux", "t_max"): "1.5",
    ("open-flux", "t_step"): "0.25",
}


def _output_values(experiment, parameters):
    """Every table cell (column by column), extra and summary item the experiment returns, in order."""
    values = []
    for output in EXPERIMENTS[experiment](resolve(RunConfig(experiment, parameters)), 0):
        if isinstance(output, TableOutput):
            values += [cell for column in output.columns.values() for cell in column.tolist()]
            values += list(output.extra.values())
        else:
            values += list(output.items.values())
    return values


def _moved(a, b):
    """True when the outputs differ in length, in a label, or in a number by more than 1e-12."""
    if len(a) != len(b):
        return True
    for x, y in zip(a, b):
        try:
            if not abs(float(x) - float(y)) <= 1e-12:
                return True
        except ValueError:
            if x != y:
                return True
    return False


@pytest.mark.parametrize("experiment", sorted(name for name, specs in PARAM_SPECS.items() if specs))
def test_every_parameter_changes_the_output(experiment):
    base = _SMALL_CONFIGS[experiment]
    reference = _output_values(experiment, base)
    for key in PARAM_SPECS[experiment]:
        assert (experiment, key) in _CHANGED_VALUES, f"no changed value for {experiment}.{key}"
        changed = {**base, key: _CHANGED_VALUES[(experiment, key)]}
        assert _moved(_output_values(experiment, changed), reference), (experiment, key)


# raw config strings at and past every edge a parameter parser or range check meets
_INT_EDGES = ("0", "-1", "9" * 4000, "-" + "9" * 4000, "1e308", "5e-324", "nan", "inf", "1.5", "", "junk")
_FLOAT_EDGES = (
    "0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "9" * 4000, "", "junk"
)


def _raw_value(spec):
    if spec.kind == "choice":
        return st.sampled_from(spec.choices + ("", "junk"))
    if spec.kind.startswith("int"):
        scalar = st.one_of(st.integers(-5, 10**4).map(str), st.sampled_from(_INT_EDGES))
    else:
        scalar = st.one_of(
            st.floats(-1e3, 1e3).map(repr), st.floats().map(repr), st.sampled_from(_FLOAT_EDGES)
        )
    if spec.kind.endswith("list"):
        return st.one_of(
            st.lists(scalar, max_size=4).map(", ".join), st.sampled_from(("", ",", " , ", "junk,"))
        )
    return scalar


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_returns_diagnostics_and_never_raises(data):
    experiment = data.draw(st.sampled_from(sorted(PARAM_SPECS)), label="experiment")
    specs = PARAM_SPECS[experiment]
    keys = data.draw(st.lists(st.sampled_from(sorted(specs)), unique=True)) if specs else []
    params = {key: data.draw(_raw_value(specs[key]), label=key) for key in keys}
    seed = data.draw(st.integers(-1, 2**65), label="seed")
    diagnostics = validate(RunConfig(experiment, params, seed))
    assert isinstance(diagnostics, list)
    assert all(isinstance(d, str) and d for d in diagnostics)


def test_run_writes_no_timestamp_in_data(tmp_path):
    paths = run(RunConfig("transfer-single", {"Jt": "0.5"}), out_dir=str(tmp_path))
    data = next(p for p in paths if p.endswith(".txt"))
    with open(data) as fh:
        content = fh.read()
    assert "utc" not in content and "20" + "26" not in content


CONFIG_DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config.md")


def _documented_defaults(path):
    """Per `###` experiment section of the schema doc: {key: default cell}.

    A row may name several keys ("t_min, t_max, t_step") with one default
    each; a single key keeps its whole default cell, so a list default
    stays together.  A section that says "No parameters." maps to None.
    """
    sections = {}
    name = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                name = line[4:].strip() if line.startswith("### ") else None
                if name:
                    sections[name] = {}
            elif name and line.startswith("No parameters."):
                sections[name] = None
            elif name and line.startswith("| ") and not line.startswith(("| key ", "| ---")):
                keys, _, default = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:4])
                keys = keys.split(", ")
                defaults = default.split(", ") if len(keys) > 1 else [default]
                assert len(defaults) == len(keys), line
                sections[name].update(zip(keys, defaults))
    return sections


def _parse_default(spec, cell):
    if spec.kind == "choice":
        return cell
    scalar = int if spec.kind.startswith("int") else float
    if spec.kind.endswith("list"):
        return tuple(scalar(item) for item in cell.split(", "))
    return scalar(cell)


def test_config_doc_matches_param_specs():
    sections = _documented_defaults(CONFIG_DOC)
    assert sorted(sections) == sorted(PARAM_SPECS)
    for experiment, specs in PARAM_SPECS.items():
        documented = sections[experiment]
        assert (documented is None) == (not specs), experiment
        assert sorted(documented or {}) == sorted(specs), experiment
        for key, spec in specs.items():
            assert _parse_default(spec, documented[key]) == spec.default, (experiment, key)
