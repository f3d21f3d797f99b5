"""The four benchmark workloads.

Each workload is closed loop with one client: a pass issues its calls one
after another and the next pass starts when the previous one has been
checked.  Inputs come from the workload seed; problem sizes, and so the cost
of a pass, do not.  A workload has

    warm_up()             first calls that fill caches and lazy imports
    run_pass(rec)         the timed work; returns its outputs
    check(outputs, gate)  compares outputs with oracles, outside the timer
    digest(outputs)       a hash of the outputs, to compare traced and
                          untraced passes

Engine functions are looked up on their modules at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

import oracles
from tracing import EXPERIMENT_NAMES

HERE = Path(__file__).resolve().parent


class Gate:
    """Counts correctness checks; failed_ratio = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"FAILED {name} {detail}".rstrip())
        return ok

    def close(self, name: str, value, expected, tol: float) -> bool:
        err = float(np.max(np.abs(np.asarray(value) - np.asarray(expected)), initial=0.0))
        return self.check(name, err <= tol, f"err={err:.3e} tol={tol:.0e}")


def _hash_into(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            h.update(f.name.encode())
            _hash_into(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _hash_into(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _hash_into(h, item)
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _hash_into(h, obj)
    return h.hexdigest()


def _modules():
    import fluxion.chain
    import fluxion.dense
    import fluxion.lindblad
    import fluxion.states

    return fluxion.chain, fluxion.dense, fluxion.lindblad, fluxion.states


class InProcess:
    """A workload whose passes call the engines in this process."""

    def __init__(self, root: Path, seed: int, scratch: Path | None = None):
        self.seed = seed

    digest = staticmethod(digest)

    def discard(self, out) -> None:
        pass


# --- chain-transfer ---------------------------------------------------------

SERIES_CASES = ((5, 2.0, 60), (11, 10.0, 110), (16, 20.0, 150), (21, 30.0, 195))


class ChainTransfer(InProcess):
    """Single-excitation transfer: boundary sweeps, disorder, series recurrence."""

    def __init__(self, root: Path, seed: int, scratch: Path | None = None):
        super().__init__(root, seed)
        rng = np.random.default_rng([seed, 1])
        # the series cost depends on max|J| t, which stays 1 * t for eta <= 1
        self.series_etas = rng.uniform(0.5, 1.0, len(SERIES_CASES))
        self.check_rng = np.random.default_rng([seed, 2])

    def warm_up(self) -> None:
        chain, *_ = _modules()
        profile = chain.CouplingProfile.uniform_eta(5, 1.0, 0.5)
        chain.amplitude_curve(profile, np.linspace(0.0, 1.0, 5))
        chain.series_flux(profile, 1.0, 20)

    def run_pass(self, rec) -> dict:
        chain, *_ = _modules()
        out = {
            "sweep101": chain.eta_sweep(101),
            "sweep201": chain.eta_sweep(201, t_grid=chain.first_arrival_window(201)),
            "disorder": chain.disorder_ensemble(
                101, 0.5, chain.DisorderSpec(0.05, 200, self.seed), chain.DEFAULT_TIME_GRID
            ),
        }
        out["series"] = [
            chain.series_flux(chain.CouplingProfile.uniform_eta(n, 1.0, float(eta)), t, order)
            for (n, t, order), eta in zip(SERIES_CASES, self.series_etas)
        ]
        return out

    def _check_sweep(self, gate: Gate, label: str, sweep, n: int, tie_tol: float) -> None:
        surface = sweep.surface
        ei = int(np.argmin(np.abs(sweep.eta_grid - sweep.eta_max)))
        ti = int(np.argmin(np.abs(sweep.t_grid - sweep.t_max)))
        gate.check(f"{label}.argmax_is_max", surface.max() <= sweep.flux_max + tie_tol)
        gate.close(f"{label}.argmax_value", surface[ei, ti], sweep.flux_max, 0.0)
        rows = self.check_rng.integers(0, surface.shape[0], 6).tolist() + [ei]
        cols = self.check_rng.integers(0, surface.shape[1], 6).tolist() + [ti]
        worst = 0.0
        for i, k in zip(rows, cols):
            c = oracles.uniform_eta_couplings(n, float(sweep.eta_grid[i]))
            worst = max(worst, abs(abs(oracles.chain_amplitude(c, sweep.t_grid[k])[0]) - surface[i, k]))
        gate.close(f"{label}.surface_vs_dense", worst, 0.0, 1e-9)

    def check(self, out: dict, gate: Gate) -> None:
        chain, *_ = _modules()
        s101 = out["sweep101"]
        gate.close("sweep101.eta_max", s101.eta_max, 0.50, 1e-9)
        gate.close("sweep101.t_max", s101.t_max, 55.10, 1e-9)
        self._check_sweep(gate, "sweep101", s101, 101, chain.TIE_TOL)
        s201 = out["sweep201"]
        # the optimum boundary coupling falls with chain length
        gate.check("sweep201.eta_below_101", s201.eta_max <= s101.eta_max + 0.01)
        self._check_sweep(gate, "sweep201", s201, 201, chain.TIE_TOL)

        dis = out["disorder"]
        base = oracles.uniform_eta_couplings(101, 0.5)
        couplings = []
        for k in range(200):
            rng = np.random.default_rng([self.seed, k])
            couplings.append(base + rng.normal(0.0, 0.05 * np.abs(base)))
        negative = tuple(k for k, c in enumerate(couplings) if (c < 0).any())
        gate.check("disorder.negative_trials", dis.negative_coupling_trials == negative)
        gate.check("disorder.shapes", dis.max_fluxes.shape == (200,) and dis.mean_flux.shape == dis.t_grid.shape)
        for k in self.check_rng.integers(0, 200, 3):
            f = np.abs(oracles.chain_amplitude(couplings[k], dis.t_grid))
            gate.close(f"disorder.trial{k}.max", dis.max_fluxes[k], f.max(), 1e-9)
            at = int(np.argmin(np.abs(dis.t_grid - dis.argmax_times[k])))
            gate.check(f"disorder.trial{k}.argmax", f[at] >= f.max() - 1e-9)
        gate.check("disorder.mean_in_range", bool(((dis.mean_flux >= 0) & (dis.mean_flux <= 1)).all()))

        for (n, t, _), eta, res in zip(SERIES_CASES, self.series_etas, out["series"]):
            profile = chain.CouplingProfile.uniform_eta(n, 1.0, float(eta))
            gate.check(f"series{n}.truncation", res.truncation_bound < 1e-10)
            gate.close(f"series{n}.vs_modes", res.coefficients, chain.propagator_coefficients(profile, t), 1e-8)


# --- dense-tomography -------------------------------------------------------

LADDER = tuple(range(3, 11))
SCAN_LAMBDAS = (0.0, 1.0, 2.0, 3.0)
SCAN_GRID = np.round(np.arange(0.0, 1.82 + 1e-9, 0.01), 10)


class DenseTomography(InProcess):
    """Full Hilbert-space tomography of random XY chains, 3 to 10 qubits."""

    def __init__(self, root: Path, seed: int, scratch: Path | None = None):
        super().__init__(root, seed)
        rng = np.random.default_rng([seed, 3])
        self.chains = [(n, rng.uniform(0.2, 1.5, n - 1), rng.uniform(0.0, 8.0, 2)) for n in LADDER]
        self._oracle: dict = {}

    def warm_up(self) -> None:
        chain, dense, _, states = _modules()
        h = dense.SpinHamiltonian.xy_chain(chain.CouplingProfile(2, np.array([1.0])))
        dense.flux_tomography(h, 0.5, 1, states.RegisterState.computational(1, 0), 2)

    def run_pass(self, rec) -> dict:
        chain, dense, _, states = _modules()
        fluxes = []
        for n, couplings, times in self.chains:
            h = dense.SpinHamiltonian.xy_chain(chain.CouplingProfile(n, couplings))
            register = states.RegisterState.computational(n - 1, 0)
            fluxes.append([dense.flux_tomography(h, float(t), 1, register, n) for t in times])
        return {"ladder": fluxes, "scan": dense.universality_scan(SCAN_LAMBDAS, 1.0, SCAN_GRID)}

    def check(self, out: dict, gate: Gate) -> None:
        chain, *_ = _modules()
        for (n, couplings, times), fms in zip(self.chains, out["ladder"]):
            profile = chain.CouplingProfile(n, couplings)
            for t, fm in zip(times, fms):
                key = (n, float(t))
                if key not in self._oracle:
                    f = chain.transfer_amplitude(profile, float(t))
                    self._oracle[key] = chain.flux_components(f, n, float(t)).entries
                gate.close(f"ladder{n}.t{t:.3f}", fm.entries, self._oracle[key], 1e-9)
        scan = out["scan"]
        gate.check("scan.isotropic_lambda2", scan[2.0] < 1e-9, f"dev={scan[2.0]:.3e}")
        for lam in (0.0, 1.0, 3.0):
            gate.check(f"scan.anisotropic_lambda{lam:g}", scan[lam] > 1e-2, f"dev={scan[lam]:.3e}")


# --- open-tomography --------------------------------------------------------

OPEN_GRID = np.arange(0.0, 5.0 + 1e-9, 1.0)
OPEN_SIZES = (3, 4, 5)


def _normalized_couplings(rng, n: int, radius: float) -> np.ndarray:
    # the integrator's step count follows the spectral radius; fixing it keeps
    # the cost of a pass independent of the seed
    c = rng.uniform(0.8, 1.2, n - 1)
    return c * radius / np.abs(np.linalg.eigvalsh(np.diag(c, 1) + np.diag(c, -1))).max()


class OpenTomography(InProcess):
    """Lindblad tomography of damped, dephased, thermal XY chains."""

    def __init__(self, root: Path, seed: int, scratch: Path | None = None):
        super().__init__(root, seed)
        rng = np.random.default_rng([seed, 4])

        def jitter(value):
            return float(value * rng.uniform(0.95, 1.05))

        # (couplings, damping, dephasing, n_bar); an empty coupling list is one qubit
        self.cases = [
            (_normalized_couplings(rng, n, 1.5), jitter(0.1), jitter(0.05), jitter(0.2)) for n in OPEN_SIZES
        ]
        self.cases.append((_normalized_couplings(rng, 3, 1.5), 0.0, 0.0, 0.0))
        self.cases.append((np.empty(0), jitter(0.8), jitter(0.3), jitter(0.2)))
        self._oracle: dict = {}

    def warm_up(self) -> None:
        _, _, lindblad, states = _modules()
        spec = lindblad.LindbladSpec(0.1, 0.05, 0.1)
        lindblad.open_flux_tomography(spec, 0.1, 1, states.RegisterState.empty(), 1)

    def run_pass(self, rec) -> list:
        chain, dense, lindblad, states = _modules()
        out = []
        for couplings, damping, dephasing, n_bar in self.cases:
            n = len(couplings) + 1
            h = dense.SpinHamiltonian.xy_chain(chain.CouplingProfile(n, couplings)) if n > 1 else None
            spec = lindblad.LindbladSpec(damping, dephasing, n_bar, h)
            register = states.RegisterState.computational(n - 1, 0)
            out.append([lindblad.open_flux_tomography(spec, float(t), 1, register, n) for t in OPEN_GRID])
            rec.count("lindblad.grid_span", float(OPEN_GRID[-1]))
        return out

    def _reference(self, index: int) -> list[np.ndarray]:
        if index not in self._oracle:
            couplings, damping, dephasing, n_bar = self.cases[index]
            n = len(couplings) + 1
            if n == 1:
                ref = [oracles.single_qubit_laws(damping, dephasing, n_bar, t) for t in OPEN_GRID]
            elif damping == dephasing == 0.0:
                chain, dense, _, states = _modules()
                h = dense.SpinHamiltonian.xy_chain(chain.CouplingProfile(n, couplings))
                register = states.RegisterState.computational(n - 1, 0)
                ref = [dense.flux_tomography(h, float(t), 1, register, n).entries for t in OPEN_GRID]
            else:
                ref = oracles.open_flux_series(couplings, damping, dephasing, n_bar, OPEN_GRID, n)
            self._oracle[index] = ref
        return self._oracle[index]

    def check(self, out: list, gate: Gate) -> None:
        for index, (case, fms) in enumerate(zip(self.cases, out)):
            couplings, damping, dephasing, _ = case
            n = len(couplings) + 1
            if n == 1:
                label, tol = "decay_laws", 1e-6
            elif damping == dephasing == 0.0:
                label, tol = "zero_rate_vs_dense", 1e-8
            else:
                label, tol = f"n{n}_vs_expm", 1e-8
            for t, fm, ref in zip(OPEN_GRID, fms, self._reference(index)):
                gate.close(f"{label}.t{t:g}", fm.entries, ref, tol)


# --- cli-configs ------------------------------------------------------------

_CLI_MAIN = "import sys; from fluxion.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = _read_csv(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                out[key] = value
    return out


EXPECTED_TABLE1 = {
    "X1": ["X1X2", "X1X2X3", "X1X2X3", "X1X2X3"],
    "Z1": ["Z1", "Z1", "Z2", "Z1Z2Z3"],
    "X2": ["X2", "X2", "X1X3", "X1X3"],
    "Z2": ["Z1Z2", "Z1Z2", "Z1Z2", "Z1Z2"],
    "X3": ["X3", "X3", "X3", "X1X2"],
    "Z3": ["Z3", "Z1Z3", "Z1Z3", "Z1Z3"],
}


class CliConfigs:
    """The eleven shipped configs, each a cold `fluxion` process."""

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.check_rng = np.random.default_rng([seed, 5])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def warm_up(self) -> None:
        pass

    def run_pass(self, rec) -> dict:
        traced = rec.run_id is not None
        out = {}
        for name in EXPERIMENT_NAMES:
            out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.scratch))
            args = [name, "--config", str(self.root / "configs" / f"{name}.ini"), "--seed", str(self.seed),
                    "--out", str(out_dir), "--threads", "1"]
            spans_path = out_dir.with_suffix(".spans.json")
            if traced:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
            else:
                cmd = [sys.executable, "-c", _CLI_MAIN, *args]
            try:
                proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
                returncode, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                returncode, stderr = -1, "timed out"
            if traced and spans_path.exists():
                record = json.loads(spans_path.read_text())
                rec.merge(record["spans"], record["counts"], rec.run_id)
                spans_path.unlink()
            out[name] = (returncode, out_dir, stderr)
        return out

    @staticmethod
    def digest(out: dict) -> str:
        h = hashlib.sha256()
        for name, (returncode, out_dir, _) in sorted(out.items()):
            h.update(f"{name}:{returncode}".encode())
            for path in sorted(out_dir.iterdir()):
                if path.suffix != ".meta":
                    h.update(path.name.encode())
                    h.update(path.read_bytes())
        return h.hexdigest()

    def discard(self, out: dict) -> None:
        for _, out_dir, _ in out.values():
            shutil.rmtree(out_dir, ignore_errors=True)

    def check(self, out: dict, gate: Gate) -> None:
        for name in EXPERIMENT_NAMES:
            returncode, out_dir, stderr = out[name]
            if not gate.check(f"{name}.exit", returncode == 0, stderr.strip()[-200:]):
                continue
            try:
                getattr(self, "_check_" + name.replace("-", "_"))(out_dir, gate)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                gate.check(f"{name}.readable", False, repr(exc))

    def _check_table1(self, d: Path, gate: Gate) -> None:
        _, rows = _read_csv(d / "table1.csv")
        gate.check("table1.cells", {r[0]: r[1:] for r in rows} == EXPECTED_TABLE1)

    def _check_uqcm_circuit(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "uqcm-circuit.csv")
        last = col["step"] == 4
        letters = [f"I_{r}{c}" for r in "XYZ" for c in "XYZI"]
        diag = np.array([col[f"I_{x}{x}"][last] for x in "XYZ"])
        off = np.array([col[k][last] for k in letters if k[2] != k[3]])
        gate.close("uqcm-circuit.diagonal", diag, 2 / 3, 1e-12)
        gate.close("uqcm-circuit.off_diagonal", off, 0.0, 1e-12)
        gate.close("uqcm-circuit.fidelity", col["fidelity_z_input"][last], 5 / 6, 1e-10)

    def _check_uqcm_prep_opt(self, d: Path, gate: Gate) -> None:
        kv = _key_values(d / "uqcm-prep-opt.txt")
        amps = [float(kv[f"amplitude_{b}"]) for b in ("00", "01", "10", "11")]
        target = [np.sqrt(2 / 3), 1 / np.sqrt(6), 1 / np.sqrt(6), 0.0]
        gate.close("uqcm-prep-opt.amplitudes", amps, target, 1e-6)
        gate.close("uqcm-prep-opt.flux", float(kv["flux"]), 2 / 3, 1e-6)
        gate.check("uqcm-prep-opt.feasible", float(kv["constraint_residual"]) < 1e-9)

    def _check_uqcm_chain(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "uqcm-chain.csv")
        law = (2 / 3) * np.sin(np.sqrt(3) * col["Jt"]) ** 2
        gate.check("uqcm-chain.rows", col["Jt"].size == 92)
        for key in ("I_XX", "I_YY", "I_ZZ"):
            gate.close(f"uqcm-chain.{key}", col[key], law, 1e-9)
        gate.close("uqcm-chain.fidelity", col["fidelity"], 0.5 + law / 2, 1e-9)

    def _check_universality_scan(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "universality-scan.csv")
        dev = dict(zip(col["lambda"], col["anisotropy_deviation"]))
        gate.check("universality-scan.isotropic", dev[2.0] < 1e-9)
        gate.check("universality-scan.anisotropic", all(dev[lam] > 1e-2 for lam in (0.0, 1.0, 3.0)))

    def _check_transfer_single(self, d: Path, gate: Gate) -> None:
        kv = {k: float(v) for k, v in _key_values(d / "transfer-single.txt").items()}
        f = complex(oracles.chain_amplitude(oracles.uniform_eta_couplings(101, 0.5), 55.10)[0])
        gate.close("transfer-single.f", [kv["f_real"], kv["f_imag"]], [f.real, f.imag], 1e-9)
        gate.close("transfer-single.abs_f", kv["abs_f"], abs(f), 1e-9)
        p = abs(f) ** 2
        gate.close("transfer-single.fluxes", [kv["I_XX"], kv["I_YX"], kv["I_ZZ"], kv["offset_Z"]],
                   [f.real, f.imag, p, 1 - p], 1e-9)
        gate.close("transfer-single.fidelity", kv["worst_case_fidelity"], p, 1e-9)

    def _check_transfer_sweep(self, d: Path, gate: Gate) -> None:
        data = np.loadtxt(d / "transfer-sweep.csv", delimiter=",", skiprows=1)
        meta = _key_values(d / "transfer-sweep.csv.meta")
        gate.check("transfer-sweep.rows", data.shape == (91 * 1201, 4))
        top = data[data[:, 3] == 1]
        gate.check("transfer-sweep.one_argmax", top.shape[0] == 1)
        eta, jt, flux = top[0, :3]
        gate.close("transfer-sweep.argmax", [eta, jt], [0.50, 55.10], 1e-9)
        gate.close("transfer-sweep.meta", [float(meta["eta_max"]), float(meta["Jt_max"]), float(meta["flux_max"])],
                   [eta, jt, flux], 0.0)
        chain, *_ = _modules()
        gate.check("transfer-sweep.argmax_is_max", data[:, 2].max() <= flux + chain.TIE_TOL)
        picks = list(self.check_rng.integers(0, data.shape[0], 8)) + [int(np.flatnonzero(data[:, 3] == 1)[0])]
        worst = 0.0
        for i in picks:
            f = oracles.chain_amplitude(oracles.uniform_eta_couplings(101, data[i, 0]), data[i, 1])[0]
            worst = max(worst, abs(abs(f) - data[i, 2]))
        gate.close("transfer-sweep.surface_vs_dense", worst, 0.0, 1e-9)

    def _check_transfer_disorder(self, d: Path, gate: Gate) -> None:
        surface = _columns(d / "transfer-disorder.csv")
        trials = _columns(d / "transfer-disorder-trials.csv")
        meta = _key_values(d / "transfer-disorder.csv.meta")
        grid = np.round(np.arange(0.0, 60.0 + 1e-9, 0.05), 10)
        gate.check("transfer-disorder.rows", surface["Jt"].size == grid.size and trials["trial"].size == 200)
        gate.close("transfer-disorder.mean_max", float(meta["mean_max_flux"]), trials["max_flux"].mean(), 1e-12)
        base = oracles.uniform_eta_couplings(101, 0.5)
        couplings = [base + np.random.default_rng([self.seed, k]).normal(0.0, 0.05 * base) for k in range(200)]
        negative = [int(any(c < 0)) for c in couplings]
        gate.check("transfer-disorder.negative", list(trials["negative_coupling"].astype(int)) == negative)
        for k in self.check_rng.integers(0, 200, 3):
            f = np.abs(oracles.chain_amplitude(couplings[k], grid))
            gate.close(f"transfer-disorder.trial{k}.max", trials["max_flux"][k], f.max(), 1e-9)
            at = int(np.argmin(np.abs(grid - trials["argmax_Jt"][k])))
            gate.check(f"transfer-disorder.trial{k}.argmax", f[at] >= f.max() - 1e-9)

    def _check_perfect_transfer(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "perfect-transfer.csv")
        gate.check("perfect-transfer.sizes", list(col["n_qubits"]) == [4, 7, 32, 101])
        gate.close("perfect-transfer.unit", col["abs_f_at_star"], 1.0, 1e-9)

    def _check_series_check(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "series-check.csv")
        meta = _key_values(d / "series-check.csv.meta")
        gate.check("series-check.rows", col["site"].size == 5)
        gate.close("series-check.difference", col["series_coefficient"], col["propagator_coefficient"], 1e-8)
        gate.check("series-check.truncation", float(meta["truncation_bound"]) < 1e-10)

    def _check_open_flux(self, d: Path, gate: Gate) -> None:
        col = _columns(d / "open-flux.csv")
        gate.check("open-flux.rows", col["t"].size == 51)
        worst = 0.0
        for k, t in enumerate(col["t"]):
            ref = oracles.single_qubit_laws(0.1, 0.05, 0.0, t)
            got = np.array([[col[f"I_{r}{c}"][k] for c in "XYZI"] for r in "XYZ"])
            worst = max(worst, np.abs(got - ref).max())
        gate.close("open-flux.decay_laws", worst, 0.0, 1e-6)


WORKLOADS = {
    "cli-configs": CliConfigs,
    "chain-transfer": ChainTransfer,
    "dense-tomography": DenseTomography,
    "open-tomography": OpenTomography,
}
