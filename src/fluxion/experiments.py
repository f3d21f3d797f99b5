"""Experiment implementations behind the command-line driver.

Each experiment consumes a typed parameter dict (already validated) and a
seed, and returns tabular and/or scalar outputs for the driver to
serialize.  Times in chain experiments are dimensionless Jt; open-system
times are in the units set by the configured rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chain, clifford, dense, lindblad
from .flux import cloning_fidelity
from .states import BlochVector, RegisterState, psi_plus_state, uqcm_preparation_state

MAX_ARRAY_ELEMENTS = 2 * 10**7  # largest array a config may ask for (320 MB of complex)

FLUX_COLUMNS = tuple(
    f"I_{row}{col}" for row in "XYZ" for col in "XYZI"
)


@dataclass
class TableOutput:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    extra: dict[str, str] = field(default_factory=dict)


@dataclass
class SummaryOutput:
    name: str
    items: dict[str, object]
    extra: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ParamSpec:
    kind: str  # int | float | choice | int-list | float-list
    default: object
    minimum: float | None = None
    choices: tuple[str, ...] | None = None


def _grid(params: dict, prefix: str) -> np.ndarray:
    lo = params[f"{prefix}_min"]
    hi = params[f"{prefix}_max"]
    step = params[f"{prefix}_step"]
    return np.round(np.arange(lo, hi + 1e-9, step), 10)


def _grid_points(params: dict, prefix: str) -> float:
    """Length of `_grid(params, prefix)` without building it (inf if huge)."""
    span = params[f"{prefix}_max"] + 1e-9 - params[f"{prefix}_min"]
    return float(np.ceil(span / params[f"{prefix}_step"]))


def _count(value: int) -> float:
    """An exact integer count as a float; counts of 2^1023 or more read as inf."""
    return float(value) if value < 2**1023 else float("inf")


def _array_sizes(experiment: str, p: dict) -> dict[str, float]:
    """Element counts of the largest arrays a valid config would allocate."""
    grids = {prefix: _grid_points(p, prefix) for prefix in ("t", "eta") if f"{prefix}_min" in p}
    sizes = {f"the {prefix} grid": points for prefix, points in grids.items()}
    if experiment == "perfect-transfer":
        sizes["the chain eigenvectors (n^2)"] = _count(max(p["n_list"], default=0) ** 2)
    elif experiment in ("transfer-single", "transfer-sweep", "transfer-disorder", "series-check"):
        sizes["the chain eigenvectors (n_qubits^2)"] = _count(p["n_qubits"] ** 2)
    if experiment in ("transfer-sweep", "transfer-disorder"):
        sizes["the mode sums (t points x n_qubits)"] = grids["t"] * _count(p["n_qubits"])
    if experiment == "transfer-sweep":
        sizes["the sweep surface (eta points x t points)"] = grids["eta"] * grids["t"]
    if experiment == "transfer-disorder":
        sizes["the disorder surface (trials x t points)"] = _count(p["trials"]) * grids["t"]
    if experiment == "series-check":
        # not an array: a bound on the recurrence's site updates, held to the same limit
        steps = (p["truncation_order"] + 3) * p["n_qubits"]
        sizes["the series recurrence steps ((truncation_order + 3) x n_qubits)"] = _count(steps)
        # decimal digits held by the recurrence: n_qubits + 2 sites at chain.series_flux's precision
        digits = chain.series_digits(max(1.0, abs(p["eta"])), p["Jt"])
        sizes["the series working digits ((n_qubits + 2) x digits)"] = _count(p["n_qubits"] + 2) * digits
    return sizes


def _flux_row(fm) -> tuple:
    return tuple(float(v) for v in fm.entries.ravel())


def run_table1(params, seed):
    cells = clifford.table1()
    rows = []
    for qubit in (1, 2, 3):
        for letter in ("X", "Z"):
            labels = [s.label() for s in cells[(letter, qubit)]]
            rows.append((f"{letter}{qubit}", *labels))
    return [TableOutput("table1", ("operator", "t1", "t2", "t3", "t4"), rows)]


def run_uqcm_circuit(params, seed):
    stage = clifford.copying_stage()
    register = uqcm_preparation_state()
    pole = BlochVector(0.0, 0.0, 1.0)
    rows = []
    for step in range(1, 5):
        circuit = stage.prefix(step)
        for target in (2, 3):
            fm = clifford.flux_matrix(circuit, register, 1, target, f"t{step}")
            rows.append((step, target, *_flux_row(fm), cloning_fidelity(fm, pole)))
    cols = ("step", "target", *FLUX_COLUMNS, "fidelity_z_input")
    return [TableOutput("uqcm-circuit", cols, rows)]


def run_uqcm_prep_opt(params, seed):
    result = clifford.optimize_preparation(params["constraint"])
    amps = result.amplitudes
    items = {
        "constraint": params["constraint"],
        "amplitude_00": float(amps[0]),
        "amplitude_01": float(amps[1]),
        "amplitude_10": float(amps[2]),
        "amplitude_11": float(amps[3]),
        "flux": result.flux,
        "constraint_residual": result.constraint_residual,
    }
    extra = {"health.spectral_gap": f"{result.spectral_gap:.15g}"}
    return [SummaryOutput("uqcm-prep-opt", items, extra)]


def _eigensolve_extra(hamiltonians) -> dict[str, str]:
    """Sector eigh calls and the largest block diagonalized, read off the sectors each Hamiltonian solved."""
    sizes = [idx.size for h in hamiltonians for idx, _, _ in h._eig.values()]
    return {"cost.eigensolves": str(len(sizes)), "health.largest_block": str(max(sizes))}


def run_uqcm_chain(params, seed):
    h = dense.SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    pole = BlochVector(0.0, 0.0, 1.0)
    trajectory = dense.flux_trajectory(h, _grid(params, "t"), 2, psi_plus_state(), 1)
    rows = [(fm.time_label, *fm.diagonal(), cloning_fidelity(fm, pole)) for fm in trajectory]
    return [TableOutput("uqcm-chain", ("Jt", "I_XX", "I_YY", "I_ZZ", "fidelity"), rows, _eigensolve_extra([h]))]


def run_universality_scan(params, seed):
    t_grid = _grid(params, "t")
    chains = {lam: dense.SpinHamiltonian.heisenberg_chain(3, 1.0, lam) for lam in params["lambdas"]}
    rows = [(lam, dense.anisotropy_deviation(h, t_grid)) for lam, h in chains.items()]
    cols = ("lambda", "anisotropy_deviation")
    return [TableOutput("universality-scan", cols, rows, _eigensolve_extra(chains.values()))]


def run_transfer_single(params, seed):
    profile = chain.CouplingProfile.uniform_eta(params["n_qubits"], 1.0, params["eta"])
    result = chain.transfer(profile, params["Jt"])
    f = result.amplitude
    items = {
        "n_qubits": params["n_qubits"],
        "eta": params["eta"],
        "Jt": params["Jt"],
        "f_real": f.real,
        "f_imag": f.imag,
        "abs_f": abs(f),
        "I_XX": result.flux.entry("X", "X"),
        "I_YX": result.flux.entry("Y", "X"),
        "I_ZZ": result.flux.entry("Z", "Z"),
        "offset_Z": result.flux.entry("Z", "I"),
        "worst_case_fidelity": result.worst_case_fidelity,
    }
    return [SummaryOutput("transfer-single", items)]


def run_transfer_sweep(params, seed):
    sweep = chain.eta_sweep(params["n_qubits"], _grid(params, "eta"), _grid(params, "t"))
    rows = []
    for i, eta in enumerate(sweep.eta_grid):
        for k, jt in enumerate(sweep.t_grid):
            is_max = int(eta == sweep.eta_max and jt == sweep.t_max)
            rows.append((float(eta), float(jt), float(sweep.surface[i, k]), is_max))
    extra = {
        "eta_max": f"{sweep.eta_max:.15g}",
        "Jt_max": f"{sweep.t_max:.15g}",
        "flux_max": f"{sweep.flux_max:.15g}",
        "worst_case_fidelity": f"{sweep.flux_max ** 2:.15g}",
        "health.argmax_ties": f"{sweep.argmax_ties:d}",
        "health.max_abs_f": f"{sweep.surface.max():.15g}",
    }
    return [TableOutput("transfer-sweep", ("eta", "Jt", "abs_f", "is_argmax"), rows, extra)]


def run_transfer_disorder(params, seed):
    spec = chain.DisorderSpec(params["sigma"], params["trials"], seed)
    result = chain.disorder_ensemble(params["n_qubits"], params["eta"], spec, _grid(params, "t"))
    surface_rows = [
        (float(t), float(m), float(s))
        for t, m, s in zip(result.t_grid, result.mean_flux, result.std_flux)
    ]
    negative = set(result.negative_coupling_trials)
    trial_rows = [
        (k, float(result.max_fluxes[k]), float(result.argmax_times[k]), int(k in negative))
        for k in range(spec.trials)
    ]
    extra = {
        "mean_max_flux": f"{result.max_fluxes.mean():.15g}",
        "median_argmax_Jt": f"{np.median(result.argmax_times):.15g}",
        "negative_coupling_trials": str(len(negative)),
        "health.max_abs_f": f"{result.max_fluxes.max():.15g}",
    }
    return [
        TableOutput("transfer-disorder", ("Jt", "mean_flux", "std_flux"), surface_rows, extra),
        TableOutput(
            "transfer-disorder-trials",
            ("trial", "max_flux", "argmax_Jt", "negative_coupling"),
            trial_rows,
        ),
    ]


def run_perfect_transfer(params, seed):
    rows = []
    for n in params["n_list"]:
        f = chain.transfer_amplitude(chain.CouplingProfile.perfect(n, 1.0), np.pi)
        rows.append((n, abs(f)))
    return [TableOutput("perfect-transfer", ("n_qubits", "abs_f_at_star"), rows)]


def run_series_check(params, seed):
    profile = chain.CouplingProfile.uniform_eta(params["n_qubits"], 1.0, params["eta"])
    jt = params["Jt"]
    series = chain.series_flux(profile, jt, params["truncation_order"])
    prop = chain.propagator_coefficients(profile, jt)
    rows = [
        (j + 1, float(series.coefficients[j]), float(prop[j]), float(abs(series.coefficients[j] - prop[j])))
        for j in range(params["n_qubits"])
    ]
    extra = {
        "truncation_bound": f"{series.truncation_bound:.15g}",
        "terms_used": str(series.terms_used),
    }
    cols = ("site", "series_coefficient", "propagator_coefficient", "abs_difference")
    return [TableOutput("series-check", cols, rows, extra)]


def run_open_flux(params, seed):
    n = params["n_qubits"]
    hamiltonian = None
    if n >= 2 and params["J"] != 0:
        profile = chain.CouplingProfile.uniform_eta(n, params["J"], 1.0)
        hamiltonian = dense.SpinHamiltonian.xy_chain(profile)
    spec = lindblad.LindbladSpec(
        params["damping"], params["dephasing"], params["n_bar"], hamiltonian
    )
    register = RegisterState.computational(n - 1, 0)
    fluxes = lindblad.open_flux_trajectory(
        spec, _grid(params, "t"), params["input_qubit"], register, params["target_qubit"]
    )
    rows = [(fm.time_label, *_flux_row(fm)) for fm in fluxes]
    extra = {"time_units": "absolute t; damping, dephasing, and J are rates per unit t"}
    return [TableOutput("open-flux", ("t", *FLUX_COLUMNS), rows, extra)]


EXPERIMENTS = {
    "table1": run_table1,
    "uqcm-circuit": run_uqcm_circuit,
    "uqcm-prep-opt": run_uqcm_prep_opt,
    "uqcm-chain": run_uqcm_chain,
    "universality-scan": run_universality_scan,
    "transfer-single": run_transfer_single,
    "transfer-sweep": run_transfer_sweep,
    "transfer-disorder": run_transfer_disorder,
    "perfect-transfer": run_perfect_transfer,
    "series-check": run_series_check,
    "open-flux": run_open_flux,
}

PARAM_SPECS: dict[str, dict[str, ParamSpec]] = {
    "table1": {},
    "uqcm-circuit": {},
    "uqcm-prep-opt": {
        "constraint": ParamSpec(
            "choice", "symmetric-universal", choices=("symmetric-universal", "fully-biased")
        ),
    },
    "uqcm-chain": {
        "t_min": ParamSpec("float", 0.0, minimum=0.0),
        "t_max": ParamSpec("float", 1.82, minimum=0.0),
        "t_step": ParamSpec("float", 0.02),
    },
    "universality-scan": {
        "lambdas": ParamSpec("float-list", (0.0, 1.0, 2.0, 3.0)),
        "t_min": ParamSpec("float", 0.0, minimum=0.0),
        "t_max": ParamSpec("float", 1.82, minimum=0.0),
        "t_step": ParamSpec("float", 0.01),
    },
    "transfer-single": {
        "n_qubits": ParamSpec("int", 3, minimum=2),
        "eta": ParamSpec("float", 1.0),
        "Jt": ParamSpec("float", 0.0, minimum=0.0),
    },
    "transfer-sweep": {
        "n_qubits": ParamSpec("int", 101, minimum=2),
        "eta_min": ParamSpec("float", 0.10),
        "eta_max": ParamSpec("float", 1.0),
        "eta_step": ParamSpec("float", 0.01),
        "t_min": ParamSpec("float", 0.0, minimum=0.0),
        "t_max": ParamSpec("float", 60.0, minimum=0.0),
        "t_step": ParamSpec("float", 0.05),
    },
    "transfer-disorder": {
        "n_qubits": ParamSpec("int", 101, minimum=2),
        "eta": ParamSpec("float", 0.5),
        "sigma": ParamSpec("float", 0.05, minimum=0.0),
        "trials": ParamSpec("int", 200, minimum=1),
        "t_min": ParamSpec("float", 0.0, minimum=0.0),
        "t_max": ParamSpec("float", 60.0, minimum=0.0),
        "t_step": ParamSpec("float", 0.05),
    },
    "perfect-transfer": {
        "n_list": ParamSpec("int-list", (4, 7, 32, 101), minimum=2),
    },
    "series-check": {
        "n_qubits": ParamSpec("int", 5, minimum=2),
        "eta": ParamSpec("float", 1.0),
        "Jt": ParamSpec("float", 2.0, minimum=0.0),
        "truncation_order": ParamSpec("int", 60, minimum=1),
    },
    "open-flux": {
        "n_qubits": ParamSpec("int", 1, minimum=1),
        "damping": ParamSpec("float", 0.1, minimum=0.0),
        "dephasing": ParamSpec("float", 0.05, minimum=0.0),
        "n_bar": ParamSpec("float", 0.0, minimum=0.0),
        "J": ParamSpec("float", 0.0),
        "input_qubit": ParamSpec("int", 1, minimum=1),
        "target_qubit": ParamSpec("int", 1, minimum=1),
        "t_min": ParamSpec("float", 0.0, minimum=0.0),
        "t_max": ParamSpec("float", 5.0, minimum=0.0),
        "t_step": ParamSpec("float", 0.1),
    },
}


def cross_checks(experiment: str, p: dict) -> list[str]:
    """Inter-parameter preconditions; returns diagnostics, empty if fine."""
    out = []
    for prefix in ("t", "eta"):
        if f"{prefix}_min" in p:
            if p[f"{prefix}_step"] <= 0:
                out.append(f"{prefix}_step must be positive")
            if p[f"{prefix}_max"] < p[f"{prefix}_min"]:
                out.append(f"{prefix}_max must be >= {prefix}_min")
    if not out:
        sizes = _array_sizes(experiment, p)
        largest = max(sizes, key=sizes.get, default=None)
        if largest is not None and not sizes[largest] <= MAX_ARRAY_ELEMENTS:
            out.append(
                f"{largest} would have {sizes[largest]:.3g} elements, more than {MAX_ARRAY_ELEMENTS:.0e}"
            )
    if experiment == "open-flux":
        if p["n_qubits"] > lindblad.OPEN_QUBIT_CAP:
            out.append(
                f"n_qubits={p['n_qubits']} exceeds the open-evolution cap of {lindblad.OPEN_QUBIT_CAP}"
            )
        for key in ("input_qubit", "target_qubit"):
            if p[key] > p["n_qubits"]:
                out.append(f"{key}={p[key]} is outside 1..{p['n_qubits']}")
    if experiment == "universality-scan" and len(set(p["lambdas"])) < len(p["lambdas"]):
        # one output row per anisotropy: a repeated value would be silently merged
        out.append(f"lambdas must not repeat a value, got {', '.join(map(str, p['lambdas']))}")
    if experiment == "series-check" and p["truncation_order"] < p["n_qubits"] - 1:
        out.append(
            f"truncation_order={p['truncation_order']} cannot reach site {p['n_qubits']}"
        )
    if experiment in ("transfer-single", "transfer-sweep", "transfer-disorder"):
        for key in ("eta", "eta_min"):
            if key in p and p[key] <= 0:
                out.append(f"{key} must be positive")
    return out
