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
    columns: dict[str, np.ndarray]  # header -> 1-D column, all of one length
    extra: dict[str, str] = field(default_factory=dict)

    @property
    def rows(self) -> list[tuple]:
        """The table as row tuples, read only by perfbench/tracing.py."""
        return list(zip(*self.columns.values()))


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


def _chebyshev_sizes(experiment: str, p: dict, points: float, batch: float) -> dict[str, float]:
    """The chain engine's Bessel table, moments and recurrence for the run's longest clean profile.

    K comes from `chain.chebyshev_order`, the rule the engine applies, at the largest alpha of
    the clean profiles (before disorder) and the largest time; `batch` profiles share it.  Each
    profile makes (K + 1) x n_qubits site updates, at least n_qubits, so a longer chain than the
    limit is reported without building its profile; K exceeds alpha t, which stands in for K
    past the exact float integers.
    """
    updates = "the moment recurrence's site updates per profile ((K + 1) x n_qubits)"
    perfect = experiment == "perfect-transfer"
    # the longest engineered chain has the largest alpha
    n, t = (max(p["n_list"]), np.pi) if perfect else (p["n_qubits"], p.get("Jt", p.get("t_max")))
    if n > MAX_ARRAY_ELEMENTS:
        return {updates: _count(n)}
    if perfect:
        profiles = [chain.CouplingProfile.perfect(n, 1.0)]
    else:
        etas = [p[key] for key in ("eta", "eta_min", "eta_max") if key in p]
        profiles = [chain.CouplingProfile.uniform_eta(n, 1.0, eta) for eta in etas]
    x = max(chain.row_sum_bound(profile.couplings) for profile in profiles) * t
    order = chain.chebyshev_order(x) if x < 2**52 else x
    # the end-to-end amplitude keeps the orders of site 1's parity from N - 1 on, for each profile
    # of the batch; series-check reads every site of its one profile at every order
    series = experiment == "series-check"
    kept = order + 1 if series else max(0, (order - n + 1) // 2 + 1)
    return {
        "the Bessel table (kept orders x t points)": kept * points,
        "the moments (kept orders x profiles x sites read)": kept * (_count(n) if series else batch),
        updates: (order + 1) * _count(n),
    }


def _array_sizes(experiment: str, p: dict) -> dict[str, float]:
    """Element counts of the largest arrays a valid config would allocate."""
    grids = {prefix: _grid_points(p, prefix) for prefix in ("t", "eta") if f"{prefix}_min" in p}
    sizes = {f"the {prefix} grid": points for prefix, points in grids.items()}
    batch = 1.0  # profiles that share one Chebyshev run
    if experiment == "transfer-sweep":
        sizes["the sweep surface (eta points x t points)"] = grids["eta"] * grids["t"]
        sizes["the sweep's recurrence vectors (eta points x n_qubits)"] = grids["eta"] * _count(p["n_qubits"])
        batch = grids["eta"]
    if experiment == "transfer-disorder":
        sizes["the disorder surface (trials x t points)"] = _count(p["trials"]) * grids["t"]
        sizes["the ensemble's recurrence vectors (trials x n_qubits)"] = _count(p["trials"] * p["n_qubits"])
        batch = _count(p["trials"])
    if experiment == "series-check":
        # not an array: a bound on the recurrence's site updates, held to the same limit
        steps = (p["truncation_order"] + 3) * p["n_qubits"]
        sizes["the series recurrence steps ((truncation_order + 3) x n_qubits)"] = _count(steps)
        # decimal digits held by the recurrence: n_qubits + 2 sites at chain.series_flux's precision
        digits = chain.series_digits(max(1.0, abs(p["eta"])), p["Jt"])
        sizes["the series working digits ((n_qubits + 2) x digits)"] = _count(p["n_qubits"] + 2) * digits
    if experiment in ("transfer-single", "transfer-sweep", "transfer-disorder", "perfect-transfer", "series-check"):
        sizes.update(_chebyshev_sizes(experiment, p, grids.get("t", 1.0), batch))
    return sizes


def _flux_columns(fluxes) -> dict[str, np.ndarray]:
    """The FLUX_COLUMNS of a list of FluxMatrix, one row per matrix, from one stack of their entries."""
    return dict(zip(FLUX_COLUMNS, np.array([fm.entries for fm in fluxes]).reshape(-1, 12).T))


def _pole_fidelities(fluxes) -> np.ndarray:
    """`cloning_fidelity` of the input |0> (Bloch pole z) through each FluxMatrix."""
    pole = BlochVector(0.0, 0.0, 1.0)
    return np.array([cloning_fidelity(fm, pole) for fm in fluxes])


def run_table1(params, seed):
    cells = clifford.table1()
    keys = [(letter, qubit) for qubit in (1, 2, 3) for letter in ("X", "Z")]
    labels = np.array([[s.label() for s in cells[key]] for key in keys])
    operators = np.array([f"{letter}{qubit}" for letter, qubit in keys])
    return [TableOutput("table1", {"operator": operators, **dict(zip(("t1", "t2", "t3", "t4"), labels.T))})]


def run_uqcm_circuit(params, seed):
    stage = clifford.copying_stage()
    register = uqcm_preparation_state()
    steps, targets = (a.ravel() for a in np.meshgrid(np.arange(1, 5), (2, 3), indexing="ij"))
    pairs = zip(steps.tolist(), targets.tolist())
    fluxes = [clifford.flux_matrix(stage.prefix(step), register, 1, target, f"t{step}") for step, target in pairs]
    columns = {"step": steps, "target": targets, **_flux_columns(fluxes)}
    columns["fidelity_z_input"] = _pole_fidelities(fluxes)
    return [TableOutput("uqcm-circuit", columns)]


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
    t_grid = _grid(params, "t")
    trajectory = dense.flux_trajectory(h, t_grid, 2, psi_plus_state(), 1)
    flux = _flux_columns(trajectory)
    columns = {"Jt": t_grid, **{k: flux[k] for k in ("I_XX", "I_YY", "I_ZZ")}}
    columns["fidelity"] = _pole_fidelities(trajectory)
    return [TableOutput("uqcm-chain", columns, _eigensolve_extra([h]))]


def run_universality_scan(params, seed):
    t_grid = _grid(params, "t")
    lams = np.array(params["lambdas"])
    chains = [dense.SpinHamiltonian.heisenberg_chain(3, 1.0, lam) for lam in lams.tolist()]
    deviations = np.array([dense.anisotropy_deviation(h, t_grid) for h in chains])
    columns = {"lambda": lams, "anisotropy_deviation": deviations}
    return [TableOutput("universality-scan", columns, _eigensolve_extra(chains))]


def _chebyshev_order(profile: chain.CouplingProfile, t: float) -> int:
    """The series order the chain engine takes for one profile at one time."""
    return chain.chebyshev_order(chain.row_sum_bound(profile.couplings) * abs(t))


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
    extra = {
        "cost.chebyshev_order": str(_chebyshev_order(profile, params["Jt"])),
        "health.max_abs_f": f"{abs(f):.15g}",
    }
    return [SummaryOutput("transfer-single", items, extra)]


def run_transfer_sweep(params, seed):
    sweep = chain.eta_sweep(params["n_qubits"], _grid(params, "eta"), _grid(params, "t"))
    eta, jt = np.meshgrid(sweep.eta_grid, sweep.t_grid, indexing="ij")
    is_argmax = (eta == sweep.eta_max) & (jt == sweep.t_max)
    columns = {"eta": eta.ravel(), "Jt": jt.ravel(), "abs_f": sweep.surface.ravel()}
    columns["is_argmax"] = is_argmax.ravel()
    extra = {
        "eta_max": f"{sweep.eta_max:.15g}",
        "Jt_max": f"{sweep.t_max:.15g}",
        "flux_max": f"{sweep.flux_max:.15g}",
        "worst_case_fidelity": f"{sweep.flux_max ** 2:.15g}",
        "health.argmax_ties": f"{sweep.argmax_ties:d}",
        "health.max_abs_f": f"{sweep.surface.max():.15g}",
        "cost.chebyshev_order": f"{sweep.chebyshev_order:d}",
    }
    return [TableOutput("transfer-sweep", columns, extra)]


def run_transfer_disorder(params, seed):
    spec = chain.DisorderSpec(params["sigma"], params["trials"], seed)
    result = chain.disorder_ensemble(params["n_qubits"], params["eta"], spec, _grid(params, "t"))
    surface = {"Jt": result.t_grid, "mean_flux": result.mean_flux, "std_flux": result.std_flux}
    trial = np.arange(spec.trials)
    trials = {
        "trial": trial,
        "max_flux": result.max_fluxes,
        "argmax_Jt": result.argmax_times,
        "negative_coupling": np.isin(trial, result.negative_coupling_trials),
    }
    extra = {
        "mean_max_flux": f"{result.max_fluxes.mean():.15g}",
        "median_argmax_Jt": f"{np.median(result.argmax_times):.15g}",
        "negative_coupling_trials": str(len(result.negative_coupling_trials)),
        "health.max_abs_f": f"{result.max_fluxes.max():.15g}",
        "cost.chebyshev_order": f"{result.chebyshev_order:d}",
    }
    return [TableOutput("transfer-disorder", surface, extra), TableOutput("transfer-disorder-trials", trials)]


def run_perfect_transfer(params, seed):
    n_list = np.array(params["n_list"])
    profiles = [chain.CouplingProfile.perfect(n, 1.0) for n in n_list.tolist()]
    abs_f = np.abs([chain.transfer_amplitude(profile, np.pi) for profile in profiles])
    extra = {
        "cost.chebyshev_order": str(max(_chebyshev_order(profile, np.pi) for profile in profiles)),
        "health.max_abs_f": f"{abs_f.max():.15g}",
    }
    return [TableOutput("perfect-transfer", {"n_qubits": n_list, "abs_f_at_star": abs_f}, extra)]


def run_series_check(params, seed):
    profile = chain.CouplingProfile.uniform_eta(params["n_qubits"], 1.0, params["eta"])
    jt = params["Jt"]
    series = chain.series_flux(profile, jt, params["truncation_order"])
    prop = chain.propagator_coefficients(profile, jt)
    columns = {
        "site": np.arange(1, params["n_qubits"] + 1),
        "series_coefficient": series.coefficients,
        "propagator_coefficient": prop,
        "abs_difference": np.abs(series.coefficients - prop),
    }
    extra = {
        "truncation_bound": f"{series.truncation_bound:.15g}",
        "terms_used": str(series.terms_used),
    }
    return [TableOutput("series-check", columns, extra)]


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
    t_grid = _grid(params, "t")
    fluxes = lindblad.open_flux_trajectory(
        spec, t_grid, params["input_qubit"], register, params["target_qubit"]
    )
    extra = {"time_units": "absolute t; damping, dephasing, and J are rates per unit t"}
    return [TableOutput("open-flux", {"t": t_grid, **_flux_columns(fluxes)}, extra)]


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
