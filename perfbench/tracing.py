"""Benchmark-side span recorder and the wrappers that feed it.

The library is not edited: `Installed(rec)` replaces the module bindings of
the public functions of each `fluxion` module (and the few private entry
points the per-layer metrics name) with wrappers that open a span around the
call, and its `uninstall` puts the originals back.  Engines import names directly
(`from .flux import solve_affine`), so every module binding that refers to
the same function object is replaced, as are the `EXPERIMENTS` entries.

A span records name, start, end, parent and the id of the workload pass it
belongs to.  Spans stay in memory; the benchmark writes them out when the
run ends.  Wrappers record nothing while no pass is active.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

LAYERS = ("cli", "experiments", "clifford", "pauli", "states", "flux", "dense", "chain", "lindblad")

# Config names, in the order the cli-configs workload runs them.
EXPERIMENT_NAMES = (
    "table1",
    "uqcm-circuit",
    "uqcm-prep-opt",
    "uqcm-chain",
    "universality-scan",
    "transfer-single",
    "transfer-sweep",
    "transfer-disorder",
    "perfect-transfer",
    "series-check",
    "open-flux",
)


class Recorder:
    """In-memory spans and counters for the passes of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.run_id is not None:
            self.counts[self.run_id][name] += amount

    def merge(self, spans: list[list], counts: dict[str, float], run_id: str) -> None:
        """Adds spans and counters recorded by a child process to pass run_id."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, run_id])
        for name, amount in counts.items():
            self.counts[run_id][name] += amount

    def self_times(self) -> dict[str, dict[str, list[float]]]:
        """Per pass: span name -> [self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            entry = out[run_id][name]
            entry[0] += (end - start) - child[i]
            entry[1] += 1
        return out


def _spanned(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.run_id is None:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.run_id is not None:
            rec.counts[rec.run_id][name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _eigensystem(rec: Recorder, fn):
    """Spans SpinHamiltonian._eigensystem only when it diagonalizes."""

    @functools.wraps(fn)
    def wrapper(self):
        if rec.run_id is None or getattr(self, "_eig", None) is not None:
            return fn(self)
        index = rec.open("dense.eigensolve")
        try:
            return fn(self)
        finally:
            rec.close(index)

    return wrapper


def _bytes_written(rec, args, result):
    rec.count("cli.bytes_written", len(args[1].encode()))


def _rows_written(rec, args, outputs):
    for output in outputs:
        rows = getattr(output, "rows", None)
        rec.count("cli.rows_written", len(rows) if rows is not None else len(output.items))
        if output.name == "open-flux" and rows:
            # open-flux integrates every grid time from t = 0
            rec.count("lindblad.grid_span", max(row[0] for row in rows))


def _amplitude_points(rec, args, result):
    profile, t_grid = args[0], args[1]
    rec.count("chain.amplitude_points", len(t_grid) * profile.n_qubits)


def _series_terms(rec, args, result):
    rec.count("chain.series_terms", result.terms_used)


def _integration(rec, args, sol):
    t_span = args[1]
    rec.count("lindblad.rhs_evals", sol.nfev)
    rec.count("lindblad.integrated_t", abs(float(t_span[1]) - float(t_span[0])))


# (module, attribute or Class.method, span name, counter hook)
SPANS = (
    ("cli", "main", "cli.config", None),
    ("cli", "load_config", "cli.config", None),
    ("cli", "resolve", "cli.config", None),
    ("cli", "run", "cli.write", None),
    ("cli", "_atomic_write", "cli.write", _bytes_written),
    ("clifford", "optimize_preparation", "clifford.optimize_preparation", None),
    ("clifford", "flux_matrix", "clifford.flux_matrix", None),
    ("clifford", "conjugate", "clifford.conjugate", None),
    ("clifford", "table1", "clifford.table1", None),
    ("clifford", "flux_from_observable", "clifford.flux_from_observable", None),
    ("pauli", "PauliString.to_matrix", "pauli.to_matrix", None),
    ("pauli", "PauliObservable.to_matrix", "pauli.to_matrix", None),
    ("pauli", "expectation", "pauli.expectation", None),
    ("states", "product_state", "states", None),
    ("states", "insert_qubit", "states", None),
    ("states", "reduced_qubit", "states", None),
    ("states", "bloch_of_qubit", "states", None),
    ("states", "uqcm_preparation_state", "states", None),
    ("states", "psi_plus_state", "states", None),
    ("flux", "solve_affine", "flux.solve_affine", None),
    ("flux", "cloning_fidelity", "flux.cloning_fidelity", None),
    ("dense", "SpinHamiltonian.to_matrix", "dense.hamiltonian", None),
    ("dense", "propagator", "dense.propagator", None),
    ("dense", "evolve", "dense.propagator", None),
    ("dense", "unitary_flux_tomography", "dense.tomography", None),
    ("dense", "flux_tomography", "dense.tomography", None),
    ("dense", "uqcm_chain_fidelity", "dense.tomography", None),
    ("dense", "anisotropy_deviation", "dense.tomography", None),
    ("dense", "universality_scan", "dense.tomography", None),
    ("chain", "eigh_tridiagonal", "chain.eigensolve", None),
    ("chain", "amplitude_curve", "chain.amplitude_curve", _amplitude_points),
    ("chain", "series_flux", "chain.series_flux", _series_terms),
    ("chain", "eta_sweep", "chain.eta_sweep", None),
    ("chain", "disorder_ensemble", "chain.disorder_ensemble", None),
    ("chain", "transfer_amplitude", "chain.transfer", None),
    ("chain", "transfer", "chain.transfer", None),
    ("chain", "propagator_coefficients", "chain.transfer", None),
    ("chain", "flux_components", "chain.transfer", None),
    ("lindblad", "solve_ivp", "lindblad.solve_ivp", _integration),
    ("lindblad", "_generator_pieces", "lindblad.generator", None),
    ("lindblad", "DensityMatrix.__post_init__", "lindblad.density_check", None),
    ("lindblad", "open_flux_tomography", "lindblad.evolve", None),
    ("lindblad", "evolve_density", "lindblad.evolve", None),
    ("lindblad", "expectation_trajectory", "lindblad.evolve", None),
)

# Hot per-column calls: counted, not spanned.
COUNTED = (
    ("pauli", "PauliString.apply", "pauli.apply.calls"),
    ("pauli", "PauliObservable.apply", "pauli.apply.calls"),
)


class Installed:
    """The wrappers of one recorder; `uninstall` restores every binding."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._restore: list[tuple] = []
        self._modules = [importlib.import_module("fluxion")]
        self._modules += [importlib.import_module(f"fluxion.{layer}") for layer in LAYERS]
        for module, attr, name, after in SPANS:
            self._replace(module, attr, lambda fn, n=name, a=after: _spanned(rec, n, fn, a))
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, n=name: _counted(rec, n, fn))
        self._replace("dense", "SpinHamiltonian._eigensystem", lambda fn: _eigensystem(rec, fn))
        experiments = importlib.import_module("fluxion.experiments").EXPERIMENTS
        for key, fn in list(experiments.items()):
            self._restore.append((experiments, key, fn, "item"))
            experiments[key] = _spanned(rec, f"experiments.{key}", fn, _rows_written)

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"fluxion.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original, "attr"))
            setattr(cls, method, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original, "attr"))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original, kind in reversed(self._restore):
            if kind == "item":
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()


# Per-layer metrics: name -> unit.  Values are per pass.
PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_optimize_s": "s",
    "import.mpmath_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.rows_written": "count",
    "experiments.self_s": "s",
    **{f"experiments.{name}_s": "s" for name in EXPERIMENT_NAMES},
    "clifford.optimize_preparation_s": "s",
    "clifford.conjugate.calls": "count",
    "clifford.flux_matrix.calls": "count",
    "pauli.apply.calls": "count",
    "pauli.to_matrix_s": "s",
    "pauli.to_matrix.calls": "count",
    "dense.hamiltonian_s": "s",
    "dense.eigensolves": "count",
    "dense.eigensolve_s": "s",
    "dense.propagator.calls": "count",
    "dense.propagator_s": "s",
    "dense.tomography_s": "s",
    "states.s": "s",
    "flux.solve_affine.calls": "count",
    "flux.solve_affine_s": "s",
    "chain.eigensolves": "count",
    "chain.eigensolve_s": "s",
    "chain.amplitude_curve.calls": "count",
    "chain.amplitude_curve_s": "s",
    "chain.amplitude_points": "count",
    "chain.series_flux_s": "s",
    "chain.series_terms": "count",
    "chain.eta_sweep_s": "s",
    "chain.disorder_ensemble_s": "s",
    "lindblad.solve_ivp.calls": "count",
    "lindblad.solve_ivp_s": "s",
    "lindblad.rhs_evals": "count",
    "lindblad.integrated_t": "time_units",
    "lindblad.useful_t_ratio": "ratio",
    "lindblad.generator_s": "s",
    "lindblad.density_check_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer not in ("experiments", "states")},
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span whose self time (suffix _s) or call count (suffix .calls) it is
_SPAN_OF = {
    "cli.config_s": "cli.config",
    "cli.write_s": "cli.write",
    "clifford.optimize_preparation_s": "clifford.optimize_preparation",
    "clifford.conjugate.calls": "clifford.conjugate",
    "clifford.flux_matrix.calls": "clifford.flux_matrix",
    "pauli.to_matrix_s": "pauli.to_matrix",
    "pauli.to_matrix.calls": "pauli.to_matrix",
    "dense.hamiltonian_s": "dense.hamiltonian",
    "dense.eigensolves": "dense.eigensolve",
    "dense.eigensolve_s": "dense.eigensolve",
    "dense.propagator.calls": "dense.propagator",
    "dense.propagator_s": "dense.propagator",
    "dense.tomography_s": "dense.tomography",
    "flux.solve_affine.calls": "flux.solve_affine",
    "flux.solve_affine_s": "flux.solve_affine",
    "chain.eigensolves": "chain.eigensolve",
    "chain.eigensolve_s": "chain.eigensolve",
    "chain.amplitude_curve.calls": "chain.amplitude_curve",
    "chain.amplitude_curve_s": "chain.amplitude_curve",
    "chain.series_flux_s": "chain.series_flux",
    "chain.eta_sweep_s": "chain.eta_sweep",
    "chain.disorder_ensemble_s": "chain.disorder_ensemble",
    "lindblad.solve_ivp.calls": "lindblad.solve_ivp",
    "lindblad.solve_ivp_s": "lindblad.solve_ivp",
    "lindblad.generator_s": "lindblad.generator",
    "lindblad.density_check_s": "lindblad.density_check",
    **{f"experiments.{name}_s": f"experiments.{name}" for name in EXPERIMENT_NAMES},
}

_COUNTERS = (
    "cli.bytes_written",
    "cli.rows_written",
    "pauli.apply.calls",
    "chain.amplitude_points",
    "chain.series_terms",
    "lindblad.rhs_evals",
    "lindblad.integrated_t",
)


def pass_metrics(spans: dict[str, list[float]], counts: dict[str, float], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span self times and counters."""
    out = {}
    for metric, span in _SPAN_OF.items():
        self_s, calls = spans.get(span, (0.0, 0))
        out[metric] = float(calls) if not metric.endswith("_s") else self_s
    for name in _COUNTERS:
        out[name] = float(counts.get(name, 0))
    integrated = out["lindblad.integrated_t"]
    out["lindblad.useful_t_ratio"] = counts.get("lindblad.grid_span", 0.0) / integrated if integrated else 0.0

    def layer_self(layer: str) -> float:
        return math.fsum(v[0] for k, v in spans.items() if k == layer or k.startswith(layer + "."))

    out["experiments.self_s"] = layer_self("experiments")
    out["states.s"] = layer_self("states")
    for layer in LAYERS:
        if layer not in ("experiments", "states"):
            out[f"{layer}.self_s"] = layer_self(layer)
    out["unattributed_s"] = wall - math.fsum(v[0] for v in spans.values())
    return out
