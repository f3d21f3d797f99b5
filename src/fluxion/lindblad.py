"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing.  Density matrices are integrated directly with
adaptive high-order stepping.  `_generator` builds the generator S once per
spec and qubit count, as one sparse CSR matrix on the row-major vec(rho),
caches it on the spec and returns it; every integration's right-hand side is
the one sparse product S @ y.  Its pieces come from `_generator_pieces`: the
Hamiltonian and, per qubit, the jumps sigma- = (X + iY)/2, sigma+ = (X - iY)/2
if n_bar > 0, and Z, all Pauli-word sums assembled by `pauli._terms_sparse`.  The
dense superoperator it is checked against, `superoperator` in
tests/oracles.py, builds all its pieces independently from 2x2 matrices.
`_partial_trace` is the one partial trace of a density matrix.

Every entry point runs through `_evolve`, which integrates each interval of
an ascending grid of times t >= 0 once.  `open_flux_trajectory` reads the
flux at every grid time from three evolved operator units of the input
qubit, |0><0|, |1><1| and |0><1| (|1><0| is the adjoint of the evolved
|0><1|); the two diagonal units pass the `DensityMatrix` checks at every
time.  `open_flux_tomography` is its one-time case; four-input tomography
(`flux.solve_affine`) is the test oracle.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .dense import SpinHamiltonian
from .flux import FluxMatrix, flux_readout
from .pauli import PauliObservable, PauliString, _terms_sparse, qubit_mask
from .states import RegisterState, input_kets

OPEN_QUBIT_CAP = 8
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
RTOL = 1e-10
ATOL = 1e-12

@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        dim = 1 << self.n_qubits
        if arr.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix")
        trace = np.trace(arr)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise ValueError(f"trace {trace} is not 1")
        if not (np.abs(arr - arr.conj().T).max() <= HERMITICITY_TOL):
            raise ValueError("matrix is not Hermitian")
        if not (np.linalg.eigvalsh(arr).min() >= -POSITIVITY_TOL):
            raise ValueError("matrix has a significantly negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_state(cls, state: RegisterState) -> "DensityMatrix":
        v = state.amplitudes
        return cls(state.n_qubits, np.outer(v, v.conj()))


def _partial_trace(entries: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """2x2 block of one qubit of an n-qubit operator, every other qubit traced out."""
    after = qubit_mask(n, qubit)  # raises unless 1 <= qubit <= n
    before = 1 << (qubit - 1)
    r = entries.reshape(before, 2, after, before, 2, after)
    return np.einsum("aibajb->ij", r)


@dataclass(frozen=True)
class LindbladSpec:
    """Per-qubit rates; damping relaxes toward the ground state.

    Dephasing enters through a sigma_z jump at rate dephasing_rate, giving
    coherences an extra decay of twice that rate on top of the damping
    contribution.
    """

    damping_rate: float
    dephasing_rate: float
    n_bar: float = 0.0
    hamiltonian: SpinHamiltonian | None = None

    def __post_init__(self):
        rates = (self.damping_rate, self.dephasing_rate, self.n_bar)
        if not all(np.isfinite(r) and r >= 0 for r in rates):
            raise ValueError(f"rates and occupation must be finite and >= 0, got {rates}")


def _generator_pieces(spec: LindbladSpec, n: int):
    """Sparse H, the jump operators L (none for a zero rate) and K = sum_L L^dag L."""
    h = spec.hamiltonian
    if h is not None and h.n_qubits != n:
        raise ValueError("Hamiltonian qubit count mismatch")
    H = _terms_sparse(n, []) if h is None else h._sparse()
    lower = np.sqrt(spec.damping_rate * (spec.n_bar + 1))
    raise_ = np.sqrt(spec.damping_rate * spec.n_bar)
    dephase = np.sqrt(spec.dephasing_rate)
    words = []
    for q in range(1, n + 1):
        m = qubit_mask(n, q)
        if spec.damping_rate > 0:
            words.append([(m, 0, 0.5 * lower), (m, m, 0.5j * lower)])
            if spec.n_bar > 0:
                words.append([(m, 0, 0.5 * raise_), (m, m, -0.5j * raise_)])
        if spec.dephasing_rate > 0:
            words.append([(0, m, dephase)])
    jumps = [_terms_sparse(n, w) for w in words]
    # K = J^dag J with J the jumps stacked, one product; the empty block keeps J defined without jumps
    J = sparse.vstack([_terms_sparse(n, []), *jumps])
    return H, jumps, J.conj().T @ J


def _generator(spec: LindbladSpec, n: int) -> sparse.csr_array:
    """S = -i(H x I - I x H^T) + sum_L L x L* - (K x I + I x K^T)/2 on the row-major vec(rho).

    Built on the first call for each n and stored on the frozen spec, so every
    later integration with that spec reuses it.
    """
    generators = vars(spec).setdefault("_generators", {})
    if n not in generators:
        H, jumps, K = _generator_pieces(spec, n)
        eye = _terms_sparse(n, [(0, 0, 1.0)])
        factors = [(-1j * H, eye), (eye, 1j * H.T), (-0.5 * K, eye), (eye, -0.5 * K.T)]
        factors += [(L, L.conj()) for L in jumps]
        blocks = [sparse.kron(A, B, format="coo") for A, B in factors]
        # duplicate (row, col) entries are summed when the triplets are converted
        data = np.concatenate([b.data for b in blocks])
        rows = np.concatenate([b.row for b in blocks])
        cols = np.concatenate([b.col for b in blocks])
        size = 1 << 2 * n
        generators[n] = sparse.csr_array((data, (rows, cols)), shape=(size, size))
    return generators[n]


def solve_ivp(fun, t_span, y0, **options):
    """`scipy.integrate.solve_ivp`, imported on the first call.

    Only open evolution integrates, so `import fluxion` does not pay for
    loading `scipy.integrate`.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _evolve(entries: np.ndarray, spec: LindbladSpec, n: int, t_grid):
    """Yields the operator `entries`, given at t = 0, at every time of an ascending grid.

    Each interval between consecutive grid times is integrated once, from the
    state at the end of the previous one.
    """
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid >= 0).all():
        raise ValueError("times must be >= 0")
    if not (np.diff(t_grid) >= 0).all():
        raise ValueError("time grid must be ascending")
    S = _generator(spec, n)
    y = entries.ravel().astype(complex)
    start = 0.0
    for t in t_grid:
        if t > start:
            sol = solve_ivp(lambda _, v: S @ v, (start, float(t)), y, method="DOP853", rtol=RTOL, atol=ATOL)
            gc.collect(1)  # the finished solver is a reference cycle holding (16, 4^n) stage arrays
            if not sol.success:
                raise RuntimeError(f"density-matrix integration failed: {sol.message}")
            y = sol.y[:, -1]
            start = float(t)
        yield y.reshape(entries.shape)


def _density(n: int, rho: np.ndarray) -> DensityMatrix:
    return DensityMatrix(n, 0.5 * (rho + rho.conj().T))  # remove integrator roundoff asymmetry


def evolve_density(rho0: DensityMatrix, spec: LindbladSpec, t: float) -> DensityMatrix:
    (rho,) = _evolve(rho0.entries, spec, rho0.n_qubits, [t])
    return _density(rho0.n_qubits, rho)


def open_flux_trajectory(
    spec: LindbladSpec,
    t_grid,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> list[FluxMatrix]:
    """FluxMatrix at every time of an ascending grid, read from three evolved input units.

    Each unit is integrated once over the whole grid.  Incoherent decay shows
    up in the identity column, which collects the input-independent drift of
    the target Bloch vector.
    """
    n = register.n_qubits + 1
    k0, k1 = input_kets(register, input_qubit)
    qubit_mask(n, target_qubit)  # rejects an out-of-range target before anything is integrated
    units = [np.outer(a, b.conj()) for a, b in ((k0, k0), (k1, k1), (k0, k1))]
    fluxes = []
    for t, rho00, rho11, coherence in zip(t_grid, *(_evolve(u, spec, n, t_grid) for u in units)):
        r00, r11 = (_partial_trace(_density(n, rho).entries, n, target_qubit) for rho in (rho00, rho11))
        r01 = _partial_trace(coherence, n, target_qubit)
        fluxes.append(flux_readout(r00, r11, r01, target_qubit, float(t)))
    return fluxes


def open_flux_tomography(
    spec: LindbladSpec,
    t: float,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> FluxMatrix:
    """FluxMatrix under open evolution at one time t >= 0."""
    return open_flux_trajectory(spec, [t], input_qubit, register, target_qubit)[0]


def expectation_trajectory(
    spec: LindbladSpec,
    obs: PauliObservable | PauliString,
    rho0: DensityMatrix,
    t_grid,
) -> np.ndarray:
    """Tr[obs rho(t)] on an ascending time grid starting at t >= 0."""
    M = obs.to_matrix()
    values = []
    for rho in _evolve(rho0.entries, spec, rho0.n_qubits, t_grid):
        val = complex(np.trace(M @ rho))
        if not (abs(val.imag) <= 1e-7 and np.isfinite(val)):
            raise AssertionError(f"non-real or non-finite expectation {val}")
        values.append(val.real)
    return np.array(values)
