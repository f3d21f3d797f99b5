"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing.  Density matrices are integrated directly with
adaptive high-order stepping.  `_generator` builds the generator S once per
spec and qubit count, as one sparse CSR matrix on the row-major vec(rho),
caches it on the spec and returns it; every integration's right-hand side is
the one sparse product S @ y.  S is a sum of 2n-qubit Pauli words, which
`_generator_pieces` lists and `pauli._terms_sparse` sums into COO triplets
with no stored zero, as for every other operator matrix; `_generator`'s
`csr_array` is the package's one `scipy.sparse` call, so no other engine
loads it.  The dense superoperator it is checked against, `superoperator`
in tests/oracles.py, builds all its pieces independently from 2x2 matrices.
`_partial_trace` is the one partial trace of a density matrix.

Every entry point runs through `_evolve`, which integrates each interval of an
ascending grid of finite times t >= 0 once.  `open_flux_trajectory` reads the
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

from .chain import _grid_1d
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
        arr = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if arr.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix")
        if not (np.abs(arr - arr.conj().T).max() <= HERMITICITY_TOL):
            raise ValueError("matrix is not Hermitian")
        arr = 0.5 * (arr + arr.conj().T)  # stored Hermitian part: drops integrator roundoff asymmetry
        trace = np.trace(arr)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise ValueError(f"trace {trace} is not 1")
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


def _sandwich(n: int, a, b, scale: complex = 1.0):
    """2n-qubit words of rho -> scale A rho B^dag, which is scale A x B* on the row-major vec(rho).

    A's masks are shifted up by n; a word's conjugate is the word times (-1)^{|x & z|}.
    """
    return [
        (xa << n | xb, za << n | zb, scale * ca * np.conj(cb) * (-1) ** (xb & zb).bit_count())
        for xa, za, ca in a for xb, zb, cb in b
    ]


def _generator_pieces(spec: LindbladSpec, n: int):
    """COO triplets of S from its 2n-qubit words; words with a zero coefficient are left out.

    The jumps per qubit are sigma- = (X + iY)/2, sigma+ = (X - iY)/2 and Z,
    scaled by the square roots of their rates; H and K are Hermitian, so rho H = rho H^dag.
    """
    h = spec.hamiltonian
    if h is not None and h.n_qubits != n:
        raise ValueError("Hamiltonian qubit count mismatch")
    H = [] if h is None else [(s.x_mask, s.z_mask, c * s.phase) for c, s in h.terms]
    eye = [(0, 0, 1.0)]
    masks = [qubit_mask(n, q) for q in range(1, n + 1)]
    lower = np.sqrt(spec.damping_rate * (spec.n_bar + 1))
    raise_ = np.sqrt(spec.damping_rate * spec.n_bar)
    jumps = [[(m, 0, 0.5 * lower), (m, m, 0.5j * lower)] for m in masks]
    jumps += [[(m, 0, 0.5 * raise_), (m, m, -0.5j * raise_)] for m in masks]
    jumps += [[(0, m, np.sqrt(spec.dephasing_rate))] for m in masks]
    # K = sum_L L^dag L from sigma-^dag sigma- = (I - Z)/2, sigma+^dag sigma+ = (I + Z)/2, Z^dag Z = I
    K = [(0, 0, n * (spec.damping_rate * (spec.n_bar + 0.5) + spec.dephasing_rate))]
    K += [(0, m, -0.5 * spec.damping_rate) for m in masks]
    words = _sandwich(n, H, eye, -1j) + _sandwich(n, eye, H, 1j)
    words += _sandwich(n, K, eye, -0.5) + _sandwich(n, eye, K, -0.5)
    for L in jumps:
        words += _sandwich(n, L, L)
    return _terms_sparse(2 * n, [w for w in words if w[2] != 0])


def _generator(spec: LindbladSpec, n: int):
    """S = -i(H x I - I x H^T) + sum_L L x L* - (K x I + I x K^T)/2 on the row-major vec(rho).

    Built on the first call for each n and stored on the frozen spec, so every
    later integration with that spec reuses it.
    """
    generators = vars(spec).setdefault("_generators", {})
    if n not in generators:
        rows, cols, vals = _generator_pieces(spec, n)
        from scipy import sparse

        generators[n] = sparse.csr_array((vals, (rows, cols)), shape=(1 << 2 * n,) * 2)
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
    t_grid = _grid_1d(t_grid, "t_grid")
    if not (np.isfinite(t_grid) & (t_grid >= 0)).all():
        raise ValueError("times must be finite and >= 0")
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


def evolve_density(rho0: DensityMatrix, spec: LindbladSpec, t: float) -> DensityMatrix:
    (rho,) = _evolve(rho0.entries, spec, rho0.n_qubits, [t])
    return DensityMatrix(rho0.n_qubits, rho)


def open_flux_trajectory(
    spec: LindbladSpec,
    t_grid,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> list[FluxMatrix]:
    """FluxMatrix at every time of an ascending grid, read from three evolved input units.

    Each unit is integrated once over the whole grid, and the target's blocks
    of every time are read out as one stack.  Incoherent decay shows
    up in the identity column, which collects the input-independent drift of
    the target Bloch vector.
    """
    n = register.n_qubits + 1
    t_grid = _grid_1d(t_grid, "t_grid")
    k0, k1 = input_kets(register, input_qubit)
    qubit_mask(n, target_qubit)  # rejects an out-of-range target before anything is integrated
    units = [np.outer(a, b.conj()) for a, b in ((k0, k0), (k1, k1), (k0, k1))]
    R = np.zeros((2, 2, 2, 2, t_grid.size), dtype=complex)  # R[a, b, i, j, k], as `flux_readout` reads it
    for k, (rho00, rho11, coherence) in enumerate(zip(*(_evolve(u, spec, n, t_grid) for u in units))):
        for a, rho in ((0, rho00), (1, rho11)):
            R[a, a, ..., k] = _partial_trace(DensityMatrix(n, rho).entries, n, target_qubit)
        R[0, 1, ..., k] = _partial_trace(coherence, n, target_qubit)
    return flux_readout(R, target_qubit, t_grid.tolist())


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
