"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing.  Density matrices are integrated directly with
adaptive high-order stepping.  `_master_equation` assembles the generator,
from the pieces `_generator_pieces` returns, once per spec and qubit count as
one sparse CSR matrix on the row-major vec(rho), caches it on the spec, and
hands every integration the same right-hand side: one sparse product.  The
dense `np.kron` superoperator is kept as a cross-check oracle.

Every entry point runs through `_evolve`, which integrates each interval of
an ascending grid of times t >= 0 once.  `open_flux_trajectory` reads the
flux at every grid time from three evolved operator units of the input
qubit, |0><0|, |1><1| and |0><1| (|1><0| is the adjoint of the evolved
|0><1|); the two diagonal units pass the `DensityMatrix` checks at every
time.  `open_flux_tomography` is its one-time case, and four-input
tomography is kept as the test oracle.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .dense import SpinHamiltonian
from .flux import FluxMatrix, flux_readout
from .pauli import PauliObservable, PauliString
from .states import RegisterState, embed, input_kets

OPEN_QUBIT_CAP = 8
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
RTOL = 1e-10
ATOL = 1e-12

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def reduced_qubit(rho: DensityMatrix, qubit: int) -> np.ndarray:
    return _partial_trace(rho.entries, rho.n_qubits, qubit)


def _partial_trace(entries: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """2x2 block of one qubit, every other qubit traced out."""
    if not 1 <= qubit <= n:
        raise ValueError("qubit index out of range")
    before = 1 << (qubit - 1)
    after = 1 << (n - qubit)
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
        if not (self.damping_rate >= 0 and self.dephasing_rate >= 0 and self.n_bar >= 0):
            raise ValueError("rates and occupation must be >= 0")

    def jump_operators(self, n_qubits: int) -> list[np.ndarray]:
        ops = []
        for q in range(1, n_qubits + 1):
            if self.damping_rate > 0:
                ops.append(np.sqrt(self.damping_rate * (self.n_bar + 1)) * embed(_SIGMA_MINUS, q, n_qubits))
                if self.n_bar > 0:
                    ops.append(np.sqrt(self.damping_rate * self.n_bar) * embed(_SIGMA_PLUS, q, n_qubits))
            if self.dephasing_rate > 0:
                ops.append(np.sqrt(self.dephasing_rate) * embed(_SIGMA_Z, q, n_qubits))
        return ops

    def hamiltonian_matrix(self, n_qubits: int) -> np.ndarray:
        if self.hamiltonian is None:
            dim = 1 << n_qubits
            return np.zeros((dim, dim), dtype=complex)
        if self.hamiltonian.n_qubits != n_qubits:
            raise ValueError("Hamiltonian qubit count mismatch")
        return self.hamiltonian.to_matrix()


def _generator_pieces(spec: LindbladSpec, n: int):
    H = spec.hamiltonian_matrix(n)
    jumps = spec.jump_operators(n)
    anticomm = sum((L.conj().T @ L for L in jumps), np.zeros_like(H))
    return H, jumps, anticomm


def _sparse_generator(spec: LindbladSpec, n: int) -> sparse.csr_array:
    """-i(H x I - I x H^T) + sum_L L x L* - (K x I + I x K^T)/2, K = sum_L L^dag L."""
    H, jumps, anticomm = _generator_pieces(spec, n)
    eye = np.eye(1 << n)
    factors = [(-1j * H, eye), (eye, 1j * H.T), (-0.5 * anticomm, eye), (eye, -0.5 * anticomm.T)]
    factors += [(L, L.conj()) for L in jumps]
    blocks = [sparse.kron(sparse.coo_array(A), sparse.coo_array(B), format="coo") for A, B in factors]
    # duplicate (row, col) entries are summed when the triplets are converted
    data = np.concatenate([b.data for b in blocks])
    rows = np.concatenate([b.row for b in blocks])
    cols = np.concatenate([b.col for b in blocks])
    size = 1 << 2 * n
    return sparse.csr_array((data, (rows, cols)), shape=(size, size))


def solve_ivp(fun, t_span, y0, **options):
    """`scipy.integrate.solve_ivp`, imported on the first call.

    Only open evolution integrates, so `import fluxion` does not pay for
    loading `scipy.integrate`.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _master_equation(spec: LindbladSpec, n: int):
    """d rho / dt on the row-major flattened density matrix, for solve_ivp.

    The sparse generator is built on the first call for each n and stored on
    the frozen spec, so every later integration with that spec reuses it.
    """
    generators = getattr(spec, "_generators", None)
    if generators is None:
        generators = {}
        object.__setattr__(spec, "_generators", generators)
    S = generators.get(n)
    if S is None:
        S = generators[n] = _sparse_generator(spec, n)

    def rhs(_, y):
        return S @ y

    return rhs


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
    rhs = _master_equation(spec, n)
    y = entries.ravel().astype(complex)
    start = 0.0
    for t in t_grid:
        if t > start:
            sol = solve_ivp(rhs, (start, float(t)), y, method="DOP853", rtol=RTOL, atol=ATOL)
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
    units = [np.outer(a, b.conj()) for a, b in ((k0, k0), (k1, k1), (k0, k1))]
    fluxes = []
    for t, rho00, rho11, coherence in zip(t_grid, *(_evolve(u, spec, n, t_grid) for u in units)):
        r00, r11 = (reduced_qubit(_density(n, rho), target_qubit) for rho in (rho00, rho11))
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
        if abs(val.imag) > 1e-7:
            raise AssertionError(f"non-real expectation {val}")
        values.append(val.real)
    return np.array(values)


def superoperator(spec: LindbladSpec, n_qubits: int) -> np.ndarray:
    """Dense generator on row-major vectorized density matrices (oracle use)."""
    H, jumps, anticomm = _generator_pieces(spec, n_qubits)
    dim = 1 << n_qubits
    eye = np.eye(dim, dtype=complex)
    L_total = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in jumps:
        L_total += np.kron(L, L.conj())
    L_total -= 0.5 * (np.kron(anticomm, eye) + np.kron(eye, anticomm.T))
    return L_total
