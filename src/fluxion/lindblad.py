"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing.  Density matrices are integrated directly with
adaptive high-order stepping.  `_master_equation` assembles the generator,
from the pieces `_generator_pieces` returns, once per spec and qubit count as
one sparse CSR matrix on the row-major vec(rho), caches it on the spec, and
hands every integration the same right-hand side: one sparse product.  The
dense `np.kron` superoperator is kept as a cross-check oracle.

`open_flux_tomography` reads the flux directly from three evolved operator
units of the input qubit, |0><0|, |1><1| and |0><1| (the fourth, |1><0|, is
the adjoint of the evolved |0><1|), with one integration per unit; the two
diagonal units are density matrices and pass the `DensityMatrix` checks.
Four-input tomography is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .dense import SpinHamiltonian
from .flux import FluxMatrix, flux_readout
from .pauli import PauliObservable, PauliString
from .states import RegisterState, embed, insert_qubit

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

    def expectation(self, obs: PauliObservable | PauliString) -> float:
        val = complex(np.trace(obs.to_matrix() @ self.entries))
        if abs(val.imag) > 1e-8:
            raise AssertionError(f"non-real expectation {val}")
        return val.real

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


def _integrate(entries: np.ndarray, spec: LindbladSpec, n: int, t: float) -> np.ndarray:
    """The 2^n x 2^n operator `entries` evolved under the generator from 0 to t."""
    dim = 1 << n
    sol = solve_ivp(
        _master_equation(spec, n),
        (0.0, float(t)),
        entries.ravel().astype(complex),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"density-matrix integration failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)


def evolve_density(rho0: DensityMatrix, spec: LindbladSpec, t: float) -> DensityMatrix:
    n = rho0.n_qubits
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    if t == 0:
        return rho0
    rho = _integrate(rho0.entries, spec, n, t)
    rho = 0.5 * (rho + rho.conj().T)  # remove integrator roundoff asymmetry
    return DensityMatrix(n, rho)


def open_flux_tomography(
    spec: LindbladSpec,
    t: float,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> FluxMatrix:
    """FluxMatrix under open evolution, read from three evolved input units.

    Incoherent decay shows up in the identity column, which collects the
    input-independent drift of the target Bloch vector.
    """
    n = register.n_qubits + 1
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    kets = [insert_qubit(register, amps, input_qubit) for amps in np.eye(2)]
    r00, r11 = (
        reduced_qubit(evolve_density(DensityMatrix.from_state(ket), spec, t), target_qubit) for ket in kets
    )
    coherence = np.outer(kets[0].amplitudes, kets[1].amplitudes.conj())
    if t != 0:
        coherence = _integrate(coherence, spec, n, t)
    r01 = _partial_trace(coherence, n, target_qubit)
    return flux_readout(r00, r11, r01, target_qubit, t)


def expectation_trajectory(
    spec: LindbladSpec,
    obs: PauliObservable | PauliString,
    rho0: DensityMatrix,
    t_grid,
) -> np.ndarray:
    """Tr[obs rho(t)] sampled on an ascending time grid, single integration."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return np.array([])
    if (np.diff(t_grid) < 0).any():
        raise ValueError("time grid must be ascending")
    n = rho0.n_qubits
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    M = obs.to_matrix()
    end = float(t_grid[-1])
    if end == 0.0:
        return np.full(t_grid.size, float(np.trace(M @ rho0.entries).real))
    dim = 1 << n
    sol = solve_ivp(
        _master_equation(spec, n),
        (0.0, end),
        rho0.entries.ravel().astype(complex),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        t_eval=t_grid,
    )
    if not sol.success:
        raise RuntimeError(f"density-matrix integration failed: {sol.message}")
    values = np.empty(t_grid.size)
    for k in range(t_grid.size):
        rho = sol.y[:, k].reshape(dim, dim)
        val = complex(np.trace(M @ rho))
        if abs(val.imag) > 1e-7:
            raise AssertionError(f"non-real expectation {val}")
        values[k] = val.real
    return values


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
