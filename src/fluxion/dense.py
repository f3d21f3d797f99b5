"""Full Hilbert-space dynamics for spin-chain Hamiltonians.

Small registers only.  The Hamiltonian is assembled sparse from its Pauli
words by `pauli._terms_sparse`.  When no entry couples basis
states of different excitation number (popcount), as for every chain that
commutes with total Z, it is diagonalized block by block, one block per
excitation-number sector; otherwise as one block.  Evolution is exact and
runs sector by sector, skipping the sectors a state does not touch.  The flux
is read directly from the two evolved basis kets U|reg,0> and U|reg,1> of the
input qubit, with no propagator formed, through the one ket partial trace
`states._reduced_blocks`.  `propagator`,
`unitary_flux_tomography` and four-input tomography (`flux.solve_affine`)
are test oracles; they stay in the package while perfbench/tracing.py wraps
them by name, and the other oracles are in tests/oracles.py.  This is both
a production path for few-qubit chains and the oracle the large-N
single-excitation engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .chain import CouplingProfile
from .flux import FluxMatrix, cloning_fidelity, flux_readout
from .pauli import PauliString, _terms_sparse
from .states import (
    DENSE_QUBIT_CAP,
    BlochVector,
    RegisterState,
    _reduced_blocks,
    input_kets,
    psi_plus_state,
)


@dataclass(frozen=True)
class SpinHamiltonian:
    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...] = field(repr=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= DENSE_QUBIT_CAP:
            raise ValueError(f"n_qubits must be in 1..{DENSE_QUBIT_CAP}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for coupling, s in self.terms:
            if s.n_qubits != self.n_qubits:
                raise ValueError("term qubit count mismatch")
            if not np.isfinite(complex(coupling)):
                raise ValueError(f"couplings must be finite, got {coupling}")
            if abs(complex(coupling).imag) > 0:
                raise ValueError("couplings must be real")

    @classmethod
    def heisenberg_chain(cls, n_qubits: int, J: float, lam: float) -> "SpinHamiltonian":
        """(J/2) sum_i (X_i X_{i+1} + Y_i Y_{i+1} + lam Z_i Z_{i+1})."""
        terms = []
        for i in range(1, n_qubits):
            for letter, weight in (("X", J / 2), ("Y", J / 2), ("Z", lam * J / 2)):
                terms.append((weight, PauliString.from_label(n_qubits, f"{letter}{i}{letter}{i + 1}")))
        return cls(n_qubits, tuple(terms))

    @classmethod
    def xy_chain(cls, profile: CouplingProfile) -> "SpinHamiltonian":
        """(1/2) sum_i J_i (X_i X_{i+1} + Y_i Y_{i+1})."""
        n = profile.n_qubits
        terms = []
        for i in range(1, n):
            coupling = float(profile.couplings[i - 1]) / 2
            terms.append((coupling, PauliString.from_label(n, f"X{i}X{i + 1}")))
            terms.append((coupling, PauliString.from_label(n, f"Y{i}Y{i + 1}")))
        return cls(n, tuple(terms))

    def _sparse(self) -> sparse.coo_array:
        """H as COO, assembled from its Pauli words by `pauli._terms_sparse`."""
        return _terms_sparse(self.n_qubits, [(s.x_mask, s.z_mask, c * s.phase) for c, s in self.terms])

    def to_matrix(self) -> np.ndarray:
        return self._sparse().toarray()

    def _eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(basis indices, eigenvalues, eigenvectors) of every diagonal block.

        The blocks are the popcount (excitation-number) sectors when no
        nonzero entry of H couples different popcounts, else the whole space
        as one block.  A block with no imaginary entry is diagonalized as real.
        """
        cached = getattr(self, "_eig", None)
        if cached is None:
            H = self._sparse()
            sector = np.bitwise_count(np.arange(1 << self.n_qubits))
            if not np.array_equal(sector[H.row], sector[H.col]):
                sector = np.zeros_like(sector)
            entry_sector = sector[H.row]
            blocks = []
            for k in range(int(sector.max()) + 1):
                idx = np.flatnonzero(sector == k)
                sel = entry_sector == k
                B = np.zeros((idx.size, idx.size), dtype=complex)
                B[np.searchsorted(idx, H.row[sel]), np.searchsorted(idx, H.col[sel])] = H.data[sel]
                if not (np.abs(B - B.conj().T).max() <= 1e-12):
                    raise AssertionError("Hamiltonian is not Hermitian")
                blocks.append((idx, *np.linalg.eigh(B if B.imag.any() else B.real)))
            cached = tuple(blocks)
            object.__setattr__(self, "_eig", cached)
        return cached


def _propagate(h: SpinHamiltonian, t: float, amplitudes: np.ndarray) -> np.ndarray:
    """exp(-iHt) applied sector by sector, skipping sectors the vector has no weight in."""
    out = np.zeros(amplitudes.shape, dtype=complex)
    for idx, w, V in h._eigensystem():
        part = amplitudes[idx]
        if part.any():
            out[idx] = V @ (np.exp(-1j * w * t) * (V.conj().T @ part))
    return out


def propagator(h: SpinHamiltonian, t: float) -> np.ndarray:
    """The full unitary exp(-iHt), assembled block by block."""
    dim = 1 << h.n_qubits
    U = np.zeros((dim, dim), dtype=complex)
    for idx, w, V in h._eigensystem():
        U[np.ix_(idx, idx)] = (V * np.exp(-1j * w * t)) @ V.conj().T
    return U


def evolve(h: SpinHamiltonian, state: RegisterState, t: float) -> RegisterState:
    if state.n_qubits != h.n_qubits:
        raise ValueError("state and Hamiltonian qubit counts differ")
    return RegisterState(state.n_qubits, _propagate(h, t, state.amplitudes))


def unitary_flux_tomography(
    U: np.ndarray,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
    time_label: float | str = "",
) -> FluxMatrix:
    """FluxMatrix of an arbitrary unitary, read from U|reg,0> and U|reg,1>."""
    n = register.n_qubits + 1
    if U.shape != (1 << n, 1 << n):
        raise ValueError("unitary dimension does not match register plus input")
    kets = [U @ ket for ket in input_kets(register, input_qubit)]
    R = _reduced_blocks(kets, n, target_qubit)
    return flux_readout(R[0, 0], R[1, 1], R[0, 1], target_qubit, time_label)


def flux_tomography(
    h: SpinHamiltonian,
    t: float,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> FluxMatrix:
    """FluxMatrix of exp(-iHt), read from the two input kets evolved sector by sector."""
    n = register.n_qubits + 1
    if n != h.n_qubits:
        raise ValueError("register plus input does not match the Hamiltonian's qubit count")
    kets = [_propagate(h, t, ket) for ket in input_kets(register, input_qubit)]
    R = _reduced_blocks(kets, n, target_qubit)
    return flux_readout(R[0, 0], R[1, 1], R[0, 1], target_qubit, t)


def uqcm_chain_fidelity(J: float, t: float) -> float:
    """Cloning fidelity of the three-site anisotropic chain at lam = 2.

    Input at the central site, outputs at the ends prepared in the shared
    single-excitation Bell state; the flux pattern is isotropic throughout
    the evolution, so the fidelity is input-independent and equal for both
    output qubits.
    """
    h = SpinHamiltonian.heisenberg_chain(3, J, 2.0)
    flux = flux_tomography(h, t, 2, psi_plus_state(), 1)
    return cloning_fidelity(flux, BlochVector(0.0, 0.0, 1.0))


def anisotropy_deviation(lam: float, J: float, t_grid: np.ndarray) -> float:
    """Worst departure from letter-independent flux at the best time.

    For each time the three diagonal fluxes (X, Y, Z) of output qubit 1 are
    read from tomography; the scan picks the time maximizing their mean and
    reports the largest pairwise spread there.
    """
    h = SpinHamiltonian.heisenberg_chain(3, J, lam)
    best_mean = -np.inf
    best_dev = np.nan
    for t in np.asarray(t_grid, dtype=float):
        diag = flux_tomography(h, t, 2, psi_plus_state(), 1).diagonal()
        mean = float(diag.mean())
        if mean > best_mean:
            best_mean = mean
            best_dev = float(diag.max() - diag.min())
    return best_dev


def universality_scan(lam_grid, J: float, t_grid) -> dict[float, float]:
    """Per-anisotropy deviation from universal (letter-independent) cloning."""
    return {float(lam): anisotropy_deviation(float(lam), J, t_grid) for lam in lam_grid}
