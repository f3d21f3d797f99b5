"""Full Hilbert-space dynamics for spin-chain Hamiltonians.

Small registers only: the Hamiltonian is diagonalized densely, evolution is
exact, and flux matrices come from four-input state tomography of the target
qubit.  This is both a production path for few-qubit chains and the oracle
the large-N single-excitation engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import CouplingProfile
from .flux import FluxMatrix, cloning_fidelity, solve_affine
from .pauli import PauliString
from .states import (
    DENSE_QUBIT_CAP,
    TOMOGRAPHY_INPUTS,
    BlochVector,
    RegisterState,
    bloch_of_qubit,
    insert_qubit,
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

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        H = np.zeros((dim, dim), dtype=complex)
        for coupling, s in self.terms:
            H += coupling * s.to_matrix()
        return H

    def _eigensystem(self):
        cached = getattr(self, "_eig", None)
        if cached is None:
            H = self.to_matrix()
            if np.abs(H - H.conj().T).max() > 1e-12:
                raise AssertionError("Hamiltonian is not Hermitian")
            cached = np.linalg.eigh(H)
            object.__setattr__(self, "_eig", cached)
        return cached


def propagator(h: SpinHamiltonian, t: float) -> np.ndarray:
    w, V = h._eigensystem()
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def evolve(h: SpinHamiltonian, state: RegisterState, t: float) -> RegisterState:
    if state.n_qubits != h.n_qubits:
        raise ValueError("state and Hamiltonian qubit counts differ")
    return RegisterState(state.n_qubits, propagator(h, t) @ state.amplitudes)


def unitary_flux_tomography(
    U: np.ndarray,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
    time_label: float | str = "",
) -> FluxMatrix:
    """FluxMatrix of an arbitrary unitary by four-input Bloch tomography."""
    n = register.n_qubits + 1
    if U.shape != (1 << n, 1 << n):
        raise ValueError("unitary dimension does not match register plus input")
    outputs = {}
    for key, amps in TOMOGRAPHY_INPUTS.items():
        full = insert_qubit(register, amps, input_qubit)
        out = RegisterState(n, U @ full.amplitudes)
        outputs[key] = bloch_of_qubit(out, target_qubit).as_array()
    return solve_affine(outputs, target_qubit, time_label)


def flux_tomography(
    h: SpinHamiltonian,
    t: float,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> FluxMatrix:
    return unitary_flux_tomography(propagator(h, t), input_qubit, register, target_qubit, t)


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
