"""Full Hilbert-space dynamics for spin-chain Hamiltonians, small registers only.

H is block-diagonal on its components, each the closure of one basis state
under H's Pauli words (`pauli._closure`): the popcount sectors for every
chain that commutes with total Z and has no zero coupling.  A component is
found and diagonalized the first time a ket has weight in it
(`SpinHamiltonian._component`) and cached on the Hamiltonian, so a
computational register costs the two components its input kets touch.
`_propagate` is the one evolution path: a stack of kets is projected once
onto each component it touches and evolved over a whole time grid as one
(times x component) phase product.  `flux_trajectory`, the engine's one grid
read-out, takes the flux at every grid time from the two evolved input kets
U|reg,0> and U|reg,1> through the one ket partial trace
`states._reduced_blocks` and the stacked `flux.flux_readout`, with no
propagator formed; `flux_tomography` is its one-time case, as in the open
engine.  `propagator`, `unitary_flux_tomography` and four-input tomography
(`flux.solve_affine`) are test oracles kept in the package while
perfbench/tracing.py wraps them by name.  The engine serves few-qubit chains
and checks the large-N single-excitation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import CouplingProfile, _times
from .flux import FluxMatrix, cloning_fidelity, flux_readout
from .pauli import PauliString, _closure, _dense, _terms_sparse, _words
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
            if s.phase not in (1, -1):
                raise ValueError(f"terms must be Hermitian words (phase +-1), got phase {s.phase}")
        object.__setattr__(self, "_eig", {})  # smallest basis index -> `_component`'s solve, filled on first touch
        object.__setattr__(self, "_home", np.full(1 << self.n_qubits, -1))  # basis state -> its `_eig` key, or -1

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
        return _dense(self.n_qubits, _terms_sparse(self.n_qubits, self._terms))

    @property
    def _terms(self) -> list[tuple[int, int, complex]]:
        return [(s.x_mask, s.z_mask, c * s.phase) for c, s in self.terms]

    @cached_property
    def _word_sum(self):
        """H's words grouped for `pauli._word_entries`, listed on first use."""
        return _words(self._terms)

    def _component(self, ket: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(basis indices, eigenvalues, eigenvectors) of the component of basis state `ket`, its closure under
        H's words, diagonalized on first use (as real if no entry is imaginary) and cached by its smallest index."""
        key = int(self._home[ket])
        if key < 0:
            idx, rows, cols, vals = _closure(self.n_qubits, self._word_sum, ket)
            entries = vals if vals.imag.any() else vals.real
            B = np.zeros((idx.size, idx.size), dtype=entries.dtype)
            B[np.searchsorted(idx, rows), np.searchsorted(idx, cols)] = entries
            if not (np.abs(B - B.conj().T).max() <= 1e-12):
                raise AssertionError("Hamiltonian is not Hermitian")
            key = int(idx[0])
            self._eig[key] = (idx, *np.linalg.eigh(B))
            self._home[idx] = key
        return self._eig[key]

    def _components(self, touched: np.ndarray):
        """`_component` of each component holding a basis state of the boolean mask `touched`, once each,
        in the order of their first touched states."""
        pending = touched.copy()
        while pending.any():
            idx, w, V = self._component(int(pending.argmax()))
            pending[idx] = False
            yield idx, w, V

    def _eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """`_component` of every component, in order of smallest basis index."""
        return tuple(self._components(np.ones(1 << self.n_qubits, dtype=bool)))


def _propagate(h: SpinHamiltonian, t: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """exp(-iHt_k) of kets (m, 2^n) at every time t_k, as (K, m, 2^n): per component the kets touch, one
    projection, one (times x component) phase product and one matmul back, all stacked matrix-vector
    products (a first BLAS gemm call would add about 0.4 MB to a dense run's peak RSS).  Components the
    kets miss are never found or diagonalized."""
    out = np.zeros((t.size * len(kets), kets.shape[1]), dtype=complex)  # rows (time, ket)
    for idx, w, V in h._components(kets.any(axis=0)):
        part = kets[:, idx]
        coeffs = np.exp(-1j * t[:, None, None] * w) * (V.conj().T @ part[..., None])[..., 0]
        out[:, idx] = (V @ coeffs.reshape(-1, idx.size, 1))[..., 0]
    return out.reshape(t.size, *kets.shape)


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
    return RegisterState(state.n_qubits, _propagate(h, _times([t]), state.amplitudes[None])[0, 0])


def unitary_flux_tomography(
    U: np.ndarray, input_qubit: int, register: RegisterState, target_qubit: int, time_label: float | str = ""
) -> FluxMatrix:
    """FluxMatrix of an arbitrary unitary, read from U|reg,0> and U|reg,1>."""
    n = register.n_qubits + 1
    if U.shape != (1 << n, 1 << n):
        raise ValueError("unitary dimension does not match register plus input")
    kets = [U @ ket for ket in input_kets(register, input_qubit)]
    return flux_readout(_reduced_blocks([kets], n, target_qubit), target_qubit, [time_label])[0]


def flux_trajectory(
    h: SpinHamiltonian, t_grid, input_qubit: int, register: RegisterState, target_qubit: int
) -> list[FluxMatrix]:
    """FluxMatrix of exp(-iHt) at every time of a grid, read from the two evolved input kets.

    The grid is any scalar or 1-D array of finite times, in any order, and
    may repeat a time; it is checked before anything is diagonalized.  Both
    kets are evolved over the whole grid at once by `_propagate`, the
    target's reduced blocks of every time come from one partial trace, and
    `flux.flux_readout` reads them out as one stack.  `flux_tomography` is
    the one-time case.
    """
    t = _times(t_grid)
    n = register.n_qubits + 1
    if n != h.n_qubits:
        raise ValueError("register plus input does not match the Hamiltonian's qubit count")
    R = _reduced_blocks(_propagate(h, t, input_kets(register, input_qubit)), n, target_qubit)
    return flux_readout(R, target_qubit, t.tolist())


def flux_tomography(
    h: SpinHamiltonian, t: float, input_qubit: int, register: RegisterState, target_qubit: int
) -> FluxMatrix:
    """FluxMatrix of exp(-iHt) at one time: the one-time case of `flux_trajectory`."""
    return flux_trajectory(h, [t], input_qubit, register, target_qubit)[0]


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


def anisotropy_deviation(h: SpinHamiltonian, t_grid) -> float:
    """Worst departure from letter-independent flux of a three-site chain at the best time.

    One `flux_trajectory` gives the diagonal fluxes (X, Y, Z) of output qubit 1,
    input at site 2 of a psi+ register; at the first grid time maximizing their
    mean (`np.argmax` keeps the earliest tie) their largest spread is reported.
    """
    diag = np.array([fm.diagonal() for fm in flux_trajectory(h, t_grid, 2, psi_plus_state(), 1)])
    return float(np.ptp(diag[np.argmax(diag.mean(axis=1))]))


def universality_scan(lam_grid, J: float, t_grid) -> dict[float, float]:
    """Per-anisotropy deviation from universal (letter-independent) cloning."""
    chains = {float(lam): SpinHamiltonian.heisenberg_chain(3, J, lam) for lam in lam_grid}
    return {lam: anisotropy_deviation(h, t_grid) for lam, h in chains.items()}
