"""Register states: dense vectors, named preparations, Bloch extraction.

Qubit 1 is the most significant bit of the amplitude index; this is the one
ordering constant of the package and is not configurable.  `_reduced_blocks`
is the one partial trace of kets, behind `reduced_qubit` and the dense flux
read-out, and `bloch_components` is the one 2x2 -> Bloch formula.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# largest register a dense state vector or Hamiltonian may span
DENSE_QUBIT_CAP = 12

NORM_TOL = 1e-10


def bloch_components(R: np.ndarray) -> np.ndarray:
    """(Tr XR, Tr YR, Tr ZR) of a 2x2 block; complex unless R is Hermitian."""
    return np.array([R[0, 1] + R[1, 0], 1j * (R[0, 1] - R[1, 0]), R[0, 0] - R[1, 1]])


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not (r2 <= 1.0 + 1e-10):
            raise ValueError(f"Bloch vector norm^2 = {r2} exceeds 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, r) -> "BlochVector":
        r = np.asarray(r, dtype=float)
        return cls(float(r[0]), float(r[1]), float(r[2]))

    @classmethod
    def of_reduced(cls, rho: np.ndarray) -> "BlochVector":
        """Bloch vector of a 2x2 (reduced) density matrix."""
        return cls.from_array(bloch_components(rho).real)

    @classmethod
    def of_state(cls, c0: complex, c1: complex) -> "BlochVector":
        """Bloch vector of the pure qubit state c0|0> + c1|1>."""
        c = np.array([c0, c1], dtype=complex)
        return cls.of_reduced(np.outer(c, c.conj()))


@dataclass(frozen=True)
class RegisterState:
    """Dense state vector of n_qubits qubits (may be 0 qubits: amplitudes [1])."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.n_qubits <= DENSE_QUBIT_CAP:
            raise ValueError(f"n_qubits must be in 0..{DENSE_QUBIT_CAP}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count does not match qubit count")
        norm = np.linalg.norm(amps)
        if not (abs(norm - 1.0) <= NORM_TOL):
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def computational(cls, n_qubits: int, bits: int = 0) -> "RegisterState":
        try:
            index = operator.index(bits)
        except TypeError:
            raise ValueError(f"bits must be an integer, got {bits!r}") from None
        if not 0 <= index < 1 << n_qubits:
            raise ValueError(f"bits {index} out of range 0..{(1 << n_qubits) - 1}")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def empty(cls) -> "RegisterState":
        return cls(0, np.array([1.0 + 0j]))


def product_state(input_amplitudes, register: RegisterState) -> RegisterState:
    """Tensor a single input qubit (as qubit 1) with the register (qubits 2..N)."""
    return insert_qubit(register, input_amplitudes, 1)


def insert_qubit(register: RegisterState, input_amplitudes, position: int) -> RegisterState:
    """Insert a single qubit at 1-based `position` among the register's qubits."""
    c = np.asarray(input_amplitudes, dtype=complex).reshape(2)
    if not (abs(np.linalg.norm(c) - 1.0) <= NORM_TOL):
        raise ValueError("input qubit amplitudes not normalized")
    n = register.n_qubits + 1
    if not 1 <= position <= n:
        raise ValueError(f"position {position} out of range 1..{n}")
    before = 1 << (position - 1)
    after = 1 << (n - position)
    reg = register.amplitudes.reshape(before, after)
    full = np.einsum("i,ba->bia", c, reg).reshape(-1)
    return RegisterState(n, full)


def input_kets(register: RegisterState, input_qubit: int) -> list[np.ndarray]:
    """|reg,0> and |reg,1>, the input qubit inserted at `input_qubit`."""
    return [insert_qubit(register, amps, input_qubit).amplitudes for amps in np.eye(2)]


def uqcm_preparation_state() -> RegisterState:
    """Two-qubit cloner preparation (2|00> + |01> + |10>)/sqrt(6)."""
    return RegisterState(2, np.array([2.0, 1.0, 1.0, 0.0]) / np.sqrt(6.0))


def psi_plus_state() -> RegisterState:
    """Two-qubit triplet (|01> + |10>)/sqrt(2)."""
    return RegisterState(2, np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))


def _reduced_blocks(kets, n: int, qubit: int) -> np.ndarray:
    """R[x, y] = Tr_rest |ket_x><ket_y| of one qubit, for a stack (or list) of n-qubit kets."""
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range 1..{n}")
    psi = np.reshape(kets, (-1, 1 << (qubit - 1), 2, 1 << (n - qubit)))
    return np.einsum("xaib,yajb->xyij", psi, psi.conj())


def reduced_qubit(state: RegisterState, qubit: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit."""
    return _reduced_blocks(state.amplitudes, state.n_qubits, qubit)[0, 0]


def bloch_of_qubit(state: RegisterState, qubit: int) -> BlochVector:
    return BlochVector.of_reduced(reduced_qubit(state, qubit))


# the four tomography inputs: |0>, |1>, |+>, |+i>
TOMOGRAPHY_INPUTS: dict[str, np.ndarray] = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "+i": np.array([1.0, 1.0j]) / np.sqrt(2.0),
}
