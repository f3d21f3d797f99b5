"""N-qubit Pauli strings and sparse Pauli observables as (x_mask, z_mask) words.

Bit convention used everywhere in this package: qubit 1 is the most
significant bit, so qubit j of an n-qubit system owns mask bit (n - j).
A string is stored as the Hermitian word  i^{|x & z|} X^x Z^z  times an
explicit phase in {1, i, -1, -i}; a qubit with both mask bits set carries
Y = i X Z.  Phase +-1 therefore means the operator is Hermitian.

Every word is a signed permutation matrix.  `_signed_permutation` is the one
index/sign kernel: both `apply` methods gather through it, and
`_terms_sparse`, the one place an operator matrix is assembled, sums its
entries into a sparse matrix that both `to_matrix` methods densify.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# observables drop coefficients below this after arithmetic
PRUNE_TOL = 1e-14

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {v: k for k, v in _LETTERS.items()}
_LABEL_PAIR = re.compile(r"([IXYZ])([0-9]+)")
_LABEL_WORD = re.compile(r"(?:[IXYZ][0-9]+)+")


def qubit_mask(n_qubits: int, qubit: int) -> int:
    if not 1 <= qubit <= n_qubits:
        raise ValueError(f"qubit {qubit} out of range 1..{n_qubits}")
    return 1 << (n_qubits - qubit)


def _signed_permutation(n_qubits: int, x_mask: int, z_mask: int, coefficient: complex):
    """Column index and value of each row of coefficient * i^{|x & z|} X^x Z^z."""
    idx = np.arange(1 << n_qubits) ^ x_mask
    signs = 1 - 2 * (np.bitwise_count(idx & z_mask).astype(np.int64) & 1)
    return idx, (coefficient * PHASES[(x_mask & z_mask).bit_count() % 4]) * signs


def _terms_sparse(n_qubits: int, terms) -> sparse.coo_array:
    """COO sum of (x_mask, z_mask, coefficient) words, duplicates summed, exact zeros dropped.

    Summing before anything reads the pattern matters: XX and YY each couple
    |00> and |11>, and only their sum cancels those entries.
    """
    dim = 1 << n_qubits
    cols = [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=complex)]
    for x_mask, z_mask, coefficient in terms:
        idx, v = _signed_permutation(n_qubits, x_mask, z_mask, coefficient)
        cols.append(idx)
        vals.append(v)
    # int32 indices, as scipy picks for a matrix read from a dense array; kron products inherit them
    rows = np.tile(np.arange(dim, dtype=np.int32), len(cols) - 1)
    cols = np.concatenate(cols).astype(np.int32)
    M = sparse.coo_array((np.concatenate(vals), (rows, cols)), shape=(dim, dim))
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


def _check_word(n_qubits: int, x_mask: int, z_mask: int) -> None:
    if n_qubits < 0:
        raise ValueError("n_qubits must be nonnegative")
    for name, mask in (("x_mask", x_mask), ("z_mask", z_mask)):
        if not 0 <= mask < 1 << n_qubits:
            raise ValueError(f"{name} {mask} out of range 0..{(1 << n_qubits) - 1} for {n_qubits} qubits")


def _check_coefficient(coefficient: complex) -> None:
    if not np.isfinite(coefficient):
        raise ValueError(f"coefficients must be finite, got {coefficient}")


@dataclass(frozen=True, slots=True)
class PauliString:
    """A tensor product of single-qubit Paulis with a global phase."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase: complex = 1 + 0j

    def __post_init__(self):
        _check_word(self.n_qubits, self.x_mask, self.z_mask)
        if self.phase not in PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase}")

    @classmethod
    def from_label(cls, n_qubits: int, label: str, phase: complex = 1 + 0j) -> "PauliString":
        """Build from e.g. "X1 Z3", "X1X2X3" or "I" (1-based qubit numbers)."""
        words = label.split()
        if words in ([], ["I"]):
            return cls(n_qubits, 0, 0, phase)
        if not all(_LABEL_WORD.fullmatch(word) for word in words):
            raise ValueError(f"malformed Pauli label {label!r}; expected e.g. 'X1 Z3' or 'X1X2X3'")
        x = z = 0
        for letter, digits in _LABEL_PAIR.findall(label):
            bx, bz = _LETTER_BITS[letter]
            m = qubit_mask(n_qubits, int(digits))
            if (x | z) & m:
                raise ValueError(f"duplicate qubit {int(digits)} in {label!r}")
            x |= m * bx
            z |= m * bz
        return cls(n_qubits, x, z, phase)

    def letter(self, qubit: int) -> str:
        m = qubit_mask(self.n_qubits, qubit)
        return _LETTERS[(1 if self.x_mask & m else 0, 1 if self.z_mask & m else 0)]

    def label(self) -> str:
        """Human-readable form, e.g. "-X1Y2"; identity is "I"."""
        word = "".join(
            f"{self.letter(q)}{q}" for q in range(1, self.n_qubits + 1) if self.letter(q) != "I"
        )
        sign = {1 + 0j: "", 1j: "i", -1 + 0j: "-", -1j: "-i"}[self.phase]
        return sign + (word or "I")

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply to a dense state vector (length 2^n)."""
        if amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("state dimension mismatch")
        idx, vals = _signed_permutation(self.n_qubits, self.x_mask, self.z_mask, self.phase)
        return vals * amplitudes[idx]

    def to_matrix(self) -> np.ndarray:
        return _terms_sparse(self.n_qubits, [(self.x_mask, self.z_mask, self.phase)]).toarray()


@dataclass(slots=True)
class PauliObservable:
    """Sparse real/complex combination of Hermitian Pauli words.

    Terms map (x_mask, z_mask) to a coefficient; the phase of each word is
    the canonical i^{|x & z|} factor, so a real-coefficient observable is
    Hermitian.  Masks and coefficients are checked on construction, and
    `add_string` prunes stored coefficients below PRUNE_TOL.
    """

    n_qubits: int
    terms: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        _check_word(self.n_qubits, 0, 0)
        for (x_mask, z_mask), coefficient in self.terms.items():
            _check_word(self.n_qubits, x_mask, z_mask)
            _check_coefficient(coefficient)

    def add_string(self, s: PauliString, coefficient: complex = 1.0) -> None:
        if s.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        _check_coefficient(coefficient)
        key = (s.x_mask, s.z_mask)
        self.terms[key] = self.terms.get(key, 0.0) + coefficient * s.phase
        if abs(self.terms[key]) < PRUNE_TOL:
            del self.terms[key]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        dim = 1 << self.n_qubits
        if amplitudes.shape != (dim,):
            raise ValueError("state dimension mismatch")
        out = np.zeros(dim, dtype=complex)
        for (x, z), coeff in self.terms.items():
            idx, vals = _signed_permutation(self.n_qubits, x, z, coeff)
            out += vals * amplitudes[idx]
        return out

    def to_matrix(self) -> np.ndarray:
        return _terms_sparse(self.n_qubits, ((x, z, c) for (x, z), c in self.terms.items())).toarray()


def expectation(obs: PauliObservable | PauliString, state) -> complex:
    """<state|obs|state> for a normalized RegisterState (or raw amplitudes)."""
    amps = np.asarray(getattr(state, "amplitudes", state), dtype=complex)
    n = obs.n_qubits
    if amps.shape != (1 << n,):
        raise ValueError("qubit count mismatch between observable and state")
    norm = np.linalg.norm(amps)
    if not (abs(norm - 1.0) <= 1e-10):
        raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
    return complex(np.vdot(amps, obs.apply(amps)))

