"""N-qubit Pauli strings and sparse Pauli observables as (x_mask, z_mask) words.

Bit convention used everywhere in this package: qubit 1 is the most
significant bit, so qubit j of an n-qubit system owns mask bit (n - j).
A string is stored as the Hermitian word  i^{|x & z|} X^x Z^z  times an
explicit phase in {1, i, -1, -i}; a qubit with both mask bits set carries
Y = i X Z.  Phase +-1 therefore means the operator is Hermitian.

Every word is a signed permutation matrix, row r to column r ^ x_mask.
`_word_entries` is the one index/sign kernel, on given rows of a sum grouped
by `_words`: both `apply` methods gather through it, `_terms_sparse` runs it
on every row (the one full operator matrix, which `_dense` writes out), and
`_closure` runs it breadth first from a support: the dense engine's
components and the open engine's reachable vec(rho) coordinates.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

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


# x_mask groups in order of first appearance, words in term order within each; vals holds
# coefficient * i^{|x & z|}, and a word's sign on column c is (-1)^{|c & z| + flips}
Words = namedtuple("Words", "x z vals flips starts")


def _words(terms) -> Words:
    """The `Words` of a sum of (x_mask, z_mask, coefficient) words."""
    groups: dict[int, list] = {}
    for x_mask, z_mask, coefficient in terms:
        groups.setdefault(x_mask, []).append((z_mask, coefficient * PHASES[(x_mask & z_mask).bit_count() % 4]))
    x = np.array([x_mask for x_mask, group in groups.items() for _ in group], dtype=np.int64)
    z = np.array([z_mask for group in groups.values() for z_mask, _ in group], dtype=np.int64)
    vals = np.array([c for group in groups.values() for _, c in group], dtype=complex)
    starts = np.cumsum([0] + [len(group) for group in groups.values()])[:-1]
    return Words(x, z, vals, np.zeros(x.size, dtype=np.int64), starts)


def _word_entries(words: Words, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals) of a word sum on the given rows, each of shape (x_mask groups, rows).

    Each group's words are summed by `np.add.reduceat` in term order before any caller reads the pattern:
    XX and YY each couple |00> and |11>; only their sum cancels.  Signs are int64, whose ufunc loops a run
    has already paged in; int8 signs and bool comparisons here cost 0.3 MB of RSS for their code pages.
    """
    cols = rows ^ words.x[:, None]
    signs = 1 - 2 * ((np.bitwise_count(cols & words.z[:, None]).astype(np.int64) + words.flips[:, None]) & 1)
    return cols[words.starts], np.add.reduceat(words.vals[:, None] * signs, words.starts, axis=0)


def _terms_sparse(n_qubits: int, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major COO triplets (rows, cols, vals) of a sum of (x_mask, z_mask, coefficient) words: `_word_entries`
    on every row, columns sorted and exact zeros dropped, bit for bit scipy's canonical COO of the words."""
    rows = np.arange(1 << n_qubits, dtype=np.int32)  # int32 indices, as scipy picks for a matrix of this size
    cols, vals = (a.T for a in _word_entries(_words(terms), rows))
    order = np.argsort(cols, axis=1)
    cols, vals = (np.take_along_axis(a, order, axis=1).ravel() for a in (cols, vals))
    keep = vals != 0
    return np.repeat(rows, order.shape[1])[keep], cols[keep].astype(np.int32), vals[keep]


def _closure(n_qubits: int, words: Words, support) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(set, rows, cols, vals): the least set of basis states holding `support` and every row in
    which the sum has an entry from a column of the set, and all the sum's entries in its columns.

    A breadth-first search over the transpose's words, (X^x Z^z)^T = (-1)^{|x & z|} X^x Z^z
    with the sign kept as a flip, so each entry equals the full-space triplet bit for bit.
    Each state is evaluated once, when it joins the frontier.
    """
    transpose = words._replace(flips=words.flips + np.bitwise_count(words.x & words.z).astype(np.int64))
    reached = np.zeros(1 << n_qubits, dtype=bool)
    reached[support] = True
    frontier = np.flatnonzero(reached)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, complex))]
    while frontier.size:
        rows, vals = _word_entries(transpose, frontier)
        keep = vals != 0
        parts.append((rows[keep], frontier[np.nonzero(keep)[1]], vals[keep]))
        hit = np.zeros_like(reached)
        hit[parts[-1][0]] = True
        hit[reached] = False
        frontier = np.flatnonzero(hit)
        reached[frontier] = True
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    return np.flatnonzero(reached), rows, cols, vals


def _dense(n_qubits: int, triplets) -> np.ndarray:
    """The 2^n x 2^n array of canonical COO triplets.

    Added onto zeros, as scipy's `toarray` does, so a -0.0 part reads +0.0.
    """
    rows, cols, vals = triplets
    out = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    out[rows, cols] += vals
    return out


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
        cols, vals = _word_entries(_words([(self.x_mask, self.z_mask, self.phase)]), np.arange(amplitudes.size))
        return vals[0] * amplitudes[cols[0]]

    def to_matrix(self) -> np.ndarray:
        return _dense(self.n_qubits, _terms_sparse(self.n_qubits, [(self.x_mask, self.z_mask, self.phase)]))


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
        cols, vals = _word_entries(_words((x, z, c) for (x, z), c in self.terms.items()), np.arange(dim))
        return (vals * amplitudes[cols]).sum(axis=0)

    def to_matrix(self) -> np.ndarray:
        terms = ((x, z, c) for (x, z), c in self.terms.items())
        return _dense(self.n_qubits, _terms_sparse(self.n_qubits, terms))


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

