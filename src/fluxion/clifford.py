"""Heisenberg-picture conjugation of Pauli strings through Clifford circuits,
and circuit fluxes.

Gates are listed in execution order; the evolved string is U^dag P U with
U = g_m ... g_1, so conjugation walks the gate list from the newest gate
inward.  Each gate updates a string's (x_mask, z_mask, phase) by one
exact rule, the tableau updates of Aaronson and Gottesman, Phys. Rev. A 70,
052328 (2004): a single-qubit gate maps the X, Y or Z letter on its qubit to
a signed letter, and CNOT(c, t) sets x_t ^= x_c and z_c ^= z_t, flipping
the sign when x_c = z_t = 1 and x_t = z_c.  The dense circuit unitary the
rules are tested against is `circuit_unitary` in tests/oracles.py.  A flux
row takes the evolved target string between the input kets |reg,a> through
`flux.flux_columns`, the read-out the dense and open engines share; the
closed form `chain.flux_components` and four-input tomography are its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flux import FluxMatrix, flux_columns
from .pauli import _LETTER_BITS, PauliString, qubit_mask
from .states import RegisterState, input_kets

GATE_NAMES = ("CNOT", "H", "S", "X", "Y", "Z")


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        want = 2 if self.name == "CNOT" else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.name} takes {want} qubit(s)")
        if self.name == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


@dataclass(frozen=True)
class CliffordCircuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __init__(self, n_qubits: int, gates):
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", tuple(gates))
        for g in self.gates:
            if any(not 1 <= q <= n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} references a qubit outside 1..{n_qubits}")

    def prefix(self, n_gates: int) -> "CliffordCircuit":
        return CliffordCircuit(self.n_qubits, self.gates[:n_gates])


def copying_stage() -> CliffordCircuit:
    """The four-CNOT copying stage: 1->2, 1->3, 2->1, 3->1."""
    return CliffordCircuit(3, [cnot(1, 2), cnot(1, 3), cnot(2, 1), cnot(3, 1)])


# g^dag P g for the letter P on a single-qubit gate's qubit: (letter, sign)
_LETTER_IMAGES = {
    "H": {"X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)},
    "S": {"X": ("Y", -1), "Y": ("X", 1), "Z": ("Z", 1)},
    "X": {"X": ("X", 1), "Y": ("Y", -1), "Z": ("Z", -1)},
    "Y": {"X": ("X", -1), "Y": ("Y", 1), "Z": ("Z", -1)},
    "Z": {"X": ("X", -1), "Y": ("Y", -1), "Z": ("Z", 1)},
}


def conjugate_string(string: PauliString, gate: Gate) -> PauliString:
    """g^dag string g for a single gate."""
    n = string.n_qubits
    x_mask, z_mask, phase = string.x_mask, string.z_mask, string.phase
    if gate.name == "CNOT":
        c, t = (qubit_mask(n, q) for q in gate.qubits)
        x_c, z_t = bool(x_mask & c), bool(z_mask & t)
        if x_c and z_t and bool(x_mask & t) == bool(z_mask & c):
            phase = -phase
        if x_c:
            x_mask ^= t
        if z_t:
            z_mask ^= c
        return PauliString(n, x_mask, z_mask, phase)
    q = gate.qubits[0]
    letter = string.letter(q)
    if letter == "I":
        return string
    image, sign = _LETTER_IMAGES[gate.name][letter]
    m = qubit_mask(n, q)
    bx, bz = _LETTER_BITS[image]
    return PauliString(n, (x_mask & ~m) | bx * m, (z_mask & ~m) | bz * m, sign * phase)


def conjugate(string: PauliString, circuit: CliffordCircuit) -> PauliString:
    """Heisenberg image U^dag string U of a Pauli string through the whole circuit."""
    if string.n_qubits != circuit.n_qubits:
        raise ValueError("qubit count mismatch")
    for gate in reversed(circuit.gates):
        string = conjugate_string(string, gate)
    return string


def table1() -> dict[tuple[str, int], list[PauliString]]:
    """Evolved X_i, Z_i for i in 1..3 after each CNOT of the copying stage."""
    stage = copying_stage()
    out: dict[tuple[str, int], list[PauliString]] = {}
    for qubit in (1, 2, 3):
        for letter in ("X", "Z"):
            cells = []
            for j in range(1, 5):
                cells.append(conjugate(PauliString.from_label(3, f"{letter}{qubit}"), stage.prefix(j)))
            out[(letter, qubit)] = cells
    return out


def _flux_row(evolved: PauliString, k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """The row of the evolved string E between the input kets k0 = |reg,0>, k1 = |reg,1>."""
    if k0.shape != (1 << evolved.n_qubits,):
        raise ValueError("register must cover every qubit except the input")
    e0, e1 = evolved.apply(k0), evolved.apply(k1)
    return np.array(flux_columns(np.vdot(k0, e0), np.vdot(k1, e1), np.vdot(k1, e0)))


def flux_from_observable(
    evolved: PauliString,
    register: RegisterState,
    input_qubit: int,
) -> np.ndarray:
    """One FluxMatrix row: coefficients of the input's X, Y, Z, I components.

    The target's response to the input unit |a><b| is <k_b|E|k_a>, the
    evolved string E between the input kets k_a = |reg,a>; `flux_columns`
    turns the three responses into the row.
    """
    return _flux_row(evolved, *input_kets(register, input_qubit))


def flux_matrix(
    circuit: CliffordCircuit,
    register: RegisterState,
    input_qubit: int,
    target_qubit: int,
    time_label: float | str = "",
) -> FluxMatrix:
    """The three rows of `flux_from_observable`, sharing one pair of input kets."""
    kets = input_kets(register, input_qubit)
    rows = [
        _flux_row(conjugate(PauliString.from_label(circuit.n_qubits, f"{letter}{target_qubit}"), circuit), *kets)
        for letter in "XYZ"
    ]
    return FluxMatrix(target_qubit, time_label, np.array(rows))


# --- preparation-state optimization ---------------------------------------

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class PreparationResult:
    state: RegisterState
    amplitudes: np.ndarray
    flux: float
    constraint_residual: float
    spectral_gap: float


def _diagonal_flux_matrices() -> np.ndarray:
    """The copying stage's diagonal fluxes as a (6, 4, 4) stack of register
    forms, in the order X2, Y2, Z2, X3, Y3, Z3.

    For a real register v, <k_b|E|k_a> = v.Qv with Q the symmetric part of
    the block <b|E|a> of the evolved target string E; `flux_columns` maps the
    three forms to the row's, and the target letter's column is the diagonal.
    """
    stage = copying_stage()
    forms = []
    for target in (2, 3):
        for column, letter in enumerate("XYZ"):
            evolved = conjugate(PauliString.from_label(3, f"{letter}{target}"), stage)
            E = evolved.to_matrix().reshape(2, 4, 2, 4)
            Q = (E + E.transpose(0, 3, 2, 1)) / 2
            forms.append(flux_columns(Q[0, :, 0], Q[1, :, 1], Q[1, :, 0])[column])
    return np.stack(forms)


@dataclass(frozen=True)
class _PreparationProblem:
    """Residual and score of one constraint set as quadratic forms in real v.

    Row k of the residual is v.R_k v - offsets[k], row 0 the norm v.v - 1;
    the score is v.S v.  Every unit v scores at most the top eigenvalue of
    S, so a top eigenvector with zero residual is the constrained optimum.
    """

    residual_forms: np.ndarray
    offsets: np.ndarray
    score_form: np.ndarray

    @classmethod
    def build(cls, constraint_set: str) -> "_PreparationProblem":
        x2, y2, z2, x3, y3, z3 = _diagonal_flux_matrices()
        if constraint_set == "symmetric-universal":
            rows, values = [x2 - x3, y2 - y3, z2 - z3, x2 - y2, y2 - z2], [0.0] * 5
            score_form = (x2 + y2 + z2 + x3 + y3 + z3) / 6.0
        elif constraint_set == "fully-biased":
            rows, values = [x2, y2, z2], [1.0] * 3
            score_form = (x2 + y2 + z2) / 3.0
        else:
            raise ValueError(f"unknown constraint set {constraint_set!r}")
        return cls(np.stack([np.eye(4), *rows]), np.array([1.0, *values]), score_form)

    def residual(self, v: np.ndarray) -> np.ndarray:
        return self.residual_forms @ v @ v - self.offsets

    def score(self, v: np.ndarray) -> float:
        return float(v @ self.score_form @ v)


def optimize_preparation(constraint_set: str) -> PreparationResult:
    """Best real-amplitude register preparation for the copying stage.

    constraint_set "symmetric-universal": equal fluxes on both output qubits,
    independent of the Pauli letter, maximized.  "fully-biased": unit flux to
    qubit 2.  The register is the top eigenvector of the score form S, signed
    so its leading amplitude is positive.  Since v.Sv <= lambda_max(S) for
    every unit v, it is the global optimum once it is feasible and the top
    eigenvalue is simple; otherwise RuntimeError.  The six diagonal forms are
    the two-qubit Paulis IX, ZX, ZI, XI, XZ and IZ, so both shipped sets
    pass with gaps 2/3 and 4/3.
    """
    problem = _PreparationProblem.build(constraint_set)
    eigenvalues, eigenvectors = np.linalg.eigh(problem.score_form)
    gap = float(eigenvalues[-1] - eigenvalues[-2])
    v = eigenvectors[:, -1]
    feas = float(np.abs(problem.residual(v)).max())
    if gap <= FEASIBILITY_TOL or not feas < FEASIBILITY_TOL:
        raise RuntimeError(
            f"no certified preparation: spectral gap {gap:.2e} and constraint residual "
            f"{feas:.2e} at the top eigenvector; the gap must exceed {FEASIBILITY_TOL:.0e} "
            f"and the residual stay below it"
        )
    lead = v[np.nonzero(np.abs(v) > 1e-8)[0][0]]
    v = v * np.sign(lead) + 0.0  # + 0.0 turns a flipped -0.0 into 0.0
    return PreparationResult(RegisterState(2, v.astype(complex)), v, problem.score(v), feas, gap)
