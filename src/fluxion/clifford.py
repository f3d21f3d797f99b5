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
# Seeded starts of the optimizer.  Only seeds 8 and 10 reach the symmetric
# optimum (flux 2/3); the best of seeds 0-7 is the feasible register
# (|00> - |11>)/sqrt(2) of flux 0, so fewer starts return a wrong answer and
# more return the same one.
PREPARATION_STARTS = 12


@dataclass(frozen=True)
class PreparationResult:
    state: RegisterState
    amplitudes: np.ndarray
    flux: float
    constraint_residual: float


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

    Row k of the residual is v.R_k v - offsets[k], so its Jacobian row is
    2 R_k v; the score is v.S v with gradient 2 S v.  Row 0 is the norm
    v.v - 1.
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

    def jacobian(self, v: np.ndarray) -> np.ndarray:
        return 2.0 * (self.residual_forms @ v)

    def score(self, v: np.ndarray) -> float:
        return float(v @ self.score_form @ v)

    def penalized(self, v: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """-score + mu |residual|^2 and its gradient."""
        rv = self.residual_forms @ v
        r = rv @ v - self.offsets
        sv = self.score_form @ v
        return float(mu * (r @ r) - v @ sv), 4.0 * mu * (r @ rv) - 2.0 * sv


def optimize_preparation(constraint_set: str) -> PreparationResult:
    """Best real-amplitude register preparation for the copying stage.

    constraint_set "symmetric-universal": equal fluxes on both output qubits,
    independent of the Pauli letter, maximized.  "fully-biased": unit flux to
    qubit 2.  The feasible sets are lower-dimensional with rank-deficient
    constraint Jacobians, so a staged quadratic penalty steers seeded starts
    into the right basin and a least-squares polish lands on the constraint
    manifold; the best feasible candidate wins.  Both stages use the exact
    gradients of the quadratic forms.
    """
    problem = _PreparationProblem.build(constraint_set)
    # loaded here, not at import: no other entry point optimizes
    from scipy.optimize import least_squares, minimize

    best = None
    best_infeasible = None
    for seed in range(PREPARATION_STARTS):
        v = np.random.default_rng(seed).normal(size=4)
        v /= np.linalg.norm(v)
        for mu in (10.0, 100.0, 1000.0):
            res = minimize(
                problem.penalized,
                v,
                args=(mu,),
                jac=True,
                method="BFGS",
                options={"maxiter": 400, "gtol": 1e-12},
            )
            v = res.x
        polish = least_squares(
            problem.residual, v, jac=problem.jacobian, xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        v = polish.x
        feas = float(np.abs(problem.residual(v)).max())
        if feas < FEASIBILITY_TOL:
            sc = problem.score(v)
            if best is None or sc > best[0]:
                best = (sc, v, feas)
        elif best_infeasible is None or feas < best_infeasible[2]:
            best_infeasible = (problem.score(v), v, feas)
    if best is None:
        sc, v, feas = best_infeasible
        raise RuntimeError(
            f"preparation optimizer did not converge; best residual {feas:.2e} "
            f"at amplitudes {np.round(v, 6).tolist()} with flux {sc:.6f}"
        )
    sc, v, feas = best
    v = v / np.linalg.norm(v)
    lead = v[np.nonzero(np.abs(v) > 1e-8)[0][0]]
    v = v * np.sign(lead)
    return PreparationResult(RegisterState(2, v.astype(complex)), v, sc, feas)
