"""Dense reference implementations that only tests call.

Each one builds the full matrix the library avoids forming, so it is for
small registers only.  Tests import it as `from oracles import ...`.
"""

import numpy as np

from fluxion.clifford import CliffordCircuit, Gate
from fluxion.lindblad import DensityMatrix, LindbladSpec, _generator_pieces
from fluxion.states import embed

_GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _gate_unitary(gate: Gate, n: int) -> np.ndarray:
    """Dense unitary of one gate on n qubits, qubit 1 the most significant bit."""
    dim = 1 << n
    if gate.name == "CNOT":
        c, t = gate.qubits
        cb, tb = n - c, n - t
        U = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            j = i ^ (1 << tb) if (i >> cb) & 1 else i
            U[j, i] = 1.0
        return U
    return embed(_GATE_MATRICES[gate.name], gate.qubits[0], n)


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense unitary g_m ... g_1 of a whole circuit, gates in execution order."""
    U = np.eye(1 << circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        U = _gate_unitary(g, circuit.n_qubits) @ U
    return U


def superoperator(spec: LindbladSpec, n_qubits: int) -> np.ndarray:
    """Dense Lindblad generator on row-major vectorized density matrices."""
    H, jumps, anticomm = _generator_pieces(spec, n_qubits)
    dim = 1 << n_qubits
    eye = np.eye(dim, dtype=complex)
    L_total = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in jumps:
        L_total += np.kron(L, L.conj())
    L_total -= 0.5 * (np.kron(anticomm, eye) + np.kron(eye, anticomm.T))
    return L_total


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2."""
    return float(np.trace(rho.entries @ rho.entries).real)
