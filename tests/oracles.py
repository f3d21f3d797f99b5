"""Reference implementations that only tests call.

The dense ones build the full matrix the library avoids forming, so they
are for small registers only; the seeded penalty search checks the
eigenvector preparation optimizer from outside.  Tests import them as
`from oracles import ...`.
"""

from functools import partial

import numpy as np
from scipy import sparse
from scipy.optimize import least_squares, minimize

from fluxion.clifford import CliffordCircuit, Gate, _PreparationProblem
from fluxion.lindblad import DensityMatrix, LindbladSpec, _generator_pieces
from fluxion.pauli import _terms_sparse

_GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|


def embed(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """The 2x2 operator op acting on 1-based `qubit` of n, identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for pos in range(1, n + 1):
        out = np.kron(out, op if pos == qubit else np.eye(2, dtype=complex))
    return out


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


def signed_permutation(n_qubits: int, x_mask: int, z_mask: int, coefficient: complex):
    """Column index and value of each row of the word coefficient * i^{|x & z|} X^x Z^z, signed on the column."""
    cols = np.arange(1 << n_qubits) ^ x_mask
    signs = 1 - 2 * (np.bitwise_count(cols & z_mask).astype(np.int64) & 1)
    return cols, (coefficient * (1 + 0j, 1j, -1 + 0j, -1j)[(x_mask & z_mask).bit_count() % 4]) * signs


def canonical_coo(n_qubits: int, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of a sum of (x_mask, z_mask, coefficient) words, canonicalized by scipy.

    Every word's entries in term order, int32 indices, then
    `coo_array.sum_duplicates()` and `eliminate_zeros()`.
    """
    dim = 1 << n_qubits
    parts = [signed_permutation(n_qubits, x, z, c) for x, z, c in terms]
    rows = np.tile(np.arange(dim, dtype=np.int32), len(parts))
    cols = np.concatenate([np.empty(0, dtype=np.int32), *(idx for idx, _ in parts)]).astype(np.int32)
    vals = np.concatenate([np.empty(0, dtype=complex), *(v for _, v in parts)])
    M = sparse.coo_array((vals, (rows, cols)), shape=(dim, dim))
    M.sum_duplicates()
    M.eliminate_zeros()
    return M.row, M.col, M.data


def full_generator(spec: LindbladSpec, n_qubits: int) -> sparse.csr_array:
    """The Lindblad generator S on all 4^n vec(rho) coordinates, from its words, as a CSR array."""
    rows, cols, vals = _terms_sparse(2 * n_qubits, _generator_pieces(spec, n_qubits))
    return sparse.csr_array((vals, (rows, cols)), shape=(1 << 2 * n_qubits,) * 2)


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense unitary g_m ... g_1 of a whole circuit, gates in execution order."""
    U = np.eye(1 << circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        U = _gate_unitary(g, circuit.n_qubits) @ U
    return U


def superoperator(spec: LindbladSpec, n_qubits: int) -> np.ndarray:
    """Dense Lindblad generator on row-major vectorized density matrices.

    Built from its own pieces: dense H, the jump operators embedded from 2x2
    matrices in the order lower, raise, dephase per qubit, and K summed dense.
    """
    dim = 1 << n_qubits
    h = spec.hamiltonian
    H = np.zeros((dim, dim), dtype=complex) if h is None else h.to_matrix()
    jumps = []
    for q in range(1, n_qubits + 1):
        if spec.damping_rate > 0:
            jumps.append(np.sqrt(spec.damping_rate * (spec.n_bar + 1)) * embed(_SIGMA_MINUS, q, n_qubits))
            if spec.n_bar > 0:
                jumps.append(np.sqrt(spec.damping_rate * spec.n_bar) * embed(_SIGMA_PLUS, q, n_qubits))
        if spec.dephasing_rate > 0:
            jumps.append(np.sqrt(spec.dephasing_rate) * embed(_GATE_MATRICES["Z"], q, n_qubits))
    anticomm = sum((L.conj().T @ L for L in jumps), np.zeros((dim, dim), dtype=complex))
    eye = np.eye(dim, dtype=complex)
    L_total = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in jumps:
        L_total += np.kron(L, L.conj())
    L_total -= 0.5 * (np.kron(anticomm, eye) + np.kron(eye, anticomm.T))
    return L_total


def residual_jacobian(problem: _PreparationProblem, v: np.ndarray) -> np.ndarray:
    """Rows 2 R_k v: the Jacobian of the residual v.R_k v - offsets[k]."""
    return 2.0 * (problem.residual_forms @ v)


def penalized(problem: _PreparationProblem, v: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """-score + mu |residual|^2 and its gradient."""
    rv = problem.residual_forms @ v
    r = rv @ v - problem.offsets
    sv = problem.score_form @ v
    return float(mu * (r @ r) - v @ sv), 4.0 * mu * (r @ rv) - 2.0 * sv


def penalty_search(problem: _PreparationProblem) -> list[tuple[float, np.ndarray, float]]:
    """(score, v, max |residual|) of each of 12 seeded starts of a local penalty search.

    Staged quadratic penalties (BFGS at mu = 10, 100, 1000) steer a normal
    random start towards a feasible basin, and a least-squares polish lands
    on the constraint manifold; both use the exact gradients above.  It knows
    nothing of the score form's spectrum, so it checks the eigenvector
    preparation from outside.  Only seeds 8 and 10 reach the symmetric
    optimum.
    """
    out = []
    for seed in range(12):
        v = np.random.default_rng(seed).normal(size=4)
        v /= np.linalg.norm(v)
        for mu in (10.0, 100.0, 1000.0):
            opts = {"maxiter": 400, "gtol": 1e-12}
            v = minimize(partial(penalized, problem), v, args=(mu,), jac=True, method="BFGS", options=opts).x
        jac = partial(residual_jacobian, problem)
        v = least_squares(problem.residual, v, jac=jac, xtol=1e-15, ftol=1e-15, gtol=1e-15).x
        out.append((problem.score(v), v, float(np.abs(problem.residual(v)).max())))
    return out


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2."""
    return float(np.trace(rho.entries @ rho.entries).real)
