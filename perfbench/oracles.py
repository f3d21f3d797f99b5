"""Reference computations that do not use fluxion.

An engine bug cannot hide in these: chain amplitudes come from a dense
eigensolve of the full hopping matrix, open dynamics from `expm_multiply` on a
Lindblad generator built here, and the single-qubit decay laws are closed
forms.  The cross-engine checks in workloads.py use the other engine instead.
"""

from __future__ import annotations

import numpy as np

# Bloch vectors of the tomography inputs |0>, |1>, |+>, |+i>, with the
# constant 1 that picks up the identity column.
_INPUT_BLOCH = np.array(
    [[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -1.0, 1.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]]
)
_INPUT_AMPS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j]) / np.sqrt(2.0),
)


def uniform_eta_couplings(n_qubits: int, eta: float) -> np.ndarray:
    c = np.ones(n_qubits - 1)
    c[0] = c[-1] = eta
    return c


def chain_amplitude(couplings, times) -> np.ndarray:
    """f(t) from site 1 to site N of exp(-i M t), M the dense hopping matrix."""
    c = np.asarray(couplings, dtype=float)
    w, V = np.linalg.eigh(np.diag(c, 1) + np.diag(c, -1))
    return np.exp(-1j * np.outer(np.atleast_1d(np.asarray(times, dtype=float)), w)) @ (V[0] * V[-1])


def single_qubit_laws(damping: float, dephasing: float, n_bar: float, t: float) -> np.ndarray:
    """Flux matrix of one thermally damped, dephased qubit at time t."""
    rate = damping * (2 * n_bar + 1)
    zz = np.exp(-rate * t)
    xx = np.exp(-(rate / 2 + 2 * dephasing) * t)
    return np.array([[xx, 0, 0, 0], [0, xx, 0, 0], [0, 0, zz, (1 - zz) / (2 * n_bar + 1)]])


def _embed(op, qubit: int, n: int):
    from scipy import sparse

    return sparse.kron(
        sparse.kron(sparse.identity(1 << (qubit - 1)), sparse.csr_matrix(op)),
        sparse.identity(1 << (n - qubit)),
        format="csr",
    )


def open_flux_series(couplings, damping, dephasing, n_bar, times, target: int) -> list[np.ndarray]:
    """Flux matrices of input qubit 1 on `target` of an XY chain under Lindblad
    evolution, register qubits 2..N in |0>, on an evenly spaced grid from 0."""
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    n = len(couplings) + 1
    dim = 1 << n
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1> -> |0>, toward Z = +1
    raise_ = lower.T
    pauli_z = np.diag([1.0, -1.0])
    H = sparse.csr_matrix((dim, dim), dtype=complex)
    for i, J in enumerate(couplings, start=1):
        hop = _embed(raise_, i, n) @ _embed(lower, i + 1, n)
        H = H + J * (hop + hop.T)
    jumps = []
    for q in range(1, n + 1):
        if damping > 0:
            jumps.append(np.sqrt(damping * (n_bar + 1)) * _embed(lower, q, n))
            if n_bar > 0:
                jumps.append(np.sqrt(damping * n_bar) * _embed(raise_, q, n))
        if dephasing > 0:
            jumps.append(np.sqrt(dephasing) * _embed(pauli_z, q, n))
    eye = sparse.identity(dim, format="csr")
    # row-major vec(A rho B) = (A kron B^T) vec(rho)
    gen = -1j * (sparse.kron(H, eye) - sparse.kron(eye, H.T))
    for L in jumps:
        LdL = (L.conj().T @ L).tocsr()
        gen = gen + sparse.kron(L, L.conj()) - 0.5 * (sparse.kron(LdL, eye) + sparse.kron(eye, LdL.T))
    register = np.zeros(dim >> 1, dtype=complex)
    register[0] = 1.0
    starts = []
    for amps in _INPUT_AMPS:
        psi = np.kron(amps, register)
        starts.append(np.outer(psi, psi.conj()).ravel())
    times = np.asarray(times, dtype=float)
    rhos = expm_multiply(
        gen.tocsc(), np.array(starts).T, start=0.0, stop=times[-1], num=times.size, endpoint=True
    )
    before, after = 1 << (target - 1), 1 << (n - target)
    out = []
    for k in range(times.size):
        bloch = []
        for col in range(4):
            r = np.einsum("aibajb->ij", rhos[k][:, col].reshape(before, 2, after, before, 2, after))
            bloch.append([2 * r[0, 1].real, -2 * r[0, 1].imag, (r[0, 0] - r[1, 1]).real])
        out.append(np.linalg.solve(_INPUT_BLOCH, np.array(bloch)).T)
    return out
