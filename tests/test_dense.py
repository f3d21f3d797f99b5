import numpy as np
import pytest

from fluxion.chain import CouplingProfile
from fluxion.clifford import copying_stage, flux_matrix
from fluxion.dense import (
    SpinHamiltonian,
    anisotropy_deviation,
    evolve,
    flux_tomography,
    propagator,
    unitary_flux_tomography,
    universality_scan,
    uqcm_chain_fidelity,
)
from fluxion.pauli import PauliString, expectation
from fluxion.states import RegisterState, insert_qubit, psi_plus_state, uqcm_preparation_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"X": SX, "Y": SY, "Z": SZ, "I": np.eye(2, dtype=complex)}


def test_chain_constructors_match_kron():
    h = SpinHamiltonian.heisenberg_chain(2, 0.7, 2.0)
    expected = 0.35 * (np.kron(SX, SX) + np.kron(SY, SY) + 2.0 * np.kron(SZ, SZ))
    assert np.abs(h.to_matrix() - expected).max() < 1e-14

    prof = CouplingProfile(3, np.array([0.4, 1.1]))
    hxy = SpinHamiltonian.xy_chain(prof)
    expected = 0.2 * (np.kron(np.kron(SX, SX), np.eye(2)) + np.kron(np.kron(SY, SY), np.eye(2)))
    expected += 0.55 * (np.kron(np.eye(2), np.kron(SX, SX)) + np.kron(np.eye(2), np.kron(SY, SY)))
    assert np.abs(hxy.to_matrix() - expected).max() < 1e-14


def test_propagator_unitary_and_composes():
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 1.3)
    U1 = propagator(h, 0.4)
    U2 = propagator(h, 1.1)
    assert np.abs(U1 @ U1.conj().T - np.eye(8)).max() < 1e-12
    assert np.abs(U1 @ U2 - propagator(h, 1.5)).max() < 1e-12


def test_evolve_preserves_norm():
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 0.5)
    state = evolve(h, RegisterState.computational(3, 0b010), 2.7)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def decomposition_flux_row(U, register, input_qubit, target_qubit, target_letter):
    """Independent oracle: expand U^dag Sigma U over input-qubit letters.

    Partial-traces the evolved operator against each input-side Pauli and
    takes the register expectation of the residual block, with no Bloch
    tomography involved.
    """
    n = register.n_qubits + 1
    sigma = np.eye(1, dtype=complex)
    for q in range(1, n + 1):
        sigma = np.kron(sigma, PAULIS[target_letter] if q == target_qubit else np.eye(2))
    A = U.conj().T @ sigma @ U
    before = 1 << (input_qubit - 1)
    after = 1 << (n - input_qubit)
    A6 = A.reshape(before, 2, after, before, 2, after)
    row = []
    for letter in "XYZI":
        # contract the input qubit with sigma_letter / 2, leaving a register operator
        B = np.einsum("aibcjd,ji->abcd", A6, PAULIS[letter]) / 2
        B = B.reshape(before * after, before * after)
        v = register.amplitudes
        row.append(float(np.real(np.vdot(v, B @ v))))
    return np.array(row)


def test_tomography_matches_operator_decomposition():
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    register = psi_plus_state()
    for t in (0.3, 0.9):
        U = propagator(h, t)
        fm = flux_tomography(h, t, 2, register, 1)
        for i, letter in enumerate("XYZ"):
            oracle = decomposition_flux_row(U, register, 2, 1, letter)
            assert np.allclose(fm.entries[i], oracle, atol=1e-10)


def test_tomography_random_hamiltonian_against_decomposition():
    rng = np.random.default_rng(31)
    terms = []
    for _ in range(5):
        xm = int(rng.integers(0, 8))
        zm = int(rng.integers(0, 8))
        terms.append((float(rng.normal()), PauliString(3, xm, zm)))
    h = SpinHamiltonian(3, tuple(terms))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    register = RegisterState(2, v / np.linalg.norm(v))
    U = propagator(h, 0.8)
    fm = flux_tomography(h, 0.8, 1, register, 3)
    for i, letter in enumerate("XYZ"):
        oracle = decomposition_flux_row(U, register, 1, 3, letter)
        assert np.allclose(fm.entries[i], oracle, atol=1e-10)


def test_cloner_chain_flux_law():
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    register = psi_plus_state()
    for t in np.linspace(0, np.pi / np.sqrt(3), 25):
        fm = flux_tomography(h, t, 2, register, 1)
        expected = (2 / 3) * np.sin(np.sqrt(3) * t) ** 2
        assert np.abs(fm.diagonal() - expected).max() < 1e-9
        off = fm.entries.copy()
        np.fill_diagonal(off[:, :3], 0.0)
        assert np.abs(off).max() < 1e-9


def test_cloner_chain_targets_agree():
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    register = psi_plus_state()
    fm1 = flux_tomography(h, 0.61, 2, register, 1)
    fm3 = flux_tomography(h, 0.61, 2, register, 3)
    assert np.abs(fm1.entries - fm3.entries).max() < 1e-10


def test_uqcm_chain_fidelity_peak():
    tstar = np.pi / (2 * np.sqrt(3))
    assert abs(uqcm_chain_fidelity(1.0, tstar) - 5 / 6) < 1e-9
    # rescaling J moves the peak accordingly
    assert abs(uqcm_chain_fidelity(2.0, tstar / 2) - 5 / 6) < 1e-9
    assert uqcm_chain_fidelity(1.0, 0.0) == pytest.approx(0.5)


def test_universality_scan_singles_out_lam2():
    grid = np.arange(0.0, 1.82, 0.01)
    scan = universality_scan([0.0, 1.0, 2.0, 3.0], 1.0, grid)
    assert scan[2.0] < 1e-9
    for lam in (0.0, 1.0, 3.0):
        assert scan[lam] > 1e-2
    assert anisotropy_deviation(2.0, 1.0, grid) == scan[2.0]


def test_psi_plus_is_the_unique_optimal_register():
    """States whose XX and YY correlations approach +1 approach psi_plus."""
    rng = np.random.default_rng(77)
    xx = PauliString.from_label(2, "X1X2")
    yy = PauliString.from_label(2, "Y1Y2")
    psi = psi_plus_state().amplitudes
    for _ in range(300):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        state = RegisterState(2, v)
        cx = expectation(xx, state).real
        cy = expectation(yy, state).real
        shortfall = 2 - cx - cy
        overlap = abs(np.vdot(psi, v)) ** 2
        assert 1 - overlap <= shortfall / 2 + 1e-12


def test_cross_engine_circuit_tomography():
    """Dense tomography of the composed CNOT unitary equals the symbolic fluxes."""
    stage = copying_stage()
    U = stage.to_unitary()
    register = uqcm_preparation_state()
    for target in (2, 3):
        dense_fm = unitary_flux_tomography(U, 1, register, target)
        symbolic_fm = flux_matrix(stage, register, 1, target)
        assert np.abs(dense_fm.entries - symbolic_fm.entries).max() < 1e-10


def test_dense_cap():
    with pytest.raises(ValueError):
        SpinHamiltonian.heisenberg_chain(13, 1.0, 1.0)
    # one cap for dense Hamiltonians and dense register states
    with pytest.raises(ValueError):
        RegisterState.computational(13, 0)
