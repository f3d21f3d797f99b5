import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxion import dense
from fluxion.chain import CouplingProfile, flux_components, transfer_amplitude
from fluxion.clifford import copying_stage, flux_matrix
from fluxion.dense import (
    SpinHamiltonian,
    anisotropy_deviation,
    evolve,
    flux_tomography,
    flux_trajectory,
    propagator,
    unitary_flux_tomography,
    universality_scan,
    uqcm_chain_fidelity,
)
from fluxion.flux import FluxMatrix, solve_affine
from fluxion.pauli import PauliString, expectation
from fluxion.states import (
    DENSE_QUBIT_CAP,
    TOMOGRAPHY_INPUTS,
    RegisterState,
    bloch_of_qubit,
    insert_qubit,
    psi_plus_state,
    uqcm_preparation_state,
)
from oracles import circuit_unitary

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


def random_term_hamiltonian(n, rng, count=5):
    """Random real couplings on random Hermitian Pauli words of n qubits."""
    terms = []
    for _ in range(count):
        xm = int(rng.integers(0, 1 << n))
        zm = int(rng.integers(0, 1 << n))
        terms.append((float(rng.normal()), PauliString(n, xm, zm)))
    return SpinHamiltonian(n, tuple(terms))


def test_tomography_random_hamiltonian_against_decomposition():
    rng = np.random.default_rng(31)
    h = random_term_hamiltonian(3, rng)
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
    assert anisotropy_deviation(SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0), grid) == scan[2.0]


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
    U = circuit_unitary(stage)
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


def eigh_propagator(h, t):
    """exp(-iHt) from one full-space eigh of the dense matrix (oracle)."""
    w, V = np.linalg.eigh(h.to_matrix())
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def four_input_tomography(U, input_qubit, register, target_qubit):
    """Oracle: evolve the four pure inputs and fit the affine map by least squares."""
    n = register.n_qubits + 1
    outputs = {}
    for key, amps in TOMOGRAPHY_INPUTS.items():
        out = RegisterState(n, U @ insert_qubit(register, amps, input_qubit).amplitudes)
        outputs[key] = bloch_of_qubit(out, target_qubit).as_array()
    return solve_affine(outputs, target_qubit, "")


@st.composite
def hamiltonians(draw, n_min=2, n_max=5):
    """An XY chain, a Heisenberg chain (no terms at n = 1) or a random-term Hamiltonian."""
    n = draw(st.integers(n_min, n_max))
    kind = draw(st.sampled_from(["xy", "heisenberg", "random"] if n > 1 else ["heisenberg", "random"]))
    if kind == "xy":
        couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
        return SpinHamiltonian.xy_chain(CouplingProfile(n, np.array(couplings)))
    if kind == "heisenberg":
        return SpinHamiltonian.heisenberg_chain(n, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    return random_term_hamiltonian(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def random_register(n_qubits, rng):
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return RegisterState(n_qubits, v / np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(hamiltonians(), st.floats(0.0, 6.0), st.integers(0, 2**32 - 1), st.data())
def test_direct_readout_matches_four_input_tomography(h, t, seed, data):
    n = h.n_qubits
    register = random_register(n - 1, np.random.default_rng(seed))
    input_qubit = data.draw(st.integers(1, n))
    target_qubit = data.draw(st.integers(1, n))
    U = eigh_propagator(h, t)
    oracle = four_input_tomography(U, input_qubit, register, target_qubit).entries
    direct = flux_tomography(h, t, input_qubit, register, target_qubit).entries
    assert np.abs(direct - oracle).max() < 1e-12
    via_unitary = unitary_flux_tomography(U, input_qubit, register, target_qubit).entries
    assert np.abs(via_unitary - oracle).max() < 1e-12


@st.composite
def time_grids(draw):
    """Unsorted grids of 1-12 times in [-6, 6] that include t = 0 and list some time twice."""
    times = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=10))
    grid = times + [0.0, draw(st.sampled_from(times))]
    return draw(st.permutations(grid))


@settings(max_examples=60, deadline=None)
@given(hamiltonians(n_min=1), time_grids(), st.integers(0, 2**32 - 1), st.data())
def test_trajectory_matches_unitary_tomography_at_every_time(h, grid, seed, data):
    """Every FluxMatrix of one trajectory equals the read-out of the sector propagator at its time."""
    n = h.n_qubits
    register = random_register(n - 1, np.random.default_rng(seed))
    input_qubit = data.draw(st.integers(1, n))
    target_qubit = data.draw(st.integers(1, n))
    trajectory = flux_trajectory(h, grid, input_qubit, register, target_qubit)
    assert [fm.time_label for fm in trajectory] == grid
    for t, fm in zip(grid, trajectory):
        oracle = unitary_flux_tomography(propagator(h, t), input_qubit, register, target_qubit)
        assert np.abs(fm.entries - oracle.entries).max() < 1e-12


def test_anisotropy_deviation_keeps_the_earliest_tied_time(monkeypatch):
    """np.argmax keeps the first of equal means, as the strict `>` scan did.

    The two read-outs have the same diagonal mean 1/2 (exact in binary) and
    spreads 0 and 1/2; whichever is listed first is reported.
    """
    flat = FluxMatrix(1, 0.0, np.diag([0.5, 0.5, 0.5, 0.0])[:3])
    spread = FluxMatrix(1, 0.0, np.diag([0.25, 0.5, 0.75, 0.0])[:3])
    h = SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0)
    for pair, expected in (((flat, spread), 0.0), ((spread, flat), 0.5)):
        monkeypatch.setattr(dense, "flux_trajectory", lambda *args, pair=pair: list(pair))
        assert anisotropy_deviation(h, [0.4, 0.4]) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda h: flux_tomography(h, np.nan, 2, psi_plus_state(), 1), "t=nan"),
        (lambda h: flux_tomography(h, np.inf, 2, psi_plus_state(), 1), "t=inf"),
        (lambda h: anisotropy_deviation(h, [0.1, np.nan]), "t=nan"),
        (lambda h: evolve(h, RegisterState.computational(3, 1), np.nan), "t=nan"),
        (lambda h: flux_trajectory(h, np.zeros((2, 3)), 2, psi_plus_state(), 1), r"shape \(2, 3\)"),
    ],
    ids=["flux_tomography-nan", "flux_tomography-inf", "anisotropy_deviation-nan", "evolve-nan", "trajectory-2d"],
)
def test_bad_times_rejected_before_any_eigensolve(monkeypatch, call, message):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
    with pytest.raises(ValueError, match=message):
        call(SpinHamiltonian.heisenberg_chain(3, 1.0, 2.0))
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(hamiltonians(n_min=1), st.floats(-6.0, 6.0))
def test_sector_propagator_matches_full_eigh(h, t):
    assert np.abs(propagator(h, t) - eigh_propagator(h, t)).max() < 1e-12


def test_sectors_read_off_the_matrix():
    # XX and YY each couple |00> and |11>; only their sum cancels, so an XY
    # chain splits into its n + 1 excitation-number sectors
    h = SpinHamiltonian.xy_chain(CouplingProfile(6, np.linspace(0.5, 1.5, 5)))
    assert [idx.size for idx, _, _ in h._eigensystem()] == [1, 6, 15, 20, 15, 6, 1]
    assert len(SpinHamiltonian.heisenberg_chain(4, 1.0, 0.3)._eigensystem()) == 5
    random_terms = random_term_hamiltonian(3, np.random.default_rng(31))
    assert len(random_terms._eigensystem()) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_coupling_rejected(bad):
    xx = PauliString.from_label(2, "X1X2")
    with pytest.raises(ValueError):
        SpinHamiltonian(2, ((bad, xx),))
    with pytest.raises(ValueError):
        SpinHamiltonian.heisenberg_chain(3, 1.0, bad)
    # the Hermiticity check itself rejects non-finite entries
    h = SpinHamiltonian(2, ((1.0, xx),))
    object.__setattr__(h, "terms", ((bad, xx),))
    with pytest.raises(AssertionError):
        h._eigensystem()


def test_non_hermitian_term_rejected():
    for label in ("X1", "Z1Z2"):
        with pytest.raises(ValueError, match="Hermitian"):
            SpinHamiltonian(2, ((0.5, PauliString.from_label(2, label, phase=1j)),))
    # i |000><000| as its eight Z words lies in the one sector that the input kets of an excited
    # register never touch, so lazy sector solves would never see it: construction rejects it
    words = [PauliString(3, 0, z_mask, 1j) for z_mask in range(8)]
    projector = sum(s.to_matrix() for s in words) / 8
    assert np.array_equal(projector, np.diag([1j] + [0] * 7))
    chain = SpinHamiltonian.xy_chain(CouplingProfile(3, np.array([1.0, 0.7])))
    with pytest.raises(ValueError, match="Hermitian"):
        SpinHamiltonian(3, chain.terms + tuple((1 / 8, s) for s in words))


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The block size of every `np.linalg.eigh` call the test makes."""
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda B: sizes.append(len(B)) or eigh(B))
    return sizes


def test_computational_register_solves_only_the_two_touched_sectors(eigh_sizes):
    """|0...0> with the input qubit gives kets in sectors 0 and 1; the 252-state middle sector
    of a ten-qubit XY chain is never diagonalized."""
    n = 10
    h = SpinHamiltonian.xy_chain(CouplingProfile(n, np.linspace(0.5, 1.5, n - 1)))
    flux_tomography(h, 1.3, 1, RegisterState.computational(n - 1, 0), n)
    assert eigh_sizes == [1, 10]
    assert sorted(h._eig) == [0, 1]


def test_later_registers_solve_only_sectors_not_yet_cached(eigh_sizes):
    n, t = 5, 0.9
    prof = CouplingProfile(n, np.array([0.6, 1.2, 0.9, 1.4]))
    h = SpinHamiltonian.xy_chain(prof)
    U = propagator(SpinHamiltonian.xy_chain(prof), t)  # a separate Hamiltonian solves every sector
    eigh_sizes.clear()
    # input at qubit 2 of |0100> gives kets |01000> and |01100>: sectors 1 and 2
    for register, solved, sizes in (
        (RegisterState.computational(n - 1, 0b0100), [1, 3], [5, 10]),
        (random_register(n - 1, np.random.default_rng(24)), [0, 1, 3, 7, 15, 31], [1, 10, 5, 1]),
    ):
        fm = flux_tomography(h, t, 2, register, 4)
        oracle = unitary_flux_tomography(U, 2, register, 4)
        assert np.abs(fm.entries - oracle.entries).max() < 1e-12
        assert (sorted(h._eig), eigh_sizes) == (solved, sizes)
        eigh_sizes.clear()


def test_hamiltonian_without_popcount_sectors_solves_one_block(eigh_sizes):
    h = random_term_hamiltonian(3, np.random.default_rng(31))
    flux_tomography(h, 0.8, 1, RegisterState.computational(2, 0), 3)
    flux_tomography(h, 0.4, 2, psi_plus_state(), 1)
    assert eigh_sizes == [8]
    assert list(h._eig) == [0]


def test_chain_matches_dense_at_cap():
    """The single-excitation reduction agrees with tomography at the dense cap."""
    n = DENSE_QUBIT_CAP
    rng = np.random.default_rng(12)
    prof = CouplingProfile(n, rng.uniform(0.2, 1.5, size=n - 1))
    h = SpinHamiltonian.xy_chain(prof)
    register = RegisterState.computational(n - 1, 0)
    for t in (1.7, 6.3):
        dense = flux_tomography(h, t, 1, register, n)
        reduced = flux_components(transfer_amplitude(prof, t), n, t)
        assert np.abs(dense.entries - reduced.entries).max() < 1e-9
