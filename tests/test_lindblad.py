import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fluxion.lindblad as lindblad
from fluxion.chain import CouplingProfile, flux_components, transfer_amplitude
from fluxion.dense import SpinHamiltonian, flux_tomography, propagator
from fluxion.lindblad import (
    _partial_trace,
    DensityMatrix,
    LindbladSpec,
    evolve_density,
    expectation_trajectory,
    open_flux_tomography,
    open_flux_trajectory,
)
from fluxion.flux import solve_affine
from fluxion.pauli import PauliObservable, PauliString
from fluxion.states import (
    TOMOGRAPHY_INPUTS,
    BlochVector,
    RegisterState,
    insert_qubit,
    psi_plus_state,
    reduced_qubit,
)
from oracles import purity, superoperator


def plus_density():
    return DensityMatrix.from_state(RegisterState(1, np.array([1.0, 1.0]) / np.sqrt(2)))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.6, 0], [0, 0.6]], dtype=complex))  # trace 1.2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.4, 0], [0, -0.4]], dtype=complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[np.nan, 0], [0, 1.0]], dtype=complex))  # NaN trace
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex))  # NaN coherence
    rho = DensityMatrix.from_state(psi_plus_state())
    assert purity(rho) == pytest.approx(1.0)
    assert np.abs(_partial_trace(rho.entries, 2, 1) - np.eye(2) / 2).max() < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        LindbladSpec(-0.1, 0.0)
    with pytest.raises(ValueError):
        LindbladSpec(0.1, -0.2)
    with pytest.raises(ValueError):
        LindbladSpec(0.1, 0.2, n_bar=-1.0)
    # nan would silently drop every damping jump; inf filled the generator with nan and the
    # integrator never finished
    for bad in (np.inf, -np.inf, np.nan):
        for rates in ((bad, 0.0), (0.1, bad), (0.1, 0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                LindbladSpec(*rates)
    _, jumps, _ = lindblad._generator_pieces(LindbladSpec(0.0, 0.0), 1)
    assert jumps == []


def test_damping_population_law():
    """<Z> from the excited state relaxes as 1 - 2 exp(-Gamma t)."""
    spec = LindbladSpec(0.8, 0.0)
    rho0 = DensityMatrix.from_state(RegisterState.computational(1, 1))
    ts = np.linspace(0.0, 5.0 / 0.8, 30)
    traj = expectation_trajectory(spec, PauliString.from_label(1, "Z1"), rho0, ts)
    assert np.abs(traj - (1 - 2 * np.exp(-0.8 * ts))).max() < 1e-6


def test_coherence_decay_law():
    """<X> from |+> decays at Gamma/2 + 2 gamma."""
    spec = LindbladSpec(0.4, 0.15)
    ts = np.linspace(0.0, 6.0, 25)
    traj = expectation_trajectory(spec, PauliString.from_label(1, "X1"), plus_density(), ts)
    assert np.abs(traj - np.exp(-(0.4 / 2 + 2 * 0.15) * ts)).max() < 1e-6


def test_thermal_steady_state():
    nbar = 0.7
    spec = LindbladSpec(1.5, 0.0, n_bar=nbar)
    rho = evolve_density(DensityMatrix.from_state(RegisterState.computational(1, 0)), spec, 40.0)
    z = BlochVector.of_reduced(_partial_trace(rho.entries, 1, 1)).z
    assert z == pytest.approx(1 / (2 * nbar + 1), abs=1e-8)
    # thermal occupation adds an upward jump, accelerating coherence decay
    ts = np.linspace(0.0, 4.0, 15)
    traj = expectation_trajectory(spec, PauliString.from_label(1, "X1"), plus_density(), ts)
    rate = 1.5 * (2 * nbar + 1) / 2
    assert np.abs(traj - np.exp(-rate * ts)).max() < 1e-6


def test_zero_rates_reduce_to_unitary():
    prof = CouplingProfile.uniform_eta(3, 1.0, 0.9)
    h = SpinHamiltonian.xy_chain(prof)
    spec = LindbladSpec(0.0, 0.0, hamiltonian=h)
    state = insert_qubit(psi_plus_state(), np.array([0.6, 0.8], dtype=complex), 2)
    rho = evolve_density(DensityMatrix.from_state(state), spec, 1.7)
    U = propagator(h, 1.7)
    expected = U @ np.outer(state.amplitudes, state.amplitudes.conj()) @ U.conj().T
    assert np.abs(rho.entries - expected).max() < 1e-8
    assert purity(rho) == pytest.approx(1.0, abs=1e-8)


def test_matches_superoperator_exponential():
    rng = np.random.default_rng(17)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = RegisterState(2, v / np.linalg.norm(v))
    h = SpinHamiltonian.heisenberg_chain(2, 0.6, 1.2)
    spec = LindbladSpec(0.3, 0.1, n_bar=0.2, hamiltonian=h)
    rho0 = DensityMatrix.from_state(state)
    t = 0.9
    vec = expm(superoperator(spec, 2) * t) @ rho0.entries.ravel()
    direct = evolve_density(rho0, spec, t)
    assert np.abs(direct.entries.ravel() - vec).max() < 1e-7


def test_superoperator_preserves_trace():
    spec = LindbladSpec(0.5, 0.2, n_bar=0.4)
    L = superoperator(spec, 1)
    # trace functional is a left null vector of any Lindblad generator
    tr = np.eye(2, dtype=complex).ravel()
    assert np.abs(tr @ L).max() < 1e-12


def test_dephasing_purity_monotone():
    spec = LindbladSpec(0.0, 0.3)
    ts = np.linspace(0.0, 4.0, 12)
    purities = []
    for t in ts:
        purities.append(purity(evolve_density(plus_density(), spec, float(t))))
    diffs = np.diff(np.array(purities))
    assert np.all(diffs <= 1e-9)
    x_end = np.exp(-2 * 0.3 * ts[-1])
    assert purities[-1] == pytest.approx((1 + x_end**2) / 2, abs=1e-8)


def test_trajectory_edge_cases():
    spec = LindbladSpec(0.2, 0.0)
    rho0 = plus_density()
    ident = PauliString(1, 0, 0)
    ts = np.linspace(0.0, 3.0, 7)
    assert np.allclose(expectation_trajectory(spec, ident, rho0, ts), 1.0, atol=1e-9)
    assert expectation_trajectory(spec, ident, rho0, np.array([])).size == 0
    only_zero = expectation_trajectory(spec, PauliString.from_label(1, "X1"), rho0, np.zeros(3))
    assert np.allclose(only_zero, 1.0)
    with pytest.raises(ValueError):
        expectation_trajectory(spec, ident, rho0, np.array([1.0, 0.5]))
    # a dissipative generator must not be integrated backwards
    with pytest.raises(ValueError):
        expectation_trajectory(spec, ident, rho0, np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        expectation_trajectory(spec, ident, rho0, np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        evolve_density(rho0, spec, -0.5)
    with pytest.raises(ValueError):
        open_flux_tomography(spec, -0.5, 1, RegisterState.empty(), 1)
    with pytest.raises(ValueError):
        open_flux_trajectory(spec, [0.5, -0.5], 1, RegisterState.empty(), 1)
    # a nan coefficient set directly, past add_string, must not come back as a nan expectation
    with pytest.raises(AssertionError, match="non-finite"):
        expectation_trajectory(spec, PauliObservable(1, {(0, 1): np.nan}), rho0, ts)


def test_open_tomography_single_qubit():
    """Damping plus dephasing contracts the Bloch map to known diagonals."""
    gam, deph, t = 0.6, 0.1, 1.3
    spec = LindbladSpec(gam, deph)
    fm = open_flux_tomography(spec, t, 1, RegisterState.empty(), 1)
    transverse = np.exp(-(gam / 2 + 2 * deph) * t)
    expected = np.array(
        [
            [transverse, 0, 0, 0],
            [0, transverse, 0, 0],
            [0, 0, np.exp(-gam * t), 1 - np.exp(-gam * t)],
        ]
    )
    assert np.abs(fm.entries - expected).max() < 1e-8


def test_open_tomography_reduces_to_closed():
    prof = CouplingProfile.uniform_eta(3, 1.0, 0.8)
    h = SpinHamiltonian.xy_chain(prof)
    spec = LindbladSpec(0.0, 0.0, hamiltonian=h)
    register = RegisterState.computational(2, 0)
    open_fm = open_flux_tomography(spec, 1.1, 1, register, 3)
    closed_fm = flux_tomography(h, 1.1, 1, register, 3)
    assert np.abs(open_fm.entries - closed_fm.entries).max() < 1e-8


def test_damped_pair_transverse_flux():
    """Uniform damping scales the transverse flux by exp(-Gamma t / 2).

    Only the single-excitation half of the vacuum-excitation coherence
    decays, so the factor carries half the population rate.
    """
    gam, t = 0.25, 1.4
    prof = CouplingProfile.uniform_eta(2, 1.0, 1.0)
    h = SpinHamiltonian.xy_chain(prof)
    spec = LindbladSpec(gam, 0.0, hamiltonian=h)
    register = RegisterState.computational(1, 0)
    fm = open_flux_tomography(spec, t, 1, register, 2)
    closed = flux_tomography(h, t, 1, register, 2)
    factor = np.exp(-gam * t / 2)
    assert fm.entry("X", "X") == pytest.approx(factor * closed.entry("X", "X"), abs=1e-7)
    assert fm.entry("Y", "X") == pytest.approx(factor * closed.entry("Y", "X"), abs=1e-7)


def test_open_cap():
    spec = LindbladSpec(0.1, 0.0)
    big = DensityMatrix(9, np.eye(512, dtype=complex) / 512)
    with pytest.raises(ValueError):
        evolve_density(big, spec, 0.5)
    with pytest.raises(ValueError):
        expectation_trajectory(spec, PauliString(9, 0, 0), big, np.array([0.0, 1.0]))


rates = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


@st.composite
def open_specs(draw):
    """(spec, n): random rates and no, an XY or a Heisenberg chain Hamiltonian."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["none", "xy", "heisenberg"] if n > 1 else ["none"]))
    if kind == "xy":
        couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
        h = SpinHamiltonian.xy_chain(CouplingProfile(n, np.array(couplings)))
    elif kind == "heisenberg":
        h = SpinHamiltonian.heisenberg_chain(n, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    else:
        h = None
    return LindbladSpec(draw(rates), draw(rates), draw(rates), h), n


@settings(max_examples=80, deadline=None)
@given(open_specs(), st.integers(0, 2**32 - 1))
def test_sparse_generator_matches_superoperator(case, seed):
    spec, n = case
    dim = 1 << n
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vec = (a + a.conj().T).ravel()
    S = lindblad._generator(spec, n)
    assert np.abs(S @ vec - superoperator(spec, n) @ vec).max() < 1e-12


def four_input_open_tomography(spec, t, input_qubit, register, target_qubit):
    """Oracle: evolve the four pure inputs and fit the affine map by least squares."""
    n = register.n_qubits + 1
    outputs = {}
    for key, amps in TOMOGRAPHY_INPUTS.items():
        rho0 = DensityMatrix.from_state(insert_qubit(register, amps, input_qubit))
        rho = evolve_density(rho0, spec, t)
        outputs[key] = BlochVector.of_reduced(_partial_trace(rho.entries, n, target_qubit)).as_array()
    return solve_affine(outputs, target_qubit, t)


@settings(max_examples=40, deadline=None)
@given(open_specs(), st.one_of(st.just(0.0), st.floats(0.01, 3.0)), st.integers(0, 2**32 - 1), st.data())
def test_unit_readout_matches_four_input_tomography(case, t, seed, data):
    spec, n = case
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << (n - 1)) + 1j * rng.normal(size=1 << (n - 1))
    register = RegisterState(n - 1, v / np.linalg.norm(v))
    input_qubit = data.draw(st.integers(1, n))
    target_qubit = data.draw(st.integers(1, n))
    direct = open_flux_tomography(spec, t, input_qubit, register, target_qubit).entries
    oracle = four_input_open_tomography(spec, t, input_qubit, register, target_qubit).entries
    assert np.abs(direct - oracle).max() < 1e-10


def test_three_integrations_per_tomography(monkeypatch):
    calls = []
    original = lindblad.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(lindblad, "solve_ivp", counted)
    spec = LindbladSpec(0.2, 0.05, 0.1, SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(3, 1.0, 0.8)))
    register = RegisterState.computational(2, 0)
    open_flux_tomography(spec, 0.0, 1, register, 3)
    assert calls == []
    open_flux_tomography(spec, 0.6, 1, register, 3)
    assert calls == [(0.0, 0.6)] * 3
    # a grid integrates each nonzero interval once per unit, from the previous grid time
    calls.clear()
    fluxes = open_flux_trajectory(spec, [0.0, 0.3, 0.3, 0.6, 1.0], 1, register, 3)
    assert len(fluxes) == 5
    assert calls == [(0.0, 0.3)] * 3 + [(0.3, 0.6)] * 3 + [(0.6, 1.0)] * 3


@pytest.mark.parametrize("bad", [0, 4])
def test_out_of_range_qubit_rejected(monkeypatch, bad):
    """Input or target qubit 0 or n + 1 raises, in the open engine before any integration."""
    calls = []
    original = lindblad.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(lindblad, "solve_ivp", counted)
    h = SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(3, 1.0, 0.8))
    spec = LindbladSpec(0.2, 0.05, 0.1, h)
    register = RegisterState.computational(2, 0)
    message = f"{bad} out of range 1..3"
    for input_qubit, target_qubit in ((bad, 3), (1, bad)):
        with pytest.raises(ValueError, match=message):
            flux_tomography(h, 0.6, input_qubit, register, target_qubit)
        with pytest.raises(ValueError, match=message):
            open_flux_tomography(spec, 5.0, input_qubit, register, target_qubit)
    with pytest.raises(ValueError, match=message):
        reduced_qubit(RegisterState.computational(3, 0), bad)
    assert calls == []


def test_generator_built_once_per_spec(monkeypatch):
    builds = []
    original = lindblad._generator_pieces

    def counted(spec, n):
        builds.append(n)
        return original(spec, n)

    monkeypatch.setattr(lindblad, "_generator_pieces", counted)
    h = SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(3, 1.0, 0.8))
    spec = LindbladSpec(0.2, 0.05, 0.1, h)
    register = RegisterState.computational(2, 0)
    open_flux_tomography(spec, 0.6, 1, register, 3)
    open_flux_tomography(spec, 1.5, 1, register, 3)
    evolve_density(DensityMatrix.from_state(RegisterState.computational(3, 4)), spec, 0.9)
    assert builds == [3]


def zero_temperature_chain(n, gam=0.3):
    """Uniform T=0 damping on an XY chain, and its closed-form flux at time t.

    With every register qubit in |0>, the no-jump part -i gamma/2 N commutes
    with the excitation-conserving H, and a jump only returns the vacuum, so
    damping multiplies the chain amplitude by exp(-gamma t / 2).
    """
    profile = CouplingProfile.uniform_eta(n, 1.0, 0.7)
    spec = LindbladSpec(gam, 0.0, 0.0, SpinHamiltonian.xy_chain(profile))

    def expected(t):
        return flux_components(transfer_amplitude(profile, t) * np.exp(-gam * t / 2), n, t).entries

    return spec, expected


@pytest.mark.parametrize("t", [0.7, 2.9])
def test_zero_temperature_damping_closed_form(t):
    spec, expected = zero_temperature_chain(6)
    fm = open_flux_tomography(spec, t, 1, RegisterState.computational(5, 0), 6)
    assert np.abs(fm.entries - expected(t)).max() < 1e-9


@pytest.mark.parametrize("n", [6, 8])
def test_zero_temperature_damping_closed_form_grid(n):
    spec, expected = zero_temperature_chain(n)
    ts = [0.7, 2.9]
    fluxes = open_flux_trajectory(spec, ts, 1, RegisterState.computational(n - 1, 0), n)
    assert [fm.time_label for fm in fluxes] == ts
    for t, fm in zip(ts, fluxes):
        assert np.abs(fm.entries - expected(t)).max() < 1e-9


def test_thermal_chain_trajectory_matches_exponential():
    """Grid fluxes of a thermal damped chain against exp(S t) applied to the inputs.

    The reference steps by the exact propagator exp(S dt): exp(S k dt) = exp(S dt)^k.
    """
    n, dt = 4, 0.1
    h = SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(n, 1.0, 1.0))
    spec = LindbladSpec(0.1, 0.05, 0.2, h)
    register = RegisterState.computational(n - 1, 0)
    ts = dt * np.arange(51)
    step = expm(superoperator(spec, n) * dt)
    vecs = {}
    for key, amps in TOMOGRAPHY_INPUTS.items():
        v = insert_qubit(register, amps, 1).amplitudes
        vecs[key] = np.outer(v, v.conj()).ravel()
    worst = 0.0
    for t, fm in zip(ts, open_flux_trajectory(spec, ts, 1, register, n)):
        outputs = {}
        for key, vec in vecs.items():
            rho = DensityMatrix(n, vec.reshape(1 << n, 1 << n))
            outputs[key] = BlochVector.of_reduced(_partial_trace(rho.entries, n, n)).as_array()
            vecs[key] = step @ vec
        worst = max(worst, np.abs(fm.entries - solve_affine(outputs, n, t).entries).max())
    assert worst < 1e-10
