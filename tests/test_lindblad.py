import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse import _sparsetools

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
    input_kets,
    insert_qubit,
    psi_plus_state,
    reduced_qubit,
)
from oracles import full_generator, purity, superoperator


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


def test_density_checks_see_past_the_live_block():
    """Eigenvalues are taken on the kets with a nonzero row, Hermiticity on the whole matrix."""
    arr = np.zeros((8, 8), dtype=complex)
    arr[np.ix_([2, 5], [2, 5])] = [[0.5, 0.6], [0.6, 0.5]]  # eigenvalues 1.1 and -0.1
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(3, arr)
    arr[2, 5] = arr[5, 2] = 0.4
    assert np.array_equal(DensityMatrix(3, arr).entries, arr)
    for i, j, drift in ((2, 5, -1e-6), (2, 7, 0.0)):  # anti-Hermitian, and into a ket whose row stays 0
        bad = arr.copy()
        bad[i, j] += 1e-6
        bad[j, i] += drift
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(3, bad)


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
    # zero rates and no Hamiltonian: S = 0, with no word
    assert lindblad._generator_pieces(LindbladSpec(0.0, 0.0), 1) == []


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
    # a scalar grid is the one-time case, as in the dense engine
    (single,) = open_flux_trajectory(spec, 0.5, 1, RegisterState.empty(), 1)
    once = open_flux_tomography(spec, 0.5, 1, RegisterState.empty(), 1)
    assert single.time_label == once.time_label and np.array_equal(single.entries, once.entries)
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
    # a nan coefficient written into the terms after construction, past every constructor and
    # add_string check, must not come back as a nan expectation
    obs = PauliObservable(1, {(0, 1): 1.0})
    obs.terms[(0, 1)] = np.nan
    with pytest.raises(AssertionError, match="non-finite"):
        expectation_trajectory(spec, obs, rho0, ts)


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
    S = full_generator(spec, n)
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


@pytest.fixture
def integrations(monkeypatch):
    """The (start, end) span of every `lindblad.solve_ivp` call the test makes."""
    calls = []
    original = lindblad.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(lindblad, "solve_ivp", counted)
    return calls


def test_three_integrations_per_tomography(integrations):
    spec = LindbladSpec(0.2, 0.05, 0.1, SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(3, 1.0, 0.8)))
    register = RegisterState.computational(2, 0)
    open_flux_tomography(spec, 0.0, 1, register, 3)
    assert integrations == []
    open_flux_tomography(spec, 0.6, 1, register, 3)
    assert integrations == [(0.0, 0.6)] * 3
    # a grid integrates each nonzero interval once per unit, from the previous grid time
    integrations.clear()
    fluxes = open_flux_trajectory(spec, [0.0, 0.3, 0.3, 0.6, 1.0], 1, register, 3)
    assert len(fluxes) == 5
    assert integrations == [(0.0, 0.3)] * 3 + [(0.3, 0.6)] * 3 + [(0.6, 1.0)] * 3


def test_evolved_state_hermiticity_checked_before_symmetrizing(monkeypatch):
    """An integrator drift of 1e-6 in rho - rho^dag is rejected, not averaged away."""
    original = lindblad.solve_ivp

    def drifting(*args, **kwargs):
        result = original(*args, **kwargs)
        drift = np.zeros((2, 2), dtype=complex)
        drift[0, 1], drift[1, 0] = 1e-6, -1e-6
        result.y[:] += drift.ravel()
        return result

    monkeypatch.setattr(lindblad, "solve_ivp", drifting)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_density(plus_density(), LindbladSpec(0.1, 0.05), 0.5)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of scipy's `csr_matvec` by block size: each product `solve_ivp` takes with S is one call."""
    calls = collections.Counter()
    original = _sparsetools.csr_matvec

    def counted(n_row, *args):
        calls[n_row] += 1
        return original(n_row, *args)

    monkeypatch.setattr(_sparsetools, "csr_matvec", counted)
    return calls


def test_taylor_steps_fixed_by_norm_bound(monkeypatch, kernel_calls):
    """One qubit at damping 1 and dephasing 1/4: every row of S sums to b = 1 in modulus.

    t = 10 takes ceil(10 / 4) = 3 steps of bh = 10/3, and the least order m with
    (bh)^{m+1}/(m+1)! e^{bh} <= 1e-16 is 30: 90 products, whatever the state.
    """
    products = []
    original = lindblad.solve_ivp

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        products.append(result.nfev)
        return result

    monkeypatch.setattr(lindblad, "solve_ivp", counted)
    spec = LindbladSpec(1.0, 0.25)
    evolve_density(plus_density(), spec, 10.0)
    evolve_density(DensityMatrix.from_state(RegisterState.computational(1, 1)), spec, 10.0)
    assert products == [90, 90]
    assert kernel_calls == {4: 90, 2: 90}  # |+><+| reaches all of vec(rho), |1><1| only itself and |0><0|

    kernel_calls.clear()
    S = full_generator(spec, 1)
    assert original(S, (0.0, 10.0), np.ones(4, complex), 1.0).nfev == kernel_calls[4] == 90


def random_csr_arrays(rng, d, index):
    """(indptr, indices, data) of a complex d x d CSR block: rows past d // 2 empty, entries doubled."""
    half = d * d // 4 + 1
    rows = np.repeat(rng.integers(0, d // 2 + 1, half), 2)
    cols = np.repeat(rng.integers(0, d, half), 2)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(d + 1)).astype(index)
    data = rng.normal(size=2 * half) + 1j * rng.normal(size=2 * half)
    return indptr, cols[order].astype(index), data


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_csr_kernel_adds_the_product_into_its_buffer(index):
    """`solve_ivp` rests on scipy's private `csr_matvec(n_row, n_col, indptr, indices, data, x, y)`,
    which adds S x into y; a release that renames it or changes what it does fails here.

    Random blocks with duplicate entries and empty rows, and a 1 x 1 block with no entry.
    """
    rng = np.random.default_rng(30)
    blocks = [(1, np.zeros(2, index), np.zeros(0, index), np.zeros(0, complex))]
    blocks += [(d, *random_csr_arrays(rng, d, index)) for d in (2, 7, 40)]
    for d, indptr, indices, data in blocks:
        S = sparse.csr_array((data, indices, indptr), shape=(d, d))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        out = np.zeros(d, complex)
        _sparsetools.csr_matvec(d, d, indptr, indices, data, x, out)
        assert out.tobytes() == (S @ x).tobytes()
        start = rng.normal(size=d) + 1j * rng.normal(size=d)
        out = start.copy()
        _sparsetools.csr_matvec(d, d, indptr, indices, data, x, out)
        assert np.abs(out - (start + S @ x)).max() <= 1e-13


def forward_taylor(S, t, y, steps, order):
    """The same steps and order as `solve_ivp`, summed term by term with `S @`."""
    h = t / steps
    for _ in range(steps):
        term = y
        for k in range(1, order + 1):
            term = S @ term * (h / k)
            y = y + term
    return y


def test_horner_steps_match_forward_taylor_sum():
    """On reachable blocks of damped, dephased, thermal XY chains, at bh up to TAYLOR_STEP.

    The two sums round differently: relative to the state they read up to 2.4e-15 apart
    here (the 2-coordinate block at bh = 4), and each lies within 2.1e-15 of `expm` on
    random one-step cases, so 1e-14 bounds their rounding, not a truncation.  At
    bh = TAYLOR_STEP the order is 33, the largest `solve_ivp` takes.
    """
    S = full_generator(LindbladSpec(1.0, 0.25), 1)
    assert lindblad.solve_ivp(S, (0.0, lindblad.TAYLOR_STEP), np.ones(4, complex), 1.0).nfev == 33
    rng = np.random.default_rng(30)
    for n in (1, 3, 4):
        h = SpinHamiltonian.xy_chain(CouplingProfile(n, rng.uniform(-1.5, 1.5, n - 1))) if n > 1 else None
        spec = LindbladSpec(0.3, 0.1, 0.2, h)
        _, S, bound = lindblad._reachable(spec, n, np.array([1 << n | 1]))  # the unit |0...01><0...01|
        for t in (0.3, lindblad.TAYLOR_STEP / bound, 10.0):
            y = rng.normal(size=S.shape[0]) + 1j * rng.normal(size=S.shape[0])
            result = lindblad.solve_ivp(S, (0.0, t), y, bound)
            steps = max(1, math.ceil(bound * t / lindblad.TAYLOR_STEP))
            expected = forward_taylor(S, t, y, steps, result.nfev // steps)
            assert np.abs(result.y - expected).max() <= 1e-14 * np.abs(y).max()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("n_bar", [0.0, 0.2])
def test_trajectory_matches_generator_exponential(n, n_bar):
    """Grid fluxes of a damped, dephased XY chain against four-input tomography on expm(S t)."""
    h = SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(n, 1.0, 1.0))
    spec = LindbladSpec(0.1, 0.05, n_bar, h)
    register = RegisterState.computational(n - 1, 0)
    S = superoperator(spec, n)
    ts = np.linspace(0.0, 5.0, 11)
    worst = 0.0
    for t, fm in zip(ts, open_flux_trajectory(spec, ts, 1, register, n)):
        outputs = {}
        propagator_t = expm(S * t)
        for key, amps in TOMOGRAPHY_INPUTS.items():
            v = insert_qubit(register, amps, 1).amplitudes
            rho = (propagator_t @ np.outer(v, v.conj()).ravel()).reshape(1 << n, 1 << n)
            outputs[key] = BlochVector.of_reduced(_partial_trace(rho, n, n)).as_array()
        worst = max(worst, np.abs(fm.entries - solve_affine(outputs, n, t).entries).max())
    assert worst < 1e-13


@pytest.mark.parametrize("bad", [0, 4])
def test_out_of_range_qubit_rejected(integrations, bad):
    """Input or target qubit 0 or n + 1 raises, in the open engine before any integration."""
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
    assert integrations == []


def test_infinite_time_rejected_before_integration(integrations):
    """An infinite time would start an integration that never ends."""
    spec = LindbladSpec(0.1, 0.0)
    rho0 = DensityMatrix.from_state(RegisterState.computational(1, 1))
    with pytest.raises(ValueError, match="finite"):
        evolve_density(rho0, spec, np.inf)
    with pytest.raises(ValueError, match="finite"):
        expectation_trajectory(spec, PauliString.from_label(1, "Z1"), rho0, [0.0, 1.0, np.inf])
    with pytest.raises(ValueError, match="finite"):
        open_flux_tomography(spec, np.inf, 1, RegisterState.empty(), 1)
    with pytest.raises(ValueError, match="finite"):
        open_flux_trajectory(spec, [0.5, np.inf], 1, RegisterState.empty(), 1)
    assert integrations == []


def test_observable_qubit_count_checked_before_integration(integrations):
    rho0 = DensityMatrix.from_state(RegisterState.computational(2, 1))
    with pytest.raises(ValueError, match="observable on 1 qubits, state on 2"):
        expectation_trajectory(LindbladSpec(0.1, 0.05), PauliString.from_label(1, "Z1"), rho0, [0.0, 1.0])
    assert integrations == []


def test_grid_of_higher_rank_rejected_before_integration(integrations):
    """A 2-D grid is a shape error, not numpy's ambiguous truth value inside the time loop."""
    spec = LindbladSpec(0.1, 0.05)
    rho0 = DensityMatrix.from_state(RegisterState.computational(1, 1))
    grid = [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        open_flux_trajectory(spec, grid, 1, RegisterState.empty(), 1)
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        expectation_trajectory(spec, PauliString.from_label(1, "Z1"), rho0, grid)
    assert integrations == []


@pytest.mark.parametrize("rates", [(0.0, 0.0, 0.0), (0.1, 0.05, 0.2)])
def test_generator_stores_exactly_its_nonzeros(rates):
    """S keeps no stored zero, so its pattern is the dense generator's nonzero pattern."""
    spec = LindbladSpec(*rates, hamiltonian=SpinHamiltonian.heisenberg_chain(3, 0.6, 1.2))
    S = full_generator(spec, 3)
    assert (S.data != 0).all()
    assert S.nnz == np.count_nonzero(superoperator(spec, 3))


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


@pytest.mark.parametrize("n_bar", [0.0, 0.2])
def test_generator_entries_conserve_excitation_difference(n_bar):
    """No stored entry of S joins coordinates of different Delta = (ket excitations) - (bra excitations).

    Every term of S conserves Delta (the weak U(1) symmetry of Buca & Prosen,
    New J. Phys. 14, 073007 (2012)).  The lowering and raising jumps write the
    same words; summed entry by entry rather than word by word, their
    Delta-changing parts left roundoff entries in S that the reachable sets
    then had to follow.
    """
    rng = np.random.default_rng(28)
    for n in range(1, 6):
        excitations = np.array([k.bit_count() for k in range(1 << n)])
        delta = np.subtract.outer(excitations, excitations).ravel()
        for _ in range(6):
            h = SpinHamiltonian.xy_chain(CouplingProfile(n, rng.uniform(-1.5, 1.5, n - 1))) if n > 1 else None
            spec = LindbladSpec(*(rate * rng.uniform(0.95, 1.05) for rate in (0.1, 0.05, n_bar)), h)
            S = full_generator(spec, n).tocoo()
            assert (delta[S.row] == delta[S.col]).all()


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("n_bar", [0.0, 0.2])
def test_reachable_sets_closed_and_exact(monkeypatch, n, n_bar):
    """Each unit's set is closed under the full S, and the flux equals a full-space integration."""
    spec = LindbladSpec(0.1, 0.05, n_bar, SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(n, 1.0, 1.0)))
    register = RegisterState.computational(n - 1, 0)
    S = full_generator(spec, n)
    stored = S.tocoo()
    k0, k1 = input_kets(register, 1)
    for a, b in ((k0, k0), (k1, k1), (k0, k1)):  # the units |0><0|, |1><1| and |0><1|
        support = np.flatnonzero(np.outer(a, b.conj()))
        coords, block, bound = lindblad._reachable(spec, n, support)
        inside = np.zeros(S.shape[0], dtype=bool)
        inside[coords] = True
        assert inside[support].all()
        assert not (inside[stored.col] & ~inside[stored.row]).any()  # S[rest, set] == 0
        assert np.array_equal(block.toarray(), S[coords][:, coords].toarray())
        assert bound == pytest.approx(np.abs(block.toarray()).sum(axis=1).max(), rel=1e-14)
    ts = np.linspace(0.0, 5.0, 11)
    reduced = open_flux_trajectory(spec, ts, 1, register, n)

    def full_space(spec, n, support):
        return np.arange(S.shape[0]), S, float(abs(S).sum(axis=1).max())

    monkeypatch.setattr(lindblad, "_reachable", full_space)
    full = open_flux_trajectory(spec, ts, 1, register, n)
    assert max(np.abs(a.entries - b.entries).max() for a, b in zip(reduced, full)) < 1e-12


def test_reachable_sets_fix_the_products(monkeypatch, kernel_calls):
    """5 qubits at n_bar = 0, damping 0.1 and dephasing 0.05, integrated to t = 5.

    The |0><0| unit of a |0...0> register is a column of S with no stored
    entry: one coordinate and no product.  |1><1| reaches the 25 one-excitation
    |j><k| and |0...0><0...0|, with b = 4.3: 6 steps of order 31.  |0><1|
    reaches the 5 |0...0><j|, with b = 2.15: 3 steps of order 31.  The full
    space has 1024 coordinates and b = 8.75, 363 products per unit.
    """
    sizes = []
    original = lindblad._reachable

    def recorded(*args):
        entry = original(*args)
        sizes.append(entry[0].size)
        return entry

    monkeypatch.setattr(lindblad, "_reachable", recorded)
    spec = LindbladSpec(0.1, 0.05, 0.0, SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(5, 1.0, 1.0)))
    open_flux_tomography(spec, 5.0, 1, RegisterState.computational(4, 0), 5)
    assert sizes == [1, 26, 5]
    assert kernel_calls == {26: 186, 5: 93}


def test_units_closing_onto_one_set_share_its_block(monkeypatch, kernel_calls):
    """5 qubits at n_bar = 0.2: |0><0| and |1><1| of a |0...0> register both close onto the
    252 coordinates of Delta = 0, and |0><1| onto the 210 of Delta = -1.

    |1><1| closes onto the set |0><0| closed first and gets the very same entry; the products are
    those of integrating each unit on its own set.
    """
    entries = []
    original = lindblad._reachable

    def recorded(*args):
        entries.append(original(*args))
        return entries[-1]

    monkeypatch.setattr(lindblad, "_reachable", recorded)
    spec = LindbladSpec(0.1, 0.05, 0.2, SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(5, 1.0, 1.0)))
    open_flux_tomography(spec, 5.0, 1, RegisterState.computational(4, 0), 5)
    (c00, S00, _), (c11, S11, _), (c01, _, _) = entries
    assert (c00.size, c11.size, c01.size) == (252, 252, 210)
    assert S11 is S00
    assert kernel_calls == {252: 2 * 363, 210: 384}



def test_no_flux_run_assembles_a_full_space_operator(monkeypatch):
    """Both engines work from the closure of the inputs' support under the words of S or H;
    `pauli._terms_sparse`, the one full-space assembly, is never called by a flux run."""
    import fluxion.pauli

    def refuse(*args):
        raise AssertionError("a flux run assembled a full-space operator")

    original = fluxion.pauli._terms_sparse
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fluxion" and getattr(module, "_terms_sparse", None) is original:
            monkeypatch.setattr(module, "_terms_sparse", refuse)
    h = SpinHamiltonian.xy_chain(CouplingProfile.uniform_eta(6, 1.0, 1.0))
    fluxes = open_flux_trajectory(LindbladSpec(0.1, 0.05, 0.2, h), [0.0, 0.5], 1, RegisterState.computational(5, 0), 6)
    assert np.isfinite([fm.entries for fm in fluxes]).all()
    profile = CouplingProfile(10, np.linspace(0.5, 1.5, 9))
    fm = flux_tomography(SpinHamiltonian.xy_chain(profile), 1.7, 1, RegisterState.computational(9, 0), 10)
    assert np.abs(fm.entries - flux_components(transfer_amplitude(profile, 1.7), 10, 1.7).entries).max() < 1e-9
