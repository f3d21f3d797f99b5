import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxion import chain
from fluxion.chain import (
    AMPLITUDE_TOL,
    CouplingProfile,
    DEFAULT_TIME_GRID,
    DisorderSpec,
    TransferResult,
    TruncationError,
    amplitude_curve,
    disorder_ensemble,
    eta_sweep,
    first_arrival_window,
    flux_components,
    propagator_coefficients,
    series_flux,
    transfer,
    transfer_amplitude,
)
from fluxion.dense import SpinHamiltonian, flux_tomography
from fluxion.states import RegisterState


def test_profile_validation():
    with pytest.raises(ValueError):
        CouplingProfile(4, np.array([1.0, 1.0]))  # needs 3 couplings
    prof = CouplingProfile.uniform_eta(5, 2.0, 0.5)
    assert np.allclose(prof.couplings, [1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        prof.couplings[0] = 9.0
    assert not prof.has_negative_coupling
    assert np.allclose(prof.reversed().couplings, prof.couplings[::-1])
    # unchecked, nan fails far from its source: in chebyshev_order or in series_flux's digit count
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            CouplingProfile(3, [bad, 1.0])


def test_perfect_profile_shape():
    for n in (2, 4, 7, 10):
        prof = CouplingProfile.perfect(n, 1.3)
        assert np.all(prof.couplings > 0)
        assert np.allclose(prof.couplings, prof.couplings[::-1])


def test_perfect_profile_transfers_at_pi_over_lambda():
    for n, lam in ((4, 1.0), (7, 0.7), (32, 2.0)):
        prof = CouplingProfile.perfect(n, lam)
        f = transfer_amplitude(prof, np.pi / lam)
        assert abs(abs(f) - 1.0) < 1e-12


def test_three_site_closed_form():
    """Uniform 3-chain: f(t) = -sin^2(Jt/sqrt(2))."""
    prof = CouplingProfile.uniform_eta(3, 1.0, 1.0)
    ts = np.linspace(0.0, 9.0, 121)
    fs = amplitude_curve(prof, ts)
    assert np.abs(fs - (-np.sin(ts / np.sqrt(2)) ** 2)).max() < 1e-12
    for t in (0.4, 2.0, 7.3):
        assert transfer_amplitude(prof, t) == pytest.approx(complex(-np.sin(t / np.sqrt(2)) ** 2))


def test_amplitude_curve_matches_pointwise():
    rng = np.random.default_rng(5)
    prof = CouplingProfile(6, rng.uniform(0.2, 1.5, size=5))
    ts = np.array([0.0, 0.7, 3.1, 12.0])
    curve = amplitude_curve(prof, ts)
    for i, t in enumerate(ts):
        assert curve[i] == pytest.approx(transfer_amplitude(prof, float(t)))
    assert amplitude_curve(prof, []).shape == (0,)


@pytest.mark.parametrize("n", [4, 5])
def test_transfer_amplitude_is_the_curve_at_one_time(n):
    """The same value as amplitude_curve at that one time, signed zeros included;
    f is real for odd N and imaginary for even N, its other part +0."""
    prof = CouplingProfile(n, np.random.default_rng(n).uniform(0.2, 1.5, size=n - 1))
    ts = np.array([0.0, -0.0, 0.7, 3.1, 12.0])
    for t, on_grid in zip(ts, amplitude_curve(prof, ts)):
        point = transfer_amplitude(prof, float(t))
        (curve,) = amplitude_curve(prof, [t])
        assert np.array_equal(amplitude_curve(prof, t), [curve])  # a scalar is a one-point grid
        parts = [point.real, point.imag]
        assert np.array_equal(parts, [curve.real, curve.imag])
        assert np.array_equal(np.signbit(parts), np.signbit([curve.real, curve.imag]))
        assert not np.signbit(parts[n % 2]) and parts[n % 2] == 0.0
        assert point == pytest.approx(on_grid, abs=1e-15)


def test_amplitude_bound_checked_on_every_path(monkeypatch):
    """amplitude_curve checks |f| <= 1 + AMPLITUDE_TOL, and sweeps and ensembles check their surfaces."""
    prof = CouplingProfile.uniform_eta(4, 1.0, 0.7)
    calls = [
        lambda: amplitude_curve(prof, [0.0, 1.0]),
        lambda: transfer_amplitude(prof, 1.0),
        lambda: eta_sweep(4, [0.5], [0.0, 1.0]),
        lambda: disorder_ensemble(4, 0.7, DisorderSpec(0.05, 2, 0), [0.0, 1.0]),
    ]
    for value, fails in ((1 + AMPLITUDE_TOL / 2, False), (1 + 2 * AMPLITUDE_TOL, True)):
        monkeypatch.setattr(chain, "_end_column", lambda couplings, t, sites, out: out.fill(value) or 0)
        for call in calls:
            if fails:
                with pytest.raises(AssertionError, match="exceeds 1"):
                    call()
            else:
                call()


@st.composite
def chains(draw, n=None):
    """Profiles with negative, weak, exactly zero and smallest-normal couplings, both parities.

    Zero edge couplings (eta = 0) isolate the end sites, and all-zero couplings
    make M = 0.  Couplings of 2.2e-308 make alpha t so small that the Bessel
    table must not form 2 / (alpha t).
    """
    if n is None:
        n = draw(st.integers(2, 40))
    coupling = st.one_of(
        st.just(0.0),
        st.floats(-2.0, 2.0, allow_subnormal=False),
        st.floats(-1e-6, 1e-6, allow_subnormal=False),
        st.just(np.finfo(float).tiny),
    )
    couplings = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        couplings[0] = couplings[-1] = 0.0
    return CouplingProfile(n, np.array(couplings))


@settings(max_examples=300, deadline=None)
@given(chains(), st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5))
def test_mode_sums_match_full_eigh(prof, times):
    """The Chebyshev sums equal exp(-iMt) from a dense eigh of M, at negative times too."""
    n = prof.n_qubits
    hopping = np.diag(prof.couplings, 1) + np.diag(prof.couplings, -1)
    w, V = np.linalg.eigh(hopping)
    ts = np.array(times)
    column = np.einsum("ik,tk,k->ti", V, np.exp(-1j * np.outer(ts, w)), V[-1])
    curve = amplitude_curve(prof, ts)
    assert curve.dtype == complex
    assert np.abs(curve - column[:, 0]).max() <= 1e-10
    if n % 2:
        assert np.all(curve.imag == 0)
    else:
        assert np.all(curve.real == 0)
    for k, t in enumerate(times):
        f = transfer_amplitude(prof, t)
        assert abs(f - column[k, 0]) <= 1e-10
        assert (f.imag if n % 2 else f.real) == 0
        raw = column[k, ::-1]
        expected = np.where(np.arange(1, n + 1) % 2 == 1, raw.real, -raw.imag)
        assert np.abs(propagator_coefficients(prof, t) - expected).max() <= 1e-10


def _dense_end_amplitude(prof: CouplingProfile, times: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(np.diag(prof.couplings, 1) + np.diag(prof.couplings, -1))
    return np.exp(-1j * np.outer(times, w)) @ (V[0] * V[-1])


@pytest.mark.parametrize(
    "jitter",
    [lambda rng: np.eye(200)[117] * 1e-6, lambda rng: rng.uniform(-2e-10, 2e-10, 200)],
    ids=["one-point-1e-6", "every-point-2e-10"],
)
def test_jittered_grids_match_full_eigh(jitter):
    """A 200-point grid with one point moved by 1e-6, or every point by up to 2e-10,
    takes the same path as a uniform one and equals a dense eigh of M."""
    rng = np.random.default_rng(8)
    prof = CouplingProfile(8, rng.uniform(-1.5, 1.5, size=7))
    times = np.round(np.arange(200) * 0.05, 10) + jitter(rng)
    assert np.abs(amplitude_curve(prof, times) - _dense_end_amplitude(prof, times)).max() <= 1e-13


def _disordered_with_one_negative_coupling() -> CouplingProfile:
    base = CouplingProfile.uniform_eta(101, 1.0, 0.5)
    couplings = CouplingProfile.disordered(base, 0.05, np.random.default_rng(3)).couplings.copy()
    couplings[60] = -couplings[60]
    return CouplingProfile(101, couplings)


@pytest.mark.parametrize(
    "prof, times",
    [
        (CouplingProfile.uniform_eta(201, 1.0, 0.5), first_arrival_window(201)),
        (_disordered_with_one_negative_coupling(), np.array([55.1, 60.0])),
    ],
    ids=["201-sites-first-arrival", "101-sites-disordered-negative"],
)
def test_mode_sums_match_full_eigh_long_chains(prof, times):
    """The chain lengths and times the transfer experiments run, past the hypothesis
    test's 40 sites and t <= 50, against a dense eigh of M."""
    n = prof.n_qubits
    assert prof.has_negative_coupling == (n == 101)
    w, V = np.linalg.eigh(np.diag(prof.couplings, 1) + np.diag(prof.couplings, -1))
    column = (np.exp(-1j * np.outer(times, w)) * V[-1]) @ V.T
    assert np.abs(amplitude_curve(prof, times) - column[:, 0]).max() <= 1e-10
    raw = column[:, ::-1]
    expected = np.where(np.arange(1, n + 1) % 2 == 1, raw.real, -raw.imag)
    for k in np.unique(np.linspace(0, times.size - 1, 12).astype(int)):
        assert np.abs(propagator_coefficients(prof, times[k]) - expected[k]).max() <= 1e-10


def test_long_time_phases_match_extended_precision_modes():
    """At Jt = 1e3 and 1e4 (alpha t up to 2.2e4, Chebyshev orders past 22 000) the
    sums match 40-digit modes.  The moment recurrence's rounding grows with the
    order; at Jt = 1e4 on the 100-point grid the reference itself, rounded from
    phases e_j t of up to 2e4, is good to about 7e-13, so that bound is 1e-12."""
    couplings = 1 + 0.05 * np.random.default_rng(0).normal(size=20)
    cases = [
        (np.array([1e3, 1e4]), 3e-13),
        (1e3 + 0.05 * np.arange(100), 3e-13),
        (1e4 + 0.05 * np.arange(100), 1e-12),
    ]
    with mpmath.workdps(40):
        M = mpmath.zeros(21, 21)
        for k, c in enumerate(couplings):
            M[k, k + 1] = M[k + 1, k] = mpmath.mpf(float(c))
        E, Q = mpmath.eigsy(M)
        weights = [Q[0, k] * Q[20, k] for k in range(21)]
        references = [
            [
                complex(mpmath.fsum(w * mpmath.exp(-1j * e * mpmath.mpf(float(t))) for w, e in zip(weights, E)))
                for t in times
            ]
            for times, _ in cases
        ]
    for (times, tol), reference in zip(cases, references):
        assert np.abs(amplitude_curve(CouplingProfile(21, couplings), times) - reference).max() <= tol


BESSEL_POINTS = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.5, 120.0, 227.0])


def test_bessel_table_matches_mpmath():
    """Every order up to 60 and 20 orders spread up to K = chebyshev_order(227), at
    arguments from 0 and the smallest subnormal to 227, within 2e-15 of 40-digit
    Bessel values and without a floating-point warning."""
    orders = np.union1d(np.arange(61), np.linspace(0, chain.chebyshev_order(227.0), 20).astype(int))
    table = chain._bessel_table(orders, BESSEL_POINTS)
    with mpmath.workdps(40):
        reference = [[float(mpmath.besselj(int(k), mpmath.mpf(x))) for x in BESSEL_POINTS] for k in orders]
    assert np.abs(table - reference).max() <= 2e-15


def test_bessel_rescale_guard_keeps_the_table(monkeypatch):
    """A column rescaled at every order gives the same normalized values."""
    orders = np.arange(0, 300, 7)
    plain = chain._bessel_table(orders, BESSEL_POINTS)
    monkeypatch.setattr(chain, "MILLER_RESCALE", 1.0)
    assert np.abs(chain._bessel_table(orders, BESSEL_POINTS) - plain).max() <= 1e-15


def _bessel_tail(order, x):
    """2 sum_{k > order} of DLMF 10.14.7's bound on |J_k(x)|, summed 5000 orders out."""
    k = np.arange(order + 1, order + 5001, dtype=float)
    z = np.minimum(max(x, np.finfo(float).tiny) / k, 1.0)
    s = np.sqrt(1 - z * z)
    return 2 * np.exp(k * (np.log(z) + s - np.log1p(s))).sum()


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-8, 0.5, 110.2, 120.0, 227.1, 2.2e4])
def test_chebyshev_order_is_the_least_within_tolerance(x):
    """K is the least order whose bounded Bessel tail is at most CHEBYSHEV_TOL."""
    order = chain.chebyshev_order(x)
    assert _bessel_tail(order, x) <= chain.CHEBYSHEV_TOL
    assert order == 0 or _bessel_tail(order - 1, x) > chain.CHEBYSHEV_TOL


def test_uncoupled_chain_is_the_identity():
    """alpha = 0: order 0 and U = I, so nothing arrives and the end site stays."""
    prof = CouplingProfile(4, np.zeros(3))
    assert np.array_equal(amplitude_curve(prof, [0.0, 5.0]), [0, 0])
    assert np.array_equal(propagator_coefficients(prof, 5.0), [1, 0, 0, 0])
    assert eta_sweep(2, [0.0], [0.0, 5.0]).chebyshev_order == 0


@st.composite
def batches(draw):
    """Two to five chains() profiles of one length."""
    first = draw(chains())
    rest = draw(st.lists(chains(first.n_qubits), min_size=1, max_size=4))
    return [first, *rest]


@settings(max_examples=100, deadline=None)
@given(batches(), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5))
def test_batch_rows_match_single_profiles(profiles, times):
    """A batch shares the largest alpha and one Bessel table; each row is still its
    profile's own |f|."""
    t = np.array(times)
    surface = np.empty((len(profiles), t.size))
    chain._abs_surface(np.array([p.couplings for p in profiles]), t, surface)
    for row, prof in zip(surface, profiles):
        assert np.abs(row - np.abs(amplitude_curve(prof, t))).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30),
    st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.just(1e-6), st.just(np.finfo(float).tiny)), min_size=1, max_size=4),
    st.sampled_from([0.0, 0.05, 5.0]),
)
def test_sweep_and_ensemble_rows_match_single_profiles(n, etas, sigma):
    """eta_sweep and disorder_ensemble rows equal amplitude_curve of each profile alone."""
    t = np.linspace(0.0, 12.0, 25)
    sweep = eta_sweep(n, etas, t)
    for eta, row in zip(etas, sweep.surface):
        assert np.abs(row - np.abs(amplitude_curve(CouplingProfile.uniform_eta(n, 1.0, eta), t))).max() <= 1e-13
    spec = DisorderSpec(sigma, 3, 1)
    ensemble = disorder_ensemble(n, etas[0], spec, t)
    base = CouplingProfile.uniform_eta(n, 1.0, etas[0])
    for k in range(spec.trials):
        prof = CouplingProfile.disordered(base, sigma, np.random.default_rng([spec.seed, k]))
        assert ensemble.max_fluxes[k] == pytest.approx(np.abs(amplitude_curve(prof, t)).max(), abs=1e-13)


def test_mirror_symmetry():
    rng = np.random.default_rng(11)
    prof = CouplingProfile(7, rng.uniform(0.3, 1.2, size=6))
    for t in (0.9, 4.2):
        assert transfer_amplitude(prof, t) == pytest.approx(
            transfer_amplitude(prof.reversed(), t), abs=1e-12
        )


def test_propagator_coefficients_t0_and_endpoint():
    prof = CouplingProfile.uniform_eta(5, 1.0, 0.8)
    v0 = propagator_coefficients(prof, 0.0)
    assert np.allclose(v0, [1, 0, 0, 0, 0])
    # last coefficient is the X-to-X flux between the chain ends
    for t in (1.1, 6.0):
        v = propagator_coefficients(prof, t)
        fm = transfer(prof, t).flux
        assert v[-1] == pytest.approx(fm.entry("X", "X"), abs=1e-12)
    # unitarity of the propagator keeps the coefficient vector normalized
    assert np.sum(propagator_coefficients(prof, 2.5) ** 2) == pytest.approx(1.0)


def test_series_matches_propagator_small():
    prof = CouplingProfile.uniform_eta(5, 1.0, 0.8)
    res = series_flux(prof, 2.0, 60)
    assert res.truncation_bound < 1e-10
    assert np.abs(res.coefficients - propagator_coefficients(prof, 2.0)).max() < 1e-10


def test_series_matches_propagator_long_chain():
    prof = CouplingProfile.uniform_eta(21, 1.0, 1.0)
    res = series_flux(prof, 30.0, 195)
    assert np.abs(res.coefficients - propagator_coefficients(prof, 30.0)).max() < 1e-8


@st.composite
def mixed_sign_series_cases(draw):
    n = draw(st.integers(2, 12))
    magnitudes = draw(st.lists(st.floats(0.2, 1.5), min_size=n - 1, max_size=n - 1))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n - 1, max_size=n - 1))
    t = draw(st.floats(0.0, 5.0))
    # (2 J_max t)^m / m! falls below 1e-10 well before m = 6 J_max t + 30
    order = max(n - 1, int(6 * max(magnitudes) * t) + 30) + draw(st.integers(0, 3))
    return CouplingProfile(n, np.multiply(signs, magnitudes)), t, order


def _first_omitted_term(profile, t, order):
    """max |T^m e_1 t^m / m!| over m = order + 1, order + 2, from mpmath matrix powers."""
    n = profile.n_qubits
    with mpmath.workdps(30):
        T = mpmath.zeros(n, n)
        for k, c in enumerate(profile.couplings[::-1]):
            T[k, k + 1] = T[k + 1, k] = mpmath.mpf(float(c))
        e1 = mpmath.zeros(n, 1)
        e1[0] = 1
        terms = [
            T**m * e1 * mpmath.mpf(t) ** m / mpmath.factorial(m) for m in (order + 1, order + 2)
        ]
        return float(max(abs(v) for term in terms for v in term))


@settings(max_examples=40, deadline=None)
@given(mixed_sign_series_cases())
def test_series_matches_propagator_mixed_signs(case):
    prof, t, order = case
    res = series_flux(prof, t, order)
    assert np.abs(res.coefficients - propagator_coefficients(prof, t)).max() < 1e-9
    assert res.terms_used == order
    omitted = _first_omitted_term(prof, t, order)
    assert res.truncation_bound == pytest.approx(omitted, rel=1e-12, abs=0)


def test_series_digits_overflow_to_inf():
    """Jt = 1e308 needs infinitely many digits: a float inf the config check rejects,
    where int(inf) used to raise OverflowError; series_flux raises ValueError."""
    assert chain.series_digits(1.0, 1e308) == np.inf
    assert chain.series_digits(0.5, -2.0) == pytest.approx(2 / np.log(10) + 40)
    with pytest.raises(ValueError, match="t=1e"):
        series_flux(CouplingProfile.uniform_eta(3, 1.0, 1.0), 1e308, 20)


def test_series_truncation_guard():
    prof = CouplingProfile.uniform_eta(5, 1.0, 1.0)
    with pytest.raises(TruncationError):
        series_flux(prof, 30.0, 20)  # order far too small for Jt = 30
    with pytest.raises(TruncationError):
        series_flux(prof, 1.0, 3)  # cannot even reach site 5


def test_flux_components_layout():
    f = 0.3 - 0.4j
    fm = flux_components(f, 4, 1.25)
    assert fm.target_qubit == 4
    assert fm.entry("X", "X") == pytest.approx(0.3)
    assert fm.entry("X", "Y") == pytest.approx(0.4)
    assert fm.entry("Y", "X") == pytest.approx(-0.4)
    assert fm.entry("Y", "Y") == pytest.approx(0.3)
    assert fm.entry("Z", "Z") == pytest.approx(0.25)
    assert fm.entry("Z", "I") == pytest.approx(0.75)
    assert fm.entry("X", "Z") == 0.0
    # excitation conservation ties the Z flux to the transverse ones
    assert fm.entry("Z", "Z") == pytest.approx(
        fm.entry("X", "X") ** 2 + fm.entry("Y", "X") ** 2
    )
    with pytest.raises(ValueError):
        flux_components(1.2 + 0j, 1)
    with pytest.raises(ValueError):
        flux_components(complex(np.nan, 0.0), 1)


def test_transfer_result_invariants():
    prof = CouplingProfile.uniform_eta(4, 1.0, 0.6)
    res = transfer(prof, 3.0)
    assert res.worst_case_fidelity == pytest.approx(abs(res.amplitude) ** 2)
    assert res.flux.target_qubit == 4
    assert res.time == 3.0
    with pytest.raises(ValueError):
        TransferResult(complex(np.nan, 0.0), res.flux, np.nan, 3.0)
    with pytest.raises(ValueError):
        TransferResult(res.amplitude, res.flux, np.nan, 3.0)
    # sin(inf) is NaN: rejected as a time, not reported as |f| = nan exceeding 1
    with pytest.raises(ValueError, match="t=inf"):
        transfer_amplitude(prof, np.inf)


def test_chain_flux_matches_dense_engine():
    """Single-excitation reduction agrees with full Hilbert-space tomography."""
    rng = np.random.default_rng(23)
    for n in (3, 5):
        prof = CouplingProfile(n, rng.uniform(0.3, 1.3, size=n - 1))
        h = SpinHamiltonian.xy_chain(prof)
        register = RegisterState.computational(n - 1, 0)
        for t in (0.8, 2.9):
            dense = flux_tomography(h, t, 1, register, n)
            reduced = flux_components(transfer_amplitude(prof, t), n, t)
            assert np.abs(dense.entries - reduced.entries).max() < 1e-9


def test_first_arrival_window():
    win = first_arrival_window(101)
    assert win[0] == 0.0
    assert win[-1] == pytest.approx(0.55 * 101 + 3.0)
    assert np.allclose(np.diff(win), 0.05)


def test_eta_sweep_three_sites():
    res = eta_sweep(3)
    assert res.eta_max == pytest.approx(1.0)
    assert res.t_max == pytest.approx(2.20)
    assert res.flux_max == pytest.approx(np.sin(2.20 / np.sqrt(2)) ** 2, abs=1e-12)


def test_eta_sweep_earliest_time_rule():
    """Revivals tie with the first peak; the earliest time must win."""
    res = eta_sweep(3)
    top = res.surface.max()
    ti_, ei_ = None, None
    tie_eta, tie_t = np.nonzero(res.surface >= top - 3e-4)
    assert len(tie_t) > 1  # revivals really do compete
    assert res.t_max <= res.t_grid[tie_t].min() + 1e-12
    at_tmin = tie_eta[res.t_grid[tie_t] == res.t_grid[tie_t].min()]
    assert res.eta_max == pytest.approx(res.eta_grid[at_tmin].min())


def test_eta_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        eta_sweep(3, eta_grid=np.array([]))


def test_disorder_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(sigma_fraction=-0.1, trials=10, seed=1)
    with pytest.raises(ValueError):
        DisorderSpec(sigma_fraction=0.1, trials=0, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DisorderSpec(sigma_fraction=bad, trials=3, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(sigma_fraction=0.1, trials=np.nan, seed=0)
    assert DisorderSpec(sigma_fraction=0.1, trials=np.int64(3), seed=0).trials == 3
    # unchecked, -1 failed inside numpy's default_rng and 1.5 with a TypeError there
    for bad in (-1, 1.5, np.nan, "3"):
        with pytest.raises(ValueError, match="seed"):
            DisorderSpec(sigma_fraction=0.1, trials=3, seed=bad)
    assert DisorderSpec(sigma_fraction=0.1, trials=3, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: disorder_ensemble(4, 0.7, DisorderSpec(0.05, 3, 0), []), "non-empty"),
        (lambda: series_flux(CouplingProfile.uniform_eta(3, 1.0, 1.0), np.nan, 20), "t=nan"),
        (lambda: series_flux(CouplingProfile.uniform_eta(3, 1.0, 1.0), -np.inf, 20), "t=-inf"),
        (lambda: DisorderSpec(0.05, 2.5, 0), "trials must be an integer, got 2.5"),
        (lambda: disorder_ensemble(4, 0.7, DisorderSpec(0.05, 3, 0), [0.0, np.nan, 1.0]), "t=nan"),
        (lambda: eta_sweep(4, [0.5, 0.7], [0.0, np.inf]), "t=inf"),
        (lambda: propagator_coefficients(CouplingProfile.uniform_eta(4, 1.0, 1.0), np.nan), "t=nan"),
        (lambda: transfer_amplitude(CouplingProfile.uniform_eta(5, 1.0, 1.0), -np.inf), "t=-inf"),
        (lambda: amplitude_curve(CouplingProfile.uniform_eta(3, 1.0, 1.0), [np.nan]), "t=nan"),
        (lambda: amplitude_curve(CouplingProfile.uniform_eta(3, 1.0, 1.0), [[0, 1], [2, 3]]), r"\(2, 2\)"),
        (lambda: eta_sweep(5, [0.5], [[0.0, 1.0]]), r"t_grid .* shape \(1, 2\)"),
        (lambda: eta_sweep(5, [[0.5, 0.7]], [0.0, 1.0]), r"eta_grid .* shape \(1, 2\)"),
        (lambda: disorder_ensemble(4, 0.7, DisorderSpec(0.05, 2, 0), np.zeros((3, 1))), r"\(3, 1\)"),
    ],
    ids=[
        "disorder-empty-grid",
        "series-nan-t",
        "series-inf-t",
        "disorder-float-trials",
        "disorder-nan-t",
        "sweep-inf-t",
        "propagator-nan-t",
        "transfer-inf-t",
        "curve-nan-t",
        "curve-2d-t",
        "sweep-2d-t",
        "sweep-2d-eta",
        "disorder-2d-t",
    ],
)
def test_entry_points_reject_what_they_cannot_evaluate(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_disorder_zero_sigma_collapses():
    spec = DisorderSpec(sigma_fraction=0.0, trials=6, seed=3)
    t_grid = np.linspace(0.0, 8.0, 40)
    res = disorder_ensemble(4, 0.7, spec, t_grid)
    assert np.ptp(res.max_fluxes) == 0.0
    assert res.std_flux.max() < 1e-15  # identical rows up to mean-subtraction rounding
    clean = np.abs(amplitude_curve(CouplingProfile.uniform_eta(4, 1.0, 0.7), t_grid))
    assert np.allclose(res.mean_flux, clean)
    assert res.negative_coupling_trials == ()


def test_disorder_deterministic_per_seed():
    spec = DisorderSpec(sigma_fraction=0.08, trials=12, seed=99)
    t_grid = np.round(np.arange(0.0, 6.0, 0.1), 10)
    a = disorder_ensemble(5, 0.6, spec, t_grid)
    b = disorder_ensemble(5, 0.6, spec, t_grid)
    assert np.array_equal(a.max_fluxes, b.max_fluxes)
    assert np.array_equal(a.mean_flux, b.mean_flux)
    assert np.all(np.isin(a.argmax_times, t_grid))


def test_disorder_flags_negative_couplings():
    spec = DisorderSpec(sigma_fraction=5.0, trials=20, seed=7)
    res = disorder_ensemble(4, 1.0, spec, np.linspace(0.0, 3.0, 10))
    assert len(res.negative_coupling_trials) > 0
    k = res.negative_coupling_trials[0]
    rng = np.random.default_rng([7, k])
    redrawn = CouplingProfile.disordered(
        CouplingProfile.uniform_eta(4, 1.0, 1.0), 5.0, rng
    )
    assert redrawn.has_negative_coupling


def test_disorder_ensemble_matches_dense_oracle_101_sites():
    """Criterion 9's ensemble, redrawn and re-solved without the chain engine.

    Each trial adds delta_i ~ N(0, (0.05 J_i)^2) to every coupling, edges
    included, from the stream keyed by (seed, k), and is evaluated from a
    dense eigh of the full hopping matrix.  The mean of the per-trial maxima
    is the criterion 9 reference 0.818; a floor of 0.85 would sit about 13
    standard errors above it.
    """
    spec = DisorderSpec(0.05, 200, 0)
    res = disorder_ensemble(101, 0.5, spec, DEFAULT_TIME_GRID)
    base = np.full(100, 1.0)
    base[0] = base[-1] = 0.5
    maxima = np.empty(spec.trials)
    argmax_times = np.empty(spec.trials)
    for k in range(spec.trials):
        rng = np.random.default_rng([spec.seed, k])
        couplings = base + rng.normal(0.0, spec.sigma_fraction * base)
        w, V = np.linalg.eigh(np.diag(couplings, 1) + np.diag(couplings, -1))
        curve = np.abs(np.exp(-1j * np.outer(DEFAULT_TIME_GRID, w)) @ (V[0] * V[-1]))
        maxima[k] = curve.max()
        argmax_times[k] = DEFAULT_TIME_GRID[curve.argmax()]
    assert np.abs(res.max_fluxes - maxima).max() <= 1e-9
    assert np.array_equal(res.argmax_times, argmax_times)
    se = maxima.std(ddof=1) / np.sqrt(spec.trials)
    assert abs(maxima.mean() - 0.818) <= 3 * se
