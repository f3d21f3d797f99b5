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
    # unchecked, nan fails far from its source: in eigh_tridiagonal or as int(nan) in series_flux
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


@pytest.mark.parametrize("n", [4, 5])
def test_transfer_amplitude_is_the_curve_at_one_time(n):
    """The same value as amplitude_curve at that one time, signed zeros included;
    f is real for odd N and imaginary for even N, its other part +0."""
    prof = CouplingProfile(n, np.random.default_rng(n).uniform(0.2, 1.5, size=n - 1))
    ts = np.array([0.0, -0.0, 0.7, 3.1, 12.0])
    for t, on_grid in zip(ts, amplitude_curve(prof, ts)):
        point = transfer_amplitude(prof, float(t))
        (curve,) = amplitude_curve(prof, [t])
        parts = [point.real, point.imag]
        assert np.array_equal(parts, [curve.real, curve.imag])
        assert np.array_equal(np.signbit(parts), np.signbit([curve.real, curve.imag]))
        assert not np.signbit(parts[n % 2]) and parts[n % 2] == 0.0
        assert point == pytest.approx(on_grid, abs=1e-15)


def test_amplitude_bound_checked_on_every_path(monkeypatch):
    """amplitude_curve checks |f| <= 1 + AMPLITUDE_TOL, so sweeps and ensembles do too."""
    prof = CouplingProfile.uniform_eta(4, 1.0, 0.7)
    calls = [
        lambda: amplitude_curve(prof, [0.0, 1.0]),
        lambda: transfer_amplitude(prof, 1.0),
        lambda: eta_sweep(4, [0.5], [0.0, 1.0]),
        lambda: disorder_ensemble(4, 0.7, DisorderSpec(0.05, 2, 0), [0.0, 1.0]),
    ]
    for value, fails in ((1 + AMPLITUDE_TOL / 2, False), (1 + 2 * AMPLITUDE_TOL, True)):
        monkeypatch.setattr(chain, "_end_column", lambda profile, t, sites: np.full((t.size, sites.size), value))
        for call in calls:
            if fails:
                with pytest.raises(AssertionError, match="exceeds 1"):
                    call()
            else:
                call()


@st.composite
def chains(draw):
    """Profiles with negative, weak and exactly zero couplings, both parities.

    Zero edge couplings (eta = 0) isolate the end sites and make the zero
    eigenvalue degenerate.  A weak link between two blocks splits their zero
    modes into a nearly degenerate +-lam pair, which eigh may return in any
    rotated basis.
    """
    n = draw(st.integers(2, 40))
    coupling = st.one_of(
        st.just(0.0),
        st.floats(-2.0, 2.0, allow_subnormal=False),
        st.floats(-1e-6, 1e-6, allow_subnormal=False),
    )
    couplings = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        couplings[0] = couplings[-1] = 0.0
    return CouplingProfile(n, np.array(couplings))


@settings(max_examples=300, deadline=None)
@given(chains(), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5))
def test_mode_sums_match_full_eigh(prof, times):
    """The half-spectrum sums equal exp(-iMt) from a dense eigh of M."""
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
    # unitarity of the mode expansion keeps the coefficient vector normalized
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
