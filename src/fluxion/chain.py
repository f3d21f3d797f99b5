"""State transfer through open XY chains in the single-excitation sector.

The production path expands the propagator in Chebyshev polynomials of the
tridiagonal hopping matrix M (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
(1984)): by Jacobi-Anger, exp(-iMt) = sum_k (2 - delta_k0) (-i)^k J_k(alpha t)
T_k(M / alpha) for any alpha >= ||M||, here the largest row sum of |M|.  Only
the column from the far end is needed, so the moments <i|T_k(M / alpha)|N>
come from a three-term recurrence of tridiagonal products, O(K n) work per
profile for K of order alpha max|t|, with no eigenvectors.  M has zero
diagonal (every CouplingProfile has no on-site terms), so the chain is
bipartite: a moment vanishes unless k has the parity of the site distance d
and k >= d, and each propagator element from the far end is a real sum or
-1j times one, by the parity of d: the end-to-end amplitude f(t) is real for
odd N and imaginary for even N.  The Bessel values J_k(alpha t) come from
Miller's backward recurrence in numpy, one table for a whole batch of
profiles, and the order K is fixed before the first product by DLMF 10.14.7's
bound on the series' tail.  Uniform and non-uniform grids, single times and
negative times all take this one path.

The power series evaluator reproduces the same coefficients as a
cross-check, with explicit truncation accounting: it streams one vector of
Taylor terms T^m e_1 t^m / m! in decimal arithmetic, each from the last by
one product with the coupling matrix, and never forms the powers of T.
"""

from __future__ import annotations

import decimal
import operator
from dataclasses import dataclass

import numpy as np

from .flux import FluxMatrix

AMPLITUDE_TOL = 1e-9
TIE_TOL = 3e-4  # surface values within this of the max compete for argmax
TRUNCATION_TARGET = 1e-10


@dataclass(frozen=True)
class CouplingProfile:
    """Couplings J_1..J_{N-1} of an open chain, site 1 at the sending end."""

    n_qubits: int
    couplings: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("a chain needs at least 2 sites")
        arr = np.asarray(self.couplings, dtype=float).copy()
        if arr.shape != (self.n_qubits - 1,):
            raise ValueError(f"expected {self.n_qubits - 1} couplings, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"couplings must be finite, got {arr}")
        arr.setflags(write=False)
        object.__setattr__(self, "couplings", arr)

    @classmethod
    def uniform_eta(cls, n_qubits: int, J: float, eta: float) -> "CouplingProfile":
        """Equal central couplings J with both edge couplings scaled to eta*J."""
        c = np.full(n_qubits - 1, J, dtype=float)
        c[0] = eta * J
        c[-1] = eta * J
        return cls(n_qubits, c)

    @classmethod
    def perfect(cls, n_qubits: int, lam: float) -> "CouplingProfile":
        """Mirror-symmetric profile with unit transfer at t = pi/lam.

        The hopping matrix equals lam times the spin-(N-1)/2 angular momentum
        x-component, so evolution is a Bloch-sphere rotation of angular
        frequency lam and the chain is exactly mirrored after half a turn.
        """
        i = np.arange(1, n_qubits, dtype=float)
        return cls(n_qubits, 0.5 * lam * np.sqrt(i * (n_qubits - i)))

    @classmethod
    def disordered(
        cls, base: "CouplingProfile", sigma_fraction: float, rng: np.random.Generator
    ) -> "CouplingProfile":
        """Adds delta_i ~ Normal(0, (sigma_fraction*J_i)^2) to every coupling."""
        delta = rng.normal(0.0, sigma_fraction * np.abs(base.couplings))
        return cls(base.n_qubits, base.couplings + delta)

    @property
    def has_negative_coupling(self) -> bool:
        return bool((self.couplings < 0).any())

    def reversed(self) -> "CouplingProfile":
        return CouplingProfile(self.n_qubits, self.couplings[::-1])


@dataclass(frozen=True)
class DisorderSpec:
    """sigma_fraction is the Gaussian standard deviation relative to each coupling."""

    sigma_fraction: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma_fraction) and self.sigma_fraction >= 0):
            raise ValueError(f"sigma_fraction must be finite and >= 0, got {self.sigma_fraction}")
        for name, low in (("trials", 1), ("seed", 0)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


CHEBYSHEV_TOL = 1e-16  # bound on the dropped tail 2 sum_{k>K} |J_k(alpha t)| of the Chebyshev series
MILLER_TOL = 1e-30  # Bessel orders whose DLMF 10.14.7 bound is below this read as 0 in the tables
MILLER_RESCALE = 1e200  # a Bessel column whose running sum of squares passes this is rescaled


def row_sum_bound(couplings: np.ndarray) -> float:
    """The largest row sum of |M| over the hopping matrices of `couplings` (one profile per row):
    the Gershgorin bound alpha >= ||M||, 0 when every coupling is and inf past the float range."""
    a = np.abs(couplings)
    with np.errstate(over="ignore"):
        return float(max(np.max(a[..., :-1] + a[..., 1:], initial=0.0), np.max(a, initial=0.0)))


def _log_bessel_bound(nu, x):
    """log of DLMF 10.14.7's bound |J_nu(x)| <= z^nu e^(nu s) / (1 + s)^nu, z = x / nu, s = sqrt(1 - z^2).

    For orders nu >= 1; the bound reads 1 where nu <= x, and x = 0 as the smallest normal float.
    """
    z = np.minimum(np.maximum(x, np.finfo(float).tiny) / nu, 1.0)
    s = np.sqrt((1 - z) * (1 + z))
    return nu * (np.log(z) + s - np.log1p(s))


def _bound_order(x, tol):
    """Least order nu >= 1 whose bound on |J_nu(x)| is at most tol, elementwise, by bisection.

    The bound is at most (e x / 2 nu)^nu, so nu = max(e x, log2(1 / tol)) + 1 always passes.
    """
    lo = np.zeros(np.broadcast(x, tol).shape)
    hi = np.ceil(np.maximum(np.e * np.asarray(x), -np.log2(tol))) + 1
    log_tol = np.log(tol)
    for _ in range(int(hi.max(initial=0)).bit_length()):
        mid = np.maximum(np.floor((lo + hi) / 2), 1.0)
        ok = _log_bessel_bound(mid, x) <= log_tol
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def chebyshev_order(x: float) -> int:
    """Least order K with 2 sum_{k>K} |J_k(x)| <= CHEBYSHEV_TOL, each |J_k(x)| by DLMF 10.14.7.

    The series of exp(-iMt) over T_k(M / alpha) dropped past order K, x = alpha |t|, then
    misses at most CHEBYSHEV_TOL in every entry.  The tail is summed over the orders whose
    bound lies between CHEBYSHEV_TOL / 2 and 1e-30 of it; the bound falls faster than
    geometrically past x, so later orders add nothing at double precision.
    """
    if not 0 <= x < 2**52:
        raise ValueError(f"alpha |t| = {x} has no Chebyshev order among the exact float integers")
    first, last = _bound_order(x, np.array([CHEBYSHEV_TOL / 2, CHEBYSHEV_TOL * 1e-30]))
    bound = np.exp(_log_bessel_bound(np.arange(first, last + 1), x))
    tail = 2 * np.cumsum(bound[::-1])[::-1]  # tail[j]: 2 sum over the orders >= first + j
    return int(first) + int(np.argmax(tail <= CHEBYSHEV_TOL)) - 1


def _bessel_table(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_k(x_j) for the ascending `orders` k and every x_j >= 0, by Miller's backward recurrence.

    Column j starts at its own order m_j, the last one whose DLMF 10.14.7 bound exceeds
    MILLER_TOL, with J_{m+1} = 0 and J_m = 1, and runs J_{k-1} = (2k / x) J_k - J_{k+1} down to
    J_0.  Orders past m_j read 0; at m_j = 0 (x_j = 0 or of order MILLER_TOL) the column is
    J_0 = 1 alone and no 2 / x_j is formed.  J_0^2 + 2 sum J_k^2 = 1, a sum of positive terms,
    normalizes each column, and J_0 + 2 sum J_2k = 1 gives its sign.  Starting at m_j keeps
    the unnormalized values within about 1 / MILLER_TOL; should a sum of squares still pass
    MILLER_RESCALE, the live columns are scaled back to unit sums.  Columns are sorted by m_j,
    so the live ones are a prefix.
    """
    start = (_bound_order(x, MILLER_TOL) - 1).astype(int)
    perm = np.argsort(-start, kind="stable")
    start = start[perm]
    top = int(start.max(initial=0))
    live = np.searchsorted(-start, -np.arange(top + 2), side="right")  # columns with m_j >= k
    inv = np.zeros(x.size)
    np.divide(2.0, x[perm[: live[1]]], out=inv[: live[1]])
    # J_{k+1}, J_k and scratch, each 0 in a column until the column goes live
    hi, lo, tmp = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    squares, evens = np.zeros(x.size), np.zeros(x.size)  # sum over k >= 1 of J_k^2, of J_k at even k
    table = np.zeros((orders.size, x.size))
    rows = dict(zip(orders.tolist(), range(orders.size)))
    for k in range(top, 0, -1):
        m = live[k]
        if m > live[k + 1]:
            lo[live[k + 1] : m] = 1.0
        if k in rows:
            table[rows[k], perm[:m]] = lo[:m]
        np.multiply(lo[:m], lo[:m], out=tmp[:m])
        squares[:m] += tmp[:m]
        if k % 2 == 0:
            evens[:m] += lo[:m]
        if squares[:m].max() > MILLER_RESCALE:
            scale = 1 / np.sqrt(squares[:m])
            for arr in (hi, lo, evens):
                arr[:m] *= scale
            squares[:m] = 1.0
            table[np.searchsorted(orders, k) :, perm[:m]] *= scale
        np.multiply(lo[:m], inv[:m], out=tmp[:m])
        tmp[:m] *= k
        tmp[:m] -= hi[:m]
        hi, lo, tmp = lo, tmp, hi
    lo[live[1] :] = 1.0
    if 0 in rows:
        table[rows[0], perm] = lo
    scale = np.empty(x.size)
    scale[perm] = np.sign(lo + 2 * evens) / np.sqrt(lo * lo + 2 * squares)
    table *= scale
    return table


def eigh_tridiagonal(couplings: np.ndarray, orders: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Chebyshev moments mu[j, p, s] = <i|T_k(M_p)|N>, k = orders[j] (ascending), i = sites[s],
    of the zero-diagonal tridiagonal M_p with off-diagonal couplings[p], scaled to ||M_p|| <= 1.

    The three-term recurrence v_{k+1} = 2 M v_k - v_{k-1} runs on every profile at once, from
    v_0 = e_N and v_{-1} = v_1 = M e_N, each step a few in-place products on the sites that
    matter: v_{k+1} vanishes on sites more than k + 1 from N, and from order k on only the
    sites within (last order - k) of a site read can reach it.  This is the chain engine's one
    spectral step; the name is kept because the benchmark tracer binds it as chain.eigensolve,
    and ROADMAP item 8 renames it.
    """
    n = couplings.shape[1] + 1
    moments = np.empty((orders.size, couplings.shape[0], sites.size))
    rows = dict(zip(orders.tolist(), range(orders.size)))
    last, reach = (int(orders[-1]), int(sites.max())) if orders.size else (0, 0)
    # site i sits at column i + 1 of prev and cur, between two zero columns; double[:, i] = 2 J_{i-1}
    double = np.zeros((couplings.shape[0], n + 1))
    double[:, 1:-1] = 2 * couplings
    prev = np.zeros((couplings.shape[0], n + 2))
    prev[:, -3] = couplings[:, -1]
    cur = np.zeros_like(prev)
    cur[:, -2] = 1.0
    tmp = np.empty((couplings.shape[0], n))
    for k in range(last + 1):
        if k in rows:
            np.take(cur, sites + 1, axis=1, out=moments[rows[k]])
        if k == last:
            break
        lo, hi = max(0, n - 2 - k), min(n, reach + last - k)  # the sites of v_{k+1} to update
        np.multiply(double[:, lo:hi], cur[:, lo:hi], out=tmp[:, lo:hi])
        np.subtract(tmp[:, lo:hi], prev[:, lo + 1 : hi + 1], out=prev[:, lo + 1 : hi + 1])
        np.multiply(double[:, lo + 1 : hi + 1], cur[:, lo + 2 : hi + 2], out=tmp[:, lo:hi])
        prev[:, lo + 1 : hi + 1] += tmp[:, lo:hi]
        prev, cur = cur, prev
    return moments


def _end_column(couplings: np.ndarray, t: np.ndarray, sites: np.ndarray, out: np.ndarray) -> int:
    """Real sums R for U_{i,N}(t) = <i|exp(-iMt)|N>, into out[p * S + s, j] for profile
    couplings[p], site i = sites[s] and time t[j]; returns the Chebyshev order K used.

    U_{i,N} is R where d = N - 1 - i is even and -1j*R where it is odd.  By Jacobi-Anger,

        exp(-iMt) = sum_k (2 - delta_k0) (-i)^k J_k(alpha t) T_k(M / alpha),

    with alpha = `row_sum_bound` over the whole batch.  M is bipartite with a light cone, so
    <i|T_k(M / alpha)|N> vanishes unless k >= d and k = d (mod 2): (-i)^k is (-1)^(k // 2)
    for even d and -1j (-1)^(k // 2) for odd d, and

        R = sum_k c_k J_k(alpha t) mu_k,  c_k = (2 - delta_k0) (-1)^(k // 2),

    over those k up to K = `chebyshev_order`(alpha max |t|), with J_k(-x) = (-1)^k J_k(x).
    One Bessel table and one run of `eigh_tridiagonal` for the moments mu_k serve the
    whole batch.  alpha = 0 (no coupling) gives K = 0 and U = I.
    """
    alpha = row_sum_bound(couplings)
    scaled = couplings / alpha if alpha > 0 else couplings
    x = alpha * np.abs(t)
    order = chebyshev_order(float(x.max(initial=0.0)))
    k = np.arange(order + 1)[:, None]
    distance = couplings.shape[1] - sites
    orders = np.flatnonzero(((k >= distance) & ((k - distance) % 2 == 0)).any(axis=1))
    table = _bessel_table(orders, x)
    table *= np.where(orders % 4 < 2, 2.0, -2.0)[:, None]
    table[orders == 0] /= 2
    if (t < 0).any():
        table[orders % 2 == 1] *= np.where(t < 0, -1.0, 1.0)
    moments = eigh_tridiagonal(scaled, orders, sites)
    np.matmul(moments.reshape(orders.size, out.shape[0]).T, table, out=out)
    return order


def transfer_amplitude(profile: CouplingProfile, t: float) -> complex:
    """Amplitude f(t) from site 1 to site N of exp(-i M t), M tridiagonal."""
    return complex(amplitude_curve(profile, [t])[0])


def _grid_1d(grid, name: str) -> np.ndarray:
    """A scalar or 1-D grid as a float vector; anything of higher rank is an error."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a scalar or 1-D, got shape {arr.shape}")
    return arr.reshape(-1)


def _times(t_grid) -> np.ndarray:
    """A scalar or 1-D grid of finite times as a float vector."""
    t = _grid_1d(t_grid, "t_grid")
    if not np.isfinite(t).all():
        raise ValueError(f"t must be finite, got t={t[~np.isfinite(t)][0]}")
    return t


def amplitude_curve(profile: CouplingProfile, t_grid: np.ndarray) -> np.ndarray:
    """f(t) on a whole time grid from one moment recurrence and one Bessel table."""
    t = _times(t_grid)
    r = np.empty((1, t.size))
    _end_column(profile.couplings[None], t, np.array([0]), r)
    f = r[0] + 0j if profile.n_qubits % 2 else -1j * r[0]
    if not (np.abs(f) <= 1 + AMPLITUDE_TOL).all():
        raise AssertionError(f"|f| = {np.abs(f).max()} exceeds 1")
    return f


def propagator_coefficients(profile: CouplingProfile, t: float) -> np.ndarray:
    """The N real site coefficients of the evolved end-site operator.

    Entry j (1-based) is Re / -Im of the propagator column element for odd /
    even j; the last entry is the signed flux between homonymous X operators
    of the chain ends.
    """
    sites = np.arange(profile.n_qubits - 1, -1, -1)
    out = np.empty((sites.size, 1))
    _end_column(profile.couplings[None], _times(float(t)), sites, out)
    return out[:, 0]


class TruncationError(RuntimeError):
    """The requested truncation order cannot meet the error target."""


@dataclass(frozen=True)
class SeriesResult:
    coefficients: np.ndarray
    truncation_bound: float
    terms_used: int


def series_digits(jmax: float, t: float) -> float:
    """Digits of `series_flux` at |couplings| <= jmax: the peak raw term e^{2 jmax |t|}, plus 40."""
    return 2 * jmax * abs(t) / np.log(10.0) + 40


def series_flux(profile: CouplingProfile, t: float, truncation_order: int) -> SeriesResult:
    """Site coefficients via the alternating power series of the recurrence.

    Streams u_m = T^m e_1 t^m / m!, with T the coupling matrix read from the
    far end, and adds term m with sign + for m mod 4 < 2 and - otherwise.
    Works in `decimal` at `series_digits` significant digits and the widest
    exponent range: raw terms grow like (2 J_max t)^m / m! before cancelling.
    The reported bound is the first omitted term's magnitude, the largest
    entry of u over m = order + 1 and order + 2, and must beat the 1e-10
    target, otherwise the truncation is rejected.
    """
    digits = series_digits(float(np.abs(profile.couplings).max()), t)
    if not np.isfinite(digits):
        raise ValueError(f"t must be finite and Jmax |t| within float range, got t={t}")
    n = profile.n_qubits
    if truncation_order < n - 1:
        raise TruncationError(f"order {truncation_order} cannot reach site {n}")
    context = decimal.Context(prec=int(digits), Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        D = decimal.Decimal
        dt = D(float(t))
        zero = D(0)
        # a zero site at each end, so every site has two neighbours
        rev = [zero, *(D(float(c)) for c in profile.couplings[::-1]), zero]
        u = [zero, D(1), *[zero] * n]
        total = u[1:-1]
        bound = zero
        for m in range(1, truncation_order + 3):
            step = dt / m
            inner = ((rev[k - 1] * u[k - 1] + rev[k] * u[k + 1]) * step for k in range(1, n + 1))
            u = [zero, *inner, zero]
            if m > truncation_order:
                bound = max(bound, *map(abs, u))
            elif m % 4 < 2:
                total = [a + b for a, b in zip(total, u[1:])]
            else:
                total = [a - b for a, b in zip(total, u[1:])]
        coeffs = np.array([float(v) for v in total])
        bound = float(bound)
    if bound >= TRUNCATION_TARGET:
        raise TruncationError(
            f"order {truncation_order} leaves a term of magnitude {bound:.3e} "
            f"at t={t}; raise the order"
        )
    return SeriesResult(coeffs, bound, truncation_order)


def flux_components(f: complex, target_qubit: int, time_label: float | str = "") -> FluxMatrix:
    """FluxMatrix of an excitation-conserving transfer with amplitude f."""
    if not abs(f) <= 1 + AMPLITUDE_TOL:
        raise ValueError(f"|f| = {abs(f)} exceeds 1")
    p = abs(f) ** 2
    rows = np.array(
        [
            [f.real, -f.imag, 0.0, 0.0],
            [f.imag, f.real, 0.0, 0.0],
            [0.0, 0.0, p, 1.0 - p],
        ]
    )
    return FluxMatrix(target_qubit, time_label, rows)


@dataclass(frozen=True)
class TransferResult:
    amplitude: complex
    flux: FluxMatrix
    worst_case_fidelity: float
    time: float

    def __post_init__(self):
        if not abs(self.amplitude) <= 1 + AMPLITUDE_TOL:
            raise ValueError("amplitude magnitude exceeds 1")
        if not abs(self.worst_case_fidelity - abs(self.amplitude) ** 2) <= 1e-9:
            raise ValueError("worst-case fidelity must equal |f|^2")


def transfer(profile: CouplingProfile, t: float) -> TransferResult:
    f = transfer_amplitude(profile, t)
    return TransferResult(f, flux_components(f, profile.n_qubits, t), abs(f) ** 2, t)


DEFAULT_ETA_GRID = np.round(np.arange(0.10, 1.0 + 1e-9, 0.01), 10)
DEFAULT_TIME_GRID = np.round(np.arange(0.0, 60.0 + 1e-9, 0.05), 10)


def first_arrival_window(n_qubits: int) -> np.ndarray:
    """Time grid covering the first transfer peak but not slow revivals.

    The ballistic front needs Jt of order N/2; the margin keeps the peak of
    weak-eta profiles inside the window.  Restricting the argmax search to
    this window makes the per-N optimum comparable across chain lengths.
    """
    return np.round(np.arange(0.0, 0.55 * n_qubits + 3.0 + 1e-9, 0.05), 10)


def _abs_surface(couplings: np.ndarray, t_grid: np.ndarray, surface: np.ndarray) -> tuple[float, int]:
    """|f| of each row of `couplings` on t_grid, written into the rows of `surface` in place.

    Returns the surface maximum, checked against 1 + AMPLITUDE_TOL, and the Chebyshev order.
    """
    order = _end_column(couplings, t_grid, np.array([0]), surface)
    np.abs(surface, out=surface)
    top = float(surface.max())
    if not top <= 1 + AMPLITUDE_TOL:
        raise AssertionError(f"|f| = {top} exceeds 1")
    return top, order


@dataclass(frozen=True)
class SweepResult:
    eta_grid: np.ndarray
    t_grid: np.ndarray
    surface: np.ndarray  # |f|, shape (len(eta_grid), len(t_grid))
    eta_max: float
    t_max: float
    flux_max: float
    argmax_ties: int  # surface points within TIE_TOL of the maximum
    chebyshev_order: int  # the series order K of the whole surface


def eta_sweep(
    n_qubits: int,
    eta_grid: np.ndarray = DEFAULT_ETA_GRID,
    t_grid: np.ndarray = DEFAULT_TIME_GRID,
) -> SweepResult:
    """|f| surface over (eta, Jt) with earliest-time argmax selection.

    Every eta's profile shares one Bessel table.  Grid points whose value is
    within TIE_TOL of the surface maximum count as ties; the smallest time
    wins, then the smallest eta.
    """
    eta_grid = _grid_1d(eta_grid, "eta_grid")
    t_grid = _times(t_grid)
    if eta_grid.size == 0 or t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    surface = np.empty((eta_grid.size, t_grid.size))
    couplings = np.array([CouplingProfile.uniform_eta(n_qubits, 1.0, eta).couplings for eta in eta_grid.tolist()])
    top, order = _abs_surface(couplings, t_grid, surface)
    tie_eta, tie_t = np.nonzero(surface >= top - TIE_TOL)
    first = np.lexsort((eta_grid[tie_eta], t_grid[tie_t]))[0]
    ei, ti = int(tie_eta[first]), int(tie_t[first])
    return SweepResult(
        eta_grid,
        t_grid,
        surface,
        float(eta_grid[ei]),
        float(t_grid[ti]),
        float(surface[ei, ti]),
        int(tie_t.size),
        order,
    )


@dataclass(frozen=True)
class DisorderResult:
    t_grid: np.ndarray
    mean_flux: np.ndarray
    std_flux: np.ndarray
    max_fluxes: np.ndarray  # per trial
    argmax_times: np.ndarray  # per trial
    negative_coupling_trials: tuple[int, ...]
    spec: DisorderSpec
    eta: float
    chebyshev_order: int  # the series order K of every trial


STD_COLUMNS = 128  # time points per block of the ensemble's standard deviation


def disorder_ensemble(
    n_qubits: int,
    eta: float,
    spec: DisorderSpec,
    t_grid: np.ndarray,
) -> DisorderResult:
    """Monte Carlo over Gaussian coupling disorder, deterministic per seed.

    Trial k draws from an independent stream keyed by (seed, k), so any one
    trial can be recomputed on its own.  Every trial shares one Bessel table.
    """
    t_grid = _times(t_grid)
    if t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    base = CouplingProfile.uniform_eta(n_qubits, 1.0, eta)
    surface = np.empty((spec.trials, t_grid.size))
    couplings = np.empty((spec.trials, n_qubits - 1))
    negative: list[int] = []
    for k in range(spec.trials):
        rng = np.random.default_rng([spec.seed, k])
        profile = CouplingProfile.disordered(base, spec.sigma_fraction, rng)
        if profile.has_negative_coupling:
            negative.append(k)
        couplings[k] = profile.couplings
    _, order = _abs_surface(couplings, t_grid, surface)
    # a block of columns at a time, so no trials x times temporary is formed
    std = np.empty(t_grid.size)
    for j in range(0, t_grid.size, STD_COLUMNS):
        std[j : j + STD_COLUMNS] = surface[:, j : j + STD_COLUMNS].std(axis=0)
    argmax = surface.argmax(axis=1)
    return DisorderResult(
        t_grid,
        surface.mean(axis=0),
        std,
        surface.max(axis=1),
        t_grid[argmax],
        tuple(negative),
        spec,
        eta,
        order,
    )
