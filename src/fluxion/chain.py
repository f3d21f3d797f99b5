"""State transfer through open XY chains in the single-excitation sector.

The production path solves the tridiagonal hopping matrix M from a block of
half its size.  M has zero diagonal (every CouplingProfile has no on-site
terms), so the chain is bipartite: M only couples the sites of the far
end's parity to the others, through a bidiagonal block C.  The thin SVD of
C gives the spectrum of M as exact +-sigma pairs and each propagator
element from the far end as a real cosine sum or an imaginary sine sum over
sigma, by the parity of the site distance: the end-to-end amplitude f(t) is
real for odd N and imaginary for even N.  Both sums are the real and
imaginary parts of one complex phase sum.  On a grid of K >= 64 times,
write t_k = a_b + c_m + r_k with block starts a_b = t_0 + b B dt, offsets
c_m = m dt and B = ceil(sqrt K).  The grid counts as uniform when the
residual phases stay small, |sigma|max |r|max <= 1e-9: then every
e^{i sigma t_k} is one entry of each of two phase tables times
1 + i sigma r_k, to within (sigma r)^2 / 2, and the tables take O(sqrt K)
exponentials per mode instead of K.  Other grids take B = 1, one
exponential per time.

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


def eigh_tridiagonal(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes of the zero-diagonal tridiagonal M with off-diagonal `couplings`.

    M couples only sites of opposite parity, so it is [[0, C], [C^T, 0]] on
    (P, Q), C the |P| x |Q| bidiagonal coupling block.  Returns (X, sigma, Y)
    of the thin SVD C = X diag(sigma) Y^T: the modes of M are (x, +-y)/sqrt(2)
    at +-sigma, plus the null space of C^T or C at zero.
    """
    n = couplings.size + 1
    # coupling j joins sites j and j+1; site s is entry s // 2 of P or of Q
    left = np.arange(n - 1)
    in_p = left % 2 == (n - 1) % 2
    block = np.zeros(((n + 1) // 2, n // 2))
    block[np.where(in_p, left, left + 1) // 2, np.where(in_p, left + 1, left) // 2] = couplings
    X, sigma, Yt = np.linalg.svd(block, full_matrices=False)
    return X, sigma, Yt.T


UNIFORM_GRID_MIN_POINTS = 64  # shorter grids evaluate each phase directly
RESIDUAL_PHASE_TOL = 1e-9  # largest |sigma| |r| of a factored grid; (sigma r)^2/2 is dropped


def _phase_tables(t: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block starts a, offsets c and residuals r with t_k = a[k // B] + c[k % B] + r[k].

    On a uniform grid, a_b = t_0 + b B dt and c_m = m dt with B = ceil(sqrt K),
    and r = (t - a) - c is of rounding size (and exact for t >= 0, by Sterbenz).
    Grids under UNIFORM_GRID_MIN_POINTS points, or whose residual phases
    |sigma| |r| exceed RESIDUAL_PHASE_TOL, take B = 1: the anchors are t
    itself, the one offset is 0 and r = 0.
    """
    k = t.size
    if k >= UNIFORM_GRID_MIN_POINTS:
        b = int(np.ceil(np.sqrt(k)))
        index = np.arange(k)
        # a span past the float range gives non-finite residuals, which fail the test
        with np.errstate(over="ignore", invalid="ignore"):
            step = (t[-1] - t[0]) / (k - 1)
            anchors = t[0] + step * b * np.arange(-(-k // b))
            offsets = step * np.arange(b)
            residual = (t - anchors[index // b]) - offsets[index % b]
            phase = np.abs(sigma).max(initial=0.0) * np.abs(residual).max()
        if phase <= RESIDUAL_PHASE_TOL:
            return anchors, offsets, residual
    return t, np.zeros(1), np.zeros(k)


def _phase_sums(t: np.ndarray, sigma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S[k, s] = sum_j weights[s, j] exp(i sigma_j t_k), from `_phase_tables`.

    S = (A w) C^T + i r (A w sigma) C^T with A = exp(i sigma a), C = exp(i sigma c):
    each phase is the product of two table entries, so no error accumulates
    along the grid, and the dropped term is (sigma r)^2 / 2 per mode.
    """
    anchors, offsets, residual = _phase_tables(t, sigma)
    A = np.exp(1j * np.multiply.outer(anchors, sigma))
    C = np.exp(1j * np.multiply.outer(offsets, sigma))
    both = np.concatenate([weights, weights * sigma])  # (2S, modes)
    sums = (A[:, None, :] * both).reshape(-1, sigma.size) @ C.T  # (blocks * 2S, B)
    sums = sums.reshape(anchors.size, both.shape[0], offsets.size).transpose(0, 2, 1)
    sums = sums.reshape(-1, both.shape[0])[: t.size]
    s = weights.shape[0]
    return sums[:, :s] + 1j * residual[:, None] * sums[:, s:]


def _end_column(profile: CouplingProfile, t: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Real mode sums R[a, b] for U_{i,N}(t) = <i|exp(-iMt)|N>, i = sites[b], t = t[a].

    U_{i,N} is R where i+N-1 is even (i in P, 0-based) and -1j*R where it is
    odd (i in Q).  With C = X diag(sigma) Y^T from `eigh_tridiagonal`,

        exp(-iMt) = [[X cos(sigma t) X^T + (I - X X^T), -1j X sin(sigma t) Y^T],
                     [-1j Y sin(sigma t) X^T,           ...                    ]]

    so R is a cosine sum with weights X[i] X[N] on P and a sine sum with
    weights Y[i] X[N] on Q: the real and imaginary parts of one `_phase_sums`.
    On a uniform grid of at least 64 points whose residuals keep
    |sigma| |r| <= 1e-9, the sums come from block phase tables of about
    sqrt(K) rows each, to within (sigma r)^2 / 2; other grids take B = 1,
    one exponential per time and mode.  The +-sigma pairing is exact by
    construction.  The constant delta_{iN} - sum X[i] X[N] on P is the zero
    eigenspace of M, degenerate once a coupling vanishes, fixed by U(0) = 1
    without its eigenvectors.
    """
    if not np.isfinite(t).all():
        raise ValueError(f"t must be finite, got t={t[~np.isfinite(t)][0]}")
    n = profile.n_qubits
    X, _, Y = eigh_tridiagonal(profile.couplings)
    p = (n - 1) % 2
    V = np.empty((n, X.shape[1]))  # x on P, y on Q, site by site
    V[p::2], V[1 - p :: 2] = X, Y
    weights = V[sites] * V[-1]
    # extended-precision Rayleigh quotients x^T C y / (|x| |y|), where
    # x^T C y = sum_j J_j V[j] V[j+1]: singular values to rounding, so the
    # phases sigma*t stay accurate at long times
    v = V.astype(np.longdouble)
    x, y = v[p::2], v[1 - p :: 2]
    c = profile.couplings.astype(np.longdouble)
    sigma = np.einsum("i,ij,ij->j", c, v[:-1], v[1:]) / np.sqrt(
        np.einsum("ij,ij->j", x, x) * np.einsum("ij,ij->j", y, y)
    )
    sums = _phase_sums(t, sigma.astype(float), weights)
    even = (sites + n - 1) % 2 == 0
    return np.where(even, sums.real + ((sites == n - 1) - weights.sum(axis=1)), sums.imag)


def transfer_amplitude(profile: CouplingProfile, t: float) -> complex:
    """Amplitude f(t) from site 1 to site N of exp(-i M t), M tridiagonal."""
    return complex(amplitude_curve(profile, [t])[0])


def _grid_1d(grid, name: str) -> np.ndarray:
    """A scalar or 1-D grid as a float vector; anything of higher rank is an error."""
    arr = np.asarray(grid, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a scalar or 1-D, got shape {arr.shape}")
    return arr.reshape(-1)


def amplitude_curve(profile: CouplingProfile, t_grid: np.ndarray) -> np.ndarray:
    """f(t) on a whole time grid from one diagonalization."""
    r = _end_column(profile, _grid_1d(t_grid, "t_grid"), np.array([0]))[:, 0]
    f = r + 0j if profile.n_qubits % 2 else -1j * r
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
    return _end_column(profile, np.array([float(t)]), sites)[0]


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


@dataclass(frozen=True)
class SweepResult:
    eta_grid: np.ndarray
    t_grid: np.ndarray
    surface: np.ndarray  # |f|, shape (len(eta_grid), len(t_grid))
    eta_max: float
    t_max: float
    flux_max: float
    argmax_ties: int  # surface points within TIE_TOL of the maximum


def eta_sweep(
    n_qubits: int,
    eta_grid: np.ndarray = DEFAULT_ETA_GRID,
    t_grid: np.ndarray = DEFAULT_TIME_GRID,
) -> SweepResult:
    """|f| surface over (eta, Jt) with earliest-time argmax selection.

    Grid points whose value is within TIE_TOL of the surface maximum count
    as ties; the smallest time wins, then the smallest eta.
    """
    eta_grid = _grid_1d(eta_grid, "eta_grid")
    t_grid = _grid_1d(t_grid, "t_grid")
    if eta_grid.size == 0 or t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    surface = np.empty((eta_grid.size, t_grid.size))
    for i, eta in enumerate(eta_grid):
        profile = CouplingProfile.uniform_eta(n_qubits, 1.0, float(eta))
        surface[i] = np.abs(amplitude_curve(profile, t_grid))
    top = float(surface.max())
    tie_eta, tie_t = np.nonzero(surface >= top - TIE_TOL)
    order = np.lexsort((eta_grid[tie_eta], t_grid[tie_t]))
    ei, ti = int(tie_eta[order[0]]), int(tie_t[order[0]])
    return SweepResult(
        eta_grid,
        t_grid,
        surface,
        float(eta_grid[ei]),
        float(t_grid[ti]),
        float(surface[ei, ti]),
        int(tie_t.size),
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


def disorder_ensemble(
    n_qubits: int,
    eta: float,
    spec: DisorderSpec,
    t_grid: np.ndarray,
) -> DisorderResult:
    """Monte Carlo over Gaussian coupling disorder, deterministic per seed.

    Trial k draws from an independent stream keyed by (seed, k), so any one
    trial can be recomputed on its own.
    """
    t_grid = _grid_1d(t_grid, "t_grid")
    if t_grid.size == 0:
        raise ValueError("grids must be non-empty")
    base = CouplingProfile.uniform_eta(n_qubits, 1.0, eta)
    surface = np.empty((spec.trials, t_grid.size))
    negative: list[int] = []
    for k in range(spec.trials):
        rng = np.random.default_rng([spec.seed, k])
        profile = CouplingProfile.disordered(base, spec.sigma_fraction, rng)
        if profile.has_negative_coupling:
            negative.append(k)
        surface[k] = np.abs(amplitude_curve(profile, t_grid))

    argmax = surface.argmax(axis=1)
    return DisorderResult(
        t_grid,
        surface.mean(axis=0),
        surface.std(axis=0),
        surface.max(axis=1),
        t_grid[argmax],
        tuple(negative),
        spec,
        eta,
    )
