"""State transfer through open XY chains in the single-excitation sector.

The production path diagonalizes the tridiagonal hopping matrix and sums the
modes over half the spectrum.  The hopping matrix has zero diagonal (every
CouplingProfile has no on-site terms), so the chain is bipartite and its
spectrum comes in exact +-lam pairs.  Each propagator element from the far
end is then a real cosine sum or an imaginary sine sum over lam > 0, by the
parity of the site distance: the end-to-end amplitude f(t) is real for odd
N and imaginary for even N.  The power series evaluator reproduces the same
coefficients as a cross-check, with explicit truncation accounting: it
streams one vector of Taylor terms T^m e_1 t^m / m! in arbitrary precision,
each from the last by one product with the coupling matrix, and never
forms the powers of T.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal

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


def _end_column(profile: CouplingProfile, t: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Real mode sums R[a, b] for U_{i,N}(t) = <i|exp(-iMt)|N>, i = sites[b], t = t[a].

    U_{i,N} is R where i+N-1 is even and -1j*R where it is odd (i 0-based).
    M has zero diagonal, so S = diag((-1)^j) gives S M S = -M and
    S P_lam S = P_{-lam}: the spectrum comes in +-lam pairs whose weights
    w = V[i]V[N-1] agree up to the sign (-1)^(i+N-1).  A pair therefore adds
    (w_+ + w_-) cos(lam t) to even and (w_+ - w_-) sin(lam t) to odd
    elements, and only the upper half of the spectrum is evaluated.  Using
    both computed weights rather than 2 w_+ cancels, to first order, the
    rotation eigh may apply to a nearly degenerate pair.  The zero eigenspace
    (degenerate once a coupling vanishes) adds a constant to even elements,
    which U(0) = 1 fixes without its eigenvectors.
    """
    if not np.isfinite(t).all():
        raise ValueError(f"t must be finite, got t={t[~np.isfinite(t)][0]}")
    n = profile.n_qubits
    _, V = eigh_tridiagonal(np.zeros(n), profile.couplings)
    h = n // 2
    # eigenvalues ascend, so column n-h+m pairs with its mirror h-1-m
    top, bottom = V[:, n - h :], V[:, h - 1 :: -1]
    upper = top[sites] * top[-1]
    lower = bottom[sites] * bottom[-1]
    # extended-precision Rayleigh quotients: eigenvalues to rounding, so the
    # phases lam*t stay accurate at long times
    x = top.astype(np.longdouble)
    c = profile.couplings.astype(np.longdouble)
    lam = 2 * np.einsum("i,ij,ij->j", c, x[:-1], x[1:]) / np.einsum("ij,ij->j", x, x)
    phases = np.outer(t, lam.astype(float))
    even = (sites + n - 1) % 2 == 0
    out = np.empty((t.size, sites.size))
    if not even.all():
        out[:, ~even] = np.sin(phases) @ (upper - lower)[~even].T
    if even.any():
        pair = (upper + lower)[even]
        cos = np.cos(phases, out=phases)
        out[:, even] = cos @ pair.T + ((sites[even] == n - 1) - pair.sum(axis=1))
    return out


def transfer_amplitude(profile: CouplingProfile, t: float) -> complex:
    """Amplitude f(t) from site 1 to site N of exp(-i M t), M tridiagonal."""
    return complex(amplitude_curve(profile, [t])[0])


def amplitude_curve(profile: CouplingProfile, t_grid: np.ndarray) -> np.ndarray:
    """f(t) on a whole time grid from one diagonalization."""
    r = _end_column(profile, np.asarray(t_grid, dtype=float), np.array([0]))[:, 0]
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


def series_flux(profile: CouplingProfile, t: float, truncation_order: int) -> SeriesResult:
    """Site coefficients via the alternating power series of the recurrence.

    Streams u_m = T^m e_1 t^m / m!, with T the coupling matrix read from the
    far end, and adds term m with sign + for m mod 4 < 2 and - otherwise.
    Works in arbitrary precision: raw terms grow like (J_max t)^m / m!
    before cancelling, so the working precision is scaled to the peak term.
    The reported bound is the first omitted term's magnitude, the largest
    entry of u over m = order + 1 and order + 2, and must beat the 1e-10
    target, otherwise the truncation is rejected.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got t={t}")
    n = profile.n_qubits
    if truncation_order < n - 1:
        raise TruncationError(f"order {truncation_order} cannot reach site {n}")
    jmax = float(np.abs(profile.couplings).max())
    dps = int(2 * jmax * abs(t) / np.log(10.0)) + 40
    with mpmath.workdps(dps):
        mt = mpmath.mpf(t)
        zero = mpmath.mpf(0)
        # a zero site at each end, so every site has two neighbours
        rev = [zero, *(mpmath.mpf(float(c)) for c in profile.couplings[::-1]), zero]
        u = [zero, mpmath.mpf(1), *[zero] * n]
        total = u[1:-1]
        bound = zero
        for m in range(1, truncation_order + 3):
            step = mt / m
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


def eta_sweep(
    n_qubits: int,
    eta_grid: np.ndarray = DEFAULT_ETA_GRID,
    t_grid: np.ndarray = DEFAULT_TIME_GRID,
) -> SweepResult:
    """|f| surface over (eta, Jt) with earliest-time argmax selection.

    Grid points whose value is within TIE_TOL of the surface maximum count
    as ties; the smallest time wins, then the smallest eta.
    """
    eta_grid = np.asarray(eta_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
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
        eta_grid, t_grid, surface, float(eta_grid[ei]), float(t_grid[ti]), float(surface[ei, ti])
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
    t_grid = np.asarray(t_grid, dtype=float)
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
