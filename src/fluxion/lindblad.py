"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing, on the row-major vec(rho).  S is a sum of
2n-qubit Pauli words, which `_generator_pieces` lists, and is never built on
all 4^n coordinates.  The `csr_array` call of `_reachable` and the CSR kernel
of `solve_ivp` are the package's only `scipy.sparse` use, so no other engine
loads it.  The dense superoperator S is checked against, `superoperator` in
tests/oracles.py, builds all its pieces independently from 2x2 matrices.
`_partial_trace` is the one partial trace of a density matrix.

Every entry point runs through `_evolve`, which reads each unit off one
Taylor lattice anchored at t = 0 (Moler & Van Loan, SIAM Rev. 45, 3 (2003);
Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): steps of h =
TAYLOR_STEP / b, b the infinity-norm of S, so every step is certified at the
order 33 before the first product.  `solve_ivp` writes the forward terms
(hS)^j y_k of the current step into zeroed rows of one 34 x d array, each by
one call of `scipy.sparse._sparsetools.csr_matvec`, the kernel behind `S @ v`;
a whole step sums them into the next lattice state, and a grid time t inside
the step is sum_j s^j/j! (hS)^j y_k at s = t/h - k, to the least order
certified at s b h, in Horner form in s.  So a grid time costs only the terms
no earlier time of its step made.  That kernel is private: tests/test_lindblad.py
pins what it does.  It exists at the `scipy>=1.13` floor, but the tests have
only been run on scipy 1.17.  The spec keeps each unit's last lattice state,
from which a later call resumes; a lattice state does not depend on the path
to it, so every result is the same function of (spec, unit, t) whatever the
calls before.
`_evolve` integrates only the coordinates `_reachable` from the support of the
initial operator: `pauli._closure` of that support under S's words, on which
S[rest, set] == 0, so every other coordinate stays exactly 0 and the
restriction is exact.  No symmetry is named; the closure finds by itself that
S conserves Delta = (ket excitations) - (bra excitations) (Buca & Prosen, New
J. Phys. 14, 073007 (2012)) and, at n_bar = 0, that the jumps only lower
excitations.  S on the set, built from the entries the closure collects, and
its own infinity-norm are cached on the spec, one entry per set, shared by
every support that closes onto it.
`open_flux_trajectory` reads the flux at every grid time from three evolved
operator units of the input qubit, |0><0|, |1><1| and |0><1| (|1><0| is the
adjoint of the evolved |0><1|); the two diagonal units pass the
`DensityMatrix` checks at every time, whose eigenvalues are taken only on the
kets the unit touches.  `open_flux_tomography` is its one-time case;
four-input tomography (`flux.solve_affine`) is the test oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .chain import _grid_1d
from .dense import SpinHamiltonian
from .flux import FluxMatrix, flux_readout
from .pauli import PauliObservable, PauliString, _closure, _words, qubit_mask
from .states import RegisterState, input_kets

OPEN_QUBIT_CAP = 8
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8
TAYLOR_STEP = 4.0  # every step has b h <= TAYLOR_STEP, b the infinity-norm of S
TAYLOR_TOL = 1e-16  # bound on each step's truncation error, relative to the state's infinity-norm
Integration = namedtuple("Integration", "y nfev")  # nfev counts the products with S

@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if arr.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix")
        if not (np.abs(arr - arr.conj().T).max() <= HERMITICITY_TOL):
            raise ValueError("matrix is not Hermitian")
        arr = 0.5 * (arr + arr.conj().T)  # stored Hermitian part: drops integrator roundoff asymmetry
        trace = np.trace(arr)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise ValueError(f"trace {trace} is not 1")
        live = arr.any(axis=1)  # the other rows and columns are 0, and so are their eigenvalues
        if not (np.linalg.eigvalsh(arr[live][:, live]).min() >= -POSITIVITY_TOL):
            raise ValueError("matrix has a significantly negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_state(cls, state: RegisterState) -> "DensityMatrix":
        v = state.amplitudes
        return cls(state.n_qubits, np.outer(v, v.conj()))


def _partial_trace(entries: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """2x2 block of one qubit of an n-qubit operator, every other qubit traced out."""
    after = qubit_mask(n, qubit)  # raises unless 1 <= qubit <= n
    before = 1 << (qubit - 1)
    r = entries.reshape(before, 2, after, before, 2, after)
    return np.einsum("aibajb->ij", r)


@dataclass(frozen=True)
class LindbladSpec:
    """Per-qubit rates; damping relaxes toward the ground state.

    Dephasing enters through a sigma_z jump at rate dephasing_rate, giving
    coherences an extra decay of twice that rate on top of the damping
    contribution.
    """

    damping_rate: float
    dephasing_rate: float
    n_bar: float = 0.0
    hamiltonian: SpinHamiltonian | None = None

    def __post_init__(self):
        rates = (self.damping_rate, self.dephasing_rate, self.n_bar)
        if not all(np.isfinite(r) and r >= 0 for r in rates):
            raise ValueError(f"rates and occupation must be finite and >= 0, got {rates}")


def _sandwich(n: int, a, b, scale: complex = 1.0):
    """2n-qubit words of rho -> scale A rho B^dag, which is scale A x B* on the row-major vec(rho).

    A's masks are shifted up by n; a word's conjugate is the word times (-1)^{|x & z|}.
    """
    return [
        (xa << n | xb, za << n | zb, scale * ca * np.conj(cb) * (-1) ** (xb & zb).bit_count())
        for xa, za, ca in a for xb, zb, cb in b
    ]


def _generator_pieces(spec: LindbladSpec, n: int):
    """The 2n-qubit words (x_mask, z_mask, coefficient) of S, each word's coefficients summed and zero sums
    left out: S = -i(H x I - I x H^T) + sum_L L x L* - (K x I + I x K^T)/2 on the row-major vec(rho).

    The jumps per qubit are sigma- = (X + iY)/2, sigma+ = (X - iY)/2 and Z,
    scaled by the square roots of their rates; H and K are Hermitian, so rho H = rho H^dag.
    """
    h = spec.hamiltonian
    if h is not None and h.n_qubits != n:
        raise ValueError("Hamiltonian qubit count mismatch")
    H = [] if h is None else h._terms
    eye = [(0, 0, 1.0)]
    masks = [qubit_mask(n, q) for q in range(1, n + 1)]
    lower = np.sqrt(spec.damping_rate * (spec.n_bar + 1))
    raise_ = np.sqrt(spec.damping_rate * spec.n_bar)
    jumps = [[(m, 0, 0.5 * lower), (m, m, 0.5j * lower)] for m in masks]
    jumps += [[(m, 0, 0.5 * raise_), (m, m, -0.5j * raise_)] for m in masks]
    jumps += [[(0, m, np.sqrt(spec.dephasing_rate))] for m in masks]
    # K = sum_L L^dag L from sigma-^dag sigma- = (I - Z)/2, sigma+^dag sigma+ = (I + Z)/2, Z^dag Z = I
    K = [(0, 0, n * (spec.damping_rate * (spec.n_bar + 0.5) + spec.dephasing_rate))]
    K += [(0, m, -0.5 * spec.damping_rate) for m in masks]
    words = _sandwich(n, H, eye, -1j) + _sandwich(n, eye, H, 1j)
    words += _sandwich(n, K, eye, -0.5) + _sandwich(n, eye, K, -0.5)
    for L in jumps:
        words += _sandwich(n, L, L)
    # the lowering and raising jumps write the same words; summed entry by entry instead of
    # word by word, their cancelling parts would leave roundoff entries in S
    merged: dict[tuple[int, int], complex] = {}
    for x, z, c in words:
        merged[x, z] = merged.get((x, z), 0) + c
    return [(x, z, c) for (x, z), c in merged.items() if c != 0]


def _order(x: float) -> int:
    """The least Taylor order m whose remainder x^{m+1}/(m+1)! e^x, for a step of norm x, is <= TAYLOR_TOL."""
    m, remainder = 0, x * math.exp(x)
    while remainder > TAYLOR_TOL:
        m += 1
        remainder *= x / (m + 1)
    return m


TAYLOR_ORDER = _order(TAYLOR_STEP)  # 33, the order of a whole lattice step
_INVERSE_FACTORIALS = np.array([[1 / math.factorial(j)] for j in range(TAYLOR_ORDER + 1)], dtype=complex)


def _place(t: float, bound: float) -> tuple[int, float]:
    """(k, s) with t = (k + s) h, 0 <= s < 1, on the lattice of steps h = TAYLOR_STEP / bound from t = 0.

    S = 0 (bound 0) leaves every state where it is, in one step that never ends.
    """
    if bound == 0:
        return 0, 0.0
    q = t / (TAYLOR_STEP / bound)
    k = math.floor(q)
    return k, q - k


class Lattice:
    """One unit on its Taylor lattice: the state y_k at t = k h and the forward terms of the step from there.

    Row 0 of `terms` holds y_k and rows 1..order the terms (hS)^j y_k; the rows past `order` are 0, for
    `csr_matvec` to add the next term into.  `rows` lists the rows as views, so that a product or a read
    makes none; `hS` is S's data scaled by h, made at the first product.
    """

    __slots__ = ("k", "order", "terms", "rows", "hS")

    def __init__(self, k: int, y: np.ndarray):
        self.k, self.order, self.hS = k, 0, None
        self.terms = np.zeros((TAYLOR_ORDER + 1, y.size), dtype=complex)
        self.terms[0] = y
        self.rows = list(self.terms)


def _read(rows: list, s: float, m: int) -> np.ndarray:
    """sum_{j <= m} s^j/j! rows[j], in a new array, in Horner form in s: rows[0] + s (rows[1] + s/2 (...))."""
    y = rows[m].copy()
    for j in range(m, 0, -1):
        y *= s / j
        y += rows[j - 1]
    return y


def solve_ivp(S, t_span, lattice: Lattice, bound: float) -> Integration:
    """y(t1) of y' = S y, for a constant CSR S of infinity-norm <= bound, read off `lattice`, which it advances.

    With (K, s) = `_place(t1, bound)`, the lattice holds some step k <= K.  Each step before K takes all
    TAYLOR_ORDER terms, scales them by 1/j! in place and sums them into the next lattice state, whose
    terms start from zeroed rows; y(t1) is sum_j s^j/j! (hS)^j y_K to the least order m with
    (s bh)^{m+1}/(m+1)! e^{s bh} <= TAYLOR_TOL, in Horner form in s.  Each term is one call of scipy's
    `csr_matvec`, the kernel behind `S @ v`, adding hS times the term before into its row; terms already
    on the lattice cost nothing, so nfev counts the products this call made, and a read inside a step
    whose terms are made costs none.  As bh <= TAYLOR_STEP, every term is at most 4^33 ~ 7.4e19 times
    the state, far from overflow.  t_span's t0 is where the caller read last; the products depend on
    the lattice and t1 only.
    """
    from scipy.sparse import _sparsetools

    K, s = _place(t_span[1], bound)
    if lattice.k > K:
        raise ValueError(f"the lattice is past t = {t_span[1]}")
    m = _order(s * TAYLOR_STEP)
    terms, rows, nfev = lattice.terms, lattice.rows, 0
    matvec, d, indptr, indices = _sparsetools.csr_matvec, terms.shape[1], S.indptr, S.indices
    while True:
        top = TAYLOR_ORDER if lattice.k < K else m
        if top > lattice.order:
            if lattice.hS is None:
                lattice.hS = S.data * (TAYLOR_STEP / bound)
            hS = lattice.hS
            for j in range(lattice.order + 1, top + 1):
                matvec(d, d, indptr, indices, hS, rows[j - 1], rows[j])
            nfev += top - lattice.order
            lattice.order = top
        if lattice.k == K:
            return Integration(_read(rows, s, m), nfev)
        terms *= _INVERSE_FACTORIALS  # the whole step: (hS)^j y_k / j!, summed into y_{k+1}
        terms[0] = terms.sum(axis=0)
        terms[1:] = 0
        lattice.k, lattice.order = lattice.k + 1, 0


def _reachable(spec: LindbladSpec, n: int, support: np.ndarray):
    """(coordinates, S on them, its infinity-norm) for `pauli._closure` of `support` under S's words.

    The closure is the least set of vec(rho) coordinates holding every row in
    which a column of the set has an entry, so S[rest, set] == 0 and an
    operator supported on the set stays on it.  S's words are listed once per
    spec and qubit count, and the entries by support, both cached on the
    frozen spec; supports that close onto the same set share one entry.
    """
    words = vars(spec).setdefault("_words", {})  # n -> S's words
    blocks = vars(spec).setdefault("_blocks", {})  # (n, support) -> (coords, block, bound)
    sets = vars(spec).setdefault("_sets", {})  # (n, coords) -> the same entries, one per set
    key = (n, support.tobytes())
    if key not in blocks:
        if n not in words:
            words[n] = _words(_generator_pieces(spec, n))
        coords, rows, cols, vals = _closure(2 * n, words[n], support)
        if (n, coords.tobytes()) not in sets:
            position = np.zeros(1 << 2 * n, dtype=np.int32)
            position[coords] = np.arange(coords.size, dtype=np.int32)
            from scipy import sparse

            block = sparse.csr_array((vals, (position[rows], position[cols])), shape=(coords.size,) * 2)
            row_of = np.repeat(np.arange(coords.size), np.diff(block.indptr))
            bound = float(np.bincount(row_of, np.abs(block.data), coords.size).max(initial=0.0))
            sets[n, coords.tobytes()] = coords, block, bound
        blocks[key] = sets[n, coords.tobytes()]
    return blocks[key]


def _evolve(entries: np.ndarray, spec: LindbladSpec, n: int, t_grid):
    """Yields the operator `entries`, given at t = 0, at every time of an ascending grid.

    Only the coordinates `_reachable` from the support of `entries` are integrated; every other one
    stays exactly 0.  The unit's lattice starts from the last lattice state that a call on this spec
    reached for the same support, values and set, if it lies at or before the first grid time, else
    from t = 0.  Lattice states do not depend on the path to them, so every value is the same
    function of (spec, unit, t) whatever the call history.  Each new grid time is one `solve_ivp` read.
    """
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    t_grid = _grid_1d(t_grid, "t_grid")
    if not (np.isfinite(t_grid) & (t_grid >= 0)).all():
        raise ValueError("times must be finite and >= 0")
    if not (np.diff(t_grid) >= 0).all():
        raise ValueError("time grid must be ascending")
    flat = entries.ravel()
    support = np.flatnonzero(flat)
    coords, S, bound = _reachable(spec, n, support)
    last = vars(spec).setdefault("_lattices", {})  # (n, support, values) -> (coords, k, y_k): the last state reached
    key = (n, support.tobytes(), flat[support].astype(complex).tobytes())
    k, state = 0, flat[coords]
    if key in last and t_grid.size:
        seen, k_seen, state_seen = last[key]
        if seen is coords and k_seen <= _place(t_grid[0], bound)[0]:  # the very set `_reachable` keeps
            k, state = k_seen, state_seen
    lattice = Lattice(k, state)
    start = k * TAYLOR_STEP / bound if k else 0.0  # the time of the lattice state
    y = None
    for t in t_grid:
        if y is None or t > start:
            result = solve_ivp(S, (start, float(t)), lattice, bound)
            y, start = result.y, float(t)
            vars(spec)["_products"] = vars(spec).get("_products", 0) + result.nfev
            if lattice.k > k:
                k = lattice.k
                last[key] = coords, k, lattice.terms[0].copy()
        rho = np.zeros(flat.size, dtype=complex)
        rho[coords] = y
        yield rho.reshape(entries.shape)


def evolve_density(rho0: DensityMatrix, spec: LindbladSpec, t: float) -> DensityMatrix:
    (rho,) = _evolve(rho0.entries, spec, rho0.n_qubits, [t])
    return DensityMatrix(rho0.n_qubits, rho)


def open_flux_trajectory(
    spec: LindbladSpec,
    t_grid,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> list[FluxMatrix]:
    """FluxMatrix at every time of an ascending grid, read from three evolved input units.

    The units are evolved one after another, each once over the whole grid, so
    one unit's lattice is alive at a time, and the target's blocks of every
    time are read out as one stack.  Incoherent decay shows
    up in the identity column, which collects the input-independent drift of
    the target Bloch vector.
    """
    n = register.n_qubits + 1
    t_grid = _grid_1d(t_grid, "t_grid")
    kets = input_kets(register, input_qubit)
    qubit_mask(n, target_qubit)  # rejects an out-of-range target before anything is integrated
    R = np.zeros((2, 2, 2, 2, t_grid.size), dtype=complex)  # R[a, b, i, j, k], as `flux_readout` reads it
    for a, b in ((0, 0), (1, 1), (0, 1)):  # one unit after another, so one lattice is alive at a time
        unit = np.outer(kets[a], kets[b].conj())
        for k, rho in enumerate(_evolve(unit, spec, n, t_grid)):
            if a == b:
                rho = DensityMatrix(n, rho).entries
            R[a, b, ..., k] = _partial_trace(rho, n, target_qubit)
    return flux_readout(R, target_qubit, t_grid.tolist())


def open_flux_tomography(
    spec: LindbladSpec,
    t: float,
    input_qubit: int,
    register: RegisterState,
    target_qubit: int,
) -> FluxMatrix:
    """FluxMatrix under open evolution at one time t >= 0."""
    return open_flux_trajectory(spec, [t], input_qubit, register, target_qubit)[0]


def expectation_trajectory(
    spec: LindbladSpec,
    obs: PauliObservable | PauliString,
    rho0: DensityMatrix,
    t_grid,
) -> np.ndarray:
    """Tr[obs rho(t)] on an ascending time grid starting at t >= 0."""
    if obs.n_qubits != rho0.n_qubits:
        raise ValueError(f"observable on {obs.n_qubits} qubits, state on {rho0.n_qubits}")
    M = obs.to_matrix()
    values = []
    for rho in _evolve(rho0.entries, spec, rho0.n_qubits, t_grid):
        val = complex(np.trace(M @ rho))
        if not (abs(val.imag) <= 1e-7 and np.isfinite(val)):
            raise AssertionError(f"non-real or non-finite expectation {val}")
        values.append(val.real)
    return np.array(values)
