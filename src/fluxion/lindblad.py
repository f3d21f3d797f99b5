"""Markovian open-system evolution for small registers.

Standard-form Lindblad generator with per-qubit amplitude damping (optionally
thermal) and pure dephasing, on the row-major vec(rho).  S is a sum of
2n-qubit Pauli words, which `_generator_pieces` lists, and is never built on
all 4^n coordinates.  The `csr_array` call of `_reachable` and the CSR kernel
of `solve_ivp` are the package's only `scipy.sparse` use, so no other engine
loads it.  The dense superoperator S is checked against, `superoperator` in
tests/oracles.py, builds all its pieces independently from 2x2 matrices.
`_partial_trace` is the one partial trace of a density matrix.

Every entry point runs through `_evolve`, which integrates each interval of an
ascending grid of finite times t >= 0 once, by `solve_ivp`: fixed Taylor steps
of exp(hS) whose number and order the infinity-norm of S certifies before the
first product (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Each step is
evaluated in Horner form, of order at most 33 since bh <= TAYLOR_STEP, and
each of its products is one call of `scipy.sparse._sparsetools.csr_matvec`,
the kernel behind `S @ v`, adding S v into a preallocated buffer.  That kernel
is private: tests/test_lindblad.py pins what it does.  It exists at the
`scipy>=1.13` floor, but the tests have only been run on scipy 1.17.
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


def solve_ivp(S, t_span, y0, bound: float) -> Integration:
    """y(t1) of y' = S y from y(t0) = y0, for a constant CSR S of infinity-norm <= bound.

    ceil(bound (t1 - t0) / TAYLOR_STEP) equal steps h, each summing the Taylor series of exp(hS)
    to the least order m whose remainder (bh)^{m+1}/(m+1)! e^{bh} is <= TAYLOR_TOL.
    The sum is Horner's w_k = y + (A/k) w_{k+1}, A = hS, from w_{m+1} = y to exp(A) y ~ w_1,
    carried as v_k = m!/(k-1)! w_k: v_k = (m!/(k-1)!) y + A v_{k+1}, so each stage is one
    buffer write and one call of scipy's `csr_matvec` kernel, which adds A v_{k+1} into that
    buffer, and the step ends with w_1 = v_1 / m!.  As bh <= TAYLOR_STEP, m <= 33 and every
    constant is at most 33! ~ 8.7e36, far from overflow.
    """
    from scipy.sparse import _sparsetools

    t0, t1 = t_span
    steps = max(1, math.ceil(bound * (t1 - t0) / TAYLOR_STEP))
    h = (t1 - t0) / steps
    order = 0
    while (bound * h) ** (order + 1) / math.factorial(order + 1) * math.exp(bound * h) > TAYLOR_TOL:
        order += 1
    hS = S.data * h
    y = y0.astype(complex)
    matvec, d, indptr, indices = _sparsetools.csr_matvec, y.size, S.indptr, S.indices
    buffers = np.empty_like(y), np.empty_like(y)
    stages, scale = [], 1
    for k in range(order, 0, -1):  # (m!/(k-1)!, the buffer of v_k), alternating between the two
        scale *= k
        stages.append((float(scale), buffers[k & 1]))
    for _ in range(steps):
        v = y
        for c, buf in stages:
            np.multiply(y, c, out=buf)
            matvec(d, d, indptr, indices, hS, v, buf)
            v = buf
        np.divide(v, float(scale), out=y)
    return Integration(y, steps * order)


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

    Only the coordinates `_reachable` from the support of `entries` are
    integrated; every other one stays exactly 0.  Each interval between
    consecutive grid times is integrated once, from the state at the end of
    the previous one.
    """
    if n > OPEN_QUBIT_CAP:
        raise ValueError(f"open evolution capped at {OPEN_QUBIT_CAP} qubits")
    t_grid = _grid_1d(t_grid, "t_grid")
    if not (np.isfinite(t_grid) & (t_grid >= 0)).all():
        raise ValueError("times must be finite and >= 0")
    if not (np.diff(t_grid) >= 0).all():
        raise ValueError("time grid must be ascending")
    flat = entries.ravel()
    coords, S, bound = _reachable(spec, n, np.flatnonzero(flat))
    y = flat[coords].astype(complex)
    start = 0.0
    for t in t_grid:
        if t > start:
            y = solve_ivp(S, (start, float(t)), y, bound).y
            start = float(t)
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

    Each unit is integrated once over the whole grid, and the target's blocks
    of every time are read out as one stack.  Incoherent decay shows
    up in the identity column, which collects the input-independent drift of
    the target Bloch vector.
    """
    n = register.n_qubits + 1
    t_grid = _grid_1d(t_grid, "t_grid")
    k0, k1 = input_kets(register, input_qubit)
    qubit_mask(n, target_qubit)  # rejects an out-of-range target before anything is integrated
    units = [np.outer(a, b.conj()) for a, b in ((k0, k0), (k1, k1), (k0, k1))]
    R = np.zeros((2, 2, 2, 2, t_grid.size), dtype=complex)  # R[a, b, i, j, k], as `flux_readout` reads it
    for k, (rho00, rho11, coherence) in enumerate(zip(*(_evolve(u, spec, n, t_grid) for u in units))):
        for a, rho in ((0, rho00), (1, rho11)):
            R[a, a, ..., k] = _partial_trace(DensityMatrix(n, rho).entries, n, target_qubit)
        R[0, 1, ..., k] = _partial_trace(coherence, n, target_qubit)
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
