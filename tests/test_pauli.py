import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxion.pauli import PauliObservable, PauliString, _closure, _terms_sparse, _words, expectation, qubit_mask
from fluxion.states import RegisterState
from oracles import canonical_coo

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_word(letters):
    out = np.eye(1, dtype=complex)
    for ch in letters:
        out = np.kron(out, MATS[ch])
    return out


def strings(n):
    return st.builds(
        lambda x, z, p: PauliString(n, x, z, [1 + 0j, 1j, -1 + 0j, -1j][p]),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 3),
    )


def test_mask_orientation():
    # qubit 1 owns the most significant bit
    assert qubit_mask(3, 1) == 0b100
    assert qubit_mask(3, 3) == 0b001
    with pytest.raises(ValueError):
        qubit_mask(3, 4)


def test_from_label_and_back():
    s = PauliString.from_label(4, "X1Y3Z4")
    assert s.label() == "X1Y3Z4"
    assert s.letter(2) == "I"
    assert PauliString.from_label(3, "I").label() == "I"
    assert PauliString.from_label(2, "Y2", phase=-1 + 0j).label() == "-Y2"
    assert PauliString.from_label(3, "X1 Z3") == PauliString.from_label(3, "X1Z3")
    assert PauliString.from_label(3, "X1X2X3").label() == "X1X2X3"
    with pytest.raises(ValueError):
        PauliString.from_label(3, "X1X1")
    # each malformed label is a ValueError that names it; "X1 1" is not X11
    for bad in ("Q1", "x1", "X", "1X", "X1 1", "X1,Z2", "X1-"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            PauliString.from_label(12, bad)


def test_single_qubit_matrices():
    for letter, mat in MATS.items():
        if letter == "I":
            continue
        s = PauliString.from_label(1, f"{letter}1")
        assert np.allclose(s.to_matrix(), mat)


def letters_of(s):
    return [s.letter(q) for q in range(1, s.n_qubits + 1)]


# oracle for the shared index/sign kernel: Kronecker products of 2x2 matrices
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(strings))
def test_word_matrix_matches_kron(s):
    assert np.array_equal(s.to_matrix(), s.phase * kron_word(letters_of(s)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(strings(n), st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)),
            min_size=1,
            max_size=6,
            unique_by=lambda term: (term[0].x_mask, term[0].z_mask),
        )
    )
)
def test_observable_matrix_matches_kron_sum(terms):
    n = terms[0][0].n_qubits
    obs = PauliObservable(n)
    expected = np.zeros((1 << n, 1 << n), dtype=complex)
    for s, coeff in terms:
        obs.add_string(s, coeff)
        expected += coeff * s.phase * kron_word(letters_of(s))
    assert np.abs(obs.to_matrix() - expected).max() <= 1e-15


COEFFICIENTS = st.sampled_from([1.0, -1.0, 0.5, 1j, -0.5j]) | st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@st.composite
def pauli_sums(draw):
    """(n, terms): random words on n = 1..6 qubits, repeats allowed, often with an XX + YY pair."""
    n = draw(st.integers(1, 6))
    word = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), COEFFICIENTS)
    terms = draw(st.lists(word, max_size=8))
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        m = qubit_mask(n, a) | qubit_mask(n, b)
        c = draw(COEFFICIENTS)
        terms += [(m, 0, c), (m, m, c)]  # XX + YY: the |00> <-> |11> entries cancel
    return n, draw(st.permutations(terms))


# oracle for the numpy summation: scipy's canonical COO of the same entries
@settings(max_examples=200, deadline=None)
@given(pauli_sums())
@example((2, [(3, 0, 1.0), (3, 3, 1.0)]))  # XX + YY: only <01|H|10> and <10|H|01> survive
def test_terms_sparse_matches_scipy_canonical_coo(case):
    n, terms = case
    got = _terms_sparse(n, terms)
    for g, want in zip(got, canonical_coo(n, terms), strict=True):
        assert g.dtype == want.dtype
        assert g.tobytes() == want.tobytes()


@st.composite
def closure_cases(draw):
    """(n, terms, support): a `pauli_sums` draw and up to four distinct basis states."""
    n, terms = draw(pauli_sums())
    return n, terms, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4, unique=True))


# oracle for the closure: a fixpoint over the full-space pattern of the same sum
@settings(max_examples=200, deadline=None)
@given(closure_cases())
@example((2, [(3, 0, 1.0), (3, 3, 1.0)], [1]))  # XX + YY from |01>: {|01>, |10>}, never |00> or |11>
@example((1, [(1, 0, 1.0), (1, 1, 1j)], [0]))  # X + iY = 2|0><1| leads from |1> to |0> only
def test_closure_is_least_closed_set_with_full_space_entries(case):
    n, terms, support = case
    reached, rows, cols, vals = _closure(n, _words(terms), np.array(support, dtype=np.int64))
    full_rows, full_cols, full_vals = _terms_sparse(n, terms)
    inside = np.zeros(1 << n, dtype=bool)
    inside[reached] = True
    assert inside[support].all()
    assert not (inside[full_cols] & ~inside[full_rows]).any()  # no entry from a set column into a row outside
    least = np.zeros(1 << n, dtype=bool)
    least[support] = True
    while not least[hit := full_rows[least[full_cols]]].all():
        least[hit] = True
    assert np.array_equal(inside, least)
    order = np.lexsort((cols, rows))  # the full triplets are row-major with sorted columns
    in_set = inside[full_cols]
    assert np.array_equal(rows[order], full_rows[in_set]) and np.array_equal(cols[order], full_cols[in_set])
    assert vals[order].tobytes() == full_vals[in_set].tobytes()


def test_apply_matches_matrix():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        s = PauliString(
            n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 1j ** int(rng.integers(4))
        )
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(s.apply(v), s.to_matrix() @ v)


def test_observable_folds_phases():
    obs = PauliObservable(2)
    obs.add_string(PauliString.from_label(2, "X1", phase=-1 + 0j), 2.0)
    obs.add_string(PauliString.from_label(2, "X1"), 2.0)
    assert obs.terms == {}


def test_observable_apply_matches_matrix():
    obs = PauliObservable(3)
    obs.add_string(PauliString.from_label(3, "X1Y2"), 0.7)
    obs.add_string(PauliString.from_label(3, "Z3"), -0.2)
    obs.add_string(PauliString.from_label(3, "Y1Y2Y3"), 1.3)
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(obs.apply(v), obs.to_matrix() @ v)


def test_observable_rejects_non_finite_coefficient():
    obs = PauliObservable(1)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            obs.add_string(PauliString.from_label(1, "Z1"), bad)
    assert obs.terms == {}


def test_observable_constructor_checks_masks_and_coefficients():
    with pytest.raises(ValueError, match="nonnegative"):
        PauliObservable(-1)
    with pytest.raises(ValueError, match="x_mask 4 out of range 0..1"):
        PauliObservable(1, {(4, 0): 1.0})
    with pytest.raises(ValueError, match="z_mask -1 out of range 0..3"):
        PauliObservable(2, {(1, -1): 1.0})
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            PauliObservable(1, {(0, 1): bad})
    obs = PauliObservable(2, {(3, 0): 0.5, (0, 2): -1.0})
    assert np.allclose(obs.to_matrix(), 0.5 * kron_word("XX") - kron_word("ZI"))


def test_expectation_requires_normalization():
    s = PauliString.from_label(1, "Z1")
    with pytest.raises(ValueError):
        expectation(s, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        expectation(s, np.array([np.nan, 0.0]))
    state = RegisterState.computational(1, 1)
    assert expectation(s, state) == pytest.approx(-1.0)


def test_expectation_matches_quadratic_form():
    rng = np.random.default_rng(3)
    n = 5
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    state = RegisterState(n, v)
    obs = PauliObservable(n)
    for _ in range(6):
        obs.add_string(
            PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))),
            float(rng.normal()),
        )
    direct = np.vdot(v, obs.to_matrix() @ v)
    assert expectation(obs, state) == pytest.approx(direct, abs=1e-12)
