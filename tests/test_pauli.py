import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxion.pauli import PauliObservable, PauliString, expectation, qubit_mask
from fluxion.states import RegisterState

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
