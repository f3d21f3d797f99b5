import numpy as np
import pytest

from fluxion.flux import FluxMatrix, cloning_fidelity, solve_affine, transfer_fidelity
from fluxion.states import BlochVector


def diag_flux(d, target=2):
    entries = np.zeros((3, 4))
    entries[:, :3] = np.diag([d, d, d])
    return FluxMatrix(target, "t", entries)


def test_entry_lookup():
    entries = np.arange(12).reshape(3, 4) / 12.0
    fm = FluxMatrix(3, 1.5, entries)
    assert fm.entry("X", "X") == pytest.approx(0.0)
    assert fm.entry("Y", "Z") == pytest.approx(6 / 12)
    assert fm.entry("Z", "I") == pytest.approx(11 / 12)
    assert np.allclose(fm.offset, entries[:, 3])
    assert np.allclose(fm.diagonal(), [0, 5 / 12, 10 / 12])


def test_shape_and_bound_validation():
    with pytest.raises(ValueError):
        FluxMatrix(1, 0.0, np.zeros((3, 3)))
    bad = np.zeros((3, 4))
    bad[0, 0] = 1.5
    with pytest.raises(ValueError):
        FluxMatrix(1, 0.0, bad)
    with pytest.raises(ValueError):
        FluxMatrix(1, 0.0, np.full((3, 4), np.nan))


def test_entries_read_only():
    fm = diag_flux(0.5)
    with pytest.raises(ValueError):
        fm.entries[0, 0] = 0.9


def test_fidelity_of_shrinking_map():
    """Isotropic shrink by d gives F = (1+d)/2 for every pure input."""
    fm = diag_flux(2 / 3)
    for r in ([0, 0, 1], [1, 0, 0], [0.6, 0.0, 0.8]):
        b = BlochVector.from_array(r)
        assert cloning_fidelity(fm, b) == pytest.approx(5 / 6)


def test_transfer_fidelity_is_same_formula():
    fm = diag_flux(0.4)
    b = BlochVector(0, 0, -1)
    assert transfer_fidelity(fm, b) == cloning_fidelity(fm, b)


def test_offset_contributes_affinely():
    entries = np.zeros((3, 4))
    entries[2, 3] = 1.0  # target relaxes to |0> regardless of input
    fm = FluxMatrix(1, 0.0, entries)
    assert cloning_fidelity(fm, BlochVector(0, 0, 1)) == pytest.approx(1.0)
    assert cloning_fidelity(fm, BlochVector(0, 0, -1)) == pytest.approx(0.0)


def test_solve_affine_recovers_planted_map():
    rng = np.random.default_rng(21)
    for _ in range(5):
        M = rng.uniform(-0.5, 0.5, size=(3, 3))
        c = rng.uniform(-0.3, 0.3, size=3)
        outputs = {}
        for key, r in (
            ("0", [0, 0, 1]),
            ("1", [0, 0, -1]),
            ("+", [1, 0, 0]),
            ("+i", [0, 1, 0]),
        ):
            outputs[key] = M @ np.asarray(r, dtype=float) + c
        fm = solve_affine(outputs, 2, 0.7)
        assert np.allclose(fm.matrix, M, atol=1e-12)
        assert np.allclose(fm.offset, c, atol=1e-12)


def test_solve_affine_rejects_inconsistent_data():
    outputs = {
        "0": np.array([0.0, 0.0, 1.0]),
        "1": np.array([0.0, 0.0, 1.0]),
        "+": np.array([5.0, 0.0, 0.0]),  # non-physical: breaks the affine fit bound
        "+i": np.array([0.0, 1.0, 0.3]),
    }
    with pytest.raises((AssertionError, ValueError)):
        solve_affine(outputs, 1, 0.0)
    outputs["+"] = np.array([np.nan, 0.0, 0.0])
    with pytest.raises((AssertionError, ValueError)):
        solve_affine(outputs, 1, 0.0)
