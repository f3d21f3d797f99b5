import numpy as np
import pytest

from fluxion.chain import flux_components
from fluxion.flux import (
    FluxMatrix,
    cloning_fidelity,
    flux_columns,
    flux_readout,
    solve_affine,
)
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


def test_readout_matches_closed_form_transfer():
    """An excitation-conserving transfer of amplitude f from the |0...0>
    register leaves the target in |0><0|, in (1 - p)|0><0| + p|1><1| with
    p = |f|^2, and in conj(f)|0><1| for the three input units; the read-out
    of those blocks is the closed form `flux_components(f)`.  The 11
    amplitudes are read out as one stack of 11 times."""
    rng = np.random.default_rng(29)
    f = np.array([1.0 + 0j, -1j, 0j, *(rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform(size=8)))])
    p = np.abs(f) ** 2
    R = np.zeros((2, 2, 2, 2, f.size), dtype=complex)  # R[a, b, i, j, k]
    R[0, 0, 0, 0] = 1.0
    R[1, 1, 0, 0], R[1, 1, 1, 1] = 1.0 - p, p
    R[0, 1, 0, 1] = np.conj(f)
    labels = [0.5 * k for k in range(f.size)]
    got = flux_readout(R, 4, labels)
    assert [fm.time_label for fm in got] == labels
    for fk, fm, label in zip(f, got, labels):
        assert fm.target_qubit == 4
        assert np.abs(fm.entries - flux_components(fk, 4, label).entries).max() <= 1e-15


@pytest.mark.parametrize(
    "b00, b11",
    [(0.5 + 1e-9j, 0.5), (0.5, -1e-9j), (np.nan, 0.5), (0.5, complex(0.0, np.nan)), (np.inf, 0.0)],
)
def test_readout_rejects_nonreal_or_nonfinite_diagonal_units(b00, b11):
    with pytest.raises(AssertionError, match="non-real or non-finite"):
        flux_columns(b00, b11, 0.1j)


def test_readout_tolerates_roundoff_but_not_a_non_hermitian_block():
    assert flux_columns(0.5 + 1e-11j, 0.25 - 1e-11j, 0.3 - 0.2j) == (0.3, -0.2, 0.125, 0.375)
    # Tr YR of a non-Hermitian block is imaginary, so the dense and open read-outs reject it,
    # at whichever time of the stack it appears
    R = np.zeros((2, 2, 2, 2, 3), dtype=complex)
    R[0, 0, 0, 0] = R[1, 1, 1, 1] = 1.0
    assert len(flux_readout(R, 1, [0.0, 1.0, 2.0])) == 3
    R[0, 0, 0, 1, 2] = 0.1
    with pytest.raises(AssertionError, match="non-real"):
        flux_readout(R, 1, [0.0, 1.0, 2.0])
