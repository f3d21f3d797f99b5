import numpy as np
import pytest

from fluxion.states import (
    TOMOGRAPHY_INPUTS,
    BlochVector,
    RegisterState,
    bloch_of_qubit,
    insert_qubit,
    product_state,
    psi_plus_state,
    reduced_qubit,
    uqcm_preparation_state,
)


def test_bloch_of_named_states():
    assert BlochVector.of_state(1, 0).as_array() == pytest.approx([0, 0, 1])
    assert BlochVector.of_state(0, 1).as_array() == pytest.approx([0, 0, -1])
    s = 1 / np.sqrt(2)
    assert BlochVector.of_state(s, s).as_array() == pytest.approx([1, 0, 0])
    assert BlochVector.of_state(s, 1j * s).as_array() == pytest.approx([0, 1, 0])


def test_bloch_rejects_overlong_vector():
    with pytest.raises(ValueError):
        BlochVector(0.8, 0.8, 0.8)
    with pytest.raises(ValueError):
        BlochVector(np.nan, 0.0, 0.0)


def test_register_norm_check():
    with pytest.raises(ValueError):
        RegisterState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        RegisterState(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        insert_qubit(RegisterState.empty(), np.array([np.nan, 0.0]), 1)


def test_register_amplitudes_read_only():
    state = RegisterState.computational(2, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_computational_bits_checked():
    """bits must index a basis state; a negative index would otherwise wrap around to |11>."""
    assert RegisterState.computational(2, np.int64(3)).amplitudes[3] == 1.0
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"bits {bad} out of range 0..3"):
            RegisterState.computational(2, bad)
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match="bits must be an integer"):
            RegisterState.computational(2, bad)


def test_empty_register():
    e = RegisterState.empty()
    assert e.n_qubits == 0
    assert np.allclose(e.amplitudes, [1.0])


def test_insert_qubit_positions():
    """Inserting (a,b) at each position of |01> lands the amplitudes right."""
    reg = RegisterState.computational(2, 0b01)  # qubits (2,3) in state |0>|1>
    c = np.array([0.6, 0.8])
    for pos in (1, 2, 3):
        full = insert_qubit(reg, c, pos)
        # the inserted qubit should reduce to (a,b) itself
        rho = reduced_qubit(full, pos)
        assert rho[0, 0] == pytest.approx(0.36)
        assert rho[1, 1] == pytest.approx(0.64)
    full = insert_qubit(reg, c, 2)
    # index order: old qubit 1, inserted, old qubit 2
    expect = np.zeros(8)
    expect[0b001] = 0.6
    expect[0b011] = 0.8
    assert np.allclose(full.amplitudes, expect)


def test_product_state_is_position_one():
    reg = psi_plus_state()
    a = product_state(TOMOGRAPHY_INPUTS["+"], reg).amplitudes
    b = insert_qubit(reg, TOMOGRAPHY_INPUTS["+"], 1).amplitudes
    assert np.array_equal(a, b)


def test_named_preparations():
    u = uqcm_preparation_state().amplitudes
    assert np.allclose(u, np.array([2, 1, 1, 0]) / np.sqrt(6))
    p = psi_plus_state().amplitudes
    assert np.allclose(p, np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_reduced_qubit_of_entangled_state():
    rho = reduced_qubit(psi_plus_state(), 1)
    assert np.allclose(rho, np.eye(2) / 2)


def test_bloch_of_qubit_in_product():
    c = TOMOGRAPHY_INPUTS["+i"]
    full = insert_qubit(RegisterState.computational(2, 0), c, 2)
    r = bloch_of_qubit(full, 2)
    assert r.as_array() == pytest.approx([0, 1, 0], abs=1e-12)
    assert bloch_of_qubit(full, 1).as_array() == pytest.approx([0, 0, 1])


def test_tomography_inputs_normalized():
    for amps in TOMOGRAPHY_INPUTS.values():
        assert np.linalg.norm(amps) == pytest.approx(1.0)
