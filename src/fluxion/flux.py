"""Information-flux matrices and the affine Bloch-map machinery.

A FluxMatrix collects, for one target qubit at one time, the coefficients
through which the input qubit's X, Y, Z (and identity) components feed the
target's X, Y, Z expectations: r_out = M r_in + c.  The identity column c
carries input-independent (affine) contributions.

The dense and open engines read M and c directly, with `flux_readout`, from
the target's reduced blocks of the evolved input units |0><0|, |1><1| and
|0><1|; the map is linear in the input's density matrix, so those units fix
it.  `solve_affine`, the four-input least-squares tomography over
`TOMOGRAPHY_INPUTS`, is kept as the oracle the read-out is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import TOMOGRAPHY_INPUTS, BlochVector, bloch_components

ROW_LETTERS = "XYZ"
COL_LETTERS = "XYZI"

ENTRY_BOUND_TOL = 1e-9

AFFINE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class FluxMatrix:
    """3x4 array: rows X, Y, Z of the target; columns X, Y, Z, I of the input."""

    target_qubit: int
    time_label: float | str
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (3, 4):
            raise ValueError("flux entries must be a 3x4 array")
        if not (np.abs(arr).max() <= 1.0 + ENTRY_BOUND_TOL):
            raise ValueError(f"flux entry out of [-1, 1]: max |entry| = {np.abs(arr).max()}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def entry(self, target_letter: str, input_letter: str) -> float:
        return float(self.entries[ROW_LETTERS.index(target_letter), COL_LETTERS.index(input_letter)])

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 linear block M."""
        return self.entries[:, :3]

    @property
    def offset(self) -> np.ndarray:
        """The identity column c."""
        return self.entries[:, 3]

    def bloch_map(self, r_in) -> np.ndarray:
        return self.matrix @ np.asarray(r_in, dtype=float) + self.offset

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


def cloning_fidelity(flux: FluxMatrix, input_bloch: BlochVector) -> float:
    """F = (1 + r_in . (M r_in + c)) / 2; exact for pure inputs."""
    r = input_bloch.as_array()
    return float(0.5 * (1.0 + r @ flux.bloch_map(r)))


transfer_fidelity = cloning_fidelity


def flux_readout(r00, r11, r01, target_qubit: int, time_label) -> FluxMatrix:
    """FluxMatrix from the target's reduced blocks of the evolved input units.

    R_ab is the target's 2x2 block of the evolved |a><b| input unit and
    b(R) = (Tr XR, Tr YR, Tr ZR) its `bloch_components`.  With
    rho_in = (I + x X + y Y + z Z)/2 the target's Bloch vector is
    c + x M_x + y M_y + z M_z, where c = (b00 + b11)/2, M_z = (b00 - b11)/2,
    M_x = Re b01 and M_y = Im b01 (the |1><0| unit is the adjoint of |0><1|).
    """
    b00 = bloch_components(r00).real
    b11 = bloch_components(r11).real
    b01 = bloch_components(r01)
    entries = np.column_stack([b01.real, b01.imag, (b00 - b11) / 2, (b00 + b11) / 2])
    return FluxMatrix(target_qubit, time_label, entries)


def solve_affine(outputs: dict[str, np.ndarray], target_qubit: int, time_label) -> FluxMatrix:
    """Reconstruct the FluxMatrix from Bloch vectors of the four tomography inputs.

    outputs maps each input key ("0", "1", "+", "+i") to the measured target
    Bloch vector.  The system is exactly determined; the residual of the
    least-squares fit is asserted below AFFINE_RESIDUAL_TOL.
    """
    ins = []
    outs = []
    for key, amps in TOMOGRAPHY_INPUTS.items():
        r = BlochVector.of_state(amps[0], amps[1]).as_array()
        ins.append(np.append(r, 1.0))
        outs.append(np.asarray(outputs[key], dtype=float))
    A = np.array(ins)
    B = np.array(outs)
    sol, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
    if rank < 4:
        raise AssertionError("tomography system unexpectedly rank-deficient")
    residual = np.abs(A @ sol - B).max()
    if not (residual <= AFFINE_RESIDUAL_TOL):
        raise AssertionError(f"affine tomography residual {residual:.2e} exceeds tolerance")
    entries = sol.T  # rows: target letters; columns: X, Y, Z, I
    return FluxMatrix(target_qubit, time_label, entries)
