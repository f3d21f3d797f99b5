"""Information-flux matrices and the affine Bloch-map machinery.

A FluxMatrix collects, for one target qubit at one time, the coefficients
through which the input qubit's X, Y, Z (and identity) components feed the
target's X, Y, Z expectations: r_out = M r_in + c.  The identity column c
carries input-independent (affine) contributions.

The map is linear in the input's density matrix, so the target's responses
to the input units |0><0|, |1><1| and |0><1| fix it.  `flux_columns`, the
one formula from those responses to M and c, is shared by the Clifford,
dense and open engines, the last two through `flux_readout`, which reads a
stack of times at once.  Its oracles stay apart: the closed form
`chain.flux_components`, and `solve_affine`, four-input tomography over
`TOMOGRAPHY_INPUTS`, kept in the package while perfbench/tracing.py wraps it
by name; the other oracles are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import TOMOGRAPHY_INPUTS, BlochVector, bloch_components

ROW_LETTERS = "XYZ"
COL_LETTERS = "XYZI"

ENTRY_BOUND_TOL = 1e-9

AFFINE_RESIDUAL_TOL = 1e-9

READOUT_IMAG_TOL = 1e-10  # on the responses to |0><0| and |1><1|


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


def flux_columns(b00, b11, b01):
    """Flux columns X, Y, Z, I from the target's responses b_ab to the input units |a><b|.

    With rho_in = (I + x X + y Y + z Z)/2 the target's Bloch component is
    c + x M_x + y M_y + z M_z, where c = (b00 + b11)/2, M_z = (b00 - b11)/2,
    M_x = Re b01 and M_y = Im b01 (|1><0| is the adjoint of |0><1|).  Works
    entrywise, on numbers or register forms; b00 and b11 must be real and finite.
    """
    if not (np.isfinite([b00, b11]) & (np.abs(np.imag([b00, b11])) <= READOUT_IMAG_TOL)).all():
        raise AssertionError("a diagonal input unit gives a non-real or non-finite response")
    b00, b11 = np.real(b00), np.real(b11)
    return b01.real, b01.imag, (b00 - b11) / 2, (b00 + b11) / 2


def flux_readout(R: np.ndarray, target_qubit: int, time_labels) -> list[FluxMatrix]:
    """FluxMatrix at every time k from the target's reduced blocks R[a, b, i, j, k] of the evolved
    input units |a><b| (the layout of `states._reduced_blocks`), through `flux_columns` of their
    Bloch components (Tr XR, Tr YR, Tr ZR); R[1, 0] is not read."""
    b00, b11, b01 = (bloch_components(R[a, b]) for a, b in ((0, 0), (1, 1), (0, 1)))
    entries = np.array(flux_columns(b00, b11, b01)).T
    return [FluxMatrix(target_qubit, label, e) for label, e in zip(time_labels, entries, strict=True)]


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
