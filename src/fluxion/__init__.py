"""Information flux through qubit registers.

Quantifies how an input qubit's Pauli components feed the Heisenberg-picture
operators of other qubits, for Clifford circuits, spin-chain Hamiltonians,
and Markovian open dynamics; includes cloning and state-transfer analyses
built on those coefficients.
"""

from .chain import (
    CouplingProfile,
    DisorderSpec,
    DisorderResult,
    SeriesResult,
    SweepResult,
    TransferResult,
    TruncationError,
    disorder_ensemble,
    eta_sweep,
    first_arrival_window,
    flux_components,
    propagator_coefficients,
    series_flux,
    transfer,
    transfer_amplitude,
)
from .clifford import (
    CliffordCircuit,
    Gate,
    PreparationResult,
    cnot,
    conjugate,
    copying_stage,
    flux_from_observable,
    flux_matrix,
    h,
    optimize_preparation,
    s,
    table1,
    x,
    y,
    z,
)
from .dense import (
    SpinHamiltonian,
    evolve,
    flux_tomography,
    flux_trajectory,
    propagator,
    universality_scan,
    unitary_flux_tomography,
    uqcm_chain_fidelity,
)
from .flux import FluxMatrix, cloning_fidelity, solve_affine
from .lindblad import (
    DensityMatrix,
    LindbladSpec,
    evolve_density,
    expectation_trajectory,
    open_flux_tomography,
    open_flux_trajectory,
)
from .pauli import PauliObservable, PauliString, expectation
from .states import (
    BlochVector,
    RegisterState,
    bloch_of_qubit,
    insert_qubit,
    product_state,
    psi_plus_state,
    reduced_qubit,
    uqcm_preparation_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
