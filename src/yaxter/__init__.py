"""Braid-group representations of the six- and eight-vertex models, their
Yang-Baxterized R(x) families, unitarity verification, entangling-gate
classification, Hamiltonian extraction, and CNOT synthesis."""

from .baxterize import (
    EigOrdering,
    SpectralPoint,
    ThetaConvention,
    build_R,
    compose_u,
    yb_three,
    yb_two,
)
from .catalog import (
    BoltzmannWeights,
    DomainError,
    Family,
    FamilySpec,
    Sign,
    braid_residual,
    build_b,
    eigenvalues_of,
    eight_vertex_residuals,
)
from .dynamics import (
    Hamiltonian,
    PauliDecomp,
    braiding_evolution_residual,
    evolve,
    hamiltonian,
    hamiltonian_closed,
    hamiltonian_fd,
    pauli_decompose,
)
from .entangle import (
    Classification,
    apply,
    brylinski_witness,
    classify,
    concurrence_det,
    det_b_closed,
    nonentangling_locus_check,
    product_state,
    state,
)
from .gates import (
    CNOT,
    GateDecomposition,
    OneQubitGate,
    bell_basis,
    cnot_via_evolution,
    rotation,
    theorem1_decomposition,
)
from .linalg import expm_hermitian, inverse, mat_from_json, mat_to_json, spectral_projectors, tensor
from .suite import run_suite
from .verify import (
    ResidualReport,
    conjugate_partner,
    inverse_unitarity,
    rho_formula,
    unitarity_residual,
)

__version__ = "0.1.0"
