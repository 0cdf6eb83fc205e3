"""Dynamical r-matrices on duals of Poisson-Lie groups by constraint reduction."""

from .bialgebra_double import (
    Bialgebra,
    DoubleAlgebra,
    ReductionSetup,
    build_double,
    derive_cobracket,
    suggest_complement,
    validate_setup,
)
from .dual_group import (
    AdEntry,
    GroupWord,
    ad_of_word,
    dressing_vector,
    gradients,
    identity_word,
    left_derivative,
    pb_dual,
    right_derivative,
)
from .lie_core import (
    LieAlgebra,
    Subspace,
    Tensor2,
    Tensor3,
    cybe_lhs,
    is_invariant3,
    mixed_bracket_terms,
)
from .reduction import (
    CMatrix,
    RhoJet,
    check_second_class,
    constraint_matrix,
    dirac_bracket,
    hstar_word,
    n_vectors,
    reduced_r,
    rho,
    rho_jet,
    rho_via_n,
    sample_hstar_points,
)
from .verify import (
    ResidualReport,
    equivariance_residual,
    momentum_map,
    p_bracket,
    p_jacobi_residual,
    plcdybe_residual,
    q_bracket,
    q_jacobi_residual,
    run_suite,
    triangularity_check,
)

__version__ = "0.1.0"
