"""Dynamical r-matrices on duals of Poisson-Lie groups by constraint reduction."""

from .bialgebra_double import (
    Bialgebra,
    DoubleAlgebra,
    ReductionSetup,
    build_double,
    derive_cobracket,
    validate_setup,
)
from .dual_group import GroupWord, ad_of_word, dressing_vector, pb_dual
from .lie_core import LieAlgebra, Subspace
from .reduction import (
    CMatrix,
    RhoJet,
    check_second_class,
    constraint_matrix,
    dirac_bracket,
    rho,
    rho_jet,
    rho_via_n,
)
from .verify import (
    ResidualReport,
    equivariance_residual,
    p_jacobi_residual,
    plcdybe_residual,
    q_jacobi_residual,
    run_suite,
)

__version__ = "0.1.0"
