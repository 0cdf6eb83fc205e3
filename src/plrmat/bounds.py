"""Every bound of the program, each defined once.

Two kinds of bound live here.  The spec defaults fill the keys an input's
"tolerances" block leaves out; an input, or the CLI's --tol and
--cond-threshold, may set them.  The fixed bounds certify the intermediate
results of a construction and are set by no input.  The tolerance of each
verified equation is defined with the equations, in verify.DEFAULT_TOLERANCES.

This module imports nothing from the package, so every module can read it.
"""

# spec defaults
JACOBI = 1e-10  # Jacobi identity of G and K*, the cocycle, closure of K, H, M and their duals
RESIDUAL = 1e-6  # the differential identities of verify.RESIDUAL_EQUATIONS
COND_THRESHOLD = 1e8  # conditioning of C(λ) on the second-class set
FD_STEP = 1e-5  # finite-difference step of dual_group's reference calculus; no suite reads it

TOLERANCES = {
    "jacobi": JACOBI,
    "residual": RESIDUAL,
    "cond_threshold": COND_THRESHOLD,
    "fd_step": FD_STEP,
}

# fixed bounds
ANTISYM_TOL = 1e-12  # antisymmetry of a structure-constant table and of R: exact in any basis
RANK_TOL = 1e-10  # least/largest singular value of a basis, and of H ⊕ M over K
FORM_AGREE_TOL = 1e-12  # the two pairing forms of C(λ), relative to 1 + max|C|
DUAL_COMPONENT_TOL = 1e-12  # K-part of a factor given in double coordinates
RHO_ANTISYM_TOL = 1e-9  # antisymmetry of rho after the solve against C
N_RELATION_TOL = 1e-10  # the defining relation of the N_i, relative to 1 + max|Ad⁻¹ M_i|
N_SOLVE_COND = 1e8  # condition of the moved complement basis that n_matrix solves against
COND_MESSAGE_FLOOR = 1e-300  # stands in for a zero singular value in n_matrix's message
RHO_ORDERS_TOL = 1e-9  # the two product orders of rho_via_n, |a + aᵀ| relative to 1 + max|a|
RHO_VIA_N_ANTISYM_TOL = 1e-8  # antisymmetry of rho_via_n
DRESSING_LEAK_TOL = 1e-9  # H*-leak of a dressing vector, relative to 1 + its size

# consecutive rejected draws after which sample_hstar_points gives up
MAX_SAMPLE_ATTEMPTS = 100
# largest algebra.dim: the double's structure constants take (2·dim)³·8 B,
# 134 MB at the limit (sl11 has dim 120), and a larger dim would have numpy
# refuse or attempt a huge allocation while the input is parsed
MAX_DIM = 128
# largest sampling.num_points: the sampler's stacked block takes
# num_points·(2·dim K)²·8 B per array, 127 MB at dim K = 63 (sl8)
MAX_NUM_POINTS = 1000
# largest e^{2‖ad_x‖₁}, the bound on cond₁(Ad_λ) of a draw λ = exp(x): past
# about 1/ε the bound no longer rules out an Ad_λ singular to working
# precision or an expm overflow, so such a draw is rejected before its expm.
# The bound is loose: a sheared basis at ‖ad_x‖₁ = 14 has cond₁(Ad_λ) ≈ 1e3
MAX_AD_COND = 1e16
