"""Central numeric tolerances.

Every module pulls its constants from here so that a single file documents
what "equal" means throughout the toolkit.
"""

# Row sums of stochastic matrices and detailed-balance checks.
ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-12

# build_finite_kernel keeps a row that sums to 1 within ROW_SUM_TOL as given,
# divides one off by more but less than this by its sum, and rejects larger
# deviations as data errors.
ROW_RENORM_TOL = 1e-9

# Probability vectors handed to tv_distance must be normalized this well.
PROB_NORM_TOL = 1e-9

# Stationarity of restricted kernels, conditional distributions.
STATIONARY_TOL = 1e-10

# Defining equalities of the contraction solver and cross-validations.
EQUALITY_TOL = 1e-10

# Linear solves (hitting times, censored traces): max residual after refinement.
LINEAR_RESIDUAL_TOL = 1e-12

# Hitting-time solves: kappa_inf(I - Q) * 2^-52, a first-order bound on the
# error of the hitting times relative to the largest, may be at most this,
# so a returned vector keeps about eight significant digits.
HITTING_CONDITION_TOL = 1e-8

# Width at which DensitySpec.quantile stops its bisection on the closed-form CDF.
QUAD_TOL = 1e-8

# Spectral mixing bound: the Frobenius residual ||G V - V diag(mu)|| and the
# orthonormality loss ||V^T V - I|| of the Gram matrix's eigendecomposition
# may be at most this.
SPECTRAL_RESIDUAL_TOL = 1e-9
