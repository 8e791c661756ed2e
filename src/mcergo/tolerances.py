"""Central numeric tolerances.

Every module pulls its constants from here so that a single file documents
what "equal" means throughout the toolkit.
"""

# Row sums of stochastic matrices and detailed-balance checks.
ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-12

# build_finite_kernel renormalizes a row only if its sum deviates by less
# than this; larger deviations are rejected as data errors.
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

# Adaptive Simpson quadrature and quantile bisection.
QUAD_TOL = 1e-8
