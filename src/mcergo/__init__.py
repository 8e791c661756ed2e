"""Geometric ergodicity certificates for Markov kernels via drift and hitting times."""

__version__ = "0.1.0"

from .density import DensitySpec, adaptive_simpson
from .kernels import (
    ContinuousSampler1D,
    DominatedKernel,
    FiniteKernel,
    ball_walk_sampler,
    birth_death_chain,
    build_finite_kernel,
    gibbs_grid_kernel,
    kernel_from_csv,
    kernel_to_csv,
    lazy_srw,
    lazy_transform,
    mh_grid_kernel,
    restrict,
)
from .chain_analysis import (
    HitMixReport,
    MinorizationReport,
    exit_probability,
    expected_hitting,
    max_hitting_time,
    mix_to_hit_bound,
    mixing_time,
    pseudo_minorization,
    stationary_distribution,
    tv_distance,
    tv_profile,
)
from .montecarlo import (
    McEstimate,
    coupled_escape_estimate,
    estimate_hitting,
    estimate_hitting_batch,
    sample_path,
)
from .certify import (
    DriftCertificate,
    DTable,
    GeometricBound,
    bound_rhs,
    certify_drift_and_hit,
    compatibility_check,
    default_dtable,
    drift_envelope,
    escape_bound,
    fit_drift,
    hit_to_mix,
    lazy_drift_params,
    multistep_drift_params,
    solve_contraction,
    verify_drift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
