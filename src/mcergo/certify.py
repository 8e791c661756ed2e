"""Drift certificates and the explicit geometric convergence bound.

Verifies drift inequalities, checks the two compatibility radii, maps
drift parameters through multi-step composition, solves for the
interpolation exponent p and contraction rate rho, and assembles the
bound M(x) (1 - rho)^t from either an exact pairwise overlap or the
drift-and-hit route through a dominated restriction.

Every certificate is made here, from one b(lambda) over the grid
``LAMBDA_GRID`` (``fit_drift``, ``tightest_certificate``), one pair of
radius thresholds 2b/(1 - lambda) and (2b + 24 r')/(1 - lambda)
(``compatibility_check``), and default radii ``RADIUS_MARGIN`` times
those thresholds (``DriftCertificate.with_radii``).  Drift parameters and
V are judged by one check, ``_check_drift``; every function that takes V
with a kernel (``verify_drift``, ``fit_drift``, ``tightest_certificate``,
``certify_drift_and_hit`` and ``harness.certificate_from_config``) passes
it the kernel, which makes it refuse a V without one value per state
(InvalidParameters).

The overlap step count T comes from the restriction to C = {V <= r}
alone: its exact mixing time from C' up to ``EXACT_OVERLAP_STATE_CAP``
states, and above that an L2(pi) spectral bound on it
(``_spectral_mixing_time``).  Both are verified, so every bound is
certified.

Step-count convention: the pairwise overlap is established for the T-step
kernel, whose drift parameters are (lambda^T, b (1 - lambda^T)/(1 -
lambda)); the single-step bound uses floor(t / T) exponents.  Every
GeometricBound records the convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_analysis import mixing_time, pseudo_minorization
from .errors import (
    DegenerateOverlap,
    IncompatibleCertificate,
    IncompatibleRadius,
    InvalidParameters,
    NonpositiveDenominator,
    ResidualTooLarge,
)
from .kernels import FiniteKernel, _checked_count, restrict
from .tolerances import EQUALITY_TOL, ROW_SUM_TOL, SPECTRAL_RESIDUAL_TOL

# The exact routes' size cap: T by mixing_time, and the certify run's TV audit.
EXACT_OVERLAP_STATE_CAP = 512
# The lambdas at which a certificate is fitted to V.
LAMBDA_GRID = np.arange(0.0, 1.0, 0.05)
# Default radii r' and r exceed their compatibility thresholds by this factor.
RADIUS_MARGIN = 1.05


# --- certificate and bound types ---------------------------------------------

@dataclass(frozen=True)
class DriftCertificate:
    """Witness (V, lambda, b, r, r') for the drift condition and its radii.

    C = {V <= r} and C' = {V <= r'} are the sublevel sets used by the
    certification pipeline.
    """

    v: np.ndarray
    lam: float
    b: float
    r: float
    r_prime: float

    def __post_init__(self):
        v = np.array(_check_drift(self.lam, self.b, self.v))
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @classmethod
    def with_radii(cls, v, lam: float, b: float, r=None, r_prime=None) -> "DriftCertificate":
        """The certificate (V, lambda, b) with each radius not given set to
        ``RADIUS_MARGIN`` times its compatibility threshold, r' first."""
        _check_drift(lam, b)
        if r_prime is None:
            r_prime = RADIUS_MARGIN * _radius_thresholds(lam, b, 0.0)[0]
        if r is None:
            r = RADIUS_MARGIN * _radius_thresholds(lam, b, r_prime)[1]
        return cls(v=v, lam=float(lam), b=float(b), r=float(r), r_prime=float(r_prime))

    def sublevel(self, radius: float) -> np.ndarray:
        return np.flatnonzero(self.v <= radius)

    @property
    def small_set(self) -> np.ndarray:
        return self.sublevel(self.r)

    @property
    def inner_set(self) -> np.ndarray:
        return self.sublevel(self.r_prime)

    def sublevel_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, C'); IncompatibleCertificate when either is empty."""
        C, C_inner = self.small_set, self.inner_set
        if C.size == 0 or C_inner.size == 0:
            raise IncompatibleCertificate("sublevel sets are empty")
        return C, C_inner

    def m_offset(self) -> float:
        return 2.0 + self.b / (1.0 - self.lam)


@dataclass(frozen=True)
class GeometricBound:
    """Assembled TV bound M(x) (1 - rho)^floor(t / T).

    ``eps`` is the pairwise overlap at step count T; (p, rho) solve the
    defining equalities for the T-step drift parameters (lam_eff, b_eff)
    and radius r_eff; M(x) = m_offset + V(x).  ``source`` records whether
    eps came from an exact pairwise computation ("pseudo-minorization") or
    the 1/3 overlap of the drift-and-hit theorem ("drift-and-hit"), and
    ``t_route`` whether T is the restriction's exact mixing time
    ("exact-mixing") or its spectral bound ("spectral").  Both routes rest
    on verified inequalities only, so ``certified`` is always true; it stays
    a field so that every ``certify_report.json`` keeps its keys.
    """

    eps: float
    t: int
    p: float
    rho: float
    m_offset: float
    source: str
    lam_eff: float
    b_eff: float
    r_eff: float
    t_route: str = "exact-mixing"
    degenerate_restriction: bool = False
    certified: bool = True

    def m_of(self, v_x: float) -> float:
        return self.m_offset + float(v_x)

    def evaluate(self, v_x, t: int):
        """Bound on TV(g(x, t, .), pi) for a state with V(x) = v_x.

        An array of V values gives the array of bounds; a scalar, a float.
        """
        k = t // self.t
        bounds = (self.m_offset + np.asarray(v_x, dtype=float)) * (1.0 - self.rho) ** k
        return float(bounds) if bounds.ndim == 0 else bounds

    def check_equalities(self, tol=EQUALITY_TOL) -> float:
        a, bb = _contraction_terms(self.lam_eff, self.b_eff, self.r_eff)
        lhs = (1.0 - self.eps) ** self.p
        mid = a ** (1.0 - self.p) * bb ** self.p
        worst = max(abs(lhs - mid), abs(lhs - (1.0 - self.rho)))
        if worst > tol:
            raise InvalidParameters(f"defining equalities violated by {worst:.3e}")
        return worst


# --- drift verification -----------------------------------------------------------

@dataclass(frozen=True)
class DriftCheck:
    passed: bool
    worst_slack: float


def _check_drift(lam: float = 0.0, b: float = 0.0, v=(), k: FiniteKernel | None = None
                 ) -> np.ndarray:
    """``v`` as a float array; InvalidParameters unless 0 <= lambda < 1, b >= 0 and
    V is finite and >= 0 (NaN fails).  The one check of drift parameters, and
    with a kernel ``k`` the one check of V's length: one value per state of k."""
    v = np.asarray(v, dtype=float)
    if k is not None and v.shape != (k.n,):
        raise InvalidParameters(f"V needs one value per state: shape {v.shape}, {k.n} states")
    if not np.all(np.isfinite(v) & (v >= 0.0)):
        raise InvalidParameters("V must be finite and nonnegative")
    if not (0.0 <= lam < 1.0):
        raise InvalidParameters("lambda must lie in [0, 1)")
    if not b >= 0.0:
        raise InvalidParameters("b must be nonnegative")
    return v


def verify_drift(k: FiniteKernel, v, lam: float, b: float) -> DriftCheck:
    """Check (PV)(x) <= lam V(x) + b for all x; one matrix-vector product.

    Returns the worst slack min_x(lam V(x) + b - (PV)(x)); passes iff the
    slack is >= -1e-12.  InvalidParameters for parameters or a V that
    ``_check_drift`` refuses.
    """
    v = _check_drift(lam, b, v, k)
    worst = float(np.min(lam * v + b - k.p @ v))
    return DriftCheck(passed=worst >= -ROW_SUM_TOL, worst_slack=worst)


def fit_drift(k: FiniteKernel, v, lam_grid=None) -> tuple[float, float]:
    """Smallest feasible b over a lambda grid (``LAMBDA_GRID`` by default);
    ties go to the smaller lambda.

    For each lambda, b(lambda) = max(0, max_x((PV)(x) - lambda V(x))); the
    returned pair always satisfies ``verify_drift``.
    """
    v = _check_drift(v=v, k=k)
    lam_grid = LAMBDA_GRID if lam_grid is None else np.asarray(lam_grid, dtype=float)
    if lam_grid.ndim != 1 or lam_grid.size == 0:
        raise InvalidParameters("lambda grid must be a nonempty list of values")
    if not np.all((lam_grid >= 0.0) & (lam_grid < 1.0)):
        raise InvalidParameters("lambda grid must lie in [0, 1)")
    b = _drift_b(k, v, lam_grid)
    best = int(np.argmin(b))
    return float(lam_grid[best]), float(b[best])


def tightest_certificate(k: FiniteKernel, v) -> DriftCertificate:
    """Certificate whose lambda minimizes the theorem2 radius threshold.

    ``fit_drift`` minimizes b, which on slowly-mixing chains drives lambda
    to the top of the grid and blows up 2b/(1 - lambda); this scans the
    same grid, ``LAMBDA_GRID``, for the first lambda with the smallest
    threshold (2b + 24 r')/(1 - lambda), which makes the small set
    {V <= r} smallest.  r' sits 10% above its threshold 2b/(1 - lambda),
    and r ``RADIUS_MARGIN`` above its own.
    """
    v = _check_drift(v=v, k=k)
    b = _drift_b(k, v, LAMBDA_GRID)
    r_prime = 1.10 * _radius_thresholds(LAMBDA_GRID, b, 0.0)[0]
    best = int(np.argmin(_radius_thresholds(LAMBDA_GRID, b, r_prime)[1]))
    return DriftCertificate.with_radii(v, LAMBDA_GRID[best], b[best], r_prime=r_prime[best])


def _drift_b(k: FiniteKernel, v: np.ndarray, lam_grid: np.ndarray) -> np.ndarray:
    """b(lambda) = max(0, max_x((PV)(x) - lambda V(x))) for every lambda of the grid."""
    pv = k.p @ v
    return np.maximum(0.0, np.max(pv - lam_grid[:, None] * v, axis=1))


def multistep_drift_params(lam: float, b: float, t: int) -> tuple[float, float]:
    """Drift parameters inherited by the t-step kernel; InvalidParameters unless
    t is a count >= 1 (``kernels._checked_count``)."""
    t = _checked_count(t, "step count", 1, error=InvalidParameters)
    _check_drift(lam, b)
    lam_t = lam ** t
    return lam_t, b * (1.0 - lam_t) / (1.0 - lam)


# --- compatibility -----------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityReport:
    passed: bool
    margins: dict


def compatibility_check(cert: DriftCertificate, mode: str = "classic") -> CompatibilityReport:
    """Radius compatibility margins.

    classic: r > 2b/(1 - lambda).  theorem2: additionally r' > 2b/(1 -
    lambda) and r > (2b + 24 r')/(1 - lambda).
    """
    classic_threshold, t2 = _radius_thresholds(cert.lam, cert.b, cert.r_prime)
    margins = {"r_minus_classic_threshold": cert.r - classic_threshold}
    if mode == "classic":
        passed = cert.r > classic_threshold
    elif mode == "theorem2":
        margins["r_prime_minus_classic_threshold"] = cert.r_prime - classic_threshold
        margins["r_minus_theorem2_threshold"] = cert.r - t2
        passed = cert.r_prime > classic_threshold and cert.r > t2
    else:
        raise ValueError(f"unknown compatibility mode {mode!r}")
    return CompatibilityReport(passed=bool(passed), margins=margins)


def _radius_thresholds(lam, b, r_prime):
    """The lower thresholds 2b/(1 - lambda) of r' (and of r, classic) and
    (2b + 24 r')/(1 - lambda) of r (theorem2); elementwise on arrays."""
    denom = 1.0 - lam
    return 2.0 * b / denom, (2.0 * b + 24.0 * r_prime) / denom


def escape_bound(lam: float, b: float, r: float, r_prime: float) -> float:
    """Union + Markov bound 2 r' / (r (1 - lambda) - b) on leaving {V <= r}.

    Under theorem2 compatibility the value is at most 1/12.

    Raises
    ------
    NonpositiveDenominator
    """
    denom = r * (1.0 - lam) - b
    if denom <= 0.0:
        raise NonpositiveDenominator(f"r(1 - lambda) - b = {denom} <= 0")
    return float(2.0 * r_prime / denom)


# --- contraction solve ----------------------------------------------------------------

def solve_contraction(eps: float, lam: float, b: float, r: float) -> tuple[float, float]:
    """Solve (1 - eps)^p = A^(1-p) B^p for p, with A = (1 + 2b + lam r)/(1 + r)
    and B = 1 + 2(lam r + b); returns (p, rho = 1 - (1 - eps)^p).

    The closed form is checked to lie within 1e-9 of the root of the
    defining equality before returning; guarantees 0 < p < 1 and
    0 < rho < 1.

    Raises
    ------
    IncompatibleRadius
        If A >= 1, i.e. r <= 2b/(1 - lambda).
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParameters("eps must lie in (0, 1)")
    _check_drift(lam, b)
    if not r > 0.0:
        raise InvalidParameters("r must be positive")
    a, big_b = _contraction_terms(lam, b, r)
    if a >= 1.0:
        raise IncompatibleRadius(f"(1 + 2b + lam r)/(1 + r) = {a} >= 1")
    log_a = math.log(a)
    log_b = math.log(big_b)
    log_e = math.log1p(-eps)
    slope = log_e + log_a - log_b
    p = log_a / slope
    # f(q) = q log(1-eps) - (1-q) log A - q log B is linear in q, so
    # |f(p)| <= 1e-9 |slope| holds exactly when p lies within 1e-9 of its root
    f_p = p * log_e - (1.0 - p) * log_a - p * log_b
    if abs(f_p) > 1e-9 * abs(slope):
        raise InvalidParameters(
            f"closed-form p {p} leaves residual {f_p} in the defining equality"
        )
    rho = -math.expm1(p * log_e)
    if not (0.0 < p < 1.0 and 0.0 < rho < 1.0):
        raise InvalidParameters(f"solution out of range: p={p}, rho={rho}")
    return p, rho


def _contraction_terms(lam: float, b: float, r: float) -> tuple[float, float]:
    """A = (1 + 2b + lam r)/(1 + r) and B = 1 + 2(lam r + b) of the contraction."""
    return (1.0 + 2.0 * b + lam * r) / (1.0 + r), 1.0 + 2.0 * (lam * r + b)


# --- the spectral mixing bound ------------------------------------------------------------

def _spectral_mixing_time(q: np.ndarray, pi: np.ndarray, starts) -> int:
    """Smallest t at which an L2(pi) bound on TV(q^t(x, .), pi) is <= 1/4 for
    every x in ``starts``: a bound on the mixing time of the chain q from
    ``starts`` that needs no matrix power.

    pi is q's stationary law and pi_min its minimum over the starts.  With
    D = diag(pi) and M = D^(1/2) (q - 1 pi) D^(-1/2), q^t - 1 pi = (q - 1 pi)^t
    and (e_x - pi)(q - 1 pi)^t = q^t(x, .) - pi, so Cauchy-Schwarz in L2(pi)
    gives TV(q^t(x, .), pi) <= 1/2 sqrt(1/pi(x) - 1) ||M||_2^t for every t
    (Levin, Peres and Wilmer, Markov Chains and Mixing Times, ch. 12); q
    need not be reversible.  For a reversible q, ||M||_2 is the largest
    |lambda_j| with j >= 2.  The computed pi is stationary only up to its
    residual e = pi q - pi, whose sum over the t steps adds
    ||e D^(-1/2)||_2 / (1 - ||M||_2) to the L2(pi) distance.

    sigma encloses ||M||_2 from above.  One ``eigh`` of the Gram matrix
    G = M^T M gives G V = V diag(mu) + R with ||V^T V - I||_F = delta, so
    ||G||_2 <= (sqrt(1 + delta) max|mu| + ||R||_F) / sqrt(1 - delta).
    R, delta, G and M are each enlarged by a gamma_{n+5} allowance for the
    rounding in forming them (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.5).

    Raises
    ------
    IncompatibleCertificate
        If pi has a zero entry, sigma >= 1, or the residual term alone
        reaches 1/4.
    ResidualTooLarge
        If ||R||_F or delta exceeds ``SPECTRAL_RESIDUAL_TOL``.
    """
    if not np.all(pi > 0.0):
        raise IncompatibleCertificate("the restriction's stationary law has a zero entry")
    n = pi.size
    root = np.sqrt(pi)
    m = root[:, None] * q / root[None, :] - np.outer(root, root)
    g = m.T @ m
    mu, vecs = np.linalg.eigh(g)
    resid = float(np.linalg.norm(g @ vecs - vecs * mu))
    delta = float(np.linalg.norm(vecs.T @ vecs - np.eye(n)))
    if not (resid <= SPECTRAL_RESIDUAL_TOL and delta <= SPECTRAL_RESIDUAL_TOL):
        raise ResidualTooLarge(
            f"eigendecomposition of the Gram matrix: residual {resid:.3e}, "
            f"orthonormality loss {delta:.3e}")
    u = np.finfo(float).eps / 2.0
    gamma = (n + 5) * u / (1.0 - (n + 5) * u)
    mu_max = float(np.max(np.abs(mu)))
    v_fro = float(np.linalg.norm(vecs))
    m_fro = float(np.linalg.norm(m))
    resid += gamma * (float(np.linalg.norm(g)) + mu_max) * v_fro
    delta += gamma * v_fro ** 2
    g_norm = (math.sqrt(1.0 + delta) * mu_max + resid) / math.sqrt(1.0 - delta)
    sigma = math.sqrt(g_norm + gamma * m_fro ** 2) + gamma * (m_fro + 2.0)
    if sigma >= 1.0:
        raise IncompatibleCertificate(
            f"||M||_2 <= {sigma!r} does not contract: no spectral mixing bound")
    # pi q = pi + e holds only to the residual e, which adds at most
    # ||e D^(-1/2)||_2 / (1 - sigma) to the L2(pi) distance at every t
    slack = 1.0 - 2.0 * float(np.linalg.norm((pi @ q - pi) / root)) / (1.0 - sigma)
    if not slack > 0.0:
        raise IncompatibleCertificate("the stationarity residual swamps the spectral bound")
    # the bound is a sigma^t <= 1; the allowance keeps sigma > 0, so log(sigma)
    # is finite even for a q of equal rows, whose M is 0
    a = 2.0 * math.sqrt(1.0 / float(np.min(pi[starts])) - 1.0) / slack
    if a <= 1.0:
        return 0
    t = math.ceil(math.log(a) / -math.log(sigma))
    return t if a * sigma ** t <= 1.0 else t + 1


# --- the drift-and-hit pipeline ------------------------------------------------------------

def certify_drift_and_hit(
    k: FiniteKernel,
    cert: DriftCertificate,
    variant: str = "mh-restriction",
) -> GeometricBound:
    """Assemble the geometric bound from a drift certificate.

    Pipeline: (i) restrict k to C = {V <= r} by the requested variant;
    (ii) verify the restricted chain inherits the drift; (iii) obtain the
    overlap step count T as the exact mixing time of the restriction from
    C' when it has at most ``EXACT_OVERLAP_STATE_CAP`` states (route
    "exact-mixing"), else as the L2(pi) spectral bound on that mixing time
    (route "spectral", ``_spectral_mixing_time``); (iv) take the pairwise
    overlap at T + 1 steps, exactly when the chain is small enough (an
    overlap of 1 enters as the largest double below 1), else the 1/3 of
    the drift-and-hit theorem; (v) solve the contraction for the
    (T+1)-step drift parameters at radius r'.

    Raises
    ------
    InvalidParameters
        If cert.v does not hold one value per state of k (``_check_drift``).
    IncompatibleCertificate, plus propagated sub-operation errors: on the
    spectral route, IncompatibleCertificate for a restriction that does
    not contract in L2(pi) and ResidualTooLarge for an eigendecomposition
    that misses its residual check.
    """
    _check_drift(v=cert.v, k=k)
    compat = compatibility_check(cert, "theorem2")
    if not compat.passed:
        raise IncompatibleCertificate(f"theorem2 compatibility failed: {compat.margins}")
    base_check = verify_drift(k, cert.v, cert.lam, cert.b)
    if not base_check.passed:
        raise IncompatibleCertificate(
            f"drift fails on the base chain (slack {base_check.worst_slack:.3e})"
        )

    C, C_inner = cert.sublevel_sets()
    degenerate = C.size == k.n

    dom = restrict(k, C, variant)
    sub_check = verify_drift(dom.kernel, cert.v[C], cert.lam, cert.b)
    if not sub_check.passed:
        raise IncompatibleCertificate(
            f"drift fails on the restriction (slack {sub_check.worst_slack:.3e})"
        )

    inner_pos = np.searchsorted(C, C_inner)

    if dom.kernel.n <= EXACT_OVERLAP_STATE_CAP:
        t_route = "exact-mixing"
        t_mix = mixing_time(dom.kernel, subset=inner_pos)
    else:
        t_route = "spectral"
        t_mix = _spectral_mixing_time(dom.kernel.p, dom.conditional_stationary, inner_pos)

    t_star = t_mix + 1
    eps = 1.0 / 3.0
    source = "drift-and-hit"
    if k.n <= EXACT_OVERLAP_STATE_CAP:
        # the exact pairwise overlap is the ground truth wherever affordable
        try:
            overlap = pseudo_minorization(k, C_inner, t_star)
        except DegenerateOverlap as exc:
            raise IncompatibleCertificate(f"no overlap at T+1={t_star}: {exc}") from exc
        # an overlap eps is also a minorization with any eps' <= eps, and the
        # contraction needs eps < 1: a perfect overlap enters as the double below 1
        eps = min(overlap.eps, math.nextafter(1.0, 0.0))
        source = "pseudo-minorization"

    lam_eff, b_eff = multistep_drift_params(cert.lam, cert.b, t_star)
    p, rho = solve_contraction(eps, lam_eff, b_eff, cert.r_prime)
    bound = GeometricBound(
        eps=eps,
        t=t_star,
        p=p,
        rho=rho,
        m_offset=cert.m_offset(),
        source=source,
        lam_eff=lam_eff,
        b_eff=b_eff,
        r_eff=cert.r_prime,
        t_route=t_route,
        degenerate_restriction=degenerate,
    )
    bound.check_equalities()
    return bound
