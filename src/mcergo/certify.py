"""Drift certificates and the explicit geometric convergence bound.

Verifies drift inequalities, checks the two compatibility radii, maps
drift parameters through laziness and multi-step composition, solves for
the interpolation exponent p and contraction rate rho, and assembles the
bound M(x) (1 - rho)^t from either an exact pairwise overlap or the
drift-and-hit route through a dominated restriction.

Step-count convention: the pairwise overlap is established for the T-step
kernel, whose drift parameters are (lambda^T, b (1 - lambda^T)/(1 -
lambda)); the single-step bound uses floor(t / T) exponents.  Every
GeometricBound records the convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .chain_analysis import (
    is_birth_death,
    max_hitting_time,
    mixing_time,
    pseudo_minorization,
    stationary_distribution,
)
from .errors import (
    DegenerateOverlap,
    DTableInvalid,
    IncompatibleCertificate,
    IncompatibleRadius,
    InvalidParameters,
    MissingAlpha,
    NonpositiveDenominator,
)
from .kernels import FiniteKernel, restrict
from .tolerances import EQUALITY_TOL, ROW_SUM_TOL

EXACT_OVERLAP_STATE_CAP = 512


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
        v = np.array(self.v, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if np.any(v < 0.0):
            raise InvalidParameters("V must be nonnegative")
        if not (0.0 <= self.lam < 1.0):
            raise InvalidParameters("lambda must lie in [0, 1)")
        if self.b < 0.0:
            raise InvalidParameters("b must be nonnegative")

    def sublevel(self, radius: float) -> np.ndarray:
        return np.flatnonzero(self.v <= radius)

    @property
    def small_set(self) -> np.ndarray:
        return self.sublevel(self.r)

    @property
    def inner_set(self) -> np.ndarray:
        return self.sublevel(self.r_prime)

    def m_offset(self) -> float:
        return 2.0 + self.b / (1.0 - self.lam)

    def m_of(self, x: int) -> float:
        return self.m_offset() + float(self.v[x])


@dataclass(frozen=True)
class GeometricBound:
    """Assembled TV bound M(x) (1 - rho)^floor(t / T).

    ``eps`` is the pairwise overlap at step count T; (p, rho) solve the
    defining equalities for the T-step drift parameters (lam_eff, b_eff)
    and radius r_eff; M(x) = m_offset + V(x).  ``source`` records whether
    eps came from an exact pairwise computation ("pseudo-minorization") or
    the 1/3 overlap of the drift-and-hit theorem ("drift-and-hit").
    ``certified`` is true only when every input of the bound was verified;
    T from the "dtable" route rests on the table's upper constant d, which
    is data, so such a bound is labelled uncertified.
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
    certified: bool = False

    def m_of(self, v_x: float) -> float:
        return self.m_offset + float(v_x)

    def evaluate(self, v_x, t: int):
        """Bound on TV(g(x, t, .), pi) for a state with V(x) = v_x.

        An array of V values gives the array of bounds; a scalar, a float.
        """
        k = t // self.t
        bounds = (self.m_offset + np.asarray(v_x, dtype=float)) * (1.0 - self.rho) ** k
        return float(bounds) if bounds.ndim == 0 else bounds

    def lemma_rhs(self, v_x: float, t: int) -> float:
        """The two-term right-hand side at floor(t / T) composite steps."""
        k = t // self.t
        return bound_rhs(self.eps, self.lam_eff, self.b_eff, self.r_eff, self.p, v_x, k)

    def check_equalities(self, tol=EQUALITY_TOL) -> float:
        a = (1.0 + 2.0 * self.b_eff + self.lam_eff * self.r_eff) / (1.0 + self.r_eff)
        bb = 1.0 + 2.0 * (self.lam_eff * self.r_eff + self.b_eff)
        lhs = (1.0 - self.eps) ** self.p
        mid = a ** (1.0 - self.p) * bb ** self.p
        worst = max(abs(lhs - mid), abs(lhs - (1.0 - self.rho)))
        if worst > tol:
            raise InvalidParameters(f"defining equalities violated by {worst:.3e}")
        return worst

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "t": self.t,
            "p": self.p,
            "rho": self.rho,
            "m_offset": self.m_offset,
            "source": self.source,
            "lam_eff": self.lam_eff,
            "b_eff": self.b_eff,
            "r_eff": self.r_eff,
            "t_route": self.t_route,
            "degenerate_restriction": self.degenerate_restriction,
            "certified": self.certified,
        }


# --- the universal-constant table ----------------------------------------------

@dataclass(frozen=True)
class DTable:
    """User-supplied constants alpha -> (d_alpha, d'_alpha).

    d'_alpha t_H(alpha) <= t_L <= d_alpha t_H(alpha); the upper constants
    are treated as data, not derived.  Validation: alpha keys in (0, 0.5),
    d' <= d, and d non-increasing in alpha.
    """

    entries: tuple  # ((alpha, d, d_prime, note), ...) sorted by alpha

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: e[0]))
        object.__setattr__(self, "entries", ordered)
        prev_d = None
        for alpha, d, d_prime, _note in ordered:
            if not (0.0 < alpha < 0.5):
                raise DTableInvalid(f"alpha {alpha} outside (0, 0.5)")
            if d <= 0.0 or d_prime <= 0.0:
                raise DTableInvalid("constants must be positive")
            if d_prime > d:
                raise DTableInvalid(f"d'={d_prime} exceeds d={d} at alpha={alpha}")
            if prev_d is not None and d > prev_d + ROW_SUM_TOL:
                raise DTableInvalid("d_alpha must be non-increasing in alpha")
            prev_d = d
        object.__setattr__(self, "entries", ordered)

    def lookup(self, alpha: float) -> tuple[float, float]:
        for a, d, d_prime, _ in self.entries:
            if abs(a - alpha) <= 1e-12:
                return d, d_prime
        raise MissingAlpha(f"no DTable entry for alpha={alpha}")

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"alpha": a, "d": d, "d_prime": dp, "note": note}
                for a, d, dp, note in self.entries
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DTable":
        try:
            entries = tuple(
                (float(e["alpha"]), float(e["d"]), float(e["d_prime"]), str(e.get("note", "")))
                for e in payload["entries"]
            )
        except (KeyError, TypeError) as exc:
            raise DTableInvalid(f"malformed dtable payload: {exc}") from exc
        return cls(entries=entries)

    @classmethod
    def load(cls, path) -> "DTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def default_dtable() -> DTable:
    """The shipped table: the certified lower entry at alpha = 1/3 plus a
    placeholder upper constant marked unverified."""
    payload = json.loads(
        resources.files("mcergo").joinpath("data/dtable_default.json").read_text()
    )
    return DTable.from_dict(payload)


# --- drift verification -----------------------------------------------------------

@dataclass(frozen=True)
class DriftCheck:
    passed: bool
    worst_slack: float
    worst_state: int


def verify_drift(k: FiniteKernel, v, lam: float, b: float) -> DriftCheck:
    """Check (PV)(x) <= lam V(x) + b for all x; one matrix-vector product.

    Returns the worst slack min_x(lam V(x) + b - (PV)(x)); passes iff the
    slack is >= -1e-12.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise InvalidParameters("V must be nonnegative")
    if not (0.0 <= lam < 1.0):
        raise InvalidParameters("lambda must lie in [0, 1)")
    if b < 0.0:
        raise InvalidParameters("b must be nonnegative")
    if v.shape != (k.n,):
        raise InvalidParameters("V length does not match the kernel")
    slack = lam * v + b - k.p @ v
    worst = int(np.argmin(slack))
    return DriftCheck(
        passed=bool(slack[worst] >= -ROW_SUM_TOL),
        worst_slack=float(slack[worst]),
        worst_state=worst,
    )


def fit_drift(k: FiniteKernel, v, lam_grid=None) -> tuple[float, float]:
    """Smallest feasible b over a lambda grid; ties go to the smaller lambda.

    For each lambda, b(lambda) = max(0, max_x((PV)(x) - lambda V(x))); the
    returned pair always satisfies ``verify_drift``.
    """
    v = np.asarray(v, dtype=float)
    if lam_grid is None:
        lam_grid = np.arange(0.0, 1.0, 0.05)
    pv = k.p @ v
    best = None
    for lam in np.asarray(lam_grid, dtype=float):
        if not (0.0 <= lam < 1.0):
            raise InvalidParameters("lambda grid must lie in [0, 1)")
        b = float(max(0.0, np.max(pv - lam * v)))
        if best is None or b < best[1]:
            best = (float(lam), b)
    return best


def lazy_drift_params(lam: float, b: float) -> tuple[float, float]:
    """Drift parameters of the half-lazy chain: ((1 + lam)/2, b/2)."""
    if not (0.0 <= lam < 1.0) or b < 0.0:
        raise InvalidParameters("need 0 <= lambda < 1 and b >= 0")
    return (1.0 + lam) / 2.0, b / 2.0


def multistep_drift_params(lam: float, b: float, t: int) -> tuple[float, float]:
    """Drift parameters inherited by the t-step kernel."""
    if t < 1:
        raise InvalidParameters("step count must be >= 1")
    lam_t = lam ** t
    b_t = b * t if lam == 1.0 else b * (1.0 - lam_t) / (1.0 - lam)
    return lam_t, b_t


# --- compatibility -----------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityReport:
    mode: str
    passed: bool
    margins: dict

    def __bool__(self):
        return self.passed


def compatibility_check(cert: DriftCertificate, mode: str = "classic") -> CompatibilityReport:
    """Radius compatibility margins.

    classic: r > 2b/(1 - lambda).  theorem2: additionally r' > 2b/(1 -
    lambda) and r > (2b + 24 r')/(1 - lambda).
    """
    denom = 1.0 - cert.lam
    classic_threshold = 2.0 * cert.b / denom
    margins = {"r_minus_classic_threshold": cert.r - classic_threshold}
    if mode == "classic":
        passed = cert.r > classic_threshold
    elif mode == "theorem2":
        t2 = (2.0 * cert.b + 24.0 * cert.r_prime) / denom
        margins["r_prime_minus_classic_threshold"] = cert.r_prime - classic_threshold
        margins["r_minus_theorem2_threshold"] = cert.r - t2
        passed = cert.r_prime > classic_threshold and cert.r > t2
    else:
        raise ValueError(f"unknown compatibility mode {mode!r}")
    return CompatibilityReport(mode=mode, passed=bool(passed), margins=margins)


def drift_envelope(lam: float, b: float, v0: float, t: int) -> float:
    """Upper bound lam^t V(X_0) + b/(1 - lam) on E[V(X_t)]."""
    if not (0.0 <= lam < 1.0):
        raise InvalidParameters("lambda must lie in [0, 1)")
    return lam ** t * v0 + b / (1.0 - lam)


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
    return 2.0 * r_prime / denom


# --- contraction solve ----------------------------------------------------------------

def solve_contraction(eps: float, lam: float, b: float, r: float) -> tuple[float, float]:
    """Solve (1 - eps)^p = A^(1-p) B^p for p, with A = (1 + 2b + lam r)/(1 + r)
    and B = 1 + 2(lam r + b); returns (p, rho = 1 - (1 - eps)^p).

    The closed form is cross-validated against a bisection of the defining
    equality to 1e-12 before returning; guarantees 0 < p < 1 and
    0 < rho < 1.

    Raises
    ------
    IncompatibleRadius
        If A >= 1, i.e. r <= 2b/(1 - lambda).
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParameters("eps must lie in (0, 1)")
    if not (0.0 <= lam < 1.0) or b < 0.0 or r <= 0.0:
        raise InvalidParameters("need 0 <= lambda < 1, b >= 0, r > 0")
    a = (1.0 + 2.0 * b + lam * r) / (1.0 + r)
    if a >= 1.0:
        raise IncompatibleRadius(f"(1 + 2b + lam r)/(1 + r) = {a} >= 1")
    big_b = 1.0 + 2.0 * (lam * r + b)
    log_a = math.log(a)
    log_b = math.log(big_b)
    log_e = math.log1p(-eps)
    p = log_a / (log_e + log_a - log_b)

    # bisection cross-check of f(q) = q log(1-eps) - (1-q) log A - q log B
    def f(q):
        return q * log_e - (1.0 - q) * log_a - q * log_b

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_bis = 0.5 * (lo + hi)
    if abs(p - p_bis) > 1e-9:
        raise InvalidParameters(
            f"closed-form p {p} disagrees with bisection {p_bis}"
        )
    rho = -math.expm1(p * log_e)
    if not (0.0 < p < 1.0 and 0.0 < rho < 1.0):
        raise InvalidParameters(f"solution out of range: p={p}, rho={rho}")
    return p, rho


def bound_rhs(eps: float, lam: float, b: float, r: float, p: float, v_x: float, t: int) -> float:
    """(1-eps)^(pt) + (1 + b/(1-lam) + V(x)) [A^(1-p) B^p]^t."""
    if t < 0:
        raise InvalidParameters("t must be a nonnegative integer")
    a = (1.0 + 2.0 * b + lam * r) / (1.0 + r)
    big_b = 1.0 + 2.0 * (lam * r + b)
    first = (1.0 - eps) ** (p * t)
    second = (1.0 + b / (1.0 - lam) + v_x) * (a ** (1.0 - p) * big_b ** p) ** t
    return first + second


def hit_to_mix(t_h: float, alpha: float, dtable: DTable) -> tuple[float, float]:
    """Bounds (d_alpha t_H, d'_alpha t_H) on the lazy mixing time."""
    if t_h < 0.0:
        raise InvalidParameters("hitting time must be nonnegative")
    d, d_prime = dtable.lookup(alpha)
    return d * t_h, d_prime * t_h


# --- the drift-and-hit pipeline ------------------------------------------------------------

def certify_drift_and_hit(
    k: FiniteKernel,
    cert: DriftCertificate,
    variant: str = "mh-restriction",
    alpha: float = 1.0 / 3.0,
    dtable: DTable | None = None,
    pi_table=None,
    t_route: str = "auto",
    hitting_strategy: str | None = None,
    pi: np.ndarray | None = None,
) -> GeometricBound:
    """Assemble the geometric bound from a drift certificate.

    Pipeline: (i) restrict k to C = {V <= r} by the requested variant;
    (ii) verify the restricted chain inherits the drift; (iii) obtain the
    overlap step count T as the exact mixing time of the restriction from
    C' (route "exact-mixing"), or as ceil(d_alpha t_H^{(C)}(alpha)) from
    the DTable (route "dtable", with t_H from the exact birth-death closed
    form when the restriction is tridiagonal, else from brute enumeration,
    never from a lower bound); (iv) take the pairwise overlap at T + 1
    steps, exactly when the chain is small enough, else the 1/3 of the
    drift-and-hit theorem; (v) solve the contraction for the (T+1)-step
    drift parameters at radius r'.  ``pi``, when given, is the stationary
    law of k, so a caller that already solved it is not made to solve it
    again.

    Raises
    ------
    IncompatibleCertificate, plus propagated sub-operation errors.
    """
    if cert.v.shape != (k.n,):
        raise InvalidParameters("certificate V length does not match the kernel")
    compat = compatibility_check(cert, "theorem2")
    if not compat.passed:
        raise IncompatibleCertificate(f"theorem2 compatibility failed: {compat.margins}")
    base_check = verify_drift(k, cert.v, cert.lam, cert.b)
    if not base_check.passed:
        raise IncompatibleCertificate(
            f"drift fails on the base chain (slack {base_check.worst_slack:.3e})"
        )

    C = cert.small_set
    C_inner = cert.inner_set
    if C.size == 0 or C_inner.size == 0:
        raise IncompatibleCertificate("sublevel sets are empty")
    degenerate = C.size == k.n

    if pi is None:
        pi = stationary_distribution(k)
    dom = restrict(k, C, variant, pi_table=pi_table, base_stationary=pi)
    sub_check = verify_drift(dom.kernel, cert.v[C], cert.lam, cert.b)
    if not sub_check.passed:
        raise IncompatibleCertificate(
            f"drift fails on the restriction (slack {sub_check.worst_slack:.3e})"
        )

    inner_pos = np.searchsorted(C, C_inner)

    if t_route == "auto":
        t_route = "exact-mixing" if dom.kernel.n <= EXACT_OVERLAP_STATE_CAP else "dtable"
    if t_route == "exact-mixing":
        t_mix = mixing_time(dom.kernel, subset=inner_pos)
    elif t_route == "dtable":
        if dtable is None:
            raise IncompatibleCertificate("dtable route requires a DTable")
        if hitting_strategy is None:
            interval_ok = dom.kernel.states is not None and is_birth_death(dom.kernel)
            hitting_strategy = "interval" if interval_ok else "brute"
        report = max_hitting_time(dom.kernel, alpha, strategy=hitting_strategy)
        d, _ = dtable.lookup(alpha)
        t_mix = int(math.ceil(d * report.t_h))
    else:
        raise ValueError(f"unknown t route {t_route!r}")

    t_star = t_mix + 1
    eps = 1.0 / 3.0
    source = "drift-and-hit"
    if k.n <= EXACT_OVERLAP_STATE_CAP:
        # the exact pairwise overlap is the ground truth wherever affordable
        try:
            overlap = pseudo_minorization(k, C_inner, t_star)
        except DegenerateOverlap as exc:
            raise IncompatibleCertificate(f"no overlap at T+1={t_star}: {exc}") from exc
        eps = overlap.eps
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
        certified=t_route != "dtable",
    )
    bound.check_equalities()
    return bound
