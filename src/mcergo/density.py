"""Positive densities on [0, 1]: evaluation, normalization, quantiles.

Three density families are supported: the uniform density, exponential
tilts exp(tilt * x), and positive piecewise-linear tables.  Quantiles and
normalizers come from adaptive Simpson quadrature plus bisection, both to
absolute tolerance ``tolerances.QUAD_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DensityNonpositive
from .tolerances import QUAD_TOL

DENSITY_KINDS = ("uniform", "exponential-tilt", "piecewise-linear-table")

_POSITIVITY_GRID = 4097
_CENTRAL_RATIO_GRID = 2048


def adaptive_simpson(f, a, b, tol=QUAD_TOL, max_depth=48):
    """Integrate a scalar function on [a, b] by adaptive Simpson quadrature.

    Parameters
    ----------
    f : callable
        Scalar integrand.
    a, b : float
        Integration limits, a <= b.
    tol : float
        Absolute tolerance on the result.

    Returns
    -------
    float
    """
    if b <= a:
        return 0.0

    def panel(lo, hi, flo, fhi):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        return mid, fmid, (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    fa, fb = f(a), f(b)
    m, fm, whole = panel(a, b, fa, fb)
    # stack entries: (lo, mid, hi, flo, fmid, fhi, estimate, tol, depth)
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    total = 0.0
    while stack:
        lo, mid, hi, flo, fmid, fhi, est, etol, depth = stack.pop()
        lm, flm, left = panel(lo, mid, flo, fmid)
        rm, frm, right = panel(mid, hi, fmid, fhi)
        err = left + right - est
        if abs(err) <= 15.0 * etol or depth >= max_depth:
            total += left + right + err / 15.0
        else:
            stack.append((lo, lm, mid, flo, flm, fmid, left, etol / 2.0, depth + 1))
            stack.append((mid, rm, hi, fmid, frm, fhi, right, etol / 2.0, depth + 1))
    return total


@dataclass(frozen=True)
class DensitySpec:
    """A positive density psi on [0, 1] with near-unimodality parameters.

    ``unimodal_alpha`` and ``unimodal_ratio`` declare that psi stays within
    ratio ``unimodal_ratio`` of itself on the central inter-quantile
    interval [m(alpha), m(1 - alpha)]; ``check_nearly_unimodal`` verifies
    the declaration by dense sampling.
    """

    kind: str
    params: dict = field(default_factory=dict)
    unimodal_alpha: float = 1.0 / 3.0
    unimodal_ratio: float = 2.0

    def __post_init__(self):
        if self.kind not in DENSITY_KINDS:
            raise ConfigError(f"unknown density kind {self.kind!r}")
        if not (0.0 < self.unimodal_alpha < 0.5):
            raise ConfigError("unimodal_alpha must lie in (0, 0.5)")
        if self.unimodal_ratio < 1.0:
            raise ConfigError("unimodal_ratio must be >= 1")
        if self.kind == "exponential-tilt":
            if "tilt" not in self.params:
                raise ConfigError("exponential-tilt density needs a 'tilt' parameter")
        elif self.kind == "piecewise-linear-table":
            xs = np.asarray(self.params.get("xs", ()), dtype=float)
            ys = np.asarray(self.params.get("ys", ()), dtype=float)
            if xs.size < 2 or xs.size != ys.size:
                raise ConfigError("piecewise table needs matching xs/ys with >= 2 knots")
            if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
                raise ConfigError("piecewise knots must increase from 0 to 1")
            if np.any(ys <= 0.0):
                raise DensityNonpositive("piecewise table has a nonpositive value")
        # dense positivity check (discrete analogue of psi > 0 on [0,1])
        grid = np.linspace(0.0, 1.0, _POSITIVITY_GRID)
        if np.any(self.pdf(grid) <= 0.0):
            raise DensityNonpositive("density is nonpositive somewhere on [0, 1]")

    # -- evaluation --------------------------------------------------------

    def pdf(self, x):
        """Unnormalized density value(s) at x (scalar or ndarray)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            out = np.ones_like(x)
        elif self.kind == "exponential-tilt":
            out = np.exp(self.params["tilt"] * x)
        else:
            out = np.interp(x, self.params["xs"], self.params["ys"])
        return out if out.ndim else float(out)

    @property
    def normalizer(self) -> float:
        """Z with integral of pdf/Z over [0,1] equal to 1."""
        return _normalizer_cached(self)

    def mass(self, a: float, b: float) -> float:
        """Probability assigned to [a, b]."""
        a, b = max(0.0, a), min(1.0, b)
        if b <= a:
            return 0.0
        return adaptive_simpson(lambda t: float(self.pdf(t)), a, b) / self.normalizer

    def quantile(self, q: float) -> float:
        """The point m with mass([0, m]) = q, located by bisection."""
        if not (0.0 < q < 1.0):
            raise ConfigError("quantile level must lie in (0, 1)")
        lo, hi = 0.0, 1.0
        while hi - lo > QUAD_TOL:
            mid = 0.5 * (lo + hi)
            if self.mass(0.0, mid) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def grid_values(self, c: float) -> np.ndarray:
        """pdf sampled on the grid {0, c, ..., 1-c}; 1/c must be an integer."""
        n = _checked_inverse(c)
        return np.asarray(self.pdf(np.arange(n) * c), dtype=float)

    # -- near-unimodality ---------------------------------------------------

    def measured_central_ratio(self, alpha: float | None = None) -> float:
        """max/min of pdf over [m(alpha), m(1-alpha)], by dense sampling."""
        a = self.unimodal_alpha if alpha is None else alpha
        lo, hi = self.quantile(a), self.quantile(1.0 - a)
        vals = self.pdf(np.linspace(lo, hi, _CENTRAL_RATIO_GRID))
        return float(np.max(vals) / np.min(vals))

    def check_nearly_unimodal(self, alpha: float | None = None, ratio: float | None = None) -> bool:
        r = self.unimodal_ratio if ratio is None else ratio
        return self.measured_central_ratio(alpha) <= r * (1.0 + 1e-12)

    # -- config schema -------------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"kind": self.kind,
               "unimodal_alpha": self.unimodal_alpha,
               "unimodal_ratio": self.unimodal_ratio}
        if self.kind == "exponential-tilt":
            cfg["tilt"] = self.params["tilt"]
        elif self.kind == "piecewise-linear-table":
            cfg["xs"] = list(self.params["xs"])
            cfg["ys"] = list(self.params["ys"])
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "DensitySpec":
        cfg = dict(cfg)
        kind = cfg.pop("kind", None)
        if kind is None:
            raise ConfigError("density config needs a 'kind'")
        alpha = _config_float(cfg.pop("unimodal_alpha", 1.0 / 3.0), "unimodal_alpha")
        ratio = _config_float(cfg.pop("unimodal_ratio", 2.0), "unimodal_ratio")
        params = {}
        if kind == "exponential-tilt":
            if "tilt" not in cfg:
                raise ConfigError("exponential-tilt density needs 'tilt'")
            params["tilt"] = _config_float(cfg.pop("tilt"), "tilt")
        elif kind == "piecewise-linear-table":
            try:
                for key in ("xs", "ys"):
                    params[key] = tuple(_config_float(v, key) for v in cfg.pop(key))
            except KeyError as exc:
                raise ConfigError(f"piecewise table config missing {exc}") from exc
            except TypeError as exc:  # not a list
                raise ConfigError(f"piecewise table 'xs' and 'ys' must be lists: {exc}") from exc
        if cfg:
            raise ConfigError(f"unknown density config keys: {sorted(cfg)}")
        return cls(kind=kind, params=params, unimodal_alpha=alpha, unimodal_ratio=ratio)


_NORMALIZER_CACHE: dict = {}


def _normalizer_cached(spec: DensitySpec) -> float:
    key = (spec.kind, tuple(sorted((k, _freeze(v)) for k, v in spec.params.items())))
    z = _NORMALIZER_CACHE.get(key)
    if z is None:
        z = adaptive_simpson(lambda t: float(spec.pdf(t)), 0.0, 1.0)
        if z <= 0.0:
            raise DensityNonpositive("density integrates to a nonpositive value")
        _NORMALIZER_CACHE[key] = z
    return z


def _freeze(v):
    return tuple(v) if isinstance(v, (list, tuple, np.ndarray)) else v


def _config_float(value, what: str) -> float:
    """A number read from a config; ConfigError when ``value`` is not one."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _checked_inverse(c: float) -> int:
    n = round(1.0 / c)
    if n < 1 or abs(n * c - 1.0) > 1e-9:
        raise ConfigError(f"grid step {c} must have an integer reciprocal")
    return n
