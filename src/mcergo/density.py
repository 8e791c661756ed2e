"""Positive densities on [0, 1]: evaluation, normalization, quantiles.

Three density families are supported: the uniform density, exponential
tilts exp(tilt * x), and positive piecewise-linear tables.  Each has a
closed-form integral F(x) of psi over [0, x]: normalizers and masses are
read from it exactly, and quantiles by bisection on it to absolute
tolerance ``tolerances.QUAD_TOL``.  Each psi is monotone or linear between
its knots, so its extremes over an interval lie at the interval ends or at
knots inside it; the positivity and near-unimodality checks read only
those points.  This module reads no configs: ``harness.density_from_config``
builds a DensitySpec from one.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DensityNonpositive
from .tolerances import QUAD_TOL

# each kind and the params it needs
DENSITY_KINDS = {"uniform": (), "exponential-tilt": ("tilt",),
                 "piecewise-linear-table": ("xs", "ys")}


@dataclass(frozen=True)
class DensitySpec:
    """A positive density psi on [0, 1] with near-unimodality parameters.

    ``unimodal_alpha`` and ``unimodal_ratio`` declare that psi stays within
    ratio ``unimodal_ratio`` of itself on the central inter-quantile
    interval [m(alpha), m(1 - alpha)]; ``check_nearly_unimodal`` verifies
    the declaration from the exact extremes of psi on that interval.
    """

    kind: str
    params: dict = field(default_factory=dict)
    unimodal_alpha: float = 1.0 / 3.0
    unimodal_ratio: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in DENSITY_KINDS):
            raise ConfigError(f"unknown density kind {self.kind!r}")
        if not (0.0 < self.unimodal_alpha < 0.5):
            raise ConfigError("unimodal_alpha must lie in (0, 0.5)")
        if self.unimodal_ratio < 1.0:
            raise ConfigError("unimodal_ratio must be >= 1")
        for key in DENSITY_KINDS[self.kind]:
            if key not in self.params:
                raise ConfigError(f"{self.kind} density needs a {key!r} parameter")
        if self.kind == "piecewise-linear-table":
            xs = np.asarray(self.params["xs"], dtype=float)
            ys = np.asarray(self.params["ys"], dtype=float)
            if xs.size < 2 or xs.size != ys.size:
                raise ConfigError("piecewise table needs matching xs/ys with >= 2 knots")
            if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
                raise ConfigError("piecewise knots must increase from 0 to 1")
        # psi at 0, 1 and the knots bounds psi on [0, 1] from both sides
        with np.errstate(all="ignore"):  # an overflow is refused just below
            vals = self.pdf(self._knots())
        if not np.all(np.isfinite(vals)):
            raise ConfigError("density is not finite on [0, 1]")
        if np.any(vals <= 0.0):
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

    def _knots(self) -> np.ndarray:
        """0, 1 and the table knots: psi is monotone between neighbours."""
        return np.asarray(self.params.get("xs", (0.0, 1.0)), dtype=float)

    def _integral(self, x: float) -> float:
        """F(x), the integral of pdf over [0, x], in closed form."""
        if self.kind == "uniform":
            return x
        if self.kind == "exponential-tilt":
            t = self.params["tilt"]
            return x if t * x == 0.0 else math.expm1(t * x) / t
        xs, ys = self._knots(), np.asarray(self.params["ys"], dtype=float)
        areas = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0)])
        i = min(int(np.searchsorted(xs, x, side="right")) - 1, xs.size - 2)
        return float(areas[i] + (x - xs[i]) * (ys[i] + self.pdf(x)) / 2.0)

    @property
    def normalizer(self) -> float:
        """Z with integral of pdf/Z over [0,1] equal to 1."""
        return self._integral(1.0)

    def mass(self, a: float, b: float) -> float:
        """Probability assigned to [a, b]."""
        a, b = max(0.0, a), min(1.0, b)
        if b <= a:
            return 0.0
        return (self._integral(b) - self._integral(a)) / self.normalizer

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
        """pdf sampled on the grid {0, c, ..., 1-c}, for a c that ``_checked_inverse`` takes."""
        n = _checked_inverse(c)
        return np.asarray(self.pdf(np.arange(n) * c), dtype=float)

    # -- near-unimodality ---------------------------------------------------

    def measured_central_ratio(self, alpha: float | None = None) -> float:
        """max/min of pdf over [m(alpha), m(1-alpha)]: at its ends and the knots inside."""
        a = self.unimodal_alpha if alpha is None else alpha
        lo, hi = self.quantile(a), self.quantile(1.0 - a)
        knots = self._knots()
        vals = self.pdf(np.concatenate([[lo, hi], knots[(knots > lo) & (knots < hi)]]))
        return float(np.max(vals) / np.min(vals))

    def check_nearly_unimodal(self) -> bool:
        return self.measured_central_ratio() <= self.unimodal_ratio * (1.0 + 1e-12)


def _checked_inverse(c) -> int:
    """n = round(1/c), the grid size at step c: the one rule for a step size.

    ConfigError unless c is a real number (a bool is not one), finite and
    > 0, with n >= 2 and |n c - 1| <= 1e-9.
    """
    n = 0
    if isinstance(c, numbers.Real) and not isinstance(c, bool) and 0.0 < c < math.inf:
        try:
            n = round(1.0 / c)
        except OverflowError:  # 1/c is too large for a float
            pass
    if n < 2 or abs(n * c - 1.0) > 1e-9:
        raise ConfigError(f"step size c must be a finite number > 0 with an integer "
                          f"reciprocal >= 2, got {c!r}")
    return n
