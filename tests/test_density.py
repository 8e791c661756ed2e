import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import mcergo as m
from mcergo import corpus, errors
from mcergo.harness import density_from_config
from mcergo.tolerances import QUAD_TOL

EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)


def test_uniform_normalizer():
    d = m.DensitySpec(kind="uniform", unimodal_ratio=1.0)
    assert d.normalizer == pytest.approx(1.0, abs=1e-12)


def test_exponential_normalizer_closed_form():
    assert EXP.normalizer == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)


def test_piecewise_normalizer_closed_form():
    # trapezoid area of a linear table is exact
    d = m.DensitySpec(kind="piecewise-linear-table",
                      params={"xs": (0.0, 0.25, 1.0), "ys": (1.0, 3.0, 0.5)})
    area = 0.25 * (1.0 + 3.0) / 2.0 + 0.75 * (3.0 + 0.5) / 2.0
    assert d.normalizer == pytest.approx(area, abs=1e-8)


def test_uniform_quantiles():
    d = m.DensitySpec(kind="uniform", unimodal_ratio=1.0)
    for q in (0.1, 1.0 / 3.0, 0.5, 0.9):
        assert d.quantile(q) == pytest.approx(q, abs=1e-7)


def test_exponential_quantiles_closed_form():
    z = 1.0 - math.exp(-1.0)
    for q in (0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0):
        expected = -math.log(1.0 - q * z)
        assert EXP.quantile(q) == pytest.approx(expected, abs=1e-7)


def test_mass_of_interval():
    z = 1.0 - math.exp(-1.0)
    assert EXP.mass(0.0, 0.5) == pytest.approx((1.0 - math.exp(-0.5)) / z, abs=1e-8)


def test_central_ratio_exponential():
    # sup/inf of exp(-x) over the central inter-quantile interval
    z = 1.0 - math.exp(-1.0)
    lo = -math.log(1.0 - z / 3.0)
    hi = -math.log(1.0 - 2.0 * z / 3.0)
    expected = math.exp(hi - lo)
    assert EXP.measured_central_ratio() == pytest.approx(expected, rel=1e-3)
    assert EXP.check_nearly_unimodal()
    assert not replace(EXP, unimodal_ratio=1.2).check_nearly_unimodal()


def test_grid_values():
    vals = EXP.grid_values(0.25)
    assert np.allclose(vals, np.exp(-np.arange(4) * 0.25), atol=1e-15)


def test_from_config_reads_each_kind():
    for cfg, d in (
        ({"kind": "uniform", "unimodal_ratio": 1.0},
         m.DensitySpec(kind="uniform", unimodal_ratio=1.0)),
        ({"kind": "exponential-tilt", "tilt": -1.0, "unimodal_ratio": 1.5}, EXP),
        ({"kind": "piecewise-linear-table", "xs": [0.0, 0.5, 1.0], "ys": [1.0, 2.0, 1.0],
          "unimodal_alpha": 0.25, "unimodal_ratio": 2.5},
         m.DensitySpec(kind="piecewise-linear-table",
                       params={"xs": (0.0, 0.5, 1.0), "ys": (1.0, 2.0, 1.0)},
                       unimodal_alpha=0.25, unimodal_ratio=2.5)),
    ):
        assert density_from_config(cfg) == d


def test_config_rejects_unknown_keys():
    with pytest.raises(errors.ConfigError):
        density_from_config({"kind": "uniform", "scale": 2.0})


@pytest.mark.parametrize("cfg", [
    [1],
    "uniform",
    None,
    {"kind": "piecewise-linear-table", "xs": "01", "ys": [1.0, 1.0]},
    {"kind": "piecewise-linear-table", "xs": [0.0, 1.0]},
])
def test_config_that_is_not_an_object_of_lists_is_refused(cfg):
    with pytest.raises(errors.ConfigError):
        density_from_config(cfg)


def test_bad_parameters_rejected():
    with pytest.raises(errors.ConfigError):
        m.DensitySpec(kind="uniform", unimodal_alpha=0.7)
    with pytest.raises(errors.ConfigError):
        m.DensitySpec(kind="uniform", unimodal_ratio=0.5)
    with pytest.raises(errors.ConfigError):
        m.DensitySpec(kind="gaussian")
    with pytest.raises(errors.ConfigError):
        m.DensitySpec(kind="piecewise-linear-table",
                      params={"xs": (0.0, 0.4), "ys": (1.0, 1.0)})


def _tilt(t):
    return m.DensitySpec(kind="exponential-tilt", params={"tilt": float(t)}, unimodal_ratio=1e30)


QUAD_CASES = {
    "uniform": m.DensitySpec(kind="uniform", unimodal_ratio=1.0),
    **{f"tilt{t}": _tilt(t) for t in (-40, -1, 0, 1, 40)},
    **{f"random{i}": corpus.random_density(np.random.default_rng(i)) for i in range(4)},
}


@pytest.mark.parametrize("name", list(QUAD_CASES))
def test_closed_form_quantities_match_quadrature(name):
    d = QUAD_CASES[name]
    points = d.params.get("xs", ())[1:-1] or None

    def integral(a, b):
        return integrate.quad(lambda x: float(d.pdf(x)), a, b, points=points,
                              epsabs=0.0, epsrel=1e-12, limit=200)[0]

    z = integral(0.0, 1.0)
    assert d.normalizer == pytest.approx(z, rel=1e-10)
    for a, b in ((0.0, 0.3), (0.2, 0.7), (0.45, 1.0)):
        assert d.mass(a, b) == pytest.approx(integral(a, b) / z, rel=1e-9, abs=1e-15)
    # a bisection step of QUAD_TOL in x moves the mass by at most QUAD_TOL max(psi)/Z
    mass_tol = QUAD_TOL * max(d.pdf(0.0), d.pdf(1.0), *d.params.get("ys", ())) / z
    for q in (1.0 / 48.0, 1.0 / 3.0, 0.5, 47.0 / 48.0):
        assert integral(0.0, d.quantile(q)) / z == pytest.approx(q, abs=mass_tol)


@pytest.mark.parametrize("t", [22.0, 40.0])
def test_steep_tilt_quantiles_closed_form(t):
    d = _tilt(t)
    for q in (1.0 / 48.0, 1.0 / 3.0, 47.0 / 48.0):
        assert d.quantile(q) == pytest.approx(math.log1p(q * math.expm1(t)) / t, abs=QUAD_TOL)
    assert d.check_nearly_unimodal()


def test_narrow_peak_breaks_the_declared_central_ratio():
    # psi = 10 on a peak 2e-5 wide inside the central interval: the exact ratio is 10
    d = m.DensitySpec(kind="piecewise-linear-table",
                      params={"xs": (0.0, 0.5, 0.50001, 0.50002, 1.0),
                              "ys": (1.0, 1.0, 10.0, 1.0, 1.0)},
                      unimodal_ratio=2.0)
    assert d.measured_central_ratio() == pytest.approx(10.0)
    assert not d.check_nearly_unimodal()


def test_density_that_overflows_or_underflows_is_refused():
    with pytest.raises(errors.ConfigError, match="not finite"):
        _tilt(800.0)
    with pytest.raises(errors.DensityNonpositive):
        _tilt(-800.0)
    with pytest.raises(errors.ConfigError, match="not finite"):
        m.DensitySpec(kind="piecewise-linear-table",
                      params={"xs": (0.0, 0.5, 1.0), "ys": (1.0, math.inf, 1.0)})
