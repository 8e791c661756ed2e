import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import errors, harness
from mcergo.certify import (
    EXACT_OVERLAP_STATE_CAP,
    _contraction_terms,
    _spectral_mixing_time,
    multistep_drift_params,
)
from mcergo.corpus import (
    _independence_mh,
    bd_expdrift,
    escape_corpus,
    random_dense_chain,
    random_reversible_chain,
    tightest_certificate,
)
from oracles import bound_rhs, contraction_bisection, drift_envelope, lazy_drift_params, lemma_rhs

EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)


# --- verify_drift ------------------------------------------------------------

def test_drift_zero_v_always_passes():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    assert m.verify_drift(k, np.zeros(3), 0.5, 0.0).passed


def test_drift_identity_kernel():
    k = m.build_finite_kernel(np.eye(4))
    v = np.array([0.0, 1.0, 2.0, 3.0])
    assert m.verify_drift(k, v, 0.9, 0.3).passed


def test_drift_matches_per_state_inequality():
    k = m.birth_death_chain(EXP, 0.25)
    v = k.states.copy()
    for lam, b in [(0.5, 0.0), (0.9, 0.05), (0.99, 0.2)]:
        check = m.verify_drift(k, v, lam, b)
        pv = k.p @ v
        brute = all(pv[i] <= lam * v[i] + b + 1e-12 for i in range(k.n))
        assert check.passed == brute


def test_drift_invalid_parameters():
    k = m.build_finite_kernel(np.eye(2))
    with pytest.raises(errors.InvalidParameters):
        m.verify_drift(k, [0.0, 1.0], 1.0, 0.0)
    with pytest.raises(errors.InvalidParameters):
        m.verify_drift(k, [0.0, -1.0], 0.5, 0.0)
    with pytest.raises(errors.InvalidParameters):
        m.verify_drift(k, [0.0, 1.0], 0.5, -0.1)


# --- fit_drift ---------------------------------------------------------------------

def test_fit_identity_prefers_largest_lambda():
    k = m.build_finite_kernel(np.eye(3))
    v = np.array([0.0, 0.5, 1.0])
    lam, b = m.fit_drift(k, v)
    assert lam == pytest.approx(0.95)
    assert b <= 0.05 + 1e-12


def test_fit_iid_kernel_gives_mean_at_lambda_zero():
    pi = np.array([0.2, 0.3, 0.5])
    k = m.build_finite_kernel(np.tile(pi, (3, 1)))
    v = np.array([1.0, 2.0, 4.0])
    lam, b = m.fit_drift(k, v, lam_grid=[0.0])
    assert lam == 0.0
    assert b == pytest.approx(float(pi @ v), abs=1e-12)


@pytest.mark.parametrize("v, lam_grid", [
    (np.ones(3), []),  # no lambda to choose from
    (np.ones(3), [[0.5]]),
    (np.ones(2), None),  # one value short
])
def test_fit_refuses_an_empty_grid_and_a_v_of_the_wrong_length(v, lam_grid):
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(errors.InvalidParameters):
        m.fit_drift(k, v, lam_grid)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fit_round_trips_through_verify(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    v = rng.uniform(0.0, 5.0, n)
    lam, b = m.fit_drift(k, v)
    assert m.verify_drift(k, v, lam, b).passed


# --- parameter transforms ---------------------------------------------------------------

def test_lazy_drift_params_values():
    assert lazy_drift_params(0.6, 2.0) == (0.8, 1.0)
    assert lazy_drift_params(0.0, 0.0) == (0.5, 0.0)


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_lazy_drift_propagates(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    v = rng.uniform(0.0, 5.0, n)
    lam, b = m.fit_drift(k, v)
    lam1, b1 = lazy_drift_params(lam, b)
    assert m.verify_drift(m.lazy_transform(k), v, lam1, b1).passed


def test_multistep_drift_params():
    lam_t, b_t = multistep_drift_params(0.5, 1.0, 3)
    assert lam_t == 0.125
    assert b_t == pytest.approx(1.75)
    # b/(1 - lambda) is invariant under the composition
    assert b_t / (1.0 - lam_t) == pytest.approx(1.0 / 0.5)


DRIFT_TAKERS = {
    "DriftCertificate": lambda lam, b: m.DriftCertificate(v=[0.0, 1.0], lam=lam, b=b, r=5.0,
                                                          r_prime=1.0),
    "verify_drift": lambda lam, b: m.verify_drift(m.build_finite_kernel(np.eye(2)),
                                                  [0.0, 1.0], lam, b),
    "lazy_drift_params": lambda lam, b: lazy_drift_params(lam, b),
    "multistep_drift_params": lambda lam, b: multistep_drift_params(lam, b, 3),
    "drift_envelope": lambda lam, b: drift_envelope(lam, b, 1.0, 2),
    "solve_contraction": lambda lam, b: m.solve_contraction(0.5, lam, b, 5.0),
    "bound_rhs": lambda lam, b: bound_rhs(0.5, lam, b, 5.0, 0.1, 1.0, 1),
}


@pytest.mark.parametrize("lam,b", [(1.0, 0.0), (-0.1, 0.0), (0.5, -0.1), (float("nan"), 0.0),
                                   (0.5, float("nan"))])
@pytest.mark.parametrize("taker", list(DRIFT_TAKERS))
def test_every_drift_parameter_taker_refuses_the_same_values(taker, lam, b):
    with pytest.raises(errors.InvalidParameters, match="lambda must lie in|b must be"):
        DRIFT_TAKERS[taker](lam, b)


# --- compatibility ------------------------------------------------------------------------

def test_compatibility_classic_threshold():
    cert_pass = m.DriftCertificate(v=np.zeros(2), lam=0.5, b=1.0, r=5.0, r_prime=4.1)
    cert_fail = m.DriftCertificate(v=np.zeros(2), lam=0.5, b=1.0, r=3.0, r_prime=4.1)
    assert m.compatibility_check(cert_pass, "classic").passed
    assert not m.compatibility_check(cert_fail, "classic").passed


def test_compatibility_theorem2_worked_example():
    cert = m.DriftCertificate(v=np.zeros(2), lam=0.5, b=1.0, r=250.0, r_prime=5.0)
    rep = m.compatibility_check(cert, "theorem2")
    assert rep.passed
    assert rep.margins["r_minus_theorem2_threshold"] == pytest.approx(6.0)
    cert2 = m.DriftCertificate(v=np.zeros(2), lam=0.5, b=1.0, r=243.0, r_prime=5.0)
    assert not m.compatibility_check(cert2, "theorem2").passed


def test_compatibility_zero_b():
    cert = m.DriftCertificate(v=np.zeros(2), lam=0.5, b=0.0, r=0.001, r_prime=0.0001)
    assert m.compatibility_check(cert, "classic").passed


def test_with_radii_sets_each_missing_radius_five_percent_above_its_threshold():
    cert = m.DriftCertificate.with_radii(np.zeros(2), 0.5, 1.0)
    assert cert.r_prime == 1.05 * 4.0
    assert cert.r == 1.05 * ((2.0 + 24.0 * cert.r_prime) / 0.5)
    assert m.compatibility_check(cert, "theorem2").passed
    assert m.DriftCertificate.with_radii(np.zeros(2), 0.5, 1.0, r_prime=5.0).r == 1.05 * 244.0
    given = m.DriftCertificate.with_radii(np.zeros(2), 0.5, 1.0, r=7.0, r_prime=5.0)
    assert (given.r, given.r_prime) == (7.0, 5.0)
    with pytest.raises(errors.InvalidParameters):
        m.DriftCertificate.with_radii(np.zeros(2), 1.0, 1.0)


# lambda, b, r, r', |C| and |C'| of every corpus certificate
CORPUS_CERTIFICATES = {
    "bd-expdrift": "0.9500000000000001 0.07970772503240142 1690.6008479372388 "
                   "3.3477244513608646 32 32",
    "escape-0": "0.9 0.9363507264697617 5210.791792804226 20.599715982334764 69 25",
    "escape-1": "0.9 0.42431525162661643 2361.314375302122 9.334935535785565 75 22",
    "escape-2": "0.9 0.4203889944003123 2339.4647538377394 9.248557876806874 63 18",
    "escape-3": "0.9 0.4586286534523687 2552.2684564624333 10.089830375952115 88 26",
    "escape-4": "0.9 0.3503829927915554 1949.8813548850067 7.708425841414221 73 20",
    "escape-5": "0.9 0.39839085117888207 2217.0450868104795 8.764598725935407 93 27",
    "escape-6": "0.0 11.500000000000002 661.71 25.300000000000004 24 24",
    "escape-7": "0.0 15.5 891.8700000000001 34.1 32 32",
    "escape-8": "0.0 0.35 20.139 0.77 31 24",
    "escape-9": "0.0 0.925 53.224500000000006 2.035 21 21",
}


def test_corpus_certificates_are_pinned():
    chains = [("bd-expdrift", bd_expdrift())] + [(case.name, case) for case in escape_corpus()]
    got = {}
    for name, chain in chains:
        c = chain.cert
        got[name] = " ".join([repr(float(c.lam)), repr(float(c.b)), repr(float(c.r)),
                              repr(float(c.r_prime)), str(c.small_set.size),
                              str(c.inner_set.size)])
        # both fits read one b(lambda)
        assert m.fit_drift(chain.kernel, c.v, [c.lam]) == (c.lam, c.b)
    assert got == CORPUS_CERTIFICATES


# --- drift envelope and escape bound --------------------------------------------------------

def test_envelope_values():
    assert drift_envelope(0.5, 1.0, 5.0, 0) == pytest.approx(7.0)
    assert drift_envelope(0.5, 1.0, 5.0, 3) == pytest.approx(2.625)


def test_envelope_dominates_exact_expectation():
    corp = bd_expdrift()
    k, cert = corp.kernel, corp.cert
    rows = np.eye(k.n)
    for t in range(101):
        exact = rows @ cert.v
        env = np.array([drift_envelope(cert.lam, cert.b, v0, t) for v0 in cert.v])
        assert np.all(exact <= env + 1e-9)
        rows = rows @ k.p


def test_escape_bound_values():
    assert m.escape_bound(0.5, 1.0, 250.0, 5.0) == pytest.approx(10.0 / 124.0)
    assert m.escape_bound(0.5, 1.0, 250.0, 1e-12) <= 1e-12
    with pytest.raises(errors.NonpositiveDenominator):
        m.escape_bound(0.9, 5.0, 10.0, 1.0)


@given(st.floats(0.0, 0.9), st.floats(0.0, 5.0), st.floats(0.01, 10.0),
       st.floats(1.0001, 3.0), st.floats(1.0001, 3.0))
@settings(max_examples=200, deadline=None)
def test_escape_bound_under_twelfth_when_compatible(lam, b, rp_scale, rp_margin, r_margin):
    r_prime = max(rp_margin * 2.0 * b / (1.0 - lam), rp_scale)
    r = r_margin * (2.0 * b + 24.0 * r_prime) / (1.0 - lam)
    cert = m.DriftCertificate(v=np.zeros(1), lam=lam, b=b, r=r, r_prime=r_prime)
    assert m.compatibility_check(cert, "theorem2").passed
    assert m.escape_bound(lam, b, r, r_prime) <= 1.0 / 12.0 + 1e-12


# --- contraction solve ------------------------------------------------------------------------

def test_contraction_worked_instance():
    p, rho = m.solve_contraction(1.0 / 3.0, 0.5, 1.0, 5.0)
    assert p == pytest.approx(0.03383, abs=1e-5)
    assert rho == pytest.approx(0.013624, abs=1e-6)
    p_oracle, rho_oracle = contraction_bisection(1.0 / 3.0, 0.5, 1.0, 5.0)
    assert p == pytest.approx(p_oracle, abs=1e-10)
    assert rho == pytest.approx(rho_oracle, abs=1e-10)


def test_contraction_near_threshold():
    lam, b = 0.5, 1.0
    r = 2.0 * b / (1.0 - lam) + 1e-6
    p, rho = m.solve_contraction(0.5, lam, b, r)
    assert 0.0 < p < 1e-4
    assert 0.0 < rho < 1e-4


def test_contraction_eps_near_one_self_check():
    p, rho = m.solve_contraction(0.999, 0.5, 1.0, 5.0)
    a = (1.0 + 2.0 + 2.5) / 6.0
    bb = 8.0
    assert (1.0 - 0.999) ** p == pytest.approx(a ** (1 - p) * bb ** p, abs=1e-10)
    assert (1.0 - 0.999) ** p == pytest.approx(1.0 - rho, abs=1e-12)


def test_contraction_incompatible_radius():
    with pytest.raises(errors.IncompatibleRadius):
        m.solve_contraction(0.5, 0.5, 1.0, 3.9)


@given(st.floats(0.01, 0.99), st.floats(0.0, 0.9), st.floats(0.0, 5.0), st.floats(1.01, 100.0))
@settings(max_examples=200, deadline=None)
def test_contraction_defining_equalities(eps, lam, b, r_factor):
    r = r_factor * (2.0 * b / (1.0 - lam) + 0.05)
    p, rho = m.solve_contraction(eps, lam, b, r)
    assert 0.0 < p < 1.0 and 0.0 < rho < 1.0
    a = (1.0 + 2.0 * b + lam * r) / (1.0 + r)
    bb = 1.0 + 2.0 * (lam * r + b)
    assert abs((1.0 - eps) ** p - a ** (1.0 - p) * bb ** p) <= 1e-10
    assert abs((1.0 - eps) ** p - (1.0 - rho)) <= 1e-10


# --- bound_rhs -----------------------------------------------------------------------------------

def test_bound_rhs_at_zero_is_m_of_x():
    for lam, b, vx in [(0.5, 1.0, 3.0), (0.2, 0.5, 0.0)]:
        rhs = bound_rhs(1.0 / 3.0, lam, b, 10.0 * (1 + b), 0.1, vx, 0)
        assert rhs == pytest.approx(2.0 + b / (1.0 - lam) + vx)


def test_bound_rhs_strictly_decreasing():
    eps, lam, b, r = 1.0 / 3.0, 0.5, 1.0, 5.0
    p, _ = m.solve_contraction(eps, lam, b, r)
    vals = [bound_rhs(eps, lam, b, r, p, 2.0, t) for t in range(30)]
    assert all(a > bb for a, bb in zip(vals, vals[1:]))


# --- certification pipeline -----------------------------------------------------------------------

def test_certify_bd_expdrift_completes():
    corp = bd_expdrift()
    bound = m.certify_drift_and_hit(corp.kernel, corp.cert, variant=corp.variant)
    assert bound.degenerate_restriction  # compact chain: C is everything
    assert bound.source == "pseudo-minorization"
    assert 0.0 < bound.rho < 1.0 and 0.0 < bound.p < 1.0
    assert bound.eps >= 1.0 / 3.0
    assert bound.check_equalities() <= 1e-10


def test_certify_proper_small_set_dominates_tv():
    case = escape_corpus()[0]
    assert case.cert.small_set.size < case.kernel.n
    bound = m.certify_drift_and_hit(case.kernel, case.cert, variant=case.variant)
    pi = m.stationary_distribution(case.kernel)
    rows = np.eye(case.kernel.n)
    for t in range(301):
        tv = 0.5 * np.abs(rows - pi).sum(axis=1)
        limits = np.array([bound.evaluate(v, t) for v in case.cert.v])
        assert np.max(tv - limits) <= 1e-9
        rows = rows @ case.kernel.p


@pytest.mark.parametrize("index", [8, 9])
def test_certify_a_perfect_overlap(index):
    # the jump-home chains' rows agree after T + 1 steps, so the exact overlap is 1;
    # as eps -> 1 the per-T contraction 1 - rho tends to A from above
    case = escape_corpus()[index]
    bound = m.certify_drift_and_hit(case.kernel, case.cert, variant=case.variant)
    a, _ = _contraction_terms(bound.lam_eff, bound.b_eff, bound.r_eff)
    assert bound.source == "pseudo-minorization" and bound.eps < 1.0
    assert 0.0 < bound.rho < 1.0 - a
    assert bound.check_equalities() <= 1e-10


def test_bound_evaluate_on_arrays_matches_scalar_calls():
    corp = bd_expdrift()
    bound = m.certify_drift_and_hit(corp.kernel, corp.cert, variant=corp.variant)
    for t in (0, bound.t, 5 * bound.t + 2):
        scalars = [bound.evaluate(v, t) for v in corp.cert.v]
        assert all(type(x) is float for x in scalars)
        assert bound.evaluate(corp.cert.v, t).tolist() == scalars


def test_certify_bound_equals_lemma_rhs_repackaging():
    corp = bd_expdrift()
    bound = m.certify_drift_and_hit(corp.kernel, corp.cert, variant=corp.variant)
    for vx in (0.0, 1.0, 2.5):
        for t in (0, bound.t, 3 * bound.t + 1):
            lemma = lemma_rhs(bound, vx, t)
            packaged = (1.0 + bound.m_of(vx) - 1.0) * (1.0 - bound.rho) ** (t // bound.t)
            assert lemma == pytest.approx(packaged, rel=1e-9)


def test_certify_rejects_incompatible_certificate():
    corp = bd_expdrift()
    bad = m.DriftCertificate(v=corp.cert.v, lam=corp.cert.lam, b=corp.cert.b,
                             r=corp.cert.r_prime, r_prime=corp.cert.r_prime)
    with pytest.raises(errors.IncompatibleCertificate):
        m.certify_drift_and_hit(corp.kernel, bad, variant=corp.variant)


# states 0 and 1 joined, each with a pendant state far up V (2 on 0, 3 on 1): a
# tree, so reversible, and bipartite, so of period 2.  C = C' = {0, 1}, whose
# restriction holds its escaping mass and mixes, while the base chain's rows from
# 0 and 1 never overlap.
ESCAPE = 0.01
PERIOD_TWO = m.build_finite_kernel([[0, 1 - ESCAPE, ESCAPE, 0], [1 - ESCAPE, 0, 0, ESCAPE],
                                    [1, 0, 0, 0], [0, 1, 0, 0]])
PERIOD_TWO_V = np.array([1.0, 1.0, 6000.0, 6000.0])


@pytest.mark.parametrize("variant", ["mh-restriction", "trace"])
def test_certify_refuses_a_drift_that_fails_on_the_base_chain(variant):
    # PV(0) = 0.99 + 60 exceeds b = 10; the radii follow from (0, 10), so they are compatible
    cert = m.DriftCertificate.with_radii(PERIOD_TWO_V, 0.0, 10.0)
    assert m.compatibility_check(cert, "theorem2").passed
    with pytest.raises(errors.IncompatibleCertificate, match="drift fails on the base chain"):
        m.certify_drift_and_hit(PERIOD_TWO, cert, variant=variant)


@pytest.mark.parametrize("variant", ["mh-restriction", "trace"])
def test_certify_refuses_a_base_chain_without_overlap_at_t_plus_one(variant):
    cert = m.DriftCertificate.with_radii(PERIOD_TWO_V, 0.0, 100.0)
    assert m.verify_drift(PERIOD_TWO, cert.v, cert.lam, cert.b).passed
    assert cert.small_set.tolist() == cert.inner_set.tolist() == [0, 1]
    with pytest.raises(errors.IncompatibleCertificate,
                       match=r"no overlap at T\+1=\d+: pairwise TV is 1"):
        m.certify_drift_and_hit(PERIOD_TWO, cert, variant=variant)


@functools.cache
def _spectral_bound():
    # 1024 states: the restriction C = {V <= r} passes the exact-mixing cap
    k = m.birth_death_chain(EXP, 1.0 / 1024.0)
    v = np.exp(k.states / 2.0)
    cert = m.DriftCertificate.with_radii(v, *m.fit_drift(k, v))
    assert cert.small_set.size > EXACT_OVERLAP_STATE_CAP
    return m.certify_drift_and_hit(k, cert)


def test_certify_spectral_route():
    bound = _spectral_bound()
    assert bound.t_route == "spectral"
    assert bound.check_equalities() <= 1e-10


def test_certify_spectral_bound_is_certified():
    # the removed dtable route gave T = 24 062 246 here, on an unverified constant
    bound = _spectral_bound()
    assert bound.certified is True
    assert bound.t <= 1_000_000
    corp = bd_expdrift()
    exact = m.certify_drift_and_hit(corp.kernel, corp.cert, variant=corp.variant)
    assert exact.t_route == "exact-mixing"
    assert exact.certified is True


def test_certify_spectral_route_certifies_a_chain_off_birth_death():
    n = 600
    k = _independence_mh(n, 0.01)
    cert = tightest_certificate(k, np.arange(n, dtype=float))
    assert cert.small_set.size > EXACT_OVERLAP_STATE_CAP
    bound = m.certify_drift_and_hit(k, cert)
    assert (bound.t_route, bound.certified) == ("spectral", True)
    assert bound.check_equalities() <= 1e-10


def _check_spectral_time(k, pi, starts):
    """The spectral T is at least the exact mixing time from the starts, and
    the exact TV from them at T is at most 1/4."""
    t = _spectral_mixing_time(k.p, pi, starts)
    assert t >= m.mixing_time(k, subset=starts)
    rows = np.linalg.matrix_power(k.p, t)[starts]
    assert 0.5 * np.max(np.abs(rows - pi).sum(axis=1)) <= 0.25


@given(st.integers(2, 40), st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_spectral_time_bounds_the_mixing_time(n, seed, reversible):
    rng = np.random.default_rng(seed)
    k = (random_reversible_chain if reversible else random_dense_chain)(rng, n)
    starts = np.flatnonzero(rng.random(n) < rng.uniform(0.1, 1.0))
    if starts.size == 0:
        starts = np.array([int(rng.integers(n))])
    _check_spectral_time(k, k.stationary, starts)


def test_spectral_time_bounds_the_mixing_time_of_every_corpus_restriction():
    chains = [bd_expdrift()] + escape_corpus()
    for chain in chains:
        C, C_inner = chain.cert.sublevel_sets()
        dom = m.restrict(chain.kernel, C, chain.variant)
        assert dom.kernel.n <= EXACT_OVERLAP_STATE_CAP
        _check_spectral_time(dom.kernel, dom.conditional_stationary,
                             np.searchsorted(C, C_inner))


def test_spectral_time_refuses_a_chain_that_does_not_contract():
    # a permutation cycle never mixes: ||M||_2 = 1
    q = np.roll(np.eye(600), 1, axis=1)
    with pytest.raises(errors.IncompatibleCertificate, match="does not contract"):
        _spectral_mixing_time(q, np.full(600, 1.0 / 600.0), [0])


@pytest.mark.parametrize("q, pi, message", [
    ([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], [0.0, 0.5, 0.5], "zero entry"),
    ([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5], "stationarity residual"),  # pi q = (3/4, 1/4)
])
def test_spectral_time_refuses_a_law_it_cannot_use(q, pi, message):
    with pytest.raises(errors.IncompatibleCertificate, match=message):
        _spectral_mixing_time(np.array(q), np.array(pi), [1])


def test_spectral_time_checks_the_eigendecomposition(monkeypatch):
    eigh = np.linalg.eigh

    def skewed(g):
        mu, vecs = eigh(g)
        return mu, vecs * 1.001

    k = random_reversible_chain(np.random.default_rng(3), 30)
    _spectral_mixing_time(k.p, k.stationary, [0])
    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(errors.ResidualTooLarge):
        _spectral_mixing_time(k.p, k.stationary, [0])


@pytest.mark.parametrize("fit", [m.fit_drift, tightest_certificate])
def test_fits_refuse_a_v_that_is_not_finite(fit):
    k = m.birth_death_chain(EXP, 0.125)
    v = np.concatenate([np.ones(k.n - 1), [np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on V
        with pytest.raises(errors.InvalidParameters, match="V must be finite and nonnegative"):
            fit(k, v)


# every function that takes V with a kernel, fed the kernel and a V
V_TAKERS = {
    "verify_drift": lambda k, v: m.verify_drift(k, v, 0.5, 1.0),
    "fit_drift": m.fit_drift,
    "tightest_certificate": tightest_certificate,
    "certify_drift_and_hit": lambda k, v: m.certify_drift_and_hit(
        k, m.DriftCertificate.with_radii(v, 0.5, 1.0)),
    "certificate_from_config": lambda k, v: harness.certificate_from_config(
        {"v": v.tolist()}, k),
}


@pytest.mark.parametrize("shape", [(7,), (9,), (2, 4)], ids=["short", "long", "2-d"])
@pytest.mark.parametrize("taker", list(V_TAKERS))
def test_a_v_without_one_value_per_state_is_refused(taker, shape):
    # tightest_certificate used to leak numpy's matmul ValueError
    k = m.birth_death_chain(EXP, 0.125)
    message = f"V needs one value per state: shape {shape}, 8 states"
    with pytest.raises(errors.InvalidParameters, match=f"^{re.escape(message)}$"):
        V_TAKERS[taker](k, np.ones(shape))


def test_drift_propagates_to_every_restriction_variant():
    # sublevel restriction can only shrink (PV); same certificate passes
    case = escape_corpus()[8]
    k, cert = case.kernel, case.cert
    C = cert.small_set
    assert C.size < k.n
    for variant in ("mh-restriction", "trace"):
        dom = m.restrict(k, C, variant)
        assert m.verify_drift(dom.kernel, cert.v[C], cert.lam, cert.b).passed


def test_drift_propagates_to_gibbs_restriction():
    rng = np.random.default_rng(5)
    table = rng.uniform(0.2, 2.0, (3, 3))
    k = m.gibbs_grid_kernel(table)
    v = rng.uniform(0.0, 4.0, 9)
    lam, b = m.fit_drift(k, v)
    assert m.verify_drift(k, v, lam, b).passed
    r = np.sort(v)[5]  # sublevel set of the 6 smallest values
    C = np.flatnonzero(v <= r)
    dom = m.restrict(k, C, "gibbs-restriction", pi_table=table)
    assert m.verify_drift(dom.kernel, v[C], lam, b).passed
