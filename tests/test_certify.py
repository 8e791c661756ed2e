import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import errors
from mcergo.certify import multistep_drift_params
from mcergo.corpus import bd_expdrift, escape_corpus, random_dense_chain, tightest_certificate
from oracles import contraction_bisection

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
    assert m.lazy_drift_params(0.6, 2.0) == (0.8, 1.0)
    assert m.lazy_drift_params(0.0, 0.0) == (0.5, 0.0)


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_lazy_drift_propagates(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    v = rng.uniform(0.0, 5.0, n)
    lam, b = m.fit_drift(k, v)
    lam1, b1 = m.lazy_drift_params(lam, b)
    assert m.verify_drift(m.lazy_transform(k), v, lam1, b1).passed


def test_multistep_drift_params():
    lam_t, b_t = multistep_drift_params(0.5, 1.0, 3)
    assert lam_t == 0.125
    assert b_t == pytest.approx(1.75)
    # b/(1 - lambda) is invariant under the composition
    assert b_t / (1.0 - lam_t) == pytest.approx(1.0 / 0.5)


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


# --- drift envelope and escape bound --------------------------------------------------------

def test_envelope_values():
    assert m.drift_envelope(0.5, 1.0, 5.0, 0) == pytest.approx(7.0)
    assert m.drift_envelope(0.5, 1.0, 5.0, 3) == pytest.approx(2.625)


def test_envelope_dominates_exact_expectation():
    corp = bd_expdrift()
    k, cert = corp.kernel, corp.cert
    rows = np.eye(k.n)
    for t in range(101):
        exact = rows @ cert.v
        env = np.array([m.drift_envelope(cert.lam, cert.b, v0, t) for v0 in cert.v])
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
        rhs = m.bound_rhs(1.0 / 3.0, lam, b, 10.0 * (1 + b), 0.1, vx, 0)
        assert rhs == pytest.approx(2.0 + b / (1.0 - lam) + vx)


def test_bound_rhs_strictly_decreasing():
    eps, lam, b, r = 1.0 / 3.0, 0.5, 1.0, 5.0
    p, _ = m.solve_contraction(eps, lam, b, r)
    vals = [m.bound_rhs(eps, lam, b, r, p, 2.0, t) for t in range(30)]
    assert all(a > bb for a, bb in zip(vals, vals[1:]))


# --- DTable and hit_to_mix ------------------------------------------------------------------------

def test_default_dtable_loads():
    table = m.default_dtable()
    d, d_prime = table.lookup(1.0 / 3.0)
    assert d_prime == pytest.approx(1.0 / 12.0)
    assert d_prime <= d


def test_dtable_validation():
    with pytest.raises(errors.DTableInvalid):
        m.DTable(entries=((0.6, 2.0, 1.0, ""),))
    with pytest.raises(errors.DTableInvalid):
        m.DTable(entries=((0.3, 1.0, 2.0, ""),))
    with pytest.raises(errors.DTableInvalid):
        m.DTable(entries=((0.2, 1.0, 0.5, ""), (0.3, 2.0, 0.5, "")))  # d increasing
    table = m.DTable(entries=((0.2, 3.0, 0.5, ""), (0.3, 2.0, 0.5, "")))
    with pytest.raises(errors.MissingAlpha):
        table.lookup(0.25)


def test_dtable_round_trip(tmp_path):
    table = m.DTable(entries=((0.25, 4.0, 0.25, "note"),))
    path = tmp_path / "dtable.json"
    table.save(path)
    assert m.DTable.load(path) == table


def test_hit_to_mix_bounds():
    table = m.DTable(entries=((1.0 / 3.0, 20.0, 1.0 / 12.0, ""),))
    upper, lower = m.hit_to_mix(50.0, 1.0 / 3.0, table)
    assert upper == pytest.approx(1000.0)
    assert lower == pytest.approx(50.0 / 12.0)
    assert m.hit_to_mix(0.0, 1.0 / 3.0, table) == (0.0, 0.0)


def test_dtable_sandwich_consistent_on_corpus():
    # d' t_H <= t_L <= d t_H checked against exact values; a failure here
    # indicts the shipped table entries (data), not the solvers
    table = m.default_dtable()
    d, d_prime = table.lookup(1.0 / 3.0)
    for c in (0.25, 0.125):
        k = m.birth_death_chain(EXP, c)
        t_l = m.mixing_time(k, lazy=True)
        t_h = m.max_hitting_time(k, 1.0 / 3.0, strategy="interval").t_h
        assert d_prime * t_h <= t_l + 1e-9
        assert t_l <= d * t_h + 1e-9


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
            lemma = bound.lemma_rhs(vx, t)
            packaged = (1.0 + bound.m_of(vx) - 1.0) * (1.0 - bound.rho) ** (t // bound.t)
            assert lemma == pytest.approx(packaged, rel=1e-9)


def test_certify_rejects_incompatible_certificate():
    corp = bd_expdrift()
    bad = m.DriftCertificate(v=corp.cert.v, lam=corp.cert.lam, b=corp.cert.b,
                             r=corp.cert.r_prime, r_prime=corp.cert.r_prime)
    with pytest.raises(errors.IncompatibleCertificate):
        m.certify_drift_and_hit(corp.kernel, bad, variant=corp.variant)


def test_certify_dtable_route():
    corp = bd_expdrift()
    bound = m.certify_drift_and_hit(
        corp.kernel, corp.cert, variant=corp.variant,
        dtable=m.default_dtable(), t_route="dtable",
    )
    assert bound.t_route == "dtable"
    assert bound.check_equalities() <= 1e-10


def test_certify_dtable_bound_is_uncertified():
    corp = bd_expdrift()
    bound = m.certify_drift_and_hit(
        corp.kernel, corp.cert, variant=corp.variant,
        dtable=m.default_dtable(), t_route="dtable",
    )
    # T rests on the table's unverified upper constant d
    assert bound.certified is False
    assert bound.to_dict()["certified"] is False
    exact = m.certify_drift_and_hit(corp.kernel, corp.cert, variant=corp.variant)
    assert exact.t_route == "exact-mixing"
    assert exact.certified is True


def test_certify_dtable_route_uses_brute_off_birth_death():
    # a dense independence sampler on 10 states: C is the whole space
    n = 10
    proposal = m.build_finite_kernel(np.full((n, n), 1.0 / n), states=np.linspace(0.0, 1.0, n),
                                     reversible_wrt=np.full(n, 1.0 / n))
    k = m.mh_grid_kernel(np.exp(-0.3 * np.arange(n)), proposal)
    cert = tightest_certificate(k, np.arange(n, dtype=float))
    table = m.default_dtable()
    bound = m.certify_drift_and_hit(k, cert, variant="mh-restriction", dtable=table,
                                    t_route="dtable")
    t_h = m.max_hitting_time(k, 1.0 / 3.0, strategy="brute").t_h
    d, _ = table.lookup(1.0 / 3.0)
    assert bound.t == int(np.ceil(d * t_h)) + 1
    # a dense restriction beyond the enumeration cap is refused, not bounded below
    case = escape_corpus()[0]
    assert case.cert.small_set.size > 14
    with pytest.raises(errors.TooManyStates):
        m.certify_drift_and_hit(case.kernel, case.cert, variant=case.variant,
                                dtable=table, t_route="dtable")


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
