import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import errors
from mcergo.corpus import (
    random_dense_chain,
    random_positive_table,
    random_reversible_chain,
)
from oracles import hitting_solve, stationary_power, trace_transition_frequency

UNIFORM = m.DensitySpec(kind="uniform", unimodal_ratio=1.0)
EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)


# --- build_finite_kernel ---------------------------------------------------

def test_build_single_state():
    k = m.build_finite_kernel([[1.0]])
    assert k.n == 1 and k.p[0, 0] == 1.0


def test_build_symmetric_two_state_reversible():
    k = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]], reversible_wrt=[0.5, 0.5])
    assert np.allclose(k.p, 0.5)


def test_build_rejects_bad_row_sum():
    with pytest.raises(errors.RowSumViolation):
        m.build_finite_kernel([[0.5, 0.6], [0.5, 0.5]])


def test_build_rejects_negative_entry():
    with pytest.raises(errors.NegativeEntry):
        m.build_finite_kernel([[1.1, -0.1], [0.5, 0.5]])


def test_build_rejects_non_square():
    with pytest.raises(errors.DimensionMismatch):
        m.build_finite_kernel([[0.5, 0.5]])


def test_build_renormalizes_tiny_deviation_only():
    p = np.array([[0.5, 0.5 + 2e-10], [0.25, 0.75]])
    k = m.build_finite_kernel(p)
    assert abs(k.p[0].sum() - 1.0) < 1e-12
    with pytest.raises(errors.RowSumViolation):
        m.build_finite_kernel([[0.5, 0.5 + 1e-8], [0.25, 0.75]])


def test_build_requires_sorted_states():
    with pytest.raises(errors.StatesNotOrdered):
        m.build_finite_kernel(np.eye(2), states=[0.5, 0.25])


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rows_stochastic_after_build(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    assert np.max(np.abs(k.p.sum(axis=1) - 1.0)) <= 1e-12
    assert k.p.min() >= 0.0


# --- lazy transform -----------------------------------------------------------

def test_lazy_identity_fixed_point():
    k = m.build_finite_kernel(np.eye(3))
    assert np.array_equal(m.lazy_transform(k).p, np.eye(3))


def test_lazy_flip_chain():
    k = m.build_finite_kernel([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(m.lazy_transform(k).p, [[0.5, 0.5], [0.5, 0.5]])


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_lazy_preserves_stationary(n, seed):
    k = random_dense_chain(np.random.default_rng(seed), n)
    pi = m.stationary_distribution(k)
    pi_lazy = m.stationary_distribution(m.lazy_transform(k))
    assert np.allclose(pi, pi_lazy, atol=1e-10)


# --- birth-death discretization --------------------------------------------------

def test_birth_death_uniform_rows():
    k = m.birth_death_chain(UNIFORM, 0.25)
    expected = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    assert np.allclose(k.p, expected, atol=1e-15)


def test_birth_death_exponential_up_probability():
    # 0.5 * exp(-1/4), evaluated with the stdlib exponential
    k = m.birth_death_chain(EXP, 0.25)
    up = 0.5 * math.exp(-0.25)
    assert up == pytest.approx(0.38940039153570244, abs=1e-16)
    for i in range(3):
        assert k.p[i, i + 1] == pytest.approx(up, abs=1e-15)
        assert k.p[i + 1, i] == pytest.approx(0.5, abs=1e-15)


def test_birth_death_stationary_is_normalized_density():
    c = 1.0 / 8.0
    k = m.birth_death_chain(EXP, c)
    up = np.array([k.p[i, i + 1] for i in range(k.n - 1)])
    down = np.array([0.0] + [k.p[i, i - 1] for i in range(1, k.n)])
    telescoped = np.ones(k.n)
    for i in range(k.n - 1):
        telescoped[i + 1] = telescoped[i] * up[i] / down[i + 1]
    telescoped /= telescoped.sum()
    grid_density = EXP.grid_values(c)
    grid_density /= grid_density.sum()
    assert np.allclose(telescoped, grid_density, atol=1e-12)
    assert np.allclose(k.reversible_wrt, grid_density, atol=1e-12)
    assert np.allclose(m.stationary_distribution(k), grid_density, atol=1e-10)


def test_density_rejects_nonpositive_table():
    with pytest.raises(errors.DensityNonpositive):
        m.DensitySpec(kind="piecewise-linear-table",
                      params={"xs": (0.0, 0.5, 1.0), "ys": (1.0, -0.2, 1.0)})


# --- lazy simple random walk ------------------------------------------------------

def test_lazy_srw_two_states():
    k = m.lazy_srw(0.5)
    assert np.array_equal(k.p, [[0.75, 0.25], [0.25, 0.75]])


def test_lazy_srw_uniform_stationary():
    k = m.lazy_srw(0.25)
    assert np.allclose(m.stationary_distribution(k), 0.25, atol=1e-12)


def test_lazy_srw_expected_hitting_far_end():
    # linear-solve oracle: hold-at-boundary convention gives 24 for c = 1/4
    k = m.lazy_srw(0.25)
    assert hitting_solve(k.p, [3])[0] == pytest.approx(24.0, abs=1e-9)
    assert m.expected_hitting(k, [3])[0] == pytest.approx(24.0, abs=1e-9)


def test_lazy_srw_is_lazified_uniform_birth_death():
    c = 1.0 / 8.0
    walk = m.birth_death_chain(UNIFORM, c)
    assert np.allclose(m.lazy_transform(walk).p, m.lazy_srw(c).p, atol=1e-15)


# --- Metropolis-Hastings grid kernel ------------------------------------------------

def test_mh_uniform_target_returns_proposal():
    prop = m.lazy_srw(0.25)
    k = m.mh_grid_kernel(UNIFORM, prop)
    assert np.allclose(k.p, prop.p, atol=1e-15)


def test_mh_two_state_example():
    prop = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]],
                                 states=[0.0, 1.0], reversible_wrt=[0.5, 0.5])
    k = m.mh_grid_kernel(np.array([1.0, 2.0]), prop)
    assert np.allclose(k.p, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)


def test_mh_rejects_unreversible_proposal():
    # directed 3-cycle: uniform stationary law but no detailed balance
    prop = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                                 states=[0.0, 0.5, 1.0])
    with pytest.raises(errors.ProposalNotReversible, match="detailed balance violated by"):
        m.mh_grid_kernel(np.array([1.0, 1.0, 1.0]), prop)


def test_mh_rejects_grid_mismatch():
    prop = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]], reversible_wrt=[0.5, 0.5])
    with pytest.raises(errors.GridMismatch):
        m.mh_grid_kernel(np.array([1.0, 2.0, 3.0]), prop)
    with pytest.raises(errors.GridMismatch):
        m.mh_grid_kernel(UNIFORM, prop)  # no coordinates on the proposal


def _symmetric_proposal(rng, n):
    w = rng.uniform(0.1, 1.0, (n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    q = w / (w.sum(axis=1).max() * 1.2)
    np.fill_diagonal(q, 1.0 - q.sum(axis=1))
    return m.build_finite_kernel(q, reversible_wrt=np.full(n, 1.0 / n))


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mh_detailed_balance(n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, n)
    k = m.mh_grid_kernel(weights, _symmetric_proposal(rng, n))
    pi = weights / weights.sum()
    flux = pi[:, None] * k.p
    assert np.max(np.abs(flux - flux.T)) <= 1e-12


# --- Gibbs grid kernel ------------------------------------------------------------

def test_gibbs_single_row_resamples_exactly():
    table = np.array([[0.1, 0.4, 0.5]])
    k = m.gibbs_grid_kernel(table)
    pi = table.ravel() / table.sum()
    for row in k.p:
        assert np.allclose(row, pi, atol=1e-15)


def test_gibbs_two_by_two_uniform():
    k = m.gibbs_grid_kernel(np.full((2, 2), 0.25))
    expected = np.array([
        [0.5, 0.25, 0.25, 0.0],
        [0.25, 0.5, 0.0, 0.25],
        [0.25, 0.0, 0.5, 0.25],
        [0.0, 0.25, 0.25, 0.5],
    ])
    assert np.allclose(k.p, expected, atol=1e-15)


def test_gibbs_rejects_zero_cell():
    with pytest.raises(errors.ZeroProbabilityCell):
        m.gibbs_grid_kernel([[0.5, 0.0], [0.25, 0.25]])


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_gibbs_stationary_matches_table(n1, n2, seed):
    table = random_positive_table(np.random.default_rng(seed), n1, n2)
    k = m.gibbs_grid_kernel(table)
    pi = (table / table.sum()).ravel()
    assert np.allclose(stationary_power(k.p), pi, atol=1e-9)
    assert np.allclose(m.stationary_distribution(k), pi, atol=1e-10)


# --- ball walk ---------------------------------------------------------------------

def test_ball_walk_accepts_interior_uniform_proposals():
    s = m.ball_walk_sampler(UNIFORM, 1.0 / 16.0)
    x = 0.5
    for u1 in (0.0, 0.3, 0.99):
        y = s.step(x, u1, 0.999999)
        assert y == x + s.c * (2.0 * u1 - 1.0)


def test_ball_walk_rejects_out_of_range():
    s = m.ball_walk_sampler(UNIFORM, 1.0 / 8.0)
    assert s.step(0.0, 0.25, 0.0) == 0.0  # proposal -c/2 < 0: stay


def test_ball_walk_paths_bit_identical():
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    p1 = m.sample_path(s, 0.5, 300, seed=123)
    p2 = m.sample_path(s, 0.5, 300, seed=123)
    assert np.array_equal(p1, p2)
    p3 = m.sample_path(s, 0.5, 300, seed=124)
    assert not np.array_equal(p1, p3)


def test_ball_walk_occupation_frequency_matches_quadrature():
    # target mass of [0, 1/2] for psi ~ exp(-x), via the closed form
    target = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    n_steps = 1_000_000
    path = m.sample_path(s, 0.5, n_steps, seed=2024)
    occupied = (path[1:] <= 0.5).astype(float)
    batches = occupied.reshape(100, -1).mean(axis=1)
    freq = batches.mean()
    stderr = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(freq - target) <= 3.0 * stderr


# --- restrictions -------------------------------------------------------------------

def test_restrict_mh_hand_example():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    dom = m.restrict(k, [0, 1], "mh-restriction")
    assert np.allclose(dom.kernel.p, [[2/3, 1/3], [1/3, 2/3]], atol=1e-15)


def test_restrict_trace_hand_example():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    dom = m.restrict(k, [0, 1], "trace")
    assert np.allclose(dom.kernel.p, 0.5, atol=1e-14)


def test_restrict_trace_matches_censored_simulation():
    rng = np.random.default_rng(11)
    k = random_dense_chain(rng, 4)
    dom = m.restrict(k, [0, 2], "trace")
    freq = trace_transition_frequency(k.p, [0, 2], steps=200_000, seed=5)
    assert np.max(np.abs(freq - dom.kernel.p)) < 0.02


def test_restrict_full_subset_is_identity():
    rng = np.random.default_rng(3)
    k = random_reversible_chain(rng, 4)
    table = random_positive_table(rng, 2, 2)
    gk = m.gibbs_grid_kernel(table)
    for variant, kernel, kwargs in [
        ("mh-restriction", k, {}),
        ("trace", k, {}),
        ("gibbs-restriction", gk, {"pi_table": table}),
    ]:
        dom = m.restrict(kernel, range(kernel.n), variant, **kwargs)
        assert np.allclose(dom.kernel.p, kernel.p, atol=1e-12)


def test_restrict_errors():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(errors.EmptySubset):
        m.restrict(k, [], "mh-restriction")
    absorbing = m.build_finite_kernel([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]])
    with pytest.raises(errors.SingularCensoring):
        m.restrict(absorbing, [0, 1], "trace", base_stationary=np.array([0.0, 0.0, 1.0]))


@given(st.integers(3, 7), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_restrict_domination_and_stationarity_mh(n, seed):
    rng = np.random.default_rng(seed)
    k = random_reversible_chain(rng, n)
    size = int(rng.integers(1, n))
    subset = np.sort(rng.choice(n, size=size, replace=False))
    dom = m.restrict(k, subset, "mh-restriction")
    _check_dominated(k, dom)


@given(st.integers(3, 7), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_restrict_domination_and_stationarity_trace(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    size = int(rng.integers(1, n))
    subset = np.sort(rng.choice(n, size=size, replace=False))
    dom = m.restrict(k, subset, "trace")
    _check_dominated(k, dom)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_restrict_domination_and_stationarity_gibbs(n1, n2, seed):
    rng = np.random.default_rng(seed)
    table = random_positive_table(rng, n1, n2)
    k = m.gibbs_grid_kernel(table)
    n = n1 * n2
    size = int(rng.integers(1, n))
    subset = np.sort(rng.choice(n, size=size, replace=False))
    dom = m.restrict(k, subset, "gibbs-restriction", pi_table=table)
    _check_dominated(k, dom)


def _check_dominated(k, dom):
    S = dom.support
    base = k.p[np.ix_(S, S)]
    assert np.min(dom.kernel.p - base) >= -1e-12
    pi_s = dom.conditional_stationary
    assert np.max(np.abs(pi_s @ dom.kernel.p - pi_s)) <= 1e-10
    assert abs(pi_s.sum() - 1.0) <= 1e-12


# --- serialization -------------------------------------------------------------------

def test_kernel_csv_round_trip(tmp_path):
    k = m.birth_death_chain(EXP, 0.25)
    path = tmp_path / "kernel.csv"
    m.kernel_to_csv(k, path)
    back = m.kernel_from_csv(path)
    assert np.array_equal(back.p, k.p)
    assert np.array_equal(back.states, k.states)
    # an abstract chain keeps states=None instead of gaining 0..n-1
    k = random_dense_chain(np.random.default_rng(5), 6)
    m.kernel_to_csv(k, path)
    back = m.kernel_from_csv(path)
    assert back == k
    assert back.states is None
