import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import chain_analysis, errors, kernels
from mcergo.corpus import (
    escape_corpus,
    random_dense_chain,
    random_positive_table,
    random_reversible_chain,
)
from mcergo.kernels import _check_detailed_balance, _gibbs_matrix
from oracles import (
    ball_walk_step_clipped,
    gibbs_restricted_loop,
    hitting_solve,
    lazy_srw_loop,
    stationary_power,
    trace_transition_frequency,
)

UNIFORM = m.DensitySpec(kind="uniform", unimodal_ratio=1.0)
EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)


# --- build_finite_kernel ---------------------------------------------------

def test_build_single_state():
    k = m.build_finite_kernel([[1.0]])
    assert k.n == 1 and k.p[0, 0] == 1.0


def test_build_rejects_bad_row_sum():
    with pytest.raises(errors.RowSumViolation):
        m.build_finite_kernel([[0.5, 0.6], [0.5, 0.5]])


def test_build_rejects_negative_entry():
    with pytest.raises(errors.NegativeEntry):
        m.build_finite_kernel([[1.1, -0.1], [0.5, 0.5]])


def test_build_rejects_non_square():
    with pytest.raises(errors.DimensionMismatch):
        m.build_finite_kernel([[0.5, 0.5]])


@pytest.mark.parametrize("p, error, message", [
    ([[2.0, -1.0], [0.5, 0.5]], errors.NegativeEntry, r"at \(0, 1\)"),
    ([[0.5, 0.5]], errors.DimensionMismatch, "must be square"),
    (np.ones((0, 0)), errors.DimensionMismatch, "must be square"),
    ([[0.5, np.nan], [0.5, 0.5]], errors.DimensionMismatch, "non-finite"),
    ([[0.5, 0.5], [0.5, 0.5 + 1e-11]], errors.RowSumViolation, "row 1 sums to"),
    ([[1.0], [0.5, 0.5]], errors.DimensionMismatch, "not a rectangular array"),
])
def test_kernel_refuses_a_matrix_that_is_not_stochastic(p, error, message):
    with pytest.raises(error, match=message):
        m.FiniteKernel(p)


def test_kernel_refuses_states_that_do_not_fit():
    with pytest.raises(errors.DimensionMismatch, match="states length"):
        m.FiniteKernel(np.eye(2), states=[0.0, 0.5, 1.0])
    with pytest.raises(errors.StatesNotOrdered):
        m.FiniteKernel(np.eye(2), states=[0.5, 0.5])


def test_build_renormalizes_tiny_deviation_only():
    p = np.array([[0.5, 0.5 + 2e-10], [0.25, 0.75]])
    k = m.build_finite_kernel(p)
    assert abs(k.p[0].sum() - 1.0) < 1e-12
    with pytest.raises(errors.RowSumViolation):
        m.build_finite_kernel([[0.5, 0.5 + 1e-8], [0.25, 0.75]])


@pytest.mark.parametrize("seed,n", [(5, 6), (0, 3), (11, 40)])
def test_build_keeps_stochastic_rows_bit_for_bit(seed, n):
    # rows already stochastic to rounding are not divided by their sums again
    k = random_dense_chain(np.random.default_rng(seed), n)
    again = m.build_finite_kernel(k.p)
    assert again == k
    assert np.array_equal(again.p, k.p)


def test_build_divides_only_the_rows_off_by_more_than_rounding():
    # row 0 sums to 1 - 2^-53, and dividing it by that sum would move its bits
    rows = np.array([[0.7, 0.2, 0.1], [0.5, 0.5 + 2e-10, 0.0], [0.3, 0.3, 0.4]])
    k = m.build_finite_kernel(rows)
    assert np.array_equal(k.p[[0, 2]], rows[[0, 2]])
    assert np.array_equal(k.p[1], rows[1] / rows[1].sum())


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


def test_state_set_is_the_sorted_distinct_states():
    k = m.build_finite_kernel(np.full((4, 4), 0.25))
    assert k.state_set([3, 1, 3], "state").tolist() == [1, 3]
    assert k.state_set({2, 0}, "state").tolist() == [0, 2]
    assert k.state_set(np.array([3], dtype=np.uint8), "state").tolist() == [3]
    empty = k.state_set([], "state")
    assert empty.size == 0 and empty.dtype.kind == "i"
    with pytest.raises(ValueError, match="start 4 is not a state of this 4-state chain"):
        k.state_set([0, 4], "start")


# --- the stationary law -------------------------------------------------------

def _counting_solves(monkeypatch):
    solved = []
    solve = chain_analysis.stationary_distribution

    def counted(k):
        solved.append(k)
        return solve(k)

    monkeypatch.setattr(chain_analysis, "stationary_distribution", counted)
    return solved


def test_stationary_is_the_read_only_solve_kept_on_the_kernel(monkeypatch):
    solved = _counting_solves(monkeypatch)
    k = random_dense_chain(np.random.default_rng(4), 7)
    pi = k.stationary
    assert np.array_equal(pi, m.stationary_distribution(k))  # bit for bit
    assert not pi.flags.writeable
    with pytest.raises(ValueError):
        pi[0] = 1.0
    assert k.stationary is pi
    assert solved == [k]  # m.stationary_distribution is the unpatched function
    # an equal kernel is another object, with its own solve
    again = m.build_finite_kernel(k.p)
    assert again == k and np.array_equal(again.stationary, pi)
    assert len(solved) == 2


def test_stationary_of_a_reducible_kernel_raises_on_every_read(monkeypatch):
    solved = _counting_solves(monkeypatch)
    k = m.build_finite_kernel(np.eye(2))
    for _ in range(2):
        with pytest.raises(errors.Reducible, match="^kernel has 2 closed classes$"):
            k.stationary
    assert solved == [k]  # the refusal is kept, not solved again


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


@pytest.mark.parametrize("inverse", [2, 3, 6, 8, 16, 64, 128, 256])
def test_lazy_srw_matches_the_row_by_row_loop(inverse):
    k = m.lazy_srw(1.0 / inverse)
    assert np.array_equal(k.p, lazy_srw_loop(1.0 / inverse))
    assert np.array_equal(k.states, np.arange(inverse) * (1.0 / inverse))


# --- Metropolis-Hastings grid kernel ------------------------------------------------

def test_mh_uniform_target_returns_proposal():
    prop = m.lazy_srw(0.25)
    k = m.mh_grid_kernel(UNIFORM, prop)
    assert np.allclose(k.p, prop.p, atol=1e-15)


def test_mh_two_state_example():
    prop = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]], states=[0.0, 1.0])
    k = m.mh_grid_kernel(np.array([1.0, 2.0]), prop)
    assert np.allclose(k.p, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)


def test_mh_rejects_unreversible_proposal():
    # directed 3-cycle: uniform stationary law but no detailed balance
    prop = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                                 states=[0.0, 0.5, 1.0])
    with pytest.raises(errors.ProposalNotReversible, match="detailed balance violated by"):
        m.mh_grid_kernel(np.array([1.0, 1.0, 1.0]), prop)


def test_mh_rejects_grid_mismatch():
    prop = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(errors.GridMismatch):
        m.mh_grid_kernel(np.array([1.0, 2.0, 3.0]), prop)
    with pytest.raises(errors.GridMismatch):
        m.mh_grid_kernel(UNIFORM, prop)  # no coordinates on the proposal


@pytest.mark.parametrize("rows, message", [
    # state 0 is transient: the move 0 -> 1 is never reversed
    ([[0.5, 0.5], [0.0, 1.0]], "violated by the move 0 -> 1, which is never reversed"),
    # every move is reversible, but 0 -> 1 -> 2 -> 0 is likelier than its reverse
    ([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]], r"detailed balance violated by \d"),
], ids=["transient-state", "cycle-with-a-drift"])
def test_mh_refuses_a_proposal_that_no_positive_law_balances(rows, message):
    prop = m.build_finite_kernel(rows)
    with pytest.raises(errors.ProposalNotReversible, match=message):
        m.mh_grid_kernel(np.arange(1.0, len(rows) + 1.0), prop)


def test_mh_refuses_a_reducible_proposal():
    # two closed classes {0, 1} and {2, 3}: the proposal has no single stationary law
    prop = m.build_finite_kernel([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                                  [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]])
    with pytest.raises(errors.Reducible):
        m.mh_grid_kernel(np.array([1.0, 2.0, 3.0, 4.0]), prop)


def _symmetric_proposal(rng, n):
    w = rng.uniform(0.1, 1.0, (n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    q = w / (w.sum(axis=1).max() * 1.2)
    np.fill_diagonal(q, 1.0 - q.sum(axis=1))
    return m.build_finite_kernel(q)


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mh_detailed_balance(n, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 3.0, n)
    k = m.mh_grid_kernel(weights, _symmetric_proposal(rng, n))
    pi = weights / weights.sum()
    flux = pi[:, None] * k.p
    assert np.max(np.abs(flux - flux.T)) <= 1e-12


# --- reversibility of every builder ------------------------------------------------

REVERSIBLE_BUILDERS = {
    "two-state-symmetric": lambda: m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]]),
    "birth-death": lambda: m.birth_death_chain(EXP, 1.0 / 16.0),
    "lazy-srw": lambda: m.lazy_srw(1.0 / 16.0),
    "lazy-transform": lambda: m.lazy_transform(m.birth_death_chain(EXP, 1.0 / 16.0)),
    "mh-grid": lambda: m.mh_grid_kernel(EXP, m.lazy_srw(1.0 / 16.0)),
    "mh-grid-nonuniform-proposal": lambda: m.mh_grid_kernel(
        np.linspace(1.0, 2.0, 16), m.birth_death_chain(EXP, 1.0 / 16.0)),
    "gibbs-one-row": lambda: m.gibbs_grid_kernel([[0.1, 0.4, 0.5]]),
    "gibbs-2d": lambda: m.gibbs_grid_kernel(
        random_positive_table(np.random.default_rng(5), 3, 4)),
    "random-reversible": lambda: random_reversible_chain(np.random.default_rng(9), 6),
    **{f"escape-{i}": (lambda i=i: escape_corpus()[i].kernel) for i in range(10)},
}


@pytest.mark.parametrize("name", list(REVERSIBLE_BUILDERS))
def test_every_builder_is_reversible_for_its_stationary_law(name):
    """Detailed balance pi_i P_ij = pi_j P_ji holds within 1e-12 for pi = k.stationary.

    escape-0..7 are independence Metropolis chains, escape-8 and escape-9 jump-home chains."""
    k = REVERSIBLE_BUILDERS[name]()
    _check_detailed_balance(k.p, k.stationary)


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


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gibbs_matrix_matches_the_cell_by_cell_loop(n1, n2, seed):
    rng = np.random.default_rng(seed)
    table = random_positive_table(rng, n1, n2)
    S = np.sort(rng.choice(n1 * n2, int(rng.integers(1, n1 * n2 + 1)), replace=False))
    # the masses are summed in another order: a few ulps apart at most
    rtol = 16 * np.finfo(float).eps
    np.testing.assert_allclose(_gibbs_matrix(table, S), gibbs_restricted_loop(table, S),
                               rtol=rtol, atol=0.0)
    np.testing.assert_allclose(m.gibbs_grid_kernel(table).p,
                               gibbs_restricted_loop(table, np.arange(n1 * n2)),
                               rtol=rtol, atol=0.0)


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
    u1 = np.array([0.0, 0.3, 0.99])
    y = s.batch_step(np.full(3, 0.5), u1, np.full(3, 0.999999))
    assert np.array_equal(y, 0.5 + s.c * (2.0 * u1 - 1.0))


def test_ball_walk_rejects_out_of_range():
    s = m.ball_walk_sampler(UNIFORM, 1.0 / 8.0)
    # proposals -c/2 < 0 and 1 + c/2 > 1 stay, even at an acceptance draw of 0
    y = s.batch_step(np.array([0.0, 1.0, 0.5]), np.array([0.25, 0.75, 0.25]), np.zeros(3))
    assert np.array_equal(y, [0.0, 1.0, 0.5 - s.c / 2.0])


# flat on [0.3, 0.6], where the density ratio of two points is exactly 1
PIECEWISE = m.DensitySpec(kind="piecewise-linear-table",
                          params={"xs": (0.0, 0.3, 0.6, 1.0), "ys": (1.0, 2.5, 2.5, 0.5)})
BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest draw


def _ball_walk_draws(per_walker_c):
    """(xs, c, u1, u2): random steps, then the edge cases of the step at c = 1/2.

    The edge proposals land exactly on 0 and 1, one ulp outside each, and
    from 0.4 on 0.45, each with u2 = 0 and u2 just below 1.
    """
    rng = np.random.default_rng(5)
    n = 3000
    xs, u1, u2 = rng.random(n), rng.random(n), rng.random(n)
    xs[:50], xs[50:100] = 0.0, 1.0
    edges = [(0.5, 0.0), (0.75, 0.75), (0.0, 0.5 - 2.0**-54), (1.0, 0.5 + 2.0**-52), (0.4, 0.55)]
    ex = np.repeat([x for x, _ in edges], 2)
    eu1 = np.repeat([u for _, u in edges], 2)
    eu2 = np.tile([0.0, BELOW_ONE], len(edges))
    y = ex + 0.5 * (2.0 * eu1 - 1.0)
    assert y[:8:2].tolist() == [0.0, 1.0, -2.0**-54, 1.0 + 2.0**-52]
    assert 0.3 < y[-1] < 0.6
    if per_walker_c:
        c = np.concatenate((rng.choice([1.0 / 2.0, 1.0 / 6.0, 1.0 / 8.0, 1.0 / 64.0], n),
                            np.full(ex.size, 0.5)))
    else:
        c = 0.5
    return (np.concatenate((xs, ex)), c, np.concatenate((u1, eu1)),
            np.concatenate((u2, eu2)))


class _SpyDensity:
    """A density that records every point its pdf is evaluated at."""

    def __init__(self, density):
        self.density, self.points = density, []

    def pdf(self, x):
        self.points.append(np.array(x, dtype=float))
        return self.density.pdf(x)


@pytest.mark.parametrize("per_walker_c", [False, True], ids=["scalar-c", "c-per-walker"])
@pytest.mark.parametrize("psi", [EXP, UNIFORM, PIECEWISE],
                         ids=["exp-tilt", "uniform", "piecewise"])
def test_batch_step_is_the_clipped_min_one_step_bit_for_bit(psi, per_walker_c):
    # u2 < 1, so u2 <= min{1, r} exactly when u2 <= r; a proposal outside
    # [0, 1] is refused whatever density value it is paired with
    xs, c, u1, u2 = _ball_walk_draws(per_walker_c)
    spy = _SpyDensity(psi)
    got = m.ContinuousSampler1D(spy, c).batch_step(xs, u1, u2)
    want = ball_walk_step_clipped(psi, c, xs, u1, u2)
    assert got.tobytes() == want.tobytes()
    points = np.concatenate(spy.points)
    assert points.size == 2 * xs.size
    assert ((points >= 0.0) & (points <= 1.0)).all()  # never evaluated outside [0, 1]
    assert 0 < (got != xs).sum() < xs.size
    # proposals on 0 and 1 are accepted at u2 = 0; the ones an ulp outside never are
    assert got[[-10, -8]].tolist() == [0.0, 1.0]
    assert got[-6:-2].tolist() == [0.0, 0.0, 1.0, 1.0]
    y = 0.4 + 0.5 * (2.0 * 0.55 - 1.0)
    if psi is EXP:  # ratio below 1: accepted at u2 = 0, refused at the largest draw
        assert got[-2:].tolist() == [y, 0.4]
    else:  # ratio exactly 1: accepted even at the largest draw
        assert psi.pdf(y) / psi.pdf(0.4) == 1.0
        assert got[-2:].tolist() == [y, y]


def test_ball_walk_paths_bit_identical():
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    p1 = m.sample_path(s, 0.5, 300, seed=123)
    p2 = m.sample_path(s, 0.5, 300, seed=123)
    assert np.array_equal(p1, p2)
    p3 = m.sample_path(s, 0.5, 300, seed=124)
    assert not np.array_equal(p1, p3)


def test_ball_walk_occupation_frequency_matches_quadrature():
    # target mass of [0, 1/2] for psi ~ exp(-x), via the closed form; walkers
    # start from psi itself (inverse CDF), so each step must keep the mass
    target = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    walkers, n_steps = 1000, 1000
    rng = np.random.default_rng(2024)
    xs = -np.log1p(-rng.random(walkers) * (1.0 - math.exp(-1.0)))
    occupied = np.zeros(walkers)
    for _ in range(n_steps):
        xs = s.batch_step(xs, rng.random(walkers), rng.random(walkers))
        occupied += xs <= 0.5
    per_walker = occupied / n_steps  # independent chains
    freq = per_walker.mean()
    stderr = per_walker.std(ddof=1) / math.sqrt(walkers)
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


def test_restrict_trace_refuses_a_chain_above_its_cap(monkeypatch):
    # a size cap, like BRUTE_STATE_CAP and MIXING_POWER_BYTES, not a malformed matrix
    monkeypatch.setattr(kernels, "TRACE_STATE_CAP", 4)
    k = random_dense_chain(np.random.default_rng(2), 6)
    with pytest.raises(errors.TooManyStates, match="capped at 4 states"):
        m.restrict(k, [0, 1, 2], "trace")


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
        m.restrict(absorbing, [0, 1], "trace")


@pytest.mark.parametrize("subset", [[4, 5], [0, 1]])
def test_gibbs_restriction_refuses_a_table_of_another_size(subset):
    # a 2 x 2 table for the 6 states of a 2 x 3 grid: a bare IndexError for
    # [4, 5], and a restriction of the wrong table for [0, 1]
    k = m.gibbs_grid_kernel(np.ones((2, 3)))
    with pytest.raises(errors.DimensionMismatch, match="4 cells for 6 states"):
        m.restrict(k, subset, "gibbs-restriction", pi_table=np.ones((2, 2)))


@pytest.mark.parametrize("subset", [[0, 4], [1, 3]])
def test_gibbs_restriction_refuses_a_table_of_another_shape(subset):
    # the six cells of a 2 x 3 table laid out 3 x 2 put the two cells of S
    # in one line, so that restriction moves; in the 2 x 3 table they share
    # no row or column, and the restriction is the identity
    table = np.arange(1.0, 7.0).reshape(2, 3)
    k = m.gibbs_grid_kernel(table)
    with pytest.raises(errors.DimensionMismatch, match="does not give this kernel"):
        m.restrict(k, subset, "gibbs-restriction", pi_table=table.reshape(3, 2))
    for same in (table, 2.5 * table):
        dom = m.restrict(k, subset, "gibbs-restriction", pi_table=same)
        assert np.array_equal(dom.kernel.p, np.eye(2))


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
