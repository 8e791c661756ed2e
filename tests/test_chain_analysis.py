import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import chain_analysis, errors
from mcergo.corpus import escape_corpus, random_dense_chain, random_density
from oracles import (
    brute_max_hitting,
    closed_classes_scc,
    decoupling_exact,
    hitting_solve,
    interval_scan,
    mixing_scan,
    mixing_step_scan,
    stationary_power,
)

EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)


# --- stationary distribution -------------------------------------------------

def test_stationary_doubly_stochastic_uniform():
    k = m.build_finite_kernel([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]])
    assert np.allclose(m.stationary_distribution(k), 1.0 / 3.0, atol=1e-12)


def test_stationary_two_state_hand_solve():
    k = m.build_finite_kernel([[0.5, 0.5], [0.25, 0.75]])
    assert np.allclose(m.stationary_distribution(k), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_stationary_reducible_raises():
    k = m.build_finite_kernel([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(errors.Reducible):
        m.stationary_distribution(k)


def test_stationary_with_transient_states():
    # state 0 is transient, {1, 2} is the unique closed class
    k = m.build_finite_kernel([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
    pi = m.stationary_distribution(k)
    assert pi[0] == 0.0
    assert np.allclose(pi[1:], 0.5, atol=1e-12)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_stationary_matches_power_iteration(n, seed):
    k = random_dense_chain(np.random.default_rng(seed), n)
    pi = m.stationary_distribution(k)
    assert np.allclose(pi, stationary_power(k.p), atol=1e-9)
    assert np.max(np.abs(pi @ k.p - pi)) <= 1e-12


def test_stationary_pi_is_the_plain_dense_solve():
    k = random_dense_chain(np.random.default_rng(4), 7)
    a = k.p.T - np.eye(7)
    a[-1, :] = 1.0
    pi = np.linalg.solve(a, np.eye(7)[-1])
    assert np.array_equal(m.stationary_distribution(k), pi / pi.sum())


@pytest.mark.parametrize("broken", ["residual", "singular", "negative"])
def test_stationary_broken_solve_raises(monkeypatch, broken):
    k = random_dense_chain(np.random.default_rng(2), 5)
    exact_solve = chain_analysis.np.linalg.solve

    def solve(a, b):
        if broken == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        pi = exact_solve(a, b)
        if broken == "residual":
            pi[:2] += [1e-3, -1e-3]
        else:
            pi[0] = -1.0
        return pi

    monkeypatch.setattr(chain_analysis.np.linalg, "solve", solve)
    with pytest.raises(errors.ResidualTooLarge):
        m.stationary_distribution(k)
    # the closed-class mixture of a reducible chain uses the same checked solve
    two_pairs = m.build_finite_kernel([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                                       [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.3, 0.7]])
    with pytest.raises(errors.ResidualTooLarge):
        m.mixing_time(two_pairs)


@st.composite
def support_digraphs(draw):
    """Weighted n x n matrices, n = 1..40, whose positive entries are the edges.

    Sparse, dense or chain-like (i -> i + 1 always, i -> i - 1 sometimes),
    with self-loops and absorbing states at drawn rates; a state left with
    no successor gets one at random, as every kernel row has one.
    """
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["sparse", "dense", "chain"]))
    loops = draw(st.sampled_from([0.0, 0.3, 1.0]))
    absorbing = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "chain":
        adj = np.eye(n, k=1, dtype=bool) | (np.eye(n, k=-1, dtype=bool) & (rng.random((n, n)) < 0.3))
    else:
        adj = rng.random((n, n)) < (1.5 / n if shape == "sparse" else 0.6)
    adj[np.diag_indices(n)] |= rng.random(n) < loops
    sinks = np.flatnonzero(rng.random(n) < absorbing)
    adj[sinks] = False
    adj[sinks, sinks] = True
    lone = np.flatnonzero(~adj.any(axis=1))
    adj[lone, rng.integers(0, n, lone.size)] = True
    return np.where(adj, rng.random((n, n)) + 0.01, 0.0)


@given(support_digraphs())
@settings(max_examples=300, deadline=None)
def test_closed_classes_equal_the_scc_oracle(p):
    classes = chain_analysis._closed_classes(p)
    assert all(np.all(np.diff(c) > 0) for c in classes)
    assert sorted(tuple(c.tolist()) for c in classes) == closed_classes_scc(p)


def _birth_chain(n):
    return np.eye(n, k=1) + np.diag(np.r_[np.zeros(n - 1), 1.0])


def _transient_into_absorbing(n):
    # transient i -> i + 1, i + 2 (mod n/2) and into the absorbing state
    # n/2 + i: every absorbing state is reached from every transient one
    half = n // 2
    p = np.zeros((n, n))
    p[np.arange(half), (np.arange(half) + 1) % half] = 0.25
    p[np.arange(half), (np.arange(half) + 2) % half] = 0.25
    p[np.arange(half), np.arange(half, n)] = 0.5
    p[np.arange(half, n), np.arange(half, n)] = 1.0
    return p


def _functional_graph(n):
    p = np.zeros((n, n))
    p[np.arange(n), np.random.default_rng(8).integers(0, n, n)] = 1.0
    return p


@pytest.mark.parametrize("build", [_birth_chain, lambda n: _birth_chain(n)[::-1, ::-1],
                                   np.eye, _transient_into_absorbing, _functional_graph,
                                   lambda n: np.full((n, n), 1.0 / n)],
                         ids=["birth", "death", "identity", "transient-into-absorbing",
                              "functional", "uniform"])
def test_closed_classes_fast_on_pathological_chains(build, monkeypatch):
    p = build(2000)
    start = time.perf_counter()
    classes = chain_analysis._closed_classes(p)
    assert time.perf_counter() - start < 0.5
    assert sorted(tuple(c.tolist()) for c in classes) == closed_classes_scc(p)
    # and in a count, free of the host's speed: no state is found more than
    # a few times over all the searches
    found = []
    reach = chain_analysis._reach

    def counting_reach(*args):
        states, deepest = reach(*args)
        found.append(len(states))
        return states, deepest

    monkeypatch.setattr(chain_analysis, "_reach", counting_reach)
    chain_analysis._closed_classes(p)
    assert sum(found) <= 3 * len(p)


# --- total variation ------------------------------------------------------------

def test_tv_examples():
    assert m.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert m.tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert m.tv_distance([0.5, 0.5], [0.25, 0.75]) == 0.25


def test_tv_errors():
    with pytest.raises(errors.LengthMismatch):
        m.tv_distance([1.0], [0.5, 0.5])
    with pytest.raises(errors.LengthMismatch):
        m.tv_distance([0.7, 0.2], [0.5, 0.5])


# --- mixing times ------------------------------------------------------------------

def test_mixing_time_one_step_chain():
    k = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]])
    assert m.mixing_time(k, 0.25) == 1


def test_mixing_identity_not_mixed():
    k = m.build_finite_kernel(np.eye(2))
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k, 0.25)
    assert len(exc.value.profile) > 1
    assert exc.value.profile[0] == pytest.approx(0.5)


def test_mixing_matches_matrix_power_oracle():
    k = m.lazy_srw(0.25)
    pi = m.stationary_distribution(k)
    expected = mixing_scan(k.p, pi, 0.25, 500)
    assert m.mixing_time(k, 0.25) == expected


def test_lazy_mixing_of_flip_chain():
    k = m.build_finite_kernel([[0.0, 1.0], [1.0, 0.0]])
    assert m.mixing_time(k, 0.25, lazy=True) == 1


@given(st.integers(2, 9), st.integers(0, 10_000), st.floats(0.0, 0.98), st.booleans(),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_mixing_time_matches_step_scan(n, seed, hold, lazy, pass_pi, data):
    base = random_dense_chain(np.random.default_rng(seed), n).p
    k = m.build_finite_kernel((1.0 - hold) * base + hold * np.eye(n))
    pi = m.stationary_distribution(k)
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    eps = data.draw(st.floats(0.01, 0.5))
    work = m.lazy_transform(k) if lazy else k
    t_m, profile = mixing_step_scan(work.p, pi, starts, eps, 3000)
    assume(t_m is not None)
    # a TV within rounding of eps may fall either side of it on either path
    assume(all(abs(d - eps) > 1e-12 for d in profile))
    kwargs = dict(subset=starts, lazy=lazy, pi=pi if pass_pi else None)
    assert m.mixing_time(k, eps, t_max=t_m, **kwargs) == t_m
    if t_m == 0:
        return
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k, eps, t_max=t_m - 1, **kwargs)
    times = exc.value.times
    assert times[0] == 0 and times[-1] == t_m - 1 and np.all(np.diff(times) > 0)
    assert np.allclose(exc.value.profile, np.asarray(profile)[times], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("c, t_m, t_l", [(1 / 64, 952, 1905), (1 / 128, 3795, 7591)])
def test_mixing_time_pinned_on_exp_tilt(c, t_m, t_l):
    k = m.birth_death_chain(EXP, c)
    assert m.mixing_time(k) == t_m
    assert m.mixing_time(k, lazy=True) == t_l


def test_mixing_refuses_powers_above_the_memory_cap():
    k = m.build_finite_kernel(np.eye(2048))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(errors.TooManyStates, match="29 powers of a 2048-state kernel"):
            m.mixing_time(k)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20  # not one 32 MiB power, nor the lazy copy, was allocated


def test_mixing_rejects_a_negative_horizon():
    k = m.build_finite_kernel([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValueError, match="t_max"):
        m.mixing_time(k, t_max=-1)


def test_mixing_power_cap_admits_512_states_at_the_default_horizon():
    n = 512
    stored = chain_analysis.default_mix_horizon(n).bit_length() * n * n * 8
    assert stored <= chain_analysis.MIXING_POWER_BYTES
    k = m.build_finite_kernel(np.full((n, n), 1.0 / n))
    assert m.mixing_time(k) == 1


def test_mixing_identity_exhausts_default_horizon_fast():
    k = m.build_finite_kernel(np.eye(256))
    t_max = chain_analysis.default_mix_horizon(256)
    assert t_max > 3_900_000
    start = time.perf_counter()
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k)
    assert time.perf_counter() - start < 1.0
    times = exc.value.times
    assert times[0] == 0 and times[-1] == t_max and np.all(np.diff(times) > 0)
    assert len(times) < 64
    # every start stays put, TV(e_x, uniform mixture of the 256 classes)
    assert np.allclose(exc.value.profile, 255.0 / 256.0)


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_tv_profile_monotone(n, seed):
    k = random_dense_chain(np.random.default_rng(seed), n)
    prof = m.tv_profile(k, 30)
    assert np.all(np.diff(prof) <= 1e-12)


# --- expected hitting times -----------------------------------------------------------

def test_hitting_zero_inside_target():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    h = m.expected_hitting(k, [1])
    assert h[1] == 0.0


def test_hitting_reflecting_path_hand_solve():
    k = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    h = m.expected_hitting(k, [2])
    assert np.allclose(h, [4.0, 3.0, 0.0], atol=1e-12)


def test_hitting_empty_target_is_infinite():
    k = m.build_finite_kernel(np.full((2, 2), 0.5))
    assert np.all(np.isinf(m.expected_hitting(k, [])))


def test_hitting_unreachable_raises():
    k = m.build_finite_kernel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(errors.Unreachable):
        m.expected_hitting(k, [1])


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_hitting_matches_plain_solve(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    target = [int(rng.integers(0, n))]
    assert np.allclose(m.expected_hitting(k, target), hitting_solve(k.p, target), atol=1e-9)


def test_hitting_refinement_failure_raises(monkeypatch):
    k = random_dense_chain(np.random.default_rng(3), 6)
    exact_solve = chain_analysis.np.linalg.solve
    # every solve, refinement steps included, comes back off by 1e-6
    monkeypatch.setattr(chain_analysis.np.linalg, "solve",
                        lambda a, b: exact_solve(a, b) + 1e-6)
    with pytest.raises(errors.ResidualTooLarge):
        m.expected_hitting(k, [0])


def test_hitting_singular_solve_raises(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(chain_analysis.np.linalg, "solve", singular)
    with pytest.raises(errors.ResidualTooLarge, match="solve failed"):
        m.expected_hitting(random_dense_chain(np.random.default_rng(3), 6), [0])


@pytest.mark.parametrize("case,target,reason", [
    ("escape-5", 239, "every time is >= 1"),  # the solve returns about -9.8e16
    ("escape-4", 191, "too ill-conditioned"),  # about 4.6e16, kappa_inf about 9e16
])
def test_hitting_refuses_an_ill_conditioned_corpus_system(case, target, reason):
    k = next(c.kernel for c in escape_corpus() if c.name == case)
    with pytest.raises(errors.ResidualTooLarge, match=reason):
        m.expected_hitting(k, [target])


@given(st.integers(2, 9), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_hitting_condition_number_is_norm_times_max_time(n, seed):
    # (I - Q)^-1 >= 0 entrywise with row sums h, so its inf-norm is max h
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    target = [int(rng.integers(0, n))]
    rest = np.setdiff1d(np.arange(n), target)
    i_q = np.eye(rest.size) - k.p[np.ix_(rest, rest)]
    h = m.expected_hitting(k, target)
    assert np.all(h[rest] >= 1.0)
    assert np.abs(i_q).sum(axis=1).max() * h.max() == pytest.approx(
        np.linalg.cond(i_q, p=np.inf), rel=1e-9)


def test_hitting_condition_limit_is_enforced(monkeypatch):
    k = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    error = 2.0 * 4.0 * 2.0**-52  # ||I - Q||_inf = 2 and max h = 4
    monkeypatch.setattr(chain_analysis, "HITTING_CONDITION_TOL", error)
    assert m.expected_hitting(k, [2]).tolist() == [4.0, 3.0, 0.0]
    monkeypatch.setattr(chain_analysis, "HITTING_CONDITION_TOL", error * 0.99)
    with pytest.raises(errors.ResidualTooLarge, match="too ill-conditioned"):
        m.expected_hitting(k, [2])


def test_hitting_time_below_one_is_refused(monkeypatch):
    k = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    exact_solve = chain_analysis.np.linalg.solve
    # a residual loose enough to pass h = (4, 0.5) instead of (4, 3)
    monkeypatch.setattr(chain_analysis, "LINEAR_RESIDUAL_TOL", 10.0)
    monkeypatch.setattr(chain_analysis.np.linalg, "solve",
                        lambda a, b: exact_solve(a, b) * [1.0, 1.0 / 6.0])
    with pytest.raises(errors.ResidualTooLarge, match="from 0.5 to 4.0; every time is >= 1"):
        m.expected_hitting(k, [2])


def test_hitting_time_within_rounding_of_one_is_accepted(monkeypatch):
    # h(0) = 1 exactly; a solve that returns it one rounding low is inside
    # the error bound, not below 1
    k = m.build_finite_kernel([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4]])
    exact_solve = chain_analysis.np.linalg.solve
    low = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(chain_analysis.np.linalg, "solve",
                        lambda a, b: exact_solve(a, b) * [low, 1.0])
    assert m.expected_hitting(k, [2]).tolist() == [low, 1.5, 0.0]


# --- maximum hitting times --------------------------------------------------------------

def test_max_hitting_flip_chain_enumeration():
    k = m.build_finite_kernel([[0.0, 1.0], [1.0, 0.0]])
    rep = m.max_hitting_time(k, 0.4, strategy="brute")
    assert rep.t_h == pytest.approx(1.0, abs=1e-12)
    assert rep.worst_set == (0,)
    assert rep.worst_start == 1


def test_max_hitting_full_space_only():
    k = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]])
    rep = m.max_hitting_time(k, 0.9, strategy="brute")
    assert rep.t_h == 0.0
    assert rep.worst_set == (0, 1)


def test_max_hitting_caps_and_feasibility():
    k = m.build_finite_kernel(np.full((15, 15), 1.0 / 15.0))
    with pytest.raises(errors.TooManyStates):
        m.max_hitting_time(k, 0.5, strategy="brute")
    k2 = m.build_finite_kernel(np.full((2, 2), 0.5))
    with pytest.raises(errors.NoFeasibleSet):
        m.max_hitting_time(k2, 1.5, strategy="brute")


def test_max_hitting_interval_needs_coordinates():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(errors.MissingCoordinates):
        m.max_hitting_time(k, 0.4, strategy="interval")


def test_max_hitting_report_reproduces_value():
    k = m.birth_death_chain(EXP, 1.0 / 8.0)
    rep = m.max_hitting_time(k, 1.0 / 3.0, strategy="interval")
    again = m.expected_hitting(k, rep.worst_set)[rep.worst_start]
    assert again == pytest.approx(rep.t_h, abs=1e-9)
    pi = m.stationary_distribution(k)
    assert pi[list(rep.worst_set)].sum() >= 1.0 / 3.0 - 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_brute_equals_interval_on_birth_death(seed):
    rng = np.random.default_rng(seed)
    density = random_density(rng)
    c = 1.0 / int(rng.choice([8, 10, 12]))
    k = m.birth_death_chain(density, c)
    alpha = float(rng.uniform(0.2, 0.45))
    brute = m.max_hitting_time(k, alpha, strategy="brute")
    interval = m.max_hitting_time(k, alpha, strategy="interval")
    assert brute.t_h == pytest.approx(interval.t_h, rel=1e-10)


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_brute_dominates_interval(n, seed):
    # on chains that are not birth-death the window scan is only a lower
    # bound, so the interval strategy refuses them
    rng = np.random.default_rng(seed)
    rows = rng.gamma(1.0, 1.0, (n, n)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    k = m.build_finite_kernel(rows, states=np.linspace(0.0, 1.0, n))
    alpha = float(rng.uniform(0.2, 0.45))
    brute = m.max_hitting_time(k, alpha, strategy="brute")
    scan = interval_scan(k.p, m.stationary_distribution(k), alpha)
    assert brute.t_h >= scan[0] - 1e-9
    if n > 2:  # every 2-state chain is tridiagonal
        with pytest.raises(errors.NotBirthDeath):
            m.max_hitting_time(k, alpha, strategy="interval")


@given(st.integers(0, 10_000), st.sampled_from([8, 12, 32, 64]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_interval_closed_form_matches_scan(seed, inv_c, flat):
    rng = np.random.default_rng(seed)
    density = random_density(rng)
    if flat:
        # a constant table gives a symmetric chain with exactly tied windows
        xs = density.params["xs"]
        density = m.DensitySpec(kind="piecewise-linear-table",
                                params={"xs": xs, "ys": (1.0,) * len(xs)})
    k = m.birth_death_chain(density, 1.0 / inv_c)
    alpha = float(rng.uniform(0.1, 0.45))
    pi = m.stationary_distribution(k)
    rep = m.max_hitting_time(k, alpha, strategy="interval")
    assert rep.t_h == pytest.approx(interval_scan(k.p, pi, alpha)[0], rel=1e-10)
    assert pi[list(rep.worst_set)].sum() >= alpha - 1e-12
    again = m.expected_hitting(k, rep.worst_set)[rep.worst_start]
    assert again == pytest.approx(rep.t_h, rel=1e-10)


def test_interval_tie_break_on_symmetric_walk():
    # [0..21] from state 63 and [42..63] from state 0 both take 3612 steps
    rep = m.max_hitting_time(m.lazy_srw(1.0 / 64.0), 1.0 / 3.0, strategy="interval")
    assert rep.t_h == 3612.0
    assert rep.worst_set == tuple(range(22))
    assert rep.worst_start == 63
    # only the full space is feasible: every start is inside it
    full = m.max_hitting_time(m.lazy_srw(0.25), 0.9, strategy="interval")
    assert (full.t_h, full.worst_set, full.worst_start) == (0.0, (0, 1, 2, 3), 0)


def test_interval_makes_no_linear_solve(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return m.expected_hitting(*args, **kwargs)

    monkeypatch.setattr(chain_analysis, "expected_hitting", counting)
    rep = m.max_hitting_time(m.birth_death_chain(EXP, 1.0 / 1024.0), 1.0 / 3.0,
                             strategy="interval")
    assert calls == []
    assert rep.t_h > 0.0


def test_interval_separated_window_unreachable():
    k = m.build_finite_kernel(np.eye(2), states=[0.0, 0.5])
    with pytest.raises(errors.Unreachable):
        m.max_hitting_time(k, 0.4, strategy="interval", pi=np.array([0.5, 0.5]))


def test_max_hitting_brute_matches_oracle():
    rng = np.random.default_rng(77)
    k = random_dense_chain(rng, 6)
    pi = m.stationary_distribution(k)
    rep = m.max_hitting_time(k, 0.3, strategy="brute")
    assert rep.t_h == pytest.approx(brute_max_hitting(k.p, pi, 0.3), abs=1e-9)


# --- pseudo-minorization -------------------------------------------------------------------

def test_minorization_identical_rows():
    k = m.build_finite_kernel(np.tile([0.3, 0.7], (2, 1)))
    rep = m.pseudo_minorization(k, [0, 1], 1)
    assert rep.eps == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.mu, [0.3, 0.7], atol=1e-12)


def test_minorization_disjoint_rows_degenerate():
    k = m.build_finite_kernel(np.eye(2))
    with pytest.raises(errors.DegenerateOverlap):
        m.pseudo_minorization(k, [0, 1], 1)


def test_minorization_two_state_example():
    k = m.build_finite_kernel([[0.5, 0.5], [0.25, 0.75]])
    rep = m.pseudo_minorization(k, [0, 1], 1)
    assert rep.eps == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(rep.mu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    # entrywise-minimum oracle: eps * mu equals min(row_x, row_y)
    assert np.allclose(rep.eps * rep.mu, np.minimum(k.p[0], k.p[1]), atol=1e-12)


@given(st.integers(2, 7), st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_minorization_witness_valid(n, seed, t):
    k = random_dense_chain(np.random.default_rng(seed), n)
    rep = m.pseudo_minorization(k, range(n), t)
    rows = np.linalg.matrix_power(k.p, t)
    assert abs(rep.mu.sum() - 1.0) <= 1e-12
    assert np.all(rep.mu >= -1e-15)
    x, y = rep.worst_pair
    assert np.min(rows[x] - rep.eps * rep.mu) >= -1e-12
    assert np.min(rows[y] - rep.eps * rep.mu) >= -1e-12


# --- exit probability ------------------------------------------------------------------

def test_exit_probability_is_the_decoupling_oracle_on_the_corpus():
    for case in escape_corpus():
        dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
        for t in (0, 1, case.horizon):
            exact = m.exit_probability(case.kernel, dom.support, case.x0, t)
            want = decoupling_exact(case.kernel.p, dom.support, case.x0, t)
            assert abs(exact - want) <= 1e-15, (case.name, t)
        assert m.exit_probability(case.kernel, dom.support, case.x0, 0) == 0.0


def test_exit_probability_of_iid_rows():
    # every row puts 0.05 outside {0, 1, 2}, so leaving by t has 1 - 0.95^t
    k = m.build_finite_kernel(np.tile([0.55, 0.25, 0.15, 0.05], (4, 1)))
    for t in (1, 2, 10):
        assert abs(m.exit_probability(k, [2, 0, 1], 1, t) - (1.0 - 0.95 ** t)) <= 1e-15
    assert m.exit_probability(k, range(4), 3, 10) == 0.0


def test_exit_probability_rejects_bad_arguments():
    k = m.build_finite_kernel(np.tile([0.55, 0.25, 0.15, 0.05], (4, 1)))
    with pytest.raises(errors.EmptySubset):
        m.exit_probability(k, [], 0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        m.exit_probability(k, [0, 1], 0, -1)
    with pytest.raises(ValueError, match="not in the subset"):
        m.exit_probability(k, [0, 1], 3, 3)
    with pytest.raises(ValueError, match="must lie in 0..3"):
        m.exit_probability(k, [0, 4], 0, 3)
    with pytest.raises(ValueError, match="must lie in 0..3"):
        m.exit_probability(k, [-1, 0], 0, 3)


# --- mix-to-hit direction ------------------------------------------------------------------

def test_mix_to_hit_values():
    assert m.mix_to_hit_bound(0) == 0.0
    assert m.mix_to_hit_bound(10) == 120.0


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_hitting_bounded_by_twelve_mixing(n, seed):
    k = random_dense_chain(np.random.default_rng(seed), n)
    t_m = m.mixing_time(k, 0.25)
    rep = m.max_hitting_time(k, 1.0 / 3.0, strategy="brute")
    assert rep.t_h <= m.mix_to_hit_bound(t_m) + 1e-12


def test_report_csv_row():
    rep = m.HitMixReport(alpha=0.4, t_h=1.0, method="brute",
                         worst_set=(0,), worst_start=1, t_m=3, t_l=5)
    row = rep.csv_row()
    assert row == ["0.4", "1.0", "brute", "0", "1", "3", "5"]
