import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import chain_analysis, errors
from mcergo.certify import EXACT_OVERLAP_STATE_CAP
from mcergo.corpus import escape_corpus, random_dense_chain, random_density
from oracles import (
    brute_max_hitting,
    closed_classes_scc,
    decoupling_exact,
    hitting_solve,
    interval_scan,
    is_tridiagonal_triu,
    mixing_scan,
    mixing_step_scan,
    pairwise_overlap_scan,
    stationary_power,
    tv_trajectory_dense,
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


# --- mixing times ------------------------------------------------------------------

def test_mixing_time_one_step_chain():
    k = m.build_finite_kernel([[0.5, 0.5], [0.5, 0.5]])
    assert m.mixing_time(k, 0.25) == 1


def test_mixing_identity_not_mixed():
    k = m.build_finite_kernel([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k, 0.25)
    assert len(exc.value.profile) > 1
    assert exc.value.profile[0] == pytest.approx(0.5)


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("rows, eps", [
    (np.eye(2), 0.6),
    ([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
      [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.3, 0.7]], 0.5),
])
def test_mixing_refuses_a_chain_with_several_closed_classes(rows, eps, lazy):
    # from a start in one of k closed classes, TV to any mixture of the
    # class laws stays >= 1 - 1/k, so no eps < 1 has a mixing time
    k = m.build_finite_kernel(rows)
    with pytest.raises(errors.Reducible):
        m.mixing_time(k, eps, lazy=lazy)


def test_mixing_matches_matrix_power_oracle():
    k = m.lazy_srw(0.25)
    pi = m.stationary_distribution(k)
    expected = mixing_scan(k.p, pi, 0.25, 500)
    assert m.mixing_time(k, 0.25) == expected


def test_lazy_mixing_of_flip_chain():
    k = m.build_finite_kernel([[0.0, 1.0], [1.0, 0.0]])
    assert m.mixing_time(k, 0.25, lazy=True) == 1


@given(st.integers(2, 9), st.integers(0, 10_000), st.floats(0.0, 0.98), st.booleans(),
       st.data())
@settings(max_examples=60, deadline=None)
def test_mixing_time_matches_step_scan(n, seed, hold, lazy, data):
    base = random_dense_chain(np.random.default_rng(seed), n).p
    k = m.build_finite_kernel((1.0 - hold) * base + hold * np.eye(n))
    pi = m.stationary_distribution(k)
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    eps = data.draw(st.floats(0.01, 0.5))
    work = m.lazy_transform(k) if lazy else k
    horizon = chain_analysis.default_mix_horizon(n)
    t_m, profile = mixing_step_scan(work.p, pi, starts, eps, horizon)
    # a TV within rounding of eps may fall either side of it on either path
    assume(all(abs(d - eps) > 1e-12 for d in profile))
    kwargs = dict(subset=starts, lazy=lazy)
    if t_m is not None:
        assert m.mixing_time(k, eps, **kwargs) == t_m
        return
    # a slow chain (n = 2, holding 0.98) can pass the horizon of 40 steps
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k, eps, **kwargs)
    times = exc.value.times
    assert times[0] == 0 and times[-1] == horizon and np.all(np.diff(times) > 0)
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


def test_mixing_power_cap_admits_512_states_at_the_default_horizon():
    n = EXACT_OVERLAP_STATE_CAP  # the certifier's exact route runs mixing_time up to here
    stored = chain_analysis.default_mix_horizon(n).bit_length() * n * n * 8
    assert stored <= chain_analysis.MIXING_POWER_BYTES
    k = m.build_finite_kernel(np.full((n, n), 1.0 / n))
    assert m.mixing_time(k) == 1


def test_mixing_identity_exhausts_default_horizon_fast():
    k = m.build_finite_kernel(np.roll(np.eye(256), 1, axis=1))  # the 256-cycle
    t_max = chain_analysis.default_mix_horizon(256)
    assert t_max > 3_900_000
    start = time.perf_counter()
    with pytest.raises(errors.NotMixedByHorizon) as exc:
        m.mixing_time(k)
    assert time.perf_counter() - start < 1.0
    times = exc.value.times
    assert times[0] == 0 and times[-1] == t_max and np.all(np.diff(times) > 0)
    assert len(times) < 64
    # P^t(x, .) is a point mass for every t, at TV 1 - 1/256 from uniform
    assert np.allclose(exc.value.profile, 255.0 / 256.0)


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_tv_profile_monotone(n, seed):
    k = random_dense_chain(np.random.default_rng(seed), n)
    prof = chain_analysis.tv_table(k, 30).max(axis=1)
    assert np.all(np.diff(prof) <= 1e-12)


def _transient_head_chain():
    """128 states; 0..31 step to 32..63 and are never entered, so columns 0..31
    of P are all zero; 32..127 are an exp-tilt birth-death chain."""
    p = np.zeros((128, 128))
    p[32:, 32:] = m.birth_death_chain(EXP, 1.0 / 96.0).p
    p[np.arange(32), np.arange(32) + 32] = 1.0
    return m.FiniteKernel(p)


def _lazy_cycle(n):
    """The lazy walk on a cycle: the corner entries make the first and last
    column blocks of P reach every row."""
    i = np.arange(n)
    p = np.zeros((n, n))
    p[i, i] = 0.5
    p[i, (i + 1) % n] += 0.25
    p[i, (i - 1) % n] += 0.25
    return m.FiniteKernel(p)


def _banded_tv_cases():
    bd128 = m.birth_death_chain(EXP, 1.0 / 128.0)
    rng = np.random.default_rng(7)
    # (name, kernel, takes column blocks)
    cases = [
        ("exp-tilt 1/64", m.birth_death_chain(EXP, 1.0 / 64.0), False),  # no halving
        ("exp-tilt 1/128", bd128, True),
        ("exp-tilt 1/256", m.birth_death_chain(EXP, 1.0 / 256.0), True),
        ("lazy srw 1/160", m.lazy_srw(1.0 / 160.0), True),
        ("pentadiagonal", m.FiniteKernel(bd128.p @ bd128.p), True),
        ("transient head", _transient_head_chain(), True),
        ("lazy cycle", _lazy_cycle(256), True),
        ("dense 5", random_dense_chain(rng, 5), False),
        ("dense 64", random_dense_chain(rng, 64), False),
        ("n = 1", m.build_finite_kernel([[1.0]]), False),
        ("n = 2", m.build_finite_kernel([[0.5, 0.5], [0.2, 0.8]]), False),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, k, blocked", _banded_tv_cases())
def test_tv_trajectory_is_the_full_product_bit_for_bit(name, k, blocked, monkeypatch):
    calls = []
    column_blocks = chain_analysis._column_blocks

    def recording_blocks(p):
        calls.append(column_blocks(p))
        return calls[-1]

    monkeypatch.setattr(chain_analysis, "_column_blocks", recording_blocks)
    got = chain_analysis.tv_table(k, 120)
    assert any(b is not None for b in calls) == blocked
    want = list(tv_trajectory_dense(k, 120))
    assert len(got) == len(want) == 121
    for t, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), (name, t)


def test_column_blocks_cover_every_nonzero_of_their_columns():
    n = 256
    blocks = chain_analysis._column_blocks(_lazy_cycle(n).p)
    assert blocks[0] == (0, 32, 0, n) and blocks[-1] == (224, 256, 0, n)
    assert blocks[1] == (32, 64, 31, 65)
    head = chain_analysis._column_blocks(_transient_head_chain().p)
    assert head[0][2] == head[0][3]  # an all-zero block multiplies nothing
    assert chain_analysis._column_blocks(random_dense_chain(np.random.default_rng(1), 40).p) is None
    for k in (m.lazy_srw(1.0 / 100.0), _transient_head_chain()):
        p = k.p
        for j0, j1, a, b in chain_analysis._column_blocks(p):
            assert not p[:a, j0:j1].any() and not p[b:, j0:j1].any()
            assert j1 - j0 == min(chain_analysis.TV_BLOCK_COLUMNS, k.n - j0)


@pytest.mark.parametrize("k", [m.lazy_srw(1.0 / 100.0), m.birth_death_chain(EXP, 1.0 / 400.0)],
                         ids=["lazy srw 1/100", "exp-tilt 1/400"])
def test_tv_trajectory_where_blas_splits_a_sum_agrees_to_rounding(k):
    # OpenBLAS sums the last n mod 8 columns of a full product in two halves, and
    # splits each sum at n > 384, so here the band's in-order sums may differ in
    # the last bits (at most 8.5e-16 relative measured with OpenBLAS 0.3.31)
    for a, b in zip(chain_analysis.tv_table(k, 60), tv_trajectory_dense(k, 60)):
        assert np.allclose(a, b, rtol=64 * np.finfo(float).eps, atol=0.0)


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
    with pytest.raises(errors.TooManyStates):  # the routine a dense chain gets
        m.max_hitting_time(k, 0.5)
    k2 = m.build_finite_kernel(np.full((2, 2), 0.5))
    with pytest.raises(errors.NoFeasibleSet):
        m.max_hitting_time(k2, 1.5, strategy="brute")


def test_max_hitting_refuses_by_the_cap_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(chain_analysis, "stationary_distribution", solves.append)
    k = random_dense_chain(np.random.default_rng(2), 1000)
    with pytest.raises(errors.TooManyStates):
        m.max_hitting_time(k, 0.5)
    # two closed classes of 8 states each: the cap, not the solve, refuses the chain
    reducible = np.kron(np.eye(2), np.full((8, 8), 1.0 / 8.0))
    with pytest.raises(errors.TooManyStates):
        m.max_hitting_time(m.build_finite_kernel(reducible), 0.5)
    assert solves == []


def test_max_hitting_interval_reads_no_coordinates():
    k = m.birth_death_chain(EXP, 1.0 / 16.0)
    bare = m.build_finite_kernel(k.p)
    assert bare.states is None
    assert m.max_hitting_time(bare, 1.0 / 3.0, strategy="interval") == \
        m.max_hitting_time(k, 1.0 / 3.0, strategy="interval")


def test_max_hitting_interval_refuses_a_dense_chain():
    k = m.build_finite_kernel(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(errors.NotBirthDeath):
        m.max_hitting_time(k, 0.4, strategy="interval")


def _far_tiny_entry():
    p = np.full((5, 5), 0.0)
    p[np.arange(5), np.arange(5)] = 1.0
    p[1, 1], p[1, 3] = 1.0 - 1e-300, 1e-300  # 1.0 - 1e-300 == 1.0
    return m.build_finite_kernel(p)


# chain -> whether P is tridiagonal
TRIDIAGONAL = {
    "birth-death": (lambda: m.birth_death_chain(EXP, 1.0 / 32.0), True),
    "lazy-srw": (lambda: m.lazy_srw(1.0 / 16.0), True),
    "dense": (lambda: random_dense_chain(np.random.default_rng(5), 9), False),
    "n=1": (lambda: m.build_finite_kernel([[1.0]]), True),
    "n=2": (lambda: m.build_finite_kernel([[0.0, 1.0], [0.25, 0.75]]), True),
    "1e-300 two off the diagonal": (_far_tiny_entry, False),
    "lower corner": (lambda: m.build_finite_kernel(
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]), False),
}


@pytest.mark.parametrize("chain", list(TRIDIAGONAL))
def test_is_birth_death_equals_the_triangular_copies(chain):
    build, tridiagonal = TRIDIAGONAL[chain]
    k = build()
    assert is_tridiagonal_triu(k.p) == tridiagonal
    assert chain_analysis.is_birth_death(k) == tridiagonal


# chain -> the routine its structure picks
BY_STRUCTURE = {
    "birth-death": (lambda: m.birth_death_chain(EXP, 1.0 / 32.0), "interval"),
    "lazy-srw": (lambda: m.lazy_srw(1.0 / 16.0), "interval"),
    "two-state": (lambda: m.build_finite_kernel([[0.5, 0.5], [0.25, 0.75]]), "interval"),
    "dense-3": (lambda: m.build_finite_kernel([[0.5, 0.25, 0.25]] * 3), "brute"),
    "dense-14": (lambda: random_dense_chain(np.random.default_rng(5), 14), "brute"),
}


@pytest.mark.parametrize("chain", list(BY_STRUCTURE))
def test_max_hitting_time_picks_its_routine_by_structure(chain):
    build, method = BY_STRUCTURE[chain]
    k = build()
    rep = m.max_hitting_time(k, 1.0 / 3.0)
    assert rep.method == method
    assert rep == m.max_hitting_time(k, 1.0 / 3.0, strategy=method)


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


def test_interval_on_a_reducible_chain_raises():
    # each closed class is a window no other state reaches; it has no law to weigh windows by
    k = m.build_finite_kernel(np.eye(2), states=[0.0, 0.5])
    with pytest.raises(errors.Reducible):
        m.max_hitting_time(k, 0.4, strategy="interval")


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


def _overlap_chain(kind, n, rng):
    """Dense or sparse random rows, rows copied from at most three prototypes
    (tied pairs), or a circulant, whose pairs at one distance tie in exact
    arithmetic."""
    if kind == "tied":
        return rng.random((min(3, n), n))[rng.integers(0, min(3, n), n)]
    if kind == "cyclic":
        step = rng.random(n) * (rng.random(n) < 0.5)
        step[0] += 0.5
        return np.array([np.roll(step, i) for i in range(n)])
    p = rng.random((n, n))
    if kind == "sparse":
        p *= rng.random((n, n)) < 3.0 / n
    return p + np.eye(n) * rng.random()


@given(st.sampled_from(["dense", "sparse", "tied", "cyclic"]), st.integers(1, 40),
       st.sampled_from([1, 2, None]), st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_pruned_overlap_equals_the_full_scan_bit_for_bit(kind, n, size, t, seed):
    rng = np.random.default_rng(seed)
    p = _overlap_chain(kind, n, rng)
    k = m.build_finite_kernel(p / p.sum(axis=1, keepdims=True))
    size = min(size, n) if size else int(rng.integers(min(3, n), n + 1))
    S = rng.choice(n, size, replace=False)
    eps, pair, mu, support = pairwise_overlap_scan(k, S, t)
    if eps <= 1e-12:
        with pytest.raises(errors.DegenerateOverlap):
            m.pseudo_minorization(k, S, t)
        return
    rep = m.pseudo_minorization(k, S, t)
    assert rep.eps.hex() == eps.hex()
    assert rep.worst_pair == pair
    assert rep.mu.tobytes() == mu.tobytes()
    assert rep.support == support


def test_pruned_overlap_keeps_the_first_of_tied_pairs():
    a, b = [0.5, 0.25, 0.25, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5, 0.0]
    k = m.build_finite_kernel([b, a, b, a, a])
    rep = m.pseudo_minorization(k, range(5), 1)
    assert (rep.eps, rep.worst_pair) == (0.5, (0, 1))


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


def test_exit_probability_keeps_its_relative_digits_on_the_corpus():
    # 1 - (Q^t 1)(x0) lost up to 1e-4 of a value near 2e-11 to cancellation;
    # the reference is the backward recursion in long double where available
    for case in escape_corpus():
        dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
        want = decoupling_exact(case.kernel.p.astype(np.longdouble), dom.support, case.x0,
                                case.horizon)
        got = m.exit_probability(case.kernel, dom.support, case.x0, case.horizon)
        assert abs(got - want) <= 1e-14 * want, (case.name, got, want)


def test_exit_probability_from_the_whole_space_is_exactly_zero():
    whole = [case for case in escape_corpus() if case.cert.small_set.size == case.kernel.n]
    assert len(whole) == 2  # escape-7 reported 5.55e-16 by cancellation
    for case in whole:
        dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
        for t in (1, case.horizon, 500):
            assert m.exit_probability(case.kernel, dom.support, case.x0, t) == 0.0
            assert decoupling_exact(case.kernel.p, dom.support, case.x0, t) == 0.0


def test_exit_probability_of_iid_rows():
    # every row puts 0.05 outside {0, 1, 2}, so leaving by t has 1 - 0.95^t
    k = m.build_finite_kernel(np.tile([0.55, 0.25, 0.15, 0.05], (4, 1)))
    for t in (1, 2, 10):
        assert abs(m.exit_probability(k, [2, 0, 1], 1, t) - (1.0 - 0.95 ** t)) <= 1e-15
    assert m.exit_probability(k, range(4), 3, 10) == 0.0


def test_empty_start_sets_are_refused():
    k = random_dense_chain(np.random.default_rng(0), 6)
    with pytest.raises(errors.EmptySubset):
        m.mixing_time(k, subset=[])


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


K4 = m.build_finite_kernel(np.tile([0.55, 0.25, 0.15, 0.05], (4, 1)))
STEP_COUNT_TAKERS = {
    "exit_probability": (lambda t: m.exit_probability(K4, [0, 1], 0, t), ValueError),
    "pseudo_minorization": (lambda t: m.pseudo_minorization(K4, [0, 1], t), ValueError),
    "multistep_drift_params": (lambda t: m.multistep_drift_params(0.5, 1.0, t),
                               errors.InvalidParameters),
    "mix_to_hit_bound": (m.mix_to_hit_bound, ValueError),
}


@pytest.mark.parametrize("name", STEP_COUNT_TAKERS)
@pytest.mark.parametrize("t", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "2", None])
def test_step_counts_are_integers(name, t):
    # a bool or non-integer step count gets the error of the function's own
    # bound check, not a TypeError or a result
    call, error = STEP_COUNT_TAKERS[name]
    with pytest.raises(error, match="integer"):
        call(t)
    call(np.int64(2))
    call(2)


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
