import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcergo as m
from mcergo import errors, harness, montecarlo
from mcergo.corpus import escape_corpus, random_dense_chain
from oracles import decoupling_exact

EXP = m.DensitySpec(kind="exponential-tilt", params={"tilt": -1.0}, unimodal_ratio=1.5)

PATH3 = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])


# --- sample_path -----------------------------------------------------------------

def test_path_length_zero():
    assert list(m.sample_path(PATH3, 1, 0, seed=0)) == [1]


def test_identity_kernel_constant_path():
    k = m.build_finite_kernel(np.eye(3))
    assert np.all(m.sample_path(k, 2, 50, seed=1) == 2)


def test_paths_bit_identical_same_seed():
    p1 = m.sample_path(PATH3, 0, 200, seed=9)
    p2 = m.sample_path(PATH3, 0, 200, seed=9)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, m.sample_path(PATH3, 0, 200, seed=10))


# --- estimate_hitting ---------------------------------------------------------------

def test_estimate_start_inside_target():
    est = m.estimate_hitting(PATH3, 2, [2], replicas=100, horizon=50, seed=0)
    assert est.mean == 0.0 and est.stderr == 0.0 and est.censored_fraction == 0.0


def test_estimate_matches_exact_on_path3():
    est = m.estimate_hitting(PATH3, 0, [2], replicas=100_000, horizon=2000, seed=3)
    assert abs(est.mean - 4.0) <= 3.0 * est.stderr
    assert est.censored_fraction == 0.0


def test_estimate_all_censored():
    k = m.build_finite_kernel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(errors.AllCensored):
        m.estimate_hitting(k, 0, [1], replicas=50, horizon=100, seed=1)


def test_estimate_censoring_reported_not_dropped():
    # reaching state 2 from 0 takes at least 2 steps; horizon 1 censors all,
    # horizon large censors none; a middling horizon censors some
    est = m.estimate_hitting(PATH3, 0, [2], replicas=2000, horizon=3, seed=5)
    assert 0.0 < est.censored_fraction < 1.0
    censored_paths = round(est.censored_fraction * est.replicas)
    assert censored_paths > 0
    # censored paths contribute the horizon value -> mean below the true 4
    assert est.mean < 4.0


def test_estimate_reproducible_and_seed_sensitive():
    a = m.estimate_hitting(PATH3, 0, [2], replicas=5000, horizon=500, seed=11)
    b = m.estimate_hitting(PATH3, 0, [2], replicas=5000, horizon=500, seed=11)
    c = m.estimate_hitting(PATH3, 0, [2], replicas=5000, horizon=500, seed=12)
    assert a == b
    assert a.mean != c.mean


def test_estimate_hitting_pinned_bits():
    est = m.estimate_hitting(PATH3, 0, [2], replicas=5000, horizon=500, seed=11)
    assert repr(est) == (
        "McEstimate(mean=4.0052, stderr=0.04070781272929609, replicas=5000, "
        "seed=11, horizon=500, censored_fraction=0.0)"
    )


# fixed seeds: a 3-sigma check under hypothesis' adversarial seed search
# would eventually fail by construction
@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (5, 2), (6, 3), (8, 4)])
def test_estimate_agrees_with_linear_solve(n, seed):
    rng = np.random.default_rng(seed)
    k = random_dense_chain(rng, n)
    target = [int(rng.integers(0, n))]
    x0 = int(rng.integers(0, n))
    exact = m.expected_hitting(k, target)[x0]
    est = m.estimate_hitting(k, x0, target, replicas=20_000, horizon=5_000, seed=seed)
    tol = 3.0 * est.stderr if est.stderr > 0 else 1e-9
    assert abs(est.mean - exact) <= max(tol, 0.01)


def test_estimate_hitting_continuous_interval_target():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    est = m.estimate_hitting(
        sampler, 0.0, lambda xs: np.asarray(xs) >= 0.75,
        replicas=4000, horizon=20_000, seed=21,
    )
    assert est.mean > 0.0 and est.censored_fraction == 0.0
    est2 = m.estimate_hitting(
        sampler, 0.0, lambda xs: np.asarray(xs) >= 0.75,
        replicas=4000, horizon=20_000, seed=21,
    )
    assert est == est2


def test_ballwalk_and_birth_death_share_the_diffusive_scale():
    # c^2 E[tau] of the same quantile interval stays within a factor 4
    # across chains and step sizes
    hi = EXP.quantile(0.75)
    scaled = []
    for c in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
        n = round(1.0 / c)
        h_c = m.birth_death_chain(EXP, c)
        grid_target = [i for i in range(n) if i * c >= hi]
        exact = m.expected_hitting(h_c, grid_target)[0]
        sampler = m.ball_walk_sampler(EXP, c)
        est = m.estimate_hitting(
            sampler, 0.0, lambda xs: np.asarray(xs) >= hi,
            replicas=1500, horizon=int(100 * exact), seed=31,
        )
        assert est.censored_fraction <= 0.01
        scaled.extend([c * c * exact, c * c * est.mean])
    assert max(scaled) / min(scaled) <= 4.0


# --- one walker population for many estimates ------------------------------------

def _per_job(sampler, jobs, replicas, horizon):
    return [m.estimate_hitting(sampler, x0, target, replicas, horizon, seed)
            for x0, target, seed in jobs]


def test_batch_equals_per_job_on_a_finite_kernel():
    k = random_dense_chain(np.random.default_rng(7), 6)
    near, far = [5], [0, 1]
    jobs = [(0, near, 11), (5, near, 12), (2, far, 13), (3, near, 14), (4, [5], 15)]
    replicas, horizon = 1500, 4  # 7500 walkers: job 2 straddles the 4096 chunk edge
    assert 2 * replicas < montecarlo._CHUNK < 3 * replicas
    batch = m.estimate_hitting_batch(k, jobs, replicas, horizon)
    assert list(map(repr, batch)) == list(map(repr, _per_job(k, jobs, replicas, horizon)))
    assert batch[1].mean == 0.0 and batch[1].censored_fraction == 0.0  # starts in its target
    assert any(0.0 < est.censored_fraction < 1.0 for est in batch)


def test_batch_equals_per_job_on_the_ball_walk():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    low = lambda xs: np.asarray(xs) <= 0.2  # noqa: E731
    jobs = [(0.0, high, 3), (1.0, high, 4), (0.5, low, 5), (0.5, high, 6), (0.9, low, 7)]
    replicas, horizon = 1100, 60  # 4400 walkers: job 4 straddles the chunk edge
    batch = m.estimate_hitting_batch(sampler, jobs, replicas, horizon)
    assert list(map(repr, batch)) == list(map(repr, _per_job(sampler, jobs, replicas, horizon)))
    assert batch[1].mean == 0.0  # starts in its target
    assert any(0.0 < est.censored_fraction < 1.0 for est in batch)


def test_batch_raises_for_the_first_all_censored_job():
    k = m.build_finite_kernel([[1.0, 0.0], [0.5, 0.5]])
    jobs = [(1, [0], 1), (0, [1], 7), (1, [0], 2), (0, [1], 8)]
    with pytest.raises(errors.AllCensored) as batch:
        m.estimate_hitting_batch(k, jobs, 50, 100)
    with pytest.raises(errors.AllCensored) as per_job:
        _per_job(k, jobs, 50, 100)
    assert str(batch.value) == str(per_job.value)
    assert "(seed 7)" in str(batch.value)


def test_replica_streams_block_matches_replica_generators():
    keys = [(5, 0), (5, 3), (2**64 - 1, 7), (11, 2), (5, 1)]
    streams = montecarlo._ReplicaStreams()
    for offset, width in [(0, 10), (8, 7), (4, 33), (300, 4)]:
        expected = np.array([montecarlo.replica_generator(s, r).random(offset + width)[offset:]
                             for s, r in keys])
        out = np.empty((len(keys), width))
        assert streams.block(keys, offset, out) is out
        assert np.array_equal(out, expected)
    with pytest.raises(ValueError):
        streams.block(keys, 6, np.empty((len(keys), 4)))


def test_replica_streams_block_takes_one_offset_per_walker():
    keys = [(5, 0), (5, 3), (2**64 - 1, 7), (11, 2), (5, 1)]
    offsets = [0, 300, 8, 4, 0]
    width = 13
    expected = np.array([montecarlo.replica_generator(s, r).random(o + width)[o:]
                         for (s, r), o in zip(keys, offsets)])
    out = np.empty((len(keys), width))
    assert np.array_equal(montecarlo._ReplicaStreams().block(keys, offsets, out), expected)
    with pytest.raises(ValueError):
        montecarlo._ReplicaStreams().block(keys, [0, 4, 8, 10, 0], out)


def test_replica_streams_write_philox_state_directly():
    # a failure here means numpy's philox_state layout no longer matches and
    # every block goes through the slower Philox.state assignment
    assert montecarlo._ReplicaStreams().path == "direct"


def _walk_alone(p, x0, target, seed, replica, horizon):
    """Oracle: one walker stepped by itself from its own fresh stream."""
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0
    rows = [list(r) for r in cdf]
    cur = x0
    for t, u in enumerate(montecarlo.replica_generator(seed, replica).random(horizon), 1):
        cur = bisect.bisect_right(rows[cur], u)
        if cur in target:
            return float(t), False
    return float(horizon), True


def test_refilled_population_matches_walkers_stepped_alone(monkeypatch):
    # hitting times spread from 1 to past the horizon, so walkers retire at
    # every step and the later ones are admitted while others are mid-stream
    p = np.array([[0.97, 0.03, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])
    k = m.build_finite_kernel(p)
    jobs = [(0, {2}, 5), (1, {2}, 6), (0, {1}, 7)]
    replicas, horizon = 3000, 250
    assert len(jobs) * replicas > 2 * montecarlo._CHUNK
    mixed = []
    block = montecarlo._ReplicaStreams.block

    def recording_block(self, keys, offsets, out):
        offsets = np.asarray(offsets)
        mixed.append(bool((offsets == 0).any() and (offsets > 0).any()))
        return block(self, keys, offsets, out)

    monkeypatch.setattr(montecarlo._ReplicaStreams, "block", recording_block)
    members = [np.isin(np.arange(3), list(target)) for _, target, _ in jobs]
    times, censored = montecarlo._first_hits(
        [x0 for x0, _, _ in jobs], [seed for *_, seed in jobs], [0, 1, 2],
        [member.__getitem__ for member in members], montecarlo._finite_advance(k),
        1, replicas, horizon, montecarlo._CHUNK)
    alone = [_walk_alone(p, x0, target, seed, r, horizon)
             for x0, target, seed in jobs for r in range(replicas)]
    assert times.tolist() == [t for t, _ in alone]
    assert censored.tolist() == [c for _, c in alone]
    assert any(mixed)  # some blocks served new and old walkers together
    assert 0.0 < censored.mean() < 0.1


def _ball_walk_first_hits(replicas, population):
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    arrivals = [lambda xs: xs <= 0.2, lambda xs: xs >= 0.75]
    # (start, seed, target): every job starts outside its target
    jobs = [(0.5, 3, 0), (0.0, 4, 1), (0.9, 5, 0), (0.5, 6, 1)]
    return montecarlo._first_hits(
        [x0 for x0, _, _ in jobs], [seed for _, seed, _ in jobs], [g for *_, g in jobs],
        arrivals, lambda pos, u: sampler.batch_step(pos, u[:, 0], u[:, 1]),
        sampler.draws_per_step, replicas, 300, population)  # past the 128-step row cap


def _finite_first_hits(replicas, population):
    p = np.array([[0.97, 0.03, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])
    members = [np.array([False, False, True]), np.array([False, True, False])]
    return montecarlo._first_hits(
        [0, 1, 0], [5, 6, 7], [0, 0, 1], [member.__getitem__ for member in members],
        montecarlo._finite_advance(m.build_finite_kernel(p)), 1, replicas, 250, population)


def _replica_prefix(result, replicas, jobs, keep):
    """The first ``keep`` replicas of each job; walker (job, r) is the same walker at any count."""
    return [a.reshape(jobs, replicas)[:, :keep].ravel().tolist() for a in result]


def test_population_is_a_pure_performance_parameter(monkeypatch):
    # times and censoring depend only on each walker's key and step, never
    # on how many walkers share a loop step or how wide the stream rows are
    wide = _ball_walk_first_hits(700, montecarlo._CONTINUOUS_POPULATION)  # 2800 walkers
    assert 0.0 < wide[1].mean() < 0.5  # some walkers are censored, most are not
    assert _replica_prefix(_ball_walk_first_hits(700, 1024), 700, 4, 700) == \
        _replica_prefix(wide, 700, 4, 700)
    for population in (1, 3):
        assert _replica_prefix(_ball_walk_first_hits(6, population), 6, 4, 6) == \
            _replica_prefix(wide, 700, 4, 6)
    full = _finite_first_hits(3000, montecarlo._CHUNK)  # 9000 walkers
    assert 0.0 < full[1].mean() < 0.1
    assert _replica_prefix(_finite_first_hits(40, 7), 40, 3, 40) == \
        _replica_prefix(full, 3000, 3, 40)
    monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 64)  # 4-step rows at 8 and 16 walkers
    assert _replica_prefix(_ball_walk_first_hits(6, 8), 6, 4, 6) == \
        _replica_prefix(wide, 700, 4, 6)
    assert _replica_prefix(_finite_first_hits(40, 16), 40, 3, 40) == \
        _replica_prefix(full, 3000, 3, 40)


def test_fused_population_blocks_stay_within_budget(monkeypatch):
    sizes, rows, started, runs = [], [], [], []
    block, first_hits = montecarlo._ReplicaStreams.block, montecarlo._first_hits

    def recording_block(self, keys, offsets, out):
        filled = block(self, keys, offsets, out)
        sizes.append(filled.size)
        rows.append(filled.shape[0])
        started.append(int(np.count_nonzero(np.asarray(offsets) == 0)))  # first blocks
        return filled

    def counting_first_hits(*args):
        runs.append(args)
        return first_hits(*args)

    monkeypatch.setattr(montecarlo._ReplicaStreams, "block", recording_block)
    monkeypatch.setattr(montecarlo, "_first_hits", counting_first_hits)
    harness._ballwalk_max_hitting(EXP, 1.0 / 6.0, 1.0 / 12.0, 256, 900, 0, 0)
    # 33 starts x 2 targets in one population; 12 of the 66 jobs start in
    # their target and take no walkers
    assert len(runs) == 1
    seeds = runs[0][1]
    assert len(seeds) == 54 and sum(started) == 54 * 256
    # the 13 824 walkers fill the ball-walk population, whose full block is
    # the whole budget: population x row steps x draws
    assert max(rows) == montecarlo._CONTINUOUS_POPULATION
    assert max(sizes) == montecarlo._BLOCK_DRAWS


# --- the finite step: guide table against searchsorted -----------------------------

BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest draw there can be


def _searchsorted_steps(p, cur, u):
    cdf = montecarlo._row_cdfs(p)
    nxt = np.empty_like(cur)
    for s in np.unique(cur):
        nxt[cur == s] = np.searchsorted(cdf[s], u[cur == s], side="right")
    return nxt


def _edge_draws(table, s, rng):
    """Draws at and next to every CDF entry and bucket edge of row s, plus random ones."""
    n, buckets = table.n, table.buckets
    marks = np.concatenate((table.cdf[s * n:(s + 1) * n], np.arange(buckets) / buckets))
    u = np.concatenate(([0.0, BELOW_ONE], marks, np.nextafter(marks, 0.0),
                        np.nextafter(marks, 2.0), rng.random(16)))
    return u[(u >= 0.0) & (u < 1.0)]


def _searchsorted_guide(p, buckets):
    """The guide table by one searchsorted per row, with the forced last column."""
    cdf = montecarlo._row_cdfs(p)
    edges = np.arange(buckets + 1) / buckets
    guide = np.array([np.searchsorted(row, edges, side="right") for row in cdf])
    guide[:, -1] = len(cdf) - 1
    return guide


def _assert_step_is_searchsorted(p, rng, rows=None):
    """The guide table against ``_searchsorted_guide``, then ``_step_states`` on
    the edge draws of ``rows`` (default all) and random draws from every row,
    with forward scans of 8, 1 and 0 steps."""
    p = np.asarray(p, dtype=float)
    table = montecarlo._guide_table(p)
    assert np.array_equal(table.guide.reshape(table.n, -1),
                          _searchsorted_guide(p, table.buckets))
    rows = range(table.n) if rows is None else rows
    u = [_edge_draws(table, s, rng) for s in rows] + [rng.random(table.n)]
    cur = np.concatenate([np.full(x.size, s) for s, x in zip(rows, u)] + [np.arange(table.n)])
    u = np.concatenate(u)
    want = _searchsorted_steps(p, cur, u)
    for scan in (montecarlo._SCAN_STEPS, 1, 0):  # 0: every straggler binary-searches
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_SCAN_STEPS", scan)
            got = montecarlo._step_states(table, cur, u)
        assert np.array_equal(got, want), scan
    return table


@given(st.integers(1, 12), st.integers(0, 10_000), st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@settings(max_examples=150, deadline=None)
def test_step_states_equals_searchsorted(n, seed, zero_share):
    rng = np.random.default_rng(seed)
    p = rng.gamma(0.5, size=(n, n)) * (rng.random((n, n)) >= zero_share)
    p[np.arange(n), rng.integers(0, n, size=n)] += 1e-3  # at least one entry per row
    _assert_step_is_searchsorted(p / p.sum(axis=1, keepdims=True), rng)


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_step_states_on_the_identity(n):
    _assert_step_is_searchsorted(np.eye(n), np.random.default_rng(n))


def test_step_states_on_two_state_chains():
    rng = np.random.default_rng(2)
    for a, b in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1e-300, 1.0), (0.25, 0.75)]:
        _assert_step_is_searchsorted([[1.0 - a, a], [b, 1.0 - b]], rng)


def test_step_states_when_the_cumsum_passes_one_early():
    row = np.array([8.0, 6.0, 5.0, 3.0]) / 10.0
    row = np.append(row / row.sum(), 0.0)
    assert np.cumsum(row)[-2] > 1.0  # so the forced last 1.0 is below the entry before it
    p = np.vstack([row, np.roll(row, 1), np.full(5, 0.2), row[::-1], np.eye(5)[4]])
    _assert_step_is_searchsorted(p, np.random.default_rng(3))


def test_step_states_in_a_bucket_of_many_tiny_entries():
    n = 300
    p = np.full((n, n), 1.0 / n)
    p[0] = 0.0
    p[0, 0] = 0.5
    p[0, 1:251] = 1e-9  # 250 entries inside the one bucket above 0.5
    p[0, 251:] = (0.5 - 250e-9) / (n - 251)
    table = _assert_step_is_searchsorted(p, np.random.default_rng(4), rows=[0, 1])
    row = table.guide[:table.buckets + 1]
    assert np.diff(row).max() > 200 > montecarlo._SCAN_STEPS


def test_guide_table_equals_searchsorted_on_the_corpus():
    for case in escape_corpus():
        for p in (case.kernel.p, m.restrict(case.kernel, case.cert.small_set, case.variant).kernel.p):
            table = montecarlo._guide_table(p)
            assert table.guide.dtype == np.int32
            assert np.array_equal(table.guide.reshape(table.n, -1),
                                  _searchsorted_guide(p, table.buckets)), case.name


def test_guide_table_is_coarsened_to_its_memory_cap(monkeypatch):
    # 4n = 1600 asks for 2048 buckets, 3.3 MB of int32 entries at n = 400
    k = random_dense_chain(np.random.default_rng(6), 400)
    table = _assert_step_is_searchsorted(k.p, np.random.default_rng(6), rows=[0, 199, 399])
    assert table.buckets == 1024 < 4 * k.n
    assert table.guide.dtype == np.int32
    assert table.guide.nbytes <= montecarlo._GUIDE_BYTES
    # the coarsest table, one bucket a row, still steps exactly
    monkeypatch.setattr(montecarlo, "_GUIDE_BYTES", 64)
    small = random_dense_chain(np.random.default_rng(7), 8)
    table = _assert_step_is_searchsorted(small.p, np.random.default_rng(7))
    assert table.buckets == 1 and table.guide.nbytes <= 64


def test_step_calls_count_every_walker_step(monkeypatch):
    # the traced benchmark counts walker-steps as the summed len() of what
    # _step_states returns, looked up through the module global
    calls = []
    step = montecarlo._step_states

    def counting_step(table, cur, u):
        nxt = step(table, cur, u)
        calls.append(len(nxt))
        return nxt

    monkeypatch.setattr(montecarlo, "_step_states", counting_step)
    k = random_dense_chain(np.random.default_rng(8), 6)
    est = m.estimate_hitting(k, 0, [5], replicas=9000, horizon=10_000, seed=4)
    assert est.censored_fraction == 0.0
    assert sum(calls) == pytest.approx(est.mean * est.replicas, rel=1e-12, abs=0)
    assert len(calls) > 1


# --- finite states outside the chain ---------------------------------------------------

def _no_walkers(*args):
    raise AssertionError("the walker loop ran")


@pytest.mark.parametrize("x0,target", [(-1, [0]), (4, [0]), (0, [-1]), (0, [1, 4])])
def test_finite_states_outside_the_chain_are_rejected(monkeypatch, x0, target):
    k = random_dense_chain(np.random.default_rng(1), 4)
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        m.estimate_hitting(k, x0, target, replicas=10, horizon=10, seed=0)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        m.estimate_hitting_batch(k, [(0, [1], 0), (x0, target, 0)], replicas=10, horizon=10)


@pytest.mark.parametrize("x0", [1.5, -0.05, float("nan"), float("inf")])
def test_ball_walk_starts_outside_the_unit_interval_are_rejected(monkeypatch, x0):
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    low = lambda xs: np.asarray(xs) <= 0.2  # noqa: E731  (-0.05 would lie in it)
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        m.estimate_hitting(sampler, x0, low, replicas=10, horizon=10, seed=0)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        m.estimate_hitting_batch(sampler, [(0.5, low, 0), (x0, low, 1)], replicas=10, horizon=10)


def test_ball_walk_starts_at_the_interval_ends_are_accepted():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    ends = m.estimate_hitting_batch(sampler, [(0.0, lambda xs: xs <= 0.2, 0),
                                              (1.0, lambda xs: xs >= 0.75, 1)], 10, 10)
    assert [est.mean for est in ends] == [0.0, 0.0]  # each starts in its target


@pytest.mark.parametrize("x0", [-1, 4])
def test_coupled_escape_rejects_a_start_outside_the_chain(monkeypatch, x0):
    rows = np.tile([0.55, 0.25, 0.15, 0.05], (4, 1))
    k = m.build_finite_kernel(rows, reversible_wrt=rows[0])
    dom = m.restrict(k, [1, 2, 3], "mh-restriction")  # holds state n - 1 = 3
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        m.coupled_escape_estimate(k, dom, x0, 5, replicas=10, seed=0)


# --- coupled escape --------------------------------------------------------------------

def _simple_dominated():
    rows = np.tile([0.55, 0.25, 0.15, 0.05], (4, 1))
    k = m.build_finite_kernel(rows, reversible_wrt=rows[0])
    dom = m.restrict(k, [0, 1, 2], "mh-restriction")
    return k, dom


def test_coupled_escape_full_space_never_decouples():
    rows = np.tile([0.5, 0.3, 0.2], (3, 1))
    k = m.build_finite_kernel(rows, reversible_wrt=rows[0])
    dom = m.restrict(k, [0, 1, 2], "mh-restriction")
    est = m.coupled_escape_estimate(k, dom, 0, 50, replicas=2000, seed=2)
    assert est.mean == 0.0


def test_coupled_escape_zero_steps():
    k, dom = _simple_dominated()
    est = m.coupled_escape_estimate(k, dom, 0, 0, replicas=100, seed=2)
    assert est.mean == 0.0


def test_coupled_escape_matches_exit_probability():
    # iid rows: exit mass per step is exactly 0.05
    k, dom = _simple_dominated()
    t = 10
    exact = 1.0 - (1.0 - 0.05) ** t
    est = m.coupled_escape_estimate(k, dom, 0, t, replicas=100_000, seed=8)
    assert abs(est.mean - exact) <= 3.0 * est.stderr


def test_coupled_escape_rejects_non_dominating():
    k, dom = _simple_dominated()
    fake = m.DominatedKernel(
        variant=dom.variant,
        base=dom.base,
        support=dom.support,
        kernel=m.build_finite_kernel(np.tile([0.2, 0.2, 0.6], (3, 1))),
        conditional_stationary=dom.conditional_stationary,
    )
    with pytest.raises(errors.NotDominating):
        m.coupled_escape_estimate(k, fake, 0, 5, replicas=10, seed=0)


def test_coupled_escape_below_drift_bound_on_one_case():
    case = escape_corpus()[8]
    dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
    est = m.coupled_escape_estimate(
        case.kernel, dom, case.x0, case.horizon, replicas=20_000, seed=4,
    )
    bound = m.escape_bound(case.cert.lam, case.cert.b, case.cert.r, case.cert.r_prime)
    assert est.mean <= bound + 3.0 * est.stderr
    assert est.mean > 0.0


def test_coupled_escape_pinned_bits():
    case = escape_corpus()[8]
    dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
    est = m.coupled_escape_estimate(
        case.kernel, dom, case.x0, case.horizon, replicas=20_000, seed=0,
    )
    assert repr(est) == (
        "McEstimate(mean=0.0308, stderr=0.00122173754633784, replicas=20000, "
        "seed=0, horizon=30, censored_fraction=0.0)"
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_coupled_escape_is_one_minus_censored_exit(seed):
    # decoupling by t is the g-chain leaving S by t, on the same streams
    case = escape_corpus()[9]
    dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
    outside = np.setdiff1d(np.arange(case.kernel.n), dom.support)
    replicas = 5000
    est = m.coupled_escape_estimate(
        case.kernel, dom, case.x0, case.horizon, replicas, seed)
    exit_est = m.estimate_hitting(
        case.kernel, case.x0, outside, replicas, case.horizon, seed)
    assert est.mean > 0.0
    # the same walkers decouple and exit; the two means differ only in how
    # the fraction is rounded (k / R against 1 - (R - k) / R)
    assert round(est.mean * replicas) == replicas - round(exit_est.censored_fraction * replicas)
    assert est.mean == pytest.approx(1.0 - exit_est.censored_fraction, rel=0.0, abs=1e-15)
    assert est.censored_fraction == 0.0


# --- the whole escape corpus ----------------------------------------------------------

CORPUS_REPLICAS = 10_000

# recorded before the walker population refilled and Philox state was
# written directly; compared with ==
CORPUS_PINNED = {
    (0, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (1, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (2, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=40, censored_fraction=0.0",
    (3, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=25, censored_fraction=0.0",
    (4, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (5, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=25, censored_fraction=0.0",
    (6, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (7, 0): "mean=0.0, stderr=0.0, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (8, 0): "mean=0.0303, stderr=0.0017142009358546181, replicas=10000, seed=0, horizon=30, censored_fraction=0.0",
    (9, 0): "mean=0.049, stderr=0.0021587880944186396, replicas=10000, seed=0, horizon=25, censored_fraction=0.0",
    (0, 3): "mean=0.0001, stderr=0.0001, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (1, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (2, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=40, censored_fraction=0.0",
    (3, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=25, censored_fraction=0.0",
    (4, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (5, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=25, censored_fraction=0.0",
    (6, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (7, 3): "mean=0.0, stderr=0.0, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (8, 3): "mean=0.0295, stderr=0.0016921174090862054, replicas=10000, seed=3, horizon=30, censored_fraction=0.0",
    (9, 3): "mean=0.048, stderr=0.0021377691656726105, replicas=10000, seed=3, horizon=25, censored_fraction=0.0",
}


def _corpus_estimates():
    estimates = {}
    for i, case in enumerate(escape_corpus()):
        dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
        for seed in (0, 3):
            estimates[i, seed] = m.coupled_escape_estimate(
                case.kernel, dom, case.x0, case.horizon, CORPUS_REPLICAS, seed)
    return estimates


@pytest.fixture(scope="module")
def corpus_estimates():
    return _corpus_estimates()


def test_coupled_escape_pinned_on_the_corpus(corpus_estimates):
    assert {key: repr(est) for key, est in corpus_estimates.items()} == {
        key: f"McEstimate({fields})" for key, fields in CORPUS_PINNED.items()}


def test_coupled_escape_agrees_with_the_exact_decoupling_probability(corpus_estimates):
    cases = escape_corpus()
    for (i, seed), est in corpus_estimates.items():
        case = cases[i]
        dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
        exact = decoupling_exact(case.kernel.p, dom.support, case.x0, case.horizon)
        # no walker escapes where exact * replicas is tiny, so est.stderr is
        # 0; the binomial deviation of the exact value bounds those cases
        sd = max(est.stderr, math.sqrt(exact * (1.0 - exact) / CORPUS_REPLICAS))
        assert abs(est.mean - exact) <= 4.0 * sd, (i, seed, est.mean, exact)


def test_state_path_when_the_layout_check_fails(monkeypatch, corpus_estimates):
    monkeypatch.setattr(montecarlo._ReplicaStreams, "_layout_ok", lambda self: False)
    assert montecarlo._ReplicaStreams().path == "state"
    assert _corpus_estimates() == corpus_estimates
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    jobs = [(0.0, high, 3), (0.5, high, 6)]
    fallback = m.estimate_hitting_batch(sampler, jobs, 700, 300)
    monkeypatch.undo()
    assert montecarlo._ReplicaStreams().path == "direct"
    assert fallback == m.estimate_hitting_batch(sampler, jobs, 700, 300)
