import bisect
import contextlib
import ctypes
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


def _no_walkers(*args):
    raise AssertionError("the walker loop ran")


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


def test_sample_path_pinned_on_a_finite_kernel():
    # recorded when sample_path ran its own searchsorted loop
    path = m.sample_path(PATH3, 0, 12, seed=6)
    assert path.dtype.kind == "i"
    assert path.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2]
    assert m.sample_path(PATH3, 0, 6, seed=4).tolist() == [0, 1, 0, 1, 0, 1, 2]


def test_sample_path_pinned_on_the_ball_walk():
    # recorded when sample_path ran its own scalar ball-walk step
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    path = m.sample_path(s, 0.5, 12, seed=123)
    assert [x.hex() for x in path.tolist()] == [
        "0x1.0000000000000p-1", "0x1.01169d23d214bp-1", "0x1.dd6b7aa8be686p-2",
        "0x1.cbdc3df3cbc8cp-2", "0x1.0133effacc3b2p-1", "0x1.0fb6cad0f2d7fp-1",
        "0x1.0fb6cad0f2d7fp-1", "0x1.1c03aa592a6ecp-1", "0x1.3985343608a88p-1",
        "0x1.1ed9d76816098p-1", "0x1.3130b02bf0137p-1", "0x1.2b1ea6efeaf40p-1",
        "0x1.11d509548ed66p-1",
    ]
    assert m.sample_path(s, 1.0, 3, seed=5).tolist() == [
        1.0, 1.0, 0.9634761175827589, 0.9321009716397155]


def test_sample_path_is_replica_zero_of_the_estimate():
    # the first arrival of the path is replica 0's hitting time
    k = random_dense_chain(np.random.default_rng(7), 6)
    path = m.sample_path(k, 0, 400, seed=13)
    first = int(np.flatnonzero(path == 5)[0])
    est = m.estimate_hitting(k, 0, [5], replicas=1, horizon=400, seed=13)
    assert est.mean == first


@pytest.mark.parametrize("x0", [-1, 3])
def test_sample_path_rejects_finite_starts_outside_the_chain(monkeypatch, x0):
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 3-state chain"):
        m.sample_path(PATH3, x0, 5, seed=0)


@pytest.mark.parametrize("x0", [1.5, -0.05, float("nan")])
def test_sample_path_rejects_ball_walk_starts_outside_the_unit_interval(monkeypatch, x0):
    s = m.ball_walk_sampler(EXP, 1.0 / 16.0)
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        m.sample_path(s, x0, 5, seed=0)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        m.sample_path(s, x0, 0, seed=0)


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


PATH3 = m.build_finite_kernel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])


def test_estimate_of_an_empty_target_runs_no_walkers(monkeypatch):
    # a finite kernel's rule gives no arrival test for a target that holds no
    # state, so its job is censored at the horizon without a walker
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    for empty in ([], set(), np.array([], dtype=int)):
        assert montecarlo._walker_rule(PATH3).arrival(empty) is None
        with pytest.raises(errors.AllCensored, match="no path from 0 hit the target within 100"):
            m.estimate_hitting(PATH3, 0, empty, replicas=50, horizon=100, seed=1)


def test_empty_target_jobs_leave_the_other_jobs_bit_identical(monkeypatch):
    k = PATH3
    reachable = [(k, 0, [2], 1, 50), (k, 1, [0], 4, 30)]  # (sampler, x0, target, seed, horizon)
    empty = (k, 0, [], 2, 50)
    walked = []
    first_hits = montecarlo._first_hits

    def recording_first_hits(starts, seeds, *args):
        walked.append(list(seeds))
        return first_hits(starts, seeds, *args)

    monkeypatch.setattr(montecarlo, "_first_hits", recording_first_hits)
    replicas = 300
    results = montecarlo._walk_jobs([*reachable, empty], replicas)
    assert walked == [[1, 4]]  # the empty-target job took no walkers
    times, censored = results[2]
    assert times.tolist() == [50.0] * replicas and censored.all()
    for (times, censored), (sampler, x0, target, seed, horizon) in zip(results, reachable):
        alone = m.estimate_hitting(sampler, x0, target, replicas, horizon, seed)
        assert montecarlo._summarize(times, seed, horizon, censored) == alone
        assert 0.0 <= alone.censored_fraction < 1.0
    # AllCensored names the first all-censored job in job order, walked or not
    never = (k, 0, [2], 3, 1)  # reaching 2 from 0 takes two steps
    with pytest.raises(errors.AllCensored, match=r"within 1 steps \(seed 3\)"):
        m.estimate_hitting_batch([reachable[0], never, empty], replicas)
    with pytest.raises(errors.AllCensored, match=r"within 50 steps \(seed 2\)"):
        m.estimate_hitting_batch([reachable[0], empty, never], replicas)


def test_every_job_of_a_failing_batch_is_answered(monkeypatch):
    # each job walks whatever another job's target holds: the empty-target job
    # takes no walkers of its own, the jobs after it still walk, and
    # AllCensored names it, the first all-censored job in job order
    k = PATH3
    reachable, empty, never = (k, 0, [2], 1, 50), (k, 0, [], 2, 50), (k, 0, [2], 3, 1)
    walked = []
    first_hits = montecarlo._first_hits

    def recording_first_hits(starts, seeds, *args):
        walked.append(list(seeds))
        return first_hits(starts, seeds, *args)

    monkeypatch.setattr(montecarlo, "_first_hits", recording_first_hits)
    with pytest.raises(errors.AllCensored, match=r"within 50 steps \(seed 2\)"):
        m.estimate_hitting_batch([reachable, empty, never], 300)
    assert walked == [[1, 3]]
    (_, empty_censored), (times, censored) = montecarlo._walk_jobs([empty, reachable], 300)
    assert walked == [[1, 3], [1]] and empty_censored.all()
    [(alone_times, alone_censored)] = montecarlo._walk_jobs([reachable], 300)
    assert times.tolist() == alone_times.tolist()
    assert censored.tolist() == alone_censored.tolist()


def test_a_drawable_state_of_probability_zero_is_walked_to(monkeypatch):
    # the rows sum to 1 - 2^-53 and the last CDF entry is set to 1.0, so the
    # step returns state 10 at the largest draw though p[s, 10] is 0: the
    # walkers of a job aimed at it must run
    k = m.build_finite_kernel([[0.1] * 10 + [0.0]] * 11)
    table = montecarlo._guide_table(k.p)
    assert montecarlo._step_states(table, np.array([0]), np.array([BELOW_ONE])).tolist() == [10]
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(AssertionError, match="the walker loop ran"):
        m.estimate_hitting(k, 0, [10], replicas=10, horizon=5, seed=0)


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


def _batch(sampler, jobs, replicas, horizon):
    """``estimate_hitting_batch`` of the jobs (x0, target, seed) of one sampler and horizon."""
    return m.estimate_hitting_batch(
        [(sampler, x0, target, seed, horizon) for x0, target, seed in jobs], replicas)


def test_batch_equals_per_job_on_a_finite_kernel():
    k = random_dense_chain(np.random.default_rng(7), 6)
    near, far = [5], [0, 1]
    jobs = [(0, near, 11), (5, near, 12), (2, far, 13), (3, near, 14), (4, [5], 15)]
    replicas, horizon = 1500, 4  # 7500 walkers: job 2 straddles the 4096 chunk edge
    assert 2 * replicas < montecarlo._population(1) < 3 * replicas
    batch = _batch(k, jobs, replicas, horizon)
    assert list(map(repr, batch)) == list(map(repr, _per_job(k, jobs, replicas, horizon)))
    assert batch[1].mean == 0.0 and batch[1].censored_fraction == 0.0  # starts in its target
    assert any(0.0 < est.censored_fraction < 1.0 for est in batch)


def test_batch_equals_per_job_on_the_ball_walk():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    low = lambda xs: np.asarray(xs) <= 0.2  # noqa: E731
    jobs = [(0.0, high, 3), (1.0, high, 4), (0.5, low, 5), (0.5, high, 6), (0.9, low, 7)]
    replicas, horizon = 1100, 60  # 4400 walkers: job 4 straddles the chunk edge
    batch = _batch(sampler, jobs, replicas, horizon)
    assert list(map(repr, batch)) == list(map(repr, _per_job(sampler, jobs, replicas, horizon)))
    assert batch[1].mean == 0.0  # starts in its target
    assert any(0.0 < est.censored_fraction < 1.0 for est in batch)


def test_batch_raises_for_the_first_all_censored_job():
    k = m.build_finite_kernel([[1.0, 0.0], [0.5, 0.5]])
    jobs = [(1, [0], 1), (0, [1], 7), (1, [0], 2), (0, [1], 8)]
    with pytest.raises(errors.AllCensored) as batch:
        _batch(k, jobs, 50, 100)
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
    # counter -1 would wrap to 2**64 - 1 and read another part of the stream
    with pytest.raises(ValueError):
        montecarlo._ReplicaStreams().block(keys, [0, 4, 8, -4, 0], out)


def test_replica_streams_write_philox_state_directly():
    # a failure here means numpy's philox_state layout no longer matches and
    # every block goes through the slower Philox.state assignment
    assert montecarlo._ReplicaStreams().path == "direct"


@pytest.fixture(scope="module")
def streams_on_both_paths():
    """A ``_ReplicaStreams`` on the direct path and one on the state path."""
    direct, state = montecarlo._ReplicaStreams(), _state_path_streams()
    assert (direct.path, state.path) == ("direct", "state")
    return direct, state


@st.composite
def _stream_blocks(draw):
    """(keys, offsets, width): rows of a few seeds, offsets multiples of 4 up to 1000."""
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))
    keys = draw(st.lists(st.tuples(st.sampled_from(seeds), st.integers(0, 2**64 - 1)),
                         min_size=1, max_size=8))
    offsets = draw(st.lists(st.integers(0, 250).map(lambda k: 4 * k),
                            min_size=len(keys), max_size=len(keys)))
    return keys, offsets, draw(st.integers(0, 100))


@given(_stream_blocks())
@settings(max_examples=150, deadline=None)
def test_block_rows_are_replica_generator_draws_on_both_paths(streams_on_both_paths, block):
    keys, offsets, width = block
    expected = np.array([montecarlo.replica_generator(s, r).random(o + width)[o:]
                         for (s, r), o in zip(keys, offsets)])
    for streams in streams_on_both_paths:
        out = np.full((len(keys), width), -1.0)
        assert np.array_equal(streams.block(keys, offsets, out), expected), streams.path


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make_out, offset, error", [
    pytest.param(lambda: np.full(12, -1.0), 0, ValueError, id="1-D"),
    pytest.param(lambda: np.full((2, 2, 4), -1.0), 0, ValueError, id="3-D"),
    pytest.param(lambda: np.full((2, 8), -1.0)[:, ::2], 0, ValueError, id="strided"),
    pytest.param(lambda: np.full((2, 4), -1.0, order="F"), 0, ValueError, id="fortran"),
    pytest.param(lambda: _read_only(np.full((2, 4), -1.0)), 0, ValueError, id="read-only"),
    pytest.param(lambda: np.full((2, 4), -1.0, dtype=np.float32), 0, TypeError, id="float32"),
    pytest.param(lambda: np.full((2, 4), -1.0, dtype=">f8"), 0, TypeError, id="big-endian"),
    pytest.param(lambda: np.full((3, 4), -1.0), 0, ValueError, id="rows-not-keys"),
    pytest.param(lambda: np.full((2, 4), -1.0), -4, ValueError, id="negative-offset"),
    pytest.param(lambda: np.full((2, 4), -1.0), 2, ValueError, id="offset-not-4k"),
])
def test_block_refuses_an_unfit_out_before_writing(streams_on_both_paths, make_out, offset,
                                                   error):
    for streams in streams_on_both_paths:
        out = make_out()
        with pytest.raises(error):
            streams.block([(5, 0), (5, 1)], offset, out)
        assert np.all((out.base if out.base is not None else out) == -1.0), streams.path


def test_consecutive_blocks_fill_their_own_buffers_on_both_paths(streams_on_both_paths):
    # the direct path keeps its records and destination pointers from block to
    # block; a second block, of another width, buffer and seed, fills only its
    # own buffer, at its own width
    blocks = [([(5, 0), (5, 3), (5, 1)], [0, 8, 4], 3), ([(9, 1), (2**64 - 1, 0)], [4, 0], 8)]
    for streams in streams_on_both_paths:
        outs = [np.full((len(keys), width), -1.0) for keys, _, width in blocks]
        for (keys, offsets, _), out in zip(blocks, outs):
            streams.block(keys, offsets, out)
        for (keys, offsets, width), out in zip(blocks, outs):
            expected = [montecarlo.replica_generator(s, r).random(o + width)[o:]
                        for (s, r), o in zip(keys, offsets)]
            assert np.array_equal(out, expected), streams.path


def _state_path_streams():
    """A ``_ReplicaStreams`` built as where record fills cannot stand in for
    numpy's Philox; the decision kept for the process is left as it is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_record_fill", lambda: None)
        return montecarlo._ReplicaStreams()


@contextlib.contextmanager
def _stream_path_decided_under(owner, name, value):
    """Set ``owner.name`` to ``value`` and make the stream path decision
    afresh under it.  On exit the patch is undone first and the decision is
    then cleared, so that the next walker loop decides without it, even
    when the body fails."""
    clear = montecarlo._record_fill.cache_clear
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, value)
            clear()
            yield mp
    finally:
        clear()


def _philox_at(seed, replica, counter, width):
    """Oracle: ``width`` draws of the stream keyed (seed, replica) after ``counter``
    Philox counter increments, at any counter."""
    bg = np.random.Philox(key=np.array([seed, replica], dtype=np.uint64),
                          counter=np.array([counter, 0, 0, 0], dtype=np.uint64))
    return np.random.Generator(bg).random(width)


@pytest.mark.parametrize("width", [*range(1, 10), 48])
def test_record_fill_across_chunks_matches_the_state_path(monkeypatch, width):
    # a table of 3 records fills a block of 8 rows in three chunks, then one of
    # 5 rows in two, so each record is reused at other keys and counters; the
    # seed changes inside the second chunk of each block, and the offsets
    # reach counters of 2**61 - 1, the largest an int64 offset gives
    monkeypatch.setattr(montecarlo, "_RECORDS", 3)
    big = 2**63 - 4
    blocks = [([(5, 0), (5, 3), (5, 1), (5, 2**64 - 1), (9, 4), (9, 0), (2**64 - 1, 7), (0, 0)],
               [0, 4, 300, big, 8, big - 4, 2**40, 12]),
              ([(7, 2), (7, 2), (8, 2), (8, 5), (8, 6)], [big, 0, 4, 2**62, 96])]
    direct, state = montecarlo._ReplicaStreams(), _state_path_streams()
    assert (direct.path, state.path) == ("direct", "state")
    for keys, offsets in blocks:
        got = direct.block(keys, offsets, np.full((len(keys), width), -1.0))
        want = state.block(keys, offsets, np.full((len(keys), width), -1.0))
        assert np.array_equal(got, want)
        assert np.array_equal(got, [_philox_at(s, r, o // 4, width)
                                    for (s, r), o in zip(keys, offsets)])
        for row, (s, r), o in zip(got, keys, offsets):
            if o < 1000:
                stream = montecarlo.replica_generator(s, r)
                assert np.array_equal(row, stream.random(o + width)[o:])
    assert len(direct._records.dests) == 3


def test_record_fill_of_a_population_in_many_chunks():
    # one block of 2 * 512 + 5 rows in the default table, as a finite-kernel
    # population fills them: records 0-4 fill a row in each of three
    # chunks, the others in two
    rng = np.random.default_rng(12)
    rows = 2 * montecarlo._RECORDS + 5
    keys = np.column_stack((np.sort(rng.integers(0, 3, rows)), rng.integers(0, 25_000, rows)))
    offsets = rng.integers(0, 40, rows) * 4
    for width in (25, 40):
        got = montecarlo._ReplicaStreams().block(keys, offsets, np.empty((rows, width)))
        assert np.array_equal(got, _state_path_streams().block(keys, offsets,
                                                               np.empty((rows, width))))


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
    assert len(jobs) * replicas > 2 * montecarlo._population(1)
    mixed = []
    block = montecarlo._ReplicaStreams.block

    def recording_block(self, keys, offsets, out):
        offsets = np.asarray(offsets)
        mixed.append(bool((offsets == 0).any() and (offsets > 0).any()))
        return block(self, keys, offsets, out)

    monkeypatch.setattr(montecarlo._ReplicaStreams, "block", recording_block)
    members = [np.isin(np.arange(3), list(target)) for _, target, _ in jobs]
    times, censored = montecarlo._first_hits(
        [x0 for x0, _, _ in jobs], [seed for *_, seed in jobs], [horizon] * 3, [0, 1, 2],
        [member.__getitem__ for member in members], montecarlo._walker_rule(k).advance([k]),
        1, replicas, montecarlo._population(1))
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
        [x0 for x0, _, _ in jobs], [seed for _, seed, _ in jobs],
        [300] * len(jobs),  # past the 128-step row cap
        [g for *_, g in jobs], arrivals, montecarlo._walker_rule(sampler).advance([sampler] * 2),
        sampler.draws_per_step, replicas, population)


def _finite_first_hits(replicas, population):
    p = np.array([[0.97, 0.03, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])
    k = m.build_finite_kernel(p)
    members = [np.array([False, False, True]), np.array([False, True, False])]
    return montecarlo._first_hits(
        [0, 1, 0], [5, 6, 7], [250] * 3, [0, 0, 1], [member.__getitem__ for member in members],
        montecarlo._walker_rule(k).advance([k]), 1, replicas, population)


def _replica_prefix(result, replicas, jobs, keep):
    """The first ``keep`` replicas of each job; walker (job, r) is the same walker at any count."""
    return [a.reshape(jobs, replicas)[:, :keep].ravel().tolist() for a in result]


def test_population_is_a_pure_performance_parameter(monkeypatch):
    # times and censoring depend only on each walker's key and step, never
    # on how many walkers share a loop step or how wide the stream rows are
    wide = _ball_walk_first_hits(700, montecarlo._population(2))  # 2800 walkers
    assert 0.0 < wide[1].mean() < 0.5  # some walkers are censored, most are not
    assert _replica_prefix(_ball_walk_first_hits(700, 1024), 700, 4, 700) == \
        _replica_prefix(wide, 700, 4, 700)
    for population in (1, 3):
        assert _replica_prefix(_ball_walk_first_hits(6, population), 6, 4, 6) == \
            _replica_prefix(wide, 700, 4, 6)
    full = _finite_first_hits(3000, montecarlo._population(1))  # 9000 walkers
    assert 0.0 < full[1].mean() < 0.1
    assert _replica_prefix(_finite_first_hits(40, 7), 40, 3, 40) == \
        _replica_prefix(full, 3000, 3, 40)
    monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 64)  # 4-step rows at 8 and 16 walkers
    assert _replica_prefix(_ball_walk_first_hits(6, 8), 6, 4, 6) == \
        _replica_prefix(wide, 700, 4, 6)
    assert _replica_prefix(_finite_first_hits(40, 16), 40, 3, 40) == \
        _replica_prefix(full, 3000, 3, 40)


def test_per_job_horizons_match_runs_of_one_horizon(monkeypatch):
    # jobs of horizons 7, 50 and 0 in one population give what the jobs of
    # each horizon give alone: the horizon-7 walkers expire at step 7 of a
    # 50-step block while the horizon-50 ones walk on, and a horizon-0 job
    # takes no step
    p = np.array([[0.97, 0.03, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])
    k = m.build_finite_kernel(p)
    advance = montecarlo._walker_rule(k).advance([k])
    at_two = np.array([False, False, True]).__getitem__
    jobs = [(1, 5, 7), (1, 6, 50), (0, 7, 0), (1, 8, 7)]  # (start, seed, horizon)
    replicas = 200
    blocks = []
    block = montecarlo._ReplicaStreams.block

    def recording_block(self, keys, offsets, out):
        blocks.append((sorted(set(np.asarray(keys)[:, 0].tolist())), out.shape[1]))
        return block(self, keys, offsets, out)

    def run(some, population=montecarlo._population(1)):
        times, censored = montecarlo._first_hits(
            [x0 for x0, _, _ in some], [seed for _, seed, _ in some],
            [horizon for *_, horizon in some], [0] * len(some), [at_two], advance, 1,
            replicas, population)
        return times.reshape(len(some), replicas), censored.reshape(len(some), replicas)

    monkeypatch.setattr(montecarlo._ReplicaStreams, "block", recording_block)
    times, censored = run(jobs)
    assert blocks == [([5, 6, 8], 50)]  # one block; job 2 took no walkers
    for horizon in (7, 50, 0):
        mine = [j for j, job in enumerate(jobs) if job[2] == horizon]
        alone_times, alone_censored = run([jobs[j] for j in mine])
        assert times[mine].tolist() == alone_times.tolist()
        assert censored[mine].tolist() == alone_censored.tolist()
    assert times[2].tolist() == [0.0] * replicas and censored[2].all()
    short = times[[0, 3]]
    assert short.max() == 7.0 and 0.0 < censored[[0, 3]].mean() < 1.0
    assert 0.0 < censored[1].mean() < censored[[0, 3]].mean()
    # the horizon-50 job is admitted first, and the results do not change
    blocks.clear()
    small = run(jobs, population=100)
    assert blocks[0][0] == [6]
    assert small[0].tolist() == times.tolist() and small[1].tolist() == censored.tolist()


def test_horizons_ending_at_several_steps_of_one_block(monkeypatch):
    # horizons 3, 5 and 9 end at three steps of one 50-step block, and at
    # each of them walkers of the other jobs arrive while these expire;
    # every job gives what it gives alone
    p = np.array([[0.97, 0.03, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]])
    k = m.build_finite_kernel(p)
    advance = montecarlo._walker_rule(k).advance([k])
    at_two = np.array([False, False, True]).__getitem__
    jobs = [(1, 5, 3), (1, 6, 9), (1, 7, 50), (1, 8, 5)]  # (start, seed, horizon)
    replicas = 300
    widths = []
    block = montecarlo._ReplicaStreams.block

    def recording_block(self, keys, offsets, out):
        widths.append(out.shape[1])
        return block(self, keys, offsets, out)

    def run(some):
        times, censored = montecarlo._first_hits(
            [x0 for x0, _, _ in some], [seed for _, seed, _ in some],
            [horizon for *_, horizon in some], [0] * len(some), [at_two], advance, 1,
            replicas, montecarlo._population(1))
        return times.reshape(len(some), replicas), censored.reshape(len(some), replicas)

    monkeypatch.setattr(montecarlo._ReplicaStreams, "block", recording_block)
    times, censored = run(jobs)
    assert widths == [50]
    for j, (_, _, horizon) in enumerate(jobs):
        alone_times, alone_censored = run([jobs[j]])
        assert times[j].tolist() == alone_times[0].tolist()
        assert censored[j].tolist() == alone_censored[0].tolist()
        if horizon < 50:
            assert censored[j].any() and times[j].max() == horizon
            others = np.arange(len(jobs)) != j
            assert ((times[others] == horizon) & ~censored[others]).any()


def _counted(run, owner, name):
    """(outcome, walker-steps) of ``run()``: the reprs of its estimates, or
    the message of the AllCensored it raises, and the summed len() of what
    the step ``owner.name`` returned, as the traced benchmark counts it."""
    calls = []
    step = getattr(owner, name)

    def counting_step(*args):
        nxt = step(*args)
        calls.append(len(nxt))
        return nxt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, counting_step)
        try:
            outcome = list(map(repr, run()))
        except errors.AllCensored as censored:
            outcome = str(censored)
    return outcome, sum(calls)


def _batch_against_alone(jobs, replicas, owner, name):
    """The batch of ``jobs`` equals each job run alone, and takes as many walker-steps."""
    together, steps = _counted(lambda: m.estimate_hitting_batch(jobs, replicas), owner, name)
    alone = [_counted(lambda job=job: m.estimate_hitting_batch([job], replicas), owner, name)
             for job in jobs]
    first_censored = [outcome for outcome, _ in alone if isinstance(outcome, str)]
    assert together == (first_censored[0] if first_censored
                        else [outcome[0] for outcome, _ in alone])
    assert steps == sum(n for _, n in alone)


K6_TARGETS = ([5], [2, 3], [0, 4])  # three target objects, so three arrival groups


@st.composite
def _finite_batches(draw):
    """(start, seed, horizon, target index) of 1-6 jobs, horizons 1-100, and a population."""
    jobs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**64 - 1),
                                   st.integers(1, 100), st.integers(0, 2)),
                         min_size=1, max_size=6))
    return jobs, draw(st.sampled_from([montecarlo._population(1), 24]))


@given(_finite_batches())
@settings(max_examples=40, deadline=None)
def test_batches_of_any_horizons_equal_their_jobs_alone(batch):
    # horizons end at many steps of one block, most of them not multiples of
    # 4; one target object gives one arrival group, several give several
    jobs, population = batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_population", lambda draws: population)
        for targets in ([K6_TARGETS[0]] * 3, K6_TARGETS):
            _batch_against_alone([(K6, x0, targets[t], seed, horizon)
                                  for x0, seed, horizon, t in jobs],
                                 25, montecarlo, "_step_states")


def test_a_ball_walk_batch_of_two_targets_equals_its_jobs_alone():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    low, high = (lambda xs: xs <= 0.2), (lambda xs: xs >= 0.75)
    jobs = [(sampler, 0.5, low, 3, 9), (sampler, 0.3, high, 4, 50), (sampler, 0.25, low, 5, 3),
            (sampler, 0.6, high, 6, 17), (sampler, 0.5, low, 7, 50)]
    _batch_against_alone(jobs, 200, m.ContinuousSampler1D, "batch_step")


def test_several_ball_walks_step_in_one_population():
    # each walker steps with its own sampler's c, so every estimate is the
    # one its sampler gives alone
    wide, narrow = m.ball_walk_sampler(EXP, 1.0 / 6.0), m.ball_walk_sampler(EXP, 1.0 / 8.0)
    low = lambda xs: xs <= 0.2  # noqa: E731
    jobs = [(wide, 0.9, low, 1, 400), (narrow, 0.9, low, 2, 600), (wide, 0.1, low, 3, 400)]
    together = m.estimate_hitting_batch(jobs, 300)
    alone = [m.estimate_hitting(s, x0, target, 300, horizon, seed)
             for s, x0, target, seed, horizon in jobs]
    assert together == alone
    assert together[2].mean == 0.0  # starts in its target


_KERNEL_JOB = (PATH3, 0, [2], 1, 10)
_BALL_WALK_JOB = (m.ball_walk_sampler(EXP, 1.0 / 8.0), 0.9, lambda xs: xs <= 0.2, 1, 10)
_UNIFORM = m.DensitySpec(kind="uniform", params={})


@pytest.mark.parametrize("jobs, message", [
    # equal rows, but another kernel object
    ([_KERNEL_JOB, (m.build_finite_kernel(PATH3.p), 0, [2], 2, 10)],
     "only the jobs of one finite kernel share a walker population"),
    ([_KERNEL_JOB, _BALL_WALK_JOB], "only the jobs of one finite kernel share a walker population"),
    ([_BALL_WALK_JOB, (m.ball_walk_sampler(_UNIFORM, 1.0 / 8.0), *_BALL_WALK_JOB[1:])],
     "only ball walks of one target density share a walker population"),
    ([_BALL_WALK_JOB, _KERNEL_JOB], "only ball walks of one target density share a walker population"),
], ids=["two-kernels", "kernel-then-ball-walk", "two-densities", "ball-walk-then-kernel"])
def test_a_population_takes_one_kernel_or_ball_walks_of_one_density(monkeypatch, jobs, message):
    # the first job's sampler decides the population's kind, and the message
    # names that kind; no walker runs
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match=message):
        m.estimate_hitting_batch(jobs, 5)


@pytest.mark.parametrize("draws,population", [(1, 4096), (2, 2048)])
def test_population_fills_the_block_with_rows_of_row_steps(draws, population):
    # finite kernels take one draw a step, the ball walk two
    assert montecarlo._population(draws) == population
    assert population * montecarlo._ROW_STEPS * draws == montecarlo._BLOCK_DRAWS


def test_a_population_too_large_for_the_block_is_refused(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 64)  # 4-step rows hold 8 ball walkers
    monkeypatch.setattr(montecarlo, "_ReplicaStreams", _no_walkers)
    with pytest.raises(ValueError, match="do not fit"):
        _ball_walk_first_hits(6, 9)
    with pytest.raises(ValueError, match="do not fit"):
        _finite_first_hits(40, 17)
    with pytest.raises(ValueError, match="do not fit"):
        _finite_first_hits(40, 0)


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
    harness._ballwalk_max_hitting(EXP, [(1.0 / 6.0, 900, 0)], 1.0 / 12.0, 256, 0)
    # 33 starts x 2 targets in one population; 12 of the 66 jobs start in
    # their target and take no walkers
    assert len(runs) == 1
    seeds = runs[0][1]
    assert len(seeds) == 54 and sum(started) == 54 * 256
    # the 13 824 walkers fill the ball-walk population, whose full block is
    # the whole budget: population x row steps x draws
    assert max(rows) == montecarlo._population(2)
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


# (_SCAN_STEPS, _FINISH_ONE_BY_ONE): the defaults, forward scans of 1 and 0
# steps, then no walker finishing alone (every one left after the scan
# binary-searches as one vector, without and with the scan) and every walker
# finishing alone (the scan stops at once)
_STEP_SETTINGS = [(montecarlo._SCAN_STEPS, montecarlo._FINISH_ONE_BY_ONE),
                  (1, montecarlo._FINISH_ONE_BY_ONE), (0, montecarlo._FINISH_ONE_BY_ONE),
                  (montecarlo._SCAN_STEPS, 0), (0, 0), (montecarlo._SCAN_STEPS, 1 << 30)]


def _assert_step_is_searchsorted(p, rng, rows=None, more=()):
    """The guide table against ``_searchsorted_guide``, then ``_step_states`` on
    the edge draws of ``rows`` (default all), random draws from every row and
    the draws of each (state, draws) pair in ``more``, under every setting of
    ``_STEP_SETTINGS``."""
    p = np.asarray(p, dtype=float)
    table = montecarlo._guide_table(p)
    assert np.array_equal(table.guide.reshape(table.n, -1),
                          _searchsorted_guide(p, table.buckets))
    rows = range(table.n) if rows is None else rows
    starts = [*rows, *range(table.n), *(s for s, _ in more)]
    u = ([_edge_draws(table, s, rng) for s in rows] + list(rng.random((table.n, 1)))
         + [np.asarray(x, dtype=float) for _, x in more])
    cur = np.concatenate([np.full(x.size, s) for s, x in zip(starts, u)])
    u = np.concatenate(u)
    want = _searchsorted_steps(p, cur, u)
    for scan, few in _STEP_SETTINGS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_SCAN_STEPS", scan)
            mp.setattr(montecarlo, "_FINISH_ONE_BY_ONE", few)
            got = montecarlo._step_states(table, cur, u)
        assert np.array_equal(got, want), (scan, few)
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
    rng = np.random.default_rng(4)
    # more walkers than finish one at a time, each drawing among the 250
    u = 0.5 + rng.uniform(0.0, 250e-9, size=4 * montecarlo._FINISH_ONE_BY_ONE)
    table = _assert_step_is_searchsorted(p, rng, rows=[0, 1], more=[(0, u)])
    row = table.guide[:table.buckets + 1]
    assert np.diff(row).max() > 200 > montecarlo._SCAN_STEPS
    # with the default settings they are still more after the scan, so the
    # vectorized binary search finishes them
    ahead = np.searchsorted(table.cdf[:n], u, side="right") - row[(u * table.buckets).astype(int)]
    assert (ahead > montecarlo._SCAN_STEPS).sum() > montecarlo._FINISH_ONE_BY_ONE


def test_step_states_in_the_top_bucket_of_the_corpus():
    # draws in [1 - 1/buckets, 1), where a geometric tail puts many tiny
    # entries into one bucket, from every state of every corpus chain and
    # of the restriction its coupling walks
    rng = np.random.default_rng(8)
    for case in escape_corpus():
        for p in (case.kernel.p, m.restrict(case.kernel, case.cert.small_set, case.variant).kernel.p):
            buckets = montecarlo._guide_table(p).buckets
            edge = 1.0 - 1.0 / buckets
            u = np.clip(edge + rng.random((len(p), 8)) / buckets, edge, BELOW_ONE)
            u[:, :3] = edge, np.nextafter(edge, 2.0), BELOW_ONE
            assert np.all(u >= edge) and np.all(u < 1.0)
            _assert_step_is_searchsorted(p, rng, rows=[], more=list(enumerate(u)))


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


def test_ball_walk_step_calls_count_every_walker_step(monkeypatch):
    # the traced benchmark counts ball-walk walker-steps as the summed len()
    # of what ContinuousSampler1D.batch_step returns, looked up through the
    # class attribute; here two step sizes c share one population
    calls = []
    step = m.ContinuousSampler1D.batch_step

    def counting_step(self, xs, u1, u2):
        nxt = step(self, xs, u1, u2)
        calls.append(len(nxt))
        return nxt

    monkeypatch.setattr(m.ContinuousSampler1D, "batch_step", counting_step)
    wide, narrow = m.ball_walk_sampler(EXP, 1.0 / 6.0), m.ball_walk_sampler(EXP, 1.0 / 8.0)
    low = lambda xs: xs <= 0.2  # noqa: E731
    jobs = [(wide, 0.9, low, 1, 400), (narrow, 0.9, low, 2, 600), (narrow, 0.5, low, 3, 600)]
    ests = m.estimate_hitting_batch(jobs, 1500)
    assert sum(calls) == pytest.approx(sum(e.mean * e.replicas for e in ests), rel=1e-12, abs=0)
    assert len(calls) > 1


# --- finite states outside the chain ---------------------------------------------------

@pytest.mark.parametrize("x0,target", [(-1, [0]), (4, [0]), (0, [-1]), (0, [1, 4])])
def test_finite_states_outside_the_chain_are_rejected(monkeypatch, x0, target):
    k = random_dense_chain(np.random.default_rng(1), 4)
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        m.estimate_hitting(k, x0, target, replicas=10, horizon=10, seed=0)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        _batch(k, [(0, [1], 0), (x0, target, 0)], replicas=10, horizon=10)


K6 = random_dense_chain(np.random.default_rng(0), 6)
TRACE6 = m.restrict(K6, [0, 1, 2], "trace")  # dominates K6 on {0, 1, 2}
MASK6 = np.arange(6) >= 3  # a boolean mask is not a set of states


def _bad_set(bad):
    return MASK6 if bad is None else [0, bad]


def _bad_state(bad):
    return True if bad is None else bad


# every function that takes states of a finite chain, fed one value that is not a state
STATE_TAKERS = {
    "mixing_time": lambda bad: m.mixing_time(K6, subset=_bad_set(bad)),
    "pseudo_minorization": lambda bad: m.pseudo_minorization(K6, _bad_set(bad), 2),
    "expected_hitting": lambda bad: m.expected_hitting(K6, _bad_set(bad)),
    "exit_probability-subset": lambda bad: m.exit_probability(K6, _bad_set(bad), 0, 3),
    "exit_probability-x0": lambda bad: m.exit_probability(K6, range(6), _bad_state(bad), 3),
    "restrict": lambda bad: m.restrict(K6, _bad_set(bad), "trace"),
    "estimate_hitting-x0": lambda bad: m.estimate_hitting(
        K6, _bad_state(bad), [5], replicas=10, horizon=10, seed=0),
    "estimate_hitting-target": lambda bad: m.estimate_hitting(
        K6, 0, _bad_set(bad), replicas=10, horizon=10, seed=0),
    "estimate_hitting_batch": lambda bad: _batch(
        K6, [(0, [5], 0), (_bad_state(bad), [5], 1)], replicas=10, horizon=10),
    "coupled_escape_estimate": lambda bad: m.coupled_escape_estimate(
        K6, TRACE6, _bad_state(bad), 5, replicas=10, seed=0),
    "sample_path": lambda bad: m.sample_path(K6, _bad_state(bad), 5, seed=0),
}


@pytest.mark.parametrize("bad", [1.5, -1, 6, float("nan"), None],
                         ids=["1.5", "-1", "n", "nan", "mask"])
@pytest.mark.parametrize("taker", list(STATE_TAKERS))
def test_values_that_are_not_states_are_rejected(monkeypatch, taker, bad):
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 6-state chain"):
        STATE_TAKERS[taker](bad)


# every function that walks, fed a seed and a step count
WALKERS = {
    "estimate_hitting": lambda seed, steps: m.estimate_hitting(
        K6, 0, [5], replicas=10, horizon=steps, seed=seed),
    "estimate_hitting_batch": lambda seed, steps: m.estimate_hitting_batch(
        [(K6, 0, [5], 0, 10), (K6, 0, [5], seed, steps)], 10),
    "coupled_escape_estimate": lambda seed, steps: m.coupled_escape_estimate(
        K6, TRACE6, 0, steps, replicas=10, seed=seed),
    "sample_path": lambda seed, steps: m.sample_path(K6, 0, steps, seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, True, np.int64(-3), -1, 2**64, np.float64(2.0), "3"],
                         ids=["1.5", "True", "int64(-3)", "-1", "2**64", "float64", "str"])
@pytest.mark.parametrize("walker", list(WALKERS))
def test_seeds_that_are_not_a_philox_key_word_are_rejected(monkeypatch, walker, seed):
    # a float or bool used to run the streams of its int, a negative numpy
    # int those of its uint64 wrap, and -1 or 2**64 failed inside the loop
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        WALKERS[walker](seed, 10)


@pytest.mark.parametrize("steps", [2.5, True, np.float64(10.0), -1, np.int64(-1)],
                         ids=["2.5", "True", "float64", "-1", "int64(-1)"])
@pytest.mark.parametrize("walker", list(WALKERS))
def test_step_counts_that_are_not_nonnegative_integers_are_rejected(monkeypatch, walker,
                                                                    steps):
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*63\)"):
        WALKERS[walker](0, steps)


@pytest.mark.parametrize("walker", list(WALKERS))
def test_step_counts_beyond_int64_are_rejected(monkeypatch, walker):
    # 2**63 used to raise OverflowError where the walker loop stores horizons as int64
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_first_hits", _no_walkers)
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*63\)"):
            WALKERS[walker](0, 2**63)
    if walker != "sample_path":  # every walker hits long before 2**63 - 1 steps
        WALKERS[walker](0, 2**63 - 1)


@pytest.mark.parametrize("walker", list(WALKERS))
def test_numpy_integer_seeds_and_step_counts_walk_as_ints(walker):
    np.testing.assert_equal(WALKERS[walker](np.uint64(2**64 - 1), np.int64(12)),
                            WALKERS[walker](2**64 - 1, 12))


@pytest.mark.parametrize("x0", [1.5, -0.05, float("nan"), float("inf")])
def test_ball_walk_starts_outside_the_unit_interval_are_rejected(monkeypatch, x0):
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    low = lambda xs: np.asarray(xs) <= 0.2  # noqa: E731  (-0.05 would lie in it)
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        m.estimate_hitting(sampler, x0, low, replicas=10, horizon=10, seed=0)
    with pytest.raises(ValueError, match="is not a point of the ball walk's"):
        _batch(sampler, [(0.5, low, 0), (x0, low, 1)], replicas=10, horizon=10)


def test_ball_walk_starts_at_the_interval_ends_are_accepted():
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    ends = _batch(sampler, [(0.0, lambda xs: xs <= 0.2, 0),
                            (1.0, lambda xs: xs >= 0.75, 1)], 10, 10)
    assert [est.mean for est in ends] == [0.0, 0.0]  # each starts in its target


# every function that walks, fed a replica count
REPLICA_TAKERS = {
    "estimate_hitting": lambda replicas: m.estimate_hitting(
        K6, 0, [5], replicas=replicas, horizon=10, seed=0),
    "estimate_hitting_batch": lambda replicas: m.estimate_hitting_batch(
        [(K6, 0, [5], 0, 10), (K6, 1, [5], 1, 10)], replicas),
    "coupled_escape_estimate": lambda replicas: m.coupled_escape_estimate(
        K6, TRACE6, 0, 10, replicas=replicas, seed=0),
}


@pytest.mark.parametrize("replicas", [0, -1, np.int64(0), 2.5, True],
                         ids=["0", "-1", "int64(0)", "2.5", "True"])
@pytest.mark.parametrize("taker", list(REPLICA_TAKERS))
def test_replica_counts_that_are_not_integers_above_zero_are_rejected(monkeypatch, taker,
                                                                     replicas):
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="replicas must be an integer >= 1"):
        REPLICA_TAKERS[taker](replicas)


def test_coupled_escape_rejects_a_start_outside_the_coupling_set(monkeypatch):
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="start state must lie in the coupling set"):
        m.coupled_escape_estimate(K6, TRACE6, 3, 10, replicas=10, seed=0)


@pytest.mark.parametrize("x0", [-1, 4])
def test_coupled_escape_rejects_a_start_outside_the_chain(monkeypatch, x0):
    rows = np.tile([0.55, 0.25, 0.15, 0.05], (4, 1))
    k = m.build_finite_kernel(rows)
    dom = m.restrict(k, [1, 2, 3], "mh-restriction")  # holds state n - 1 = 3
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    with pytest.raises(ValueError, match="is not a state of this 4-state chain"):
        m.coupled_escape_estimate(k, dom, x0, 5, replicas=10, seed=0)


# --- coupled escape --------------------------------------------------------------------

def _simple_dominated():
    rows = np.tile([0.55, 0.25, 0.15, 0.05], (4, 1))
    k = m.build_finite_kernel(rows)
    dom = m.restrict(k, [0, 1, 2], "mh-restriction")
    return k, dom


def test_coupled_escape_full_space_never_decouples(monkeypatch):
    # no state lies outside the whole space, so the estimate is 0 before any draw
    rows = np.tile([0.5, 0.3, 0.2], (3, 1))
    k = m.build_finite_kernel(rows)
    dom = m.restrict(k, [0, 1, 2], "mh-restriction")
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    est = m.coupled_escape_estimate(k, dom, 0, 50, replicas=2000, seed=2)
    assert est.mean == 0.0 and est.stderr == 0.0 and est.censored_fraction == 0.0


def test_coupled_escape_without_an_exit_is_pinned_and_runs_no_walkers(monkeypatch):
    # escape-6 restricts to the whole space; recorded when its 25 000
    # walkers each ran the full 30 steps
    case = escape_corpus()[6]
    dom = m.restrict(case.kernel, case.cert.small_set, case.variant)
    assert dom.support.size == case.kernel.n
    monkeypatch.setattr(montecarlo, "_first_hits", _no_walkers)
    est = m.coupled_escape_estimate(case.kernel, dom, case.x0, case.horizon,
                                    replicas=25_000, seed=0)
    assert repr(est) == (
        "McEstimate(mean=0.0, stderr=0.0, replicas=25000, seed=0, horizon=30, "
        "censored_fraction=0.0)"
    )


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
        support=dom.support,
        kernel=m.build_finite_kernel(np.tile([0.2, 0.2, 0.6], (3, 1))),
        conditional_stationary=dom.conditional_stationary,
    )
    with pytest.raises(errors.DominationViolation):
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


class _NoSymbols:
    """A loaded library that exports nothing."""

    def __init__(self, name):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _unloadable(name):
    raise OSError(f"cannot load {name}")


def test_state_path_when_the_layout_check_fails(corpus_estimates):
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    jobs = [(0.0, high, 3), (0.5, high, 6)]
    assert montecarlo._ReplicaStreams().path == "direct"
    direct = _batch(sampler, jobs, 700, 300)
    # the struct does not read back; the C fill does not bind; its library does not load
    for owner, name, failing in [(ctypes.c_int, "from_address", lambda address: ctypes.c_int(3)),
                                 (ctypes, "PyDLL", _NoSymbols),
                                 (ctypes, "PyDLL", _unloadable)]:
        with _stream_path_decided_under(owner, name, failing):
            assert montecarlo._ReplicaStreams().path == "state"
            assert _corpus_estimates() == corpus_estimates
            assert _batch(sampler, jobs, 700, 300) == direct
    assert montecarlo._ReplicaStreams().path == "direct"


class _PhiloxWithForeignBitgen(np.random.Philox):
    """A Philox whose ctypes interface hands out a copy of its ``bitgen_t``
    with the state word 8 bytes past ``state_address``."""

    @property
    def ctypes(self):
        interface = super().ctypes
        words = (ctypes.c_uint64 * 5).from_address(interface.bit_generator.value)
        self._foreign = (ctypes.c_uint64 * 5)(words[0] + 8, *words[1:])
        return interface._replace(bit_generator=ctypes.c_void_p(ctypes.addressof(self._foreign)))


def test_state_path_when_the_bitgen_does_not_point_at_the_state(corpus_estimates):
    sampler = m.ball_walk_sampler(EXP, 1.0 / 8.0)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    jobs = [(0.0, high, 3), (0.5, high, 6)]
    assert montecarlo._ReplicaStreams().path == "direct"
    direct = _batch(sampler, jobs, 700, 300)
    with _stream_path_decided_under(np.random, "Philox", _PhiloxWithForeignBitgen):
        assert montecarlo._ReplicaStreams().path == "state"
        assert _corpus_estimates() == corpus_estimates
        assert _batch(sampler, jobs, 700, 300) == direct
    assert montecarlo._ReplicaStreams().path == "direct"


def test_layout_probe_fills_run_once_per_process():
    fills = []
    fill_records = montecarlo._fill_records

    def counting_fill(records, *args):
        fills.append(args[-1].shape)
        return fill_records(records, *args)

    with _stream_path_decided_under(montecarlo, "_fill_records", counting_fill):
        assert [montecarlo._ReplicaStreams().path for _ in range(4)] == ["direct"] * 4
        assert fills == [(1, 9), (1, 3), (1, 8)]
    # a failed probe decides the state path for the process, until the
    # decision is cleared, even once its cause is gone
    wrong = lambda seed, replica: np.random.default_rng(1)  # noqa: E731
    with _stream_path_decided_under(montecarlo, "replica_generator", wrong) as mp:
        assert montecarlo._ReplicaStreams().path == "state"
        mp.undo()
        assert montecarlo._ReplicaStreams().path == "state"
    assert montecarlo._ReplicaStreams().path == "direct"


def test_a_direct_path_walker_loop_constructs_no_philox(monkeypatch):
    assert montecarlo._ReplicaStreams().path == "direct"  # the decision is made
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    high = lambda xs: np.asarray(xs) >= 0.75  # noqa: E731
    m.estimate_hitting(m.ball_walk_sampler(EXP, 1.0 / 8.0), 0.0, high, 50, 300, 3)
    m.estimate_hitting(K6, 0, [5], 50, 300, 3)
    assert m.sample_path(PATH3, 0, 12, seed=6).size == 13
    assert built == []
    # the count sees the Philox that a state-path object holds
    assert _state_path_streams().path == "state" and len(built) == 1
