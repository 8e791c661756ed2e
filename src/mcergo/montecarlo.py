"""Trajectory simulation for continuous samplers and finite kernels.

Randomness is counter-based: replica r draws from the Philox stream keyed
(seed, r), so every replica's draws are a pure function of (seed, replica
index, step) and results are independent of scheduling and worker count.
``sample_path`` uses the replica-0 stream.  Batch estimators reposition a
single Philox generator per walker and block by writing its key, counter
and buffer position straight into numpy's state struct (``_ReplicaStreams``;
it falls back to assigning ``Philox.state`` if the struct does not check
out), which is stream-identical to constructing ``Philox(key=[seed, r])``
per walker but far cheaper.

One walker loop, ``_first_hits``, runs every batch estimate: the hitting
times of target sets (``estimate_hitting_batch`` runs many (start, target,
seed) jobs as one walker population, ``estimate_hitting`` is its one-job
case) and the decoupling time of the identity coupling
(``coupled_escape_estimate``), which is the g-chain's first exit from the
coupling set.  The population refills as walkers retire, so walkers run at
different steps side by side.  A walker's draws depend only on its key and
its step, so neither the population a walker runs in nor when it is
admitted changes a result.

A finite-kernel step inverts the current state's row CDF at the walker's
draw.  ``_finite_advance`` builds a guide table (Chen and Asau's index
table) over the row CDFs once per kernel, and ``_step_states`` then finds
every walker's next state from its draw's bucket with a few vectorized
gathers, instead of one masked search per occupied state.  The result is
``searchsorted(cdf[s], u, side="right")`` bit for bit; ``_step_states``
gives the argument.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AllCensored, NotDominating
from .kernels import ContinuousSampler1D, DominatedKernel, FiniteKernel
from .tolerances import ROW_SUM_TOL

_CHUNK = 4096  # most walkers advanced together; the finite-kernel population
# One stream block holds population x row steps x draws uniform doubles; the
# ball walk sets that budget.  A ball-walk loop step costs mostly fixed numpy
# overhead, and the population refills only at block boundaries, so more
# walkers with shorter rows cut loop steps: 4784 -> 3100 for the same 2.8M
# walker-steps of bench `scaling` at seed 0, going from 1024 x 64 steps
# (1 MiB) to 2048 x 48 (1.5 MiB).  In a committed sweep of bench `scaling`,
# 2048 x 48 had the lowest wall_s, 18% below 1024 x 64; 2048 x 32 or x 64,
# 3072 x 32 and 4096 x 24 were 11-16% below, and 2 MiB cost 4% more peak RSS.
_CONTINUOUS_POPULATION = 2048
_CONTINUOUS_ROW_STEPS = 48
_BLOCK_DRAWS = (_CONTINUOUS_POPULATION * _CONTINUOUS_ROW_STEPS
                * ContinuousSampler1D.draws_per_step)
_GUIDE_BYTES = 1 << 21  # most bytes of one finite kernel's guide table
_SCAN_STEPS = 8  # forward steps of a finite step before its binary search
_PHILOX_WORDS = 4  # uniform doubles per Philox counter increment


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error and censoring report.

    ``censored_fraction`` counts paths that never hit within the horizon;
    censored paths contribute the horizon value to the mean (biased low,
    flagged, never silently dropped).
    """

    mean: float
    stderr: float
    replicas: int
    seed: int
    horizon: int
    censored_fraction: float = 0.0

    def csv_row(self, quantity: str) -> list[str]:
        return [
            quantity,
            repr(float(self.mean)),
            repr(float(self.stderr)),
            str(self.replicas),
            repr(float(self.censored_fraction)),
            str(self.seed),
        ]

    CSV_HEADER = ["quantity", "mean", "stderr", "replicas", "censored_fraction", "seed"]


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, replica index)."""
    key = np.array([int(seed), int(replica)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _ReplicaStreams:
    """Batch access to the per-walker Philox streams.

    ``block(keys, offsets, out)`` fills row i of ``out`` with draw positions
    [offsets[i], offsets[i] + out.shape[1]) of the stream keyed ``keys[i]``
    = (seed, replica) and returns ``out``; ``offsets`` is one offset per row
    or one for all, and each must be a multiple of 4 so the 256-bit Philox
    output buffer never straddles two requests.  One generator is
    repositioned per row: on the ``"direct"`` path by writing key, counter
    word 0 and ``buffer_pos`` straight into numpy's ``philox_state`` struct
    (through ``Philox.ctypes.state_address``: counter pointer at byte 0,
    key pointer at byte 8, int ``buffer_pos`` at byte 16), on the
    ``"state"`` path by assigning ``Philox.state``, which validates and
    copies a dict per row.  Both give the bits of ``replica_generator``.
    Construction takes the direct path only when the struct reads back as
    expected and a few directly written draws match ``replica_generator``;
    ``path`` names the path taken.  Key word 0 is set only when it
    changes, so keys grouped by seed cost one assignment per group.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=np.uint64(0))
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state
        self._template["state"]["counter"][:] = 0
        self._template["buffer_pos"] = _PHILOX_WORDS
        self.path = "direct" if self._layout_ok() else "state"
        self._fill = self._fill_direct if self.path == "direct" else self._fill_state

    def block(self, keys, offsets, out: np.ndarray) -> np.ndarray:
        seeds, replicas = np.asarray(keys, dtype=np.uint64).T.copy()
        offsets = np.broadcast_to(np.asarray(offsets, dtype=np.int64), seeds.shape)
        if np.any(offsets % _PHILOX_WORDS):
            raise ValueError("stream offsets must be multiples of 4")
        # memoryviews hand out one Python int at a time, not a list of them all
        self._fill(memoryview(seeds), memoryview(replicas),
                   memoryview(offsets // _PHILOX_WORDS), out)
        return out

    def _fill_direct(self, seeds, replicas, counters, out):
        key, ctr, buffer_pos, random = self._key, self._ctr, self._buffer_pos, self._gen.random
        seed = None
        for row, s, r, c in zip(out, seeds, replicas, counters):
            if s != seed:
                key[0] = seed = s
            key[1], ctr[0] = r, c
            buffer_pos.value = _PHILOX_WORDS
            random(out=row)

    def _fill_state(self, seeds, replicas, counters, out):
        st = self._template
        key, ctr = st["state"]["key"], st["state"]["counter"]
        seed = None
        for row, s, r, c in zip(out, seeds, replicas, counters):
            if s != seed:
                key[0] = seed = s
            key[1], ctr[0] = r, c
            self._bg.state = st
            self._gen.random(out=row)

    def _layout_ok(self) -> bool:
        """Bind the ``philox_state`` fields and check direct writes against fresh streams."""
        try:
            addr = self._bg.ctypes.state_address
            ctr_at, key_at = (ctypes.c_void_p * 2).from_address(addr)
        except (AttributeError, TypeError, ValueError):
            return False
        # the counter and key live inside the generator object; refuse any
        # pointer that does not, rather than read through it
        if not (ctr_at and key_at and abs(ctr_at - addr) < 4096 and abs(key_at - addr) < 4096):
            return False
        probe = self._bg.state
        probe["state"]["key"][:] = (3, 5)
        probe["state"]["counter"][:] = (7, 0, 0, 0)
        probe["buffer_pos"] = 2
        self._bg.state = probe
        self._key = (ctypes.c_uint64 * 2).from_address(key_at)
        self._ctr = (ctypes.c_uint64 * 4).from_address(ctr_at)
        self._buffer_pos = ctypes.c_int.from_address(addr + 16)
        if (list(self._key), list(self._ctr), self._buffer_pos.value) != ([3, 5], [7, 0, 0, 0], 2):
            return False
        for s, r, offset, width in [(2**64 - 1, 7, 12, 9), (5, 0, 0, 3), (5, 3, 300, 8)]:
            out = np.empty((1, width))
            self._fill_direct([s], [r], [offset // _PHILOX_WORDS], out)
            if not np.array_equal(out[0], replica_generator(s, r).random(offset + width)[offset:]):
                return False
        return True


def _summarize(values: np.ndarray, seed: int, horizon: int, censored: np.ndarray) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(
        mean=mean,
        stderr=stderr,
        replicas=n,
        seed=seed,
        horizon=horizon,
        censored_fraction=float(censored.mean()),
    )


# --- path sampling -----------------------------------------------------------

def sample_path(sampler, x0, t: int, seed: int):
    """Simulate a length t+1 path; deterministic given (seed, x0, t).

    ``sampler`` is a FiniteKernel (states are indices) or a
    ContinuousSampler1D (states are points in [0, 1]).
    """
    if t < 0:
        raise ValueError("path length must be nonnegative")
    rng = replica_generator(seed, 0)
    if isinstance(sampler, FiniteKernel):
        cdf = _row_cdfs(sampler.p)
        path = np.empty(t + 1, dtype=int)
        path[0] = int(x0)
        if t:
            u = rng.random(t)
            cur = int(x0)
            for i in range(t):
                cur = int(np.searchsorted(cdf[cur], u[i], side="right"))
                path[i + 1] = cur
        return path
    if isinstance(sampler, ContinuousSampler1D):
        path = np.empty(t + 1, dtype=float)
        path[0] = float(x0)
        if t:
            u = rng.random(2 * t)
            cur = float(x0)
            for i in range(t):
                cur = sampler.step(cur, u[2 * i], u[2 * i + 1])
                path[i + 1] = cur
        return path
    raise TypeError(f"unsupported sampler type {type(sampler)!r}")


def _row_cdfs(p: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0
    return cdf


class _GuideTable(NamedTuple):
    """The row CDFs of a finite kernel with a Chen-Asau guide table over each row."""

    cdf: np.ndarray  # flattened row CDFs: state s's row starts at s * n
    guide: np.ndarray  # int32, flattened: state s's row starts at s * (buckets + 1)
    n: int
    buckets: int  # a power of two


def _guide_table(p: np.ndarray) -> _GuideTable:
    """Row CDFs and guide[s, k] = searchsorted(cdf[s], k / buckets, side="right").

    ``buckets`` is the smallest power of two >= 4n, halved until the int32
    table fits in ``_GUIDE_BYTES`` (true for every n <= _GUIDE_BYTES / 8, at
    one bucket; the kernel's own n x n doubles are far larger by then).  The
    last column is n - 1 rather than the search for 1.0: no draw reaches
    1.0, and every row's last CDF entry is 1.0, which exceeds every draw.

    The table is built in one pass, without a search.  Because buckets is a
    power of two, cdf[s, j] * buckets is exact, so cdf[s, j] <= k / buckets
    exactly when ceil(cdf[s, j] * buckets) <= k.  For k < buckets the
    entries <= k / buckets < 1 are a prefix of the row (see
    ``_step_states``), so their count, read off a cumulative histogram of
    the ceilings, is the searchsorted position.
    """
    cdf = _row_cdfs(p)
    n = cdf.shape[0]
    buckets = 1 << (4 * n - 1).bit_length()
    while buckets > 1 and 4 * n * (buckets + 1) > _GUIDE_BYTES:
        buckets //= 2
    width = buckets + 2  # columns 0..buckets, and one for ceilings past buckets
    col = np.minimum(np.ceil(cdf * buckets), buckets + 1).astype(np.intp)
    col += width * np.arange(n)[:, None]
    counts = np.bincount(col.ravel(), minlength=n * width).reshape(n, width)
    guide = np.cumsum(counts[:, :-1], axis=1, dtype=np.int32)
    guide[:, -1] = n - 1
    return _GuideTable(cdf.ravel(), guide.ravel(), n, buckets)


def _step_states(table: _GuideTable, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next state of each walker: searchsorted(cdf[cur], u, side="right"), bit for bit.

    Walker i starts from guide[cur[i], k] with k = floor(u[i] * buckets).
    Both u * buckets and k / buckets are exact, so k / buckets <= u and the
    guide entry never passes the answer; the answer is also at most
    guide[cur[i], k + 1], because u < (k + 1) / buckets.  The walkers whose
    CDF entry is still <= u move forward one entry at a time, at most
    ``_SCAN_STEPS`` times, and any left then finish with a binary search
    over the rest of their bucket, one round per bit of its width, so a
    step costs O(_SCAN_STEPS + log n) vectorized rounds whatever the row.
    The entries <= u of a row are always a prefix, even where the cumulative
    sum passes 1.0 before the last entry is set to 1.0: every entry past the
    first one above u is a cumulative sum no smaller than it, or that last
    1.0.  So the first entry above u is the one searchsorted returns.
    """
    cdf, guide, n, buckets = table
    k = cur * (buckets + 1) + (u * buckets).astype(np.intp)
    base = cur * n
    pos = base + guide[k]  # flat index into cdf
    i = np.flatnonzero(cdf[pos] <= u)  # walkers whose answer lies further on
    for _ in range(_SCAN_STEPS):
        if not i.size:
            break
        pos[i] += 1
        i = i[cdf[pos[i]] <= u[i]]
    if i.size:
        lo, hi, ui = pos[i] + 1, base[i] + guide[k[i] + 1], u[i]
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            right = cdf[mid] <= ui
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        pos[i] = lo
    return pos - base


# --- the walker loop ------------------------------------------------------------

def _finite_advance(k: FiniteKernel):
    """One step of a finite-kernel walker population from one draw each.

    Builds the kernel's guide table (``_guide_table``) once; every step is
    then one ``_step_states`` lookup per walker.
    """
    table = _guide_table(k.p)
    return lambda pos, u: _step_states(table, pos, u[:, 0])


def _arrival_spans(groups, arrivals):
    """(arrived, first, end) for each group present in the sorted ``groups``."""
    edges = np.searchsorted(groups, np.arange(len(arrivals) + 1)).tolist()
    return [(arrived, a, b) for arrived, a, b in zip(arrivals, edges, edges[1:]) if a < b]


def _first_hits(starts, seeds, groups, arrivals, advance, draws, replicas, horizon,
                population):
    """Run ``replicas`` walkers per job until each arrives or the horizon passes.

    The one walker loop.  Job j's walkers start at ``starts[j]``, draw from
    the streams keyed (seeds[j], r) for r < replicas, and arrive when
    ``arrivals[groups[j]](pos)`` holds.  The loop keeps one population of
    at most ``population`` <= ``_CHUNK`` walkers: at each block boundary
    the next unstarted walkers, in job and then replica order, take the
    places of walkers that retired, and the population is ordered by group
    so that each arrival test runs once per step, on one slice.  Every
    walker carries its own step count, and its block row starts at that
    step's position of its own stream.  A block is 256/draws steps wide,
    narrowed so that it holds at most ``_BLOCK_DRAWS`` doubles and reaches
    no further than the horizon of the walker with most steps left.
    ``advance(pos, u)`` moves the live walkers with u of shape (walkers,
    draws), read through each walker's block row; a walker retires when it
    arrives or when its own step count reaches the horizon.  Returns
    (times, censored), ordered by job and then replica: the first arrival
    time of each walker, the horizon for those that never arrive, and which
    ones never did.
    """
    starts = np.asarray(starts)
    seeds = np.asarray(seeds, dtype=np.uint64)
    groups = np.asarray(groups, dtype=int)
    total = seeds.size * replicas
    times = np.full(total, float(horizon))
    censored = np.ones(total, dtype=bool)
    streams = _ReplicaStreams()
    buf = np.empty(_BLOCK_DRAWS)
    cap = max(4, 256 // draws // 4 * 4)
    walker = np.empty(0, dtype=np.int64)  # the population, ordered by group
    pos, steps = starts[:0], np.empty(0, dtype=np.int64)
    admitted = 0 if horizon else total
    while walker.size or admitted < total:
        if admitted < total and walker.size < population:
            new = np.arange(admitted, min(admitted + population - walker.size, total))
            admitted += new.size
            walker = np.concatenate((walker, new))
            pos = np.concatenate((pos, starts[new // replicas]))
            steps = np.concatenate((steps, np.zeros_like(new)))
            order = np.argsort(groups[walker // replicas], kind="stable")
            walker, pos, steps = walker[order], pos[order], steps[order]
            grp = groups[walker // replicas]
            spans = _arrival_spans(grp, arrivals)
        n = walker.size
        left = horizon - steps  # steps each walker may still take
        fits = max(4, _BLOCK_DRAWS // (n * draws) // 4 * 4)  # steps the buffer holds
        width = min(cap, fits, int(left.max()))  # a multiple of 4 unless every walker ends here
        keys = np.column_stack((seeds[walker // replicas], (walker % replicas).astype(np.uint64)))
        u = streams.block(keys, steps * draws, buf[:n * width * draws].reshape(n, -1))
        u = u.reshape(n, width, draws)
        row = np.arange(n)
        expiring = int(left.min()) <= width
        for b in range(width):
            pos = advance(pos, u[row, b])
            just = np.concatenate([arrived(pos[a:z]) for arrived, a, z in spans])
            done = just | (left == b + 1) if expiring else just
            if done.any():
                idx = walker[just]
                times[idx] = steps[just] + b + 1
                censored[idx] = False
                keep = ~done
                walker, pos, grp, row = walker[keep], pos[keep], grp[keep], row[keep]
                steps, left = steps[keep], left[keep]
                if not walker.size:
                    break
                spans = _arrival_spans(grp, arrivals)
        steps += width
    return times, censored


# --- hitting-time estimation ----------------------------------------------------

def _state_indices(n: int, states, what: str) -> np.ndarray:
    """``states`` as an index array; ValueError if any lies outside [0, n).

    A negative index would otherwise count from the end of the chain.
    """
    idx = np.asarray(list(states), dtype=int)
    outside = idx[(idx < 0) | (idx >= n)]
    if outside.size:
        raise ValueError(f"{what} {outside[0]} is not a state of this {n}-state chain")
    return idx


def estimate_hitting(
    sampler,
    x0,
    target,
    replicas: int,
    horizon: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo estimate of E_x0[tau(target)] with censoring report.

    ``target`` is a set of state indices for finite kernels, or a
    vectorized predicate (array -> bool array) for continuous samplers.
    Censored paths contribute the horizon value and raise
    ``censored_fraction``.  The one-job case of ``estimate_hitting_batch``.

    Raises
    ------
    AllCensored
        If no replica hits within the horizon.
    ValueError
        If a finite-kernel start or target state lies outside [0, n), or a
        ball-walk start outside [0, 1].
    """
    return estimate_hitting_batch(sampler, [(x0, target, seed)], replicas, horizon)[0]


def estimate_hitting_batch(sampler, jobs, replicas: int, horizon: int) -> list[McEstimate]:
    """``estimate_hitting`` of every job (x0, target, seed), as one walker population.

    Each walker's draws depend only on its key (seed, replica) and its
    step, so every estimate equals the one ``estimate_hitting`` returns for
    its job, bit for bit.  Jobs that pass the same target object share one
    arrival test per step; a job whose start lies in its target takes no
    walkers and reports zero.

    Raises
    ------
    AllCensored
        For the first job, in job order, none of whose replicas hits
        within the horizon.
    ValueError
        If a finite-kernel start or target state lies outside [0, n), or a
        ball-walk start outside [0, 1] (NaN included); no walker runs.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if isinstance(sampler, FiniteKernel):
        draws, advance, population = 1, _finite_advance(sampler), _CHUNK

        def place(x0):
            return int(_state_indices(sampler.n, [x0], "start")[0])

        def arrival(target):
            member = np.zeros(sampler.n, dtype=bool)
            member[_state_indices(sampler.n, target, "target state")] = True
            return member.__getitem__
    elif isinstance(sampler, ContinuousSampler1D):
        draws, population = sampler.draws_per_step, _CONTINUOUS_POPULATION

        def place(x0):
            x = float(x0)
            if not 0.0 <= x <= 1.0:  # NaN fails too
                raise ValueError(f"start {x0!r} is not a point of the ball walk's [0, 1]")
            return x

        def advance(pos, u):
            return sampler.batch_step(pos, u[:, 0], u[:, 1])

        def arrival(target):
            return lambda pos: np.asarray(target(pos), dtype=bool)
    else:
        raise TypeError(f"unsupported sampler type {type(sampler)!r}")

    jobs = list(jobs)
    arrivals, group_of = [], {}
    walking = []  # (job index, start, seed, group) of jobs not started in their target
    for j, (x0, target, seed) in enumerate(jobs):
        if id(target) not in group_of:
            group_of[id(target)] = len(arrivals)
            arrivals.append(arrival(target))
        g, start = group_of[id(target)], place(x0)
        if not arrivals[g](np.array([start]))[0]:
            walking.append((j, start, seed, g))
    _, starts, seeds, groups = zip(*walking) if walking else ((),) * 4
    times, censored = _first_hits(
        starts, seeds, groups, arrivals, advance, draws, replicas, horizon, population)

    rows = {j: slice(k * replicas, (k + 1) * replicas) for k, (j, *_) in enumerate(walking)}
    estimates = []
    for j, (x0, _, seed) in enumerate(jobs):
        if j not in rows:
            zero = np.zeros(replicas)
            estimates.append(_summarize(zero, seed, horizon, zero.astype(bool)))
        elif censored[rows[j]].all():
            raise AllCensored(
                f"no path from {x0} hit the target within {horizon} steps (seed {seed})")
        else:
            estimates.append(_summarize(times[rows[j]], seed, horizon, censored[rows[j]]))
    return estimates


# --- coupling with a dominated restriction ----------------------------------------

def coupled_escape_estimate(
    g: FiniteKernel,
    g_c: DominatedKernel,
    x0: int,
    t: int,
    replicas: int,
    seed: int,
) -> McEstimate:
    """Decoupling frequency of the identity coupling by time t.

    The entrywise-minimum (maximal) coupling of a row of g with the
    corresponding row of the dominating kernel keeps the two chains equal
    until the g-chain first steps outside the support, so the decoupling
    time is distributed as the first exit of the g-chain from the support.
    Returns the fraction of replicas that decouple within t steps: one
    minus the censored fraction of the g-chain's hitting time of the
    complement of the support with horizon t.

    Raises
    ------
    NotDominating
        If the entrywise domination check fails on the support.
    ValueError
        If x0 lies outside [0, n) or outside the support.
    """
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if replicas < 1:
        raise ValueError("need at least one replica")
    S = g_c.support
    base = g.p[np.ix_(S, S)]
    gap = float(np.min(g_c.kernel.p - base))
    if gap < -ROW_SUM_TOL:
        raise NotDominating(f"restriction does not dominate the base (gap {gap:.3e})")
    x0 = int(_state_indices(g.n, [x0], "start")[0])
    in_s = np.zeros(g.n, dtype=bool)
    in_s[S] = True
    if not in_s[x0]:
        raise ValueError("start state must lie in the coupling set")

    outside = ~in_s
    _, coupled = _first_hits(
        [x0], [seed], [0], [outside.__getitem__], _finite_advance(g), 1, replicas, t,
        _CHUNK)
    values = (~coupled).astype(float)
    return _summarize(values, seed, t, censored=np.zeros(replicas, dtype=bool))

