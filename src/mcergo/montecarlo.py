"""Trajectory simulation for continuous samplers and finite kernels.

Randomness is counter-based: replica r draws from the Philox stream keyed
(seed, r), so every replica's draws are a pure function of (seed, replica
index, step) and results are independent of scheduling and worker count.
``sample_path`` uses the replica-0 stream.  Whether a Philox state record
of the toolkit's own can stand in for numpy's Philox is decided once per
process, at the first walker loop (``_record_fill``): numpy's C
``random_standard_uniform_fill``, the routine under ``Generator.random``,
must bind, a Philox's state struct must read back as numpy lays it out,
and a few record fills must match fresh streams.  Where it can, each
walker loop's ``_ReplicaStreams`` holds only a table of records, copies of
numpy's state struct; a block writes their keys, counters and buffer
positions by whole columns and fills each row with one ctypes call to
that routine, made by ``map`` so that no Python statement runs per row.
That is stream-identical to constructing ``Philox(key=[seed, r])`` per
walker but far cheaper.  Where it cannot, ``_ReplicaStreams`` holds only a
Philox and its Generator, assigns ``Philox.state`` and calls
``Generator.random`` per row, which gives the same bits more slowly.

One walker loop, ``_first_hits``, runs every walker: the hitting times of
target sets (``estimate_hitting_batch`` runs many (sampler, start, target,
seed, horizon) jobs as one walker population, ``estimate_hitting`` is its
one-job case), the decoupling time of the identity coupling
(``coupled_escape_estimate``), which is the g-chain's first exit from the
coupling set, and the single walker of ``sample_path``.  Each sampler has
one start check and arrival test, given by ``_walker_rule``, and every
population one step, given by ``_population_advance``: the guide table of
its one finite kernel, or one ``batch_step`` call for ball walks of one
target, each walker stepping with its own c.  The population refills as
walkers retire, so walkers run at different steps side by side.  Every job
has a horizon of its own, and the jobs with the largest horizon are
admitted first, so shorter jobs fill the tail of longer ones: the scaling
study runs the ball walks of all its step sizes c as one population.  A
walker's draws depend only on its key and its step, so neither the
population a walker runs in nor when it is admitted changes a result.
Each step reads the live walkers' draws out of the stream block as whole
items, one ``8 * draws``-byte item per walker, which gathers about 4x
faster than a 2-D fancy index.  A step keeps its bookkeeping to what the
next step reads: it compacts only the live walkers' positions, groups and
block rows, and records an arrival per block row, writing the results
once at the end of the block.

A finite-kernel step inverts the current state's row CDF at the walker's
draw.  ``_finite_advance`` builds a guide table (Chen and Asau's index
table) over the row CDFs once per kernel, and ``_step_states`` then finds
every walker's next state from its draw's bucket with a few vectorized
gathers, instead of one masked search per occupied state.  The result is
``searchsorted(cdf[s], u, side="right")`` bit for bit; ``_step_states``
gives the argument.

Jobs become walkers in one place, ``_walk_jobs``, and two kinds of job
take none, since their results are known before any draw: one whose
start lies in its target (every replica arrives at time 0), and a
finite-kernel job whose target holds no state (every replica is censored
at the horizon, as ``_first_hits`` would find).  So ``estimate_hitting``
refuses an empty target with ``AllCensored`` before any walker runs, and
``coupled_escape_estimate`` returns 0 without walking when the coupling
set is the whole space.

The hitting and decoupling estimators return an ``McEstimate`` (mean,
standard error, replicas, seed, horizon, censored fraction); ``harness``
writes it.
"""
from __future__ import annotations

import ctypes
import functools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .errors import AllCensored
from .kernels import ContinuousSampler1D, DominatedKernel, FiniteKernel, _check_domination, _is_int

# One stream block holds population x row steps x draws uniform doubles, and
# the population of a sampler is what fills it: 4096 finite-kernel walkers
# (one draw a step) and 2048 ball walkers (two).  A ball-walk loop step costs
# mostly fixed numpy overhead, and the population refills only at block
# boundaries, so more walkers with shorter rows cut loop steps: 4784 -> 3100
# for the same 2.8M walker-steps of bench `scaling` at seed 0, going from
# 1024 x 64 steps (1 MiB) to 2048 x 48 (1.5 MiB).  In a committed sweep of
# bench `scaling`, 2048 x 48 had the lowest wall_s, 18% below 1024 x 64;
# 2048 x 32 or x 64, 3072 x 32 and 4096 x 24 were 11-16% below, and 2 MiB
# cost 4% more peak RSS.  A `couple` walker (horizons 25-40) needs one row.
_ROW_STEPS = 48
_BLOCK_DRAWS = 3 << 16  # 1.5 MiB of doubles
_GUIDE_BYTES = 1 << 21  # most bytes of one finite kernel's guide table
_SCAN_STEPS = 8  # most vectorized forward steps of a finite step's scan
_FINISH_ONE_BY_ONE = 16  # a finite step finishes this few walkers one at a time
_PHILOX_WORDS = 4  # uniform doubles per Philox counter increment
# Philox records of a stream table (``_StreamRecords``), the rows one chunk
# fills: a table costs about 0.2 MiB and 0.15 ms to make, once per walker
# loop, and a chunk's column writes about 20 ns a row
_RECORDS = 512
# the uint64 words of one Philox record (``_StreamRecords``): numpy's
# philox_state (8), then the key, the counter and a bitgen_t (5)
_KEY, _CTR, _BITGEN, _RECORD_WORDS = 8, 10, 14, 19


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


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, replica index)."""
    key = np.array([int(seed), int(replica)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _ReplicaStreams:
    """Batch access to the per-walker Philox streams.

    ``block(keys, offsets, out)`` fills row i of ``out`` with draw positions
    [offsets[i], offsets[i] + out.shape[1]) of the stream keyed ``keys[i]``
    = (seed, replica) and returns ``out``; ``offsets`` is one offset per row
    or one for all, and each must be a nonnegative multiple of 4 so the
    256-bit Philox output buffer never straddles two requests.  ``out`` must
    be a writable, aligned, C-contiguous 2-D float64 array with one row per
    key; anything else is refused before any row is written (ValueError,
    or TypeError for another dtype, as ``Generator.random`` raises).

    Which path an object takes is decided once per process, by
    ``_record_fill`` at the first construction (so that importing this
    module loads no ``numpy.random``), and ``path`` names it.  Each object
    then builds only what its path needs.  On the ``"direct"`` path that
    is a table of ``_RECORDS`` Philox records (``_StreamRecords``), one per
    object, so that two walker loops, in two threads or one re-entered from
    a target predicate, never share a record.  A record holds a copy of
    numpy's ``philox_state`` struct whose counter and key pointers point at
    the record's own counter and key, and a ``bitgen_t`` whose state is
    that struct and whose four function pointers are those of a Philox, as
    numpy's random C API (``numpy/random/bitgen.h``) lays them out.  For
    each chunk of up to ``_RECORDS`` rows, ``_fill_records`` writes the
    keys, counters and buffer positions (4, a used-up buffer, as a fresh
    stream starts) by whole columns, and ``map`` then fills each row with
    one ctypes call to numpy's C routine ``random_standard_uniform_fill``,
    the routine ``Generator.random`` itself calls, without its Python
    wrapper.  So no Python statement runs per row.  The call's arguments
    are ctypes instances that outlive the row: the record's ``bitgen_t``
    pointer, one width a block, and a destination pointer that reads its
    value from an array the chunk writes by column.  The routine keeps the
    GIL (``ctypes.PyDLL``): the records are this object's alone, so
    ``Generator.random``'s lock would guard nothing.  On the ``"state"``
    path the object holds a Philox, its Generator and a template of a fresh
    stream's state, and ``block`` assigns ``Philox.state``, which validates
    and copies a dict per row, and calls ``Generator.random``.  Both give
    the bits of ``replica_generator``.
    """

    def __init__(self):
        direct = _record_fill()
        self.path = "direct" if direct else "state"
        if direct:
            self._records = _StreamRecords(*direct, _RECORDS)
        else:
            self._bg = np.random.Philox(key=np.uint64(0))
            self._gen = np.random.Generator(self._bg)
            self._template = self._bg.state  # counter 0 and buffer_pos 4, as every row starts

    def block(self, keys, offsets, out: np.ndarray) -> np.ndarray:
        if not isinstance(out, np.ndarray) or out.dtype != np.float64:
            raise TypeError("stream blocks are written to a float64 array")
        if out.ndim != 2 or not (out.flags.c_contiguous and out.flags.writeable
                                 and out.flags.aligned):
            raise ValueError("stream blocks are written to a writable, aligned, "
                             "C-contiguous 2-D array")
        seeds, replicas = np.asarray(keys, dtype=np.uint64).T.copy()
        if seeds.size != out.shape[0]:
            raise ValueError(f"{seeds.size} stream keys for {out.shape[0]} rows")
        offsets = np.broadcast_to(np.asarray(offsets, dtype=np.int64), seeds.shape)
        if np.any(offsets % _PHILOX_WORDS) or np.any(offsets < 0):
            raise ValueError("stream offsets must be nonnegative multiples of 4")
        if out.size and self.path == "direct":
            _fill_records(self._records, seeds, replicas, offsets // _PHILOX_WORDS, out)
        elif out.size:
            self._fill_state(seeds, replicas, offsets // _PHILOX_WORDS, out)
        return out

    def _fill_state(self, seeds, replicas, counters, out):
        st = self._template
        key, ctr = st["state"]["key"], st["state"]["counter"]
        seed = None
        # memoryviews hand out one Python int at a time, not a list of them all
        for row, s, r, c in zip(out, memoryview(seeds), memoryview(replicas),
                                memoryview(counters)):
            if s != seed:
                key[0] = seed = s
            key[1], ctr[0] = r, c
            self._bg.state = st
            self._gen.random(out=row)


class _StreamRecords:
    """A table of ``rows`` Philox records and the ctypes arguments that fill from them.

    Record i is row i of ``words``, ``_RECORD_WORDS`` uint64 words: numpy's
    ``philox_state`` (8 words: counter pointer, key pointer, the int
    ``buffer_pos`` at byte 16, the 4-word output buffer and the 32-bit
    cache, zero here), then the key (2 words, at ``_KEY``), the counter (4,
    at ``_CTR``) and a ``bitgen_t`` (5, at ``_BITGEN``: a pointer to the
    record's state and a Philox's four function pointers ``functions``).
    Everything but keys, counters and buffer positions is written here,
    once.  ``buffer_pos`` is an int32 view of the ``buffer_pos`` column,
    right on either byte order.  ``fill`` is the C fill of ``_record_fill``,
    ``bitgens`` holds a ``c_void_p`` to each record's ``bitgen_t``, and
    ``dest_ptrs`` a ``c_void_p`` reading its value from entry i of
    ``dests``, so that a fill sets its destinations by one whole-array
    write.
    """

    def __init__(self, fill, functions, rows: int):
        self.fill = fill
        self.words = np.zeros((rows, _RECORD_WORDS), dtype=np.uint64)
        at = self.words.ctypes.data + self.words.strides[0] * np.arange(rows, dtype=np.uint64)
        self.words[:, 0] = at + 8 * _CTR
        self.words[:, 1] = at + 8 * _KEY
        self.words[:, _BITGEN] = at
        self.words[:, _BITGEN + 1:] = functions
        self.buffer_pos = self.words.view(np.int32)[:, 4]
        self.bitgens = list(map(ctypes.c_void_p, (at + 8 * _BITGEN).tolist()))
        self.dests = np.zeros(rows, dtype=np.intp)
        first = self.dests.ctypes.data
        self.dest_ptrs = list(map(ctypes.c_void_p.from_address,
                                  range(first, first + self.dests.nbytes, self.dests.itemsize)))


def _fill_records(records: _StreamRecords, seeds, replicas, counters, out):
    """Fill row i of ``out`` from the stream keyed (seeds[i], replicas[i]) at
    Philox counter counters[i], through the records, a chunk of rows at a time."""
    words, buffer_pos, dests = records.words, records.buffer_pos, records.dests
    width = ctypes.c_ssize_t(out.shape[1])
    start, stride = out.ctypes.data, out.strides[0]
    for a in range(0, len(out), len(dests)):
        rows = min(len(dests), len(out) - a)
        words[:rows, _KEY] = seeds[a:a + rows]
        words[:rows, _KEY + 1] = replicas[a:a + rows]
        words[:rows, _CTR] = counters[a:a + rows]
        words[:rows, _CTR + 1:_CTR + _PHILOX_WORDS] = 0
        buffer_pos[:rows] = _PHILOX_WORDS
        dests[:rows] = np.arange(start + a * stride, start + (a + rows) * stride, stride)
        deque(map(records.fill, records.bitgens, repeat(width, rows), records.dest_ptrs),
              maxlen=0)


@functools.cache
def _record_fill():
    """(numpy's C uniform fill, the four function pointers of a Philox
    ``bitgen_t``) where a record fill (``_StreamRecords``) gives numpy's
    Philox bits, else None: the one decision of the stream path, made once
    per process.

    The fill is numpy's C ``random_standard_uniform_fill(bitgen_t *,
    npy_intp cnt, double *out)``, part of numpy's random C API
    (``numpy/random/c_distributions.pxd``) and exported by the extension
    that holds ``Generator``.  It is bound through ``ctypes.PyDLL``, so a
    call holds the GIL, and only here: each library handle makes classes of
    its own, which only the cyclic garbage collector frees.  It declares no
    ``argtypes``: every caller passes ctypes instances of the C types
    (``c_void_p``, ``c_ssize_t``), which ctypes passes as they are, with no
    ``from_param`` call per argument (a Python int would go as a C int, and
    ctypes refuses any that does not fit one).

    A record copies the state into 64 bytes, which holds it when the key
    sits 64 bytes past the state, as in numpy's Philox object, and points
    its ``bitgen_t`` at that copy, which stands in for the generator's own
    state only when the generator's ``bitgen_t`` points at
    ``state_address``.  So the answer is None unless the routine binds, a
    Philox's ``philox_state`` and ``bitgen_t`` read back as that layout has
    them, and three fills of a one-record table match ``replica_generator``.
    """
    bg = np.random.Philox(key=np.uint64(0))
    try:
        interface = bg.ctypes
        addr = interface.state_address
        ctr_at, key_at = (ctypes.c_void_p * 2).from_address(addr)
        bitgen = (ctypes.c_uint64 * 5).from_address(interface.bit_generator.value)
        fill = ctypes.PyDLL(np.random._generator.__file__).random_standard_uniform_fill
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    fill.restype = None
    # the counter and key live inside the generator object, the key right
    # after the state, and the generator's bitgen_t steps that state;
    # refuse any other layout rather than read through its pointers
    if not (ctr_at and abs(ctr_at - addr) < 4096 and key_at == addr + 64
            and bitgen[0] == addr):
        return None
    functions = tuple(bitgen[1:])  # next_uint64, next_uint32, next_double, next_raw
    probe = bg.state
    probe["state"]["key"][:] = (3, 5)
    probe["state"]["counter"][:] = (7, 0, 0, 0)
    probe["buffer_pos"] = 2
    bg.state = probe
    key = (ctypes.c_uint64 * 2).from_address(key_at)
    ctr = (ctypes.c_uint64 * 4).from_address(ctr_at)
    buffer_pos = ctypes.c_int.from_address(addr + 16)
    if (list(key), list(ctr), buffer_pos.value) != ([3, 5], [7, 0, 0, 0], 2):
        return None
    records = _StreamRecords(fill, functions, 1)
    for s, r, offset, width in [(2**64 - 1, 7, 12, 9), (5, 0, 0, 3), (5, 3, 300, 8)]:
        out = np.empty((1, width))
        _fill_records(records, np.array([s], dtype=np.uint64), np.array([r], dtype=np.uint64),
                      np.array([offset // _PHILOX_WORDS]), out)
        if not np.array_equal(out[0], replica_generator(s, r).random(offset + width)[offset:]):
            return None
    return fill, functions


def _check_walk(seed, steps, what: str) -> None:
    """ValueError unless ``steps`` is a nonnegative integer and ``seed`` an
    integer in [0, 2**64), the one uint64 word of a Philox key it becomes."""
    if not (_is_int(steps) and steps >= 0):
        raise ValueError(f"{what} must be a nonnegative integer, got {steps!r}")
    if not (_is_int(seed) and 0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


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


# --- the finite step --------------------------------------------------------------

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
    guide = np.empty((n, buckets + 1), dtype=np.int32)
    rows = max(1, (1 << 15) // width)  # 256 KiB of histogram at a time, not n x width
    for a in range(0, n, rows):
        col = np.minimum(np.ceil(cdf[a:a + rows] * buckets), buckets + 1).astype(np.intp)
        col += width * np.arange(len(col))[:, None]
        counts = np.bincount(col.ravel(), minlength=len(col) * width).reshape(-1, width)
        np.cumsum(counts[:, :-1], axis=1, dtype=np.int32, out=guide[a:a + rows])
    guide[:, -1] = n - 1
    return _GuideTable(cdf.ravel(), guide.ravel(), n, buckets)


def _step_states(table: _GuideTable, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next state of each walker: searchsorted(cdf[cur], u, side="right"), bit for bit.

    Walker i starts from guide[cur[i], k] with k = floor(u[i] * buckets).
    Both u * buckets and k / buckets are exact, so k / buckets <= u and the
    guide entry never passes the answer; the answer is also at most
    guide[cur[i], k + 1], because u < (k + 1) / buckets.  The walkers whose
    CDF entry is still <= u move forward one entry at a time while more
    than ``_FINISH_ONE_BY_ONE`` are left, at most ``_SCAN_STEPS`` times.
    Those few then finish alone, each by ``bisect_right`` over the rest of
    its bucket (mostly draws in a top bucket holding a geometric tail's many
    tiny entries); more, as where ``_GUIDE_BYTES`` coarsens the guide,
    finish with one vectorized binary search, one round per bit of the
    widest bucket.  So a step costs at most _SCAN_STEPS + log2(n) rounds.
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
        if i.size <= _FINISH_ONE_BY_ONE:
            break
        pos[i] += 1
        i = i[cdf[pos[i]] <= u[i]]
    if i.size > _FINISH_ONE_BY_ONE:
        lo, hi, ui = pos[i] + 1, base[i] + guide[k[i] + 1], u[i]
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            right = cdf[mid] <= ui
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        pos[i] = lo
    else:
        for w in i.tolist():
            pos[w] = bisect_right(cdf, u[w], pos[w] + 1, base[w] + guide[k[w] + 1])
    return pos - base


# --- the walker loop ------------------------------------------------------------

def _finite_advance(k: FiniteKernel):
    """One step of a finite-kernel walker population from one draw each.

    Builds the kernel's guide table (``_guide_table``) once; every step is
    then one ``_step_states`` lookup per walker.
    """
    table = _guide_table(k.p)
    return lambda pos, u, grp: _step_states(table, pos, u[:, 0])


def _arrival_test(groups, arrivals):
    """The arrival test of positions ordered by the sorted ``groups``.

    Each group present tests its own slice, and the results are joined; a
    population of one group is tested by its group's test alone.
    """
    edges = groups.searchsorted(np.arange(len(arrivals) + 1)).tolist()
    spans = [(arrived, a, b) for arrived, a, b in zip(arrivals, edges, edges[1:]) if a < b]
    if len(spans) == 1:
        return spans[0][0]
    return lambda pos: np.concatenate([arrived(pos[a:b]) for arrived, a, b in spans])


def _first_hits(starts, seeds, horizons, groups, arrivals, advance, draws, replicas,
                population):
    """Run ``replicas`` walkers per job until each arrives or its job's horizon passes.

    The one walker loop.  Job j's walkers start at ``starts[j]``, draw from
    the streams keyed (seeds[j], r) for r < replicas, may take
    ``horizons[j]`` steps, and arrive when ``arrivals[groups[j]](pos)``
    holds.  The loop keeps one population of at most ``population``
    walkers: at each block boundary the next unstarted walkers take the
    places of walkers that retired, the jobs with the largest horizon first
    (then in job and replica order), so that shorter jobs fill the tail of
    longer ones.  A job with horizon 0 takes no walkers.  The population is
    ordered by group, so that each arrival test runs once per step, on one
    slice.  One ``advance(pos, u, grp)`` call a step moves every live
    walker, with u of shape (walkers, draws) and grp each walker's group:
    the step and arrival functions see only live walkers.  Every walker
    carries its own step count, and its block row starts at that step's
    position of its own stream.  A block is 256/draws steps wide, narrowed
    so that it holds at most ``_BLOCK_DRAWS`` doubles and reaches no
    further than the horizon of the walker with most steps left.  Each
    step gathers the live walkers' draws as whole items, one
    ``8 * draws``-byte item per walker, rather than by a 2-D fancy index.
    A walker retires when it arrives or when its own step count reaches
    its horizon.

    Within a block a step compacts three arrays, the live walkers'
    positions, groups and block rows; walker ids, step counts and steps
    left stay block arrays indexed by row.  An arrival at block step b,
    counted from 1, is recorded as hit[row] = b, and times and censoring
    are written once, at the end of the block.  Expiry is tested only at
    the block steps at which some walker's horizon ends, read off the
    steps left at the block's start: a block as wide as the one horizon
    of its walkers, as in the coupling survey, tests it at its last step
    alone.  A population of one group calls its arrival test directly
    (``_arrival_test``).

    Returns (times, censored), ordered by job and then replica: the first
    arrival time of each walker, its horizon for those that never arrive,
    and which ones never did.

    Raises ValueError, before any walker runs, unless 1 <= ``population``
    and a 4-step block of the whole population fits in ``_BLOCK_DRAWS``.
    """
    if not 1 <= population * draws * 4 <= _BLOCK_DRAWS:
        raise ValueError(f"{population} walkers of {draws} draws a step do not fit "
                         f"4-step blocks of {_BLOCK_DRAWS} draws")
    starts = np.asarray(starts)
    seeds = np.asarray(seeds, dtype=np.uint64)
    horizons = np.asarray(horizons, dtype=np.int64)
    groups = np.asarray(groups, dtype=int)
    times = np.repeat(horizons, replicas).astype(float)
    censored = np.ones(times.size, dtype=bool)
    # admission order: jobs by decreasing horizon, ties in job order
    queue = np.argsort(-horizons, kind="stable")
    queue = queue[horizons[queue] > 0]
    total = queue.size * replicas
    streams = _ReplicaStreams()
    buf = np.empty(_BLOCK_DRAWS)
    item = np.dtype(f"V{8 * draws}")  # one walker's draws of one step
    cap = max(4, 256 // draws // 4 * 4)
    walker = np.empty(0, dtype=np.int64)  # the population, ordered by group
    pos, steps = starts[:0], np.empty(0, dtype=np.int64)
    admitted = 0
    while walker.size or admitted < total:
        if admitted < total and walker.size < population:
            new = np.arange(admitted, min(admitted + population - walker.size, total))
            admitted += new.size
            new = queue[new // replicas] * replicas + new % replicas
            walker = np.concatenate((walker, new))
            pos = np.concatenate((pos, starts[new // replicas]))
            steps = np.concatenate((steps, np.zeros_like(new)))
            order = np.argsort(groups[walker // replicas], kind="stable")
            walker, pos, steps = walker[order], pos[order], steps[order]
            grp = groups[walker // replicas]
            arrived = _arrival_test(grp, arrivals)
        n = walker.size
        left = horizons[walker // replicas] - steps  # steps each walker may still take
        fits = max(4, _BLOCK_DRAWS // (n * draws) // 4 * 4)  # steps the buffer holds
        width = min(cap, fits, int(left.max()))  # a multiple of 4 unless every walker ends here
        keys = np.column_stack((seeds[walker // replicas], (walker % replicas).astype(np.uint64)))
        u = streams.block(keys, steps * draws, buf[:n * width * draws].reshape(n, -1))
        u = u.view(item)  # (walkers, width): one item per walker and step
        ends = set(left[left <= width].tolist())  # the block steps at which a horizon ends
        hit = np.zeros(n, dtype=np.int64)  # the block step at which each row arrived, or 0
        row = np.arange(n)  # the live walkers' block rows
        for b in range(1, width + 1):
            ub = u[:, b - 1].take(row).view(np.float64).reshape(-1, draws)
            pos = advance(pos, ub, grp)
            just = arrived(pos)
            done = just | (left.take(row) == b) if b in ends else just
            if done.any():
                hit[row[just]] = b
                keep = ~done
                pos, grp, row = pos[keep], grp[keep], row[keep]
                if not row.size:
                    break
                arrived = _arrival_test(grp, arrivals)
        hit_rows = np.flatnonzero(hit)
        times[walker[hit_rows]] = steps[hit_rows] + hit[hit_rows]
        censored[walker[hit_rows]] = False
        walker, steps = walker[row], steps[row] + width
    return times, censored


# --- one step rule per sampler ----------------------------------------------------

class _WalkerRule(NamedTuple):
    """How ``_first_hits`` starts and stops the walkers of one sampler."""

    draws: int  # uniform draws a step takes
    place: Callable  # start -> position; ValueError if it is not a state
    arrival: Callable  # target -> arrival test (positions -> bool array)


def _walker_rule(sampler) -> _WalkerRule:
    """The draws per step, start check and arrival test of a FiniteKernel or
    ContinuousSampler1D.

    A FiniteKernel's states are indices and its targets are sets of them; a
    ContinuousSampler1D's states are points of [0, 1] and its targets are
    vectorized predicates.
    """
    if isinstance(sampler, FiniteKernel):
        def place(x0):
            return int(sampler.state_set([x0], "start")[0])

        def arrival(target):
            member = np.zeros(sampler.n, dtype=bool)
            member[sampler.state_set(target, "target state")] = True
            return member.__getitem__

        return _WalkerRule(1, place, arrival)
    if isinstance(sampler, ContinuousSampler1D):
        def place(x0):
            x = float(x0)
            if not 0.0 <= x <= 1.0:  # NaN fails too
                raise ValueError(f"start {x0!r} is not a point of the ball walk's [0, 1]")
            return x

        def arrival(target):
            return lambda pos: np.asarray(target(pos), dtype=bool)

        return _WalkerRule(sampler.draws_per_step, place, arrival)
    raise TypeError(f"unsupported sampler type {type(sampler)!r}")


def _population_advance(samplers):
    """``advance(pos, u, grp)`` stepping each walker with the sampler ``samplers[grp]``.

    One finite kernel steps through its guide table (``_finite_advance``).
    Ball walks of one target step through one ``batch_step`` call a step,
    on a sampler whose c holds each walker's own half-width; c enters the
    step elementwise, so every walker moves exactly as under its own
    sampler.  ValueError for any other mix of samplers.
    """
    first = samplers[0]
    if isinstance(first, FiniteKernel) and all(s is first for s in samplers):
        return _finite_advance(first)
    if not all(isinstance(s, ContinuousSampler1D) and s.target is first.target
               for s in samplers):
        raise ValueError("only ball walks of one target density share a walker population")
    c = np.array([s.c for s in samplers])
    return lambda pos, u, grp: ContinuousSampler1D(first.target, c[grp]).batch_step(
        pos, u[:, 0], u[:, 1])


def _population(draws: int) -> int:
    """Walkers whose ``_ROW_STEPS``-step rows of ``draws`` draws a step fill one block."""
    return _BLOCK_DRAWS // (_ROW_STEPS * draws)


def sample_path(sampler, x0, t: int, seed: int) -> np.ndarray:
    """The length t+1 path of one walker from x0; deterministic given (seed, x0, t).

    ``sampler`` is a FiniteKernel (states are indices) or a
    ContinuousSampler1D (states are points in [0, 1]).  The walker is
    replica 0 of ``seed``, stepped by ``_first_hits`` with the step of
    ``estimate_hitting``, so its path is the one that estimate's replica 0
    walks.

    Raises
    ------
    ValueError
        If t is not a nonnegative integer, seed is not an integer in
        [0, 2**64) (a bool is neither), or x0 is not a state of the
        sampler; no step is taken.
    """
    _check_walk(seed, t, "path length")
    rule = _walker_rule(sampler)
    path = [np.array([rule.place(x0)])]
    step = _population_advance([sampler])

    def advance(pos, u, grp):
        path.append(step(pos, u, grp))
        return path[-1]

    never = np.zeros(1, dtype=bool)
    _first_hits(path[0], [seed], [t], [0], [lambda pos: never], advance, rule.draws, 1, 1)
    return np.concatenate(path)


# --- hitting-time estimation ----------------------------------------------------

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
    ``censored_fraction``.  The one-job case of ``estimate_hitting_batch``,
    which lists what it raises.
    """
    return estimate_hitting_batch([(sampler, x0, target, seed, horizon)], replicas)[0]


def estimate_hitting_batch(jobs, replicas: int) -> list[McEstimate]:
    """``estimate_hitting`` of every job (sampler, x0, target, seed, horizon), as one population.

    Each walker's draws depend only on its key (seed, replica) and its
    step, so every estimate equals the one its job gives alone, bit for
    bit.  The jobs with the largest horizon are admitted first.  Jobs share
    one sampler, or they are ball walks of one target density with step
    sizes of their own (``_population_advance``).  Jobs that pass the same
    sampler and target object share one arrival test per step.  Two kinds
    of job take no walkers (``_walk_jobs``): one whose start lies in its
    target reports zero, and a finite-kernel job whose target holds no
    state is censored at its horizon, so it raises AllCensored below
    without a walker of its own having run.  Every job is answered before
    any is judged, so a failing batch still walks its other jobs.

    Raises
    ------
    AllCensored
        For the first job, in job order, none of whose replicas hits
        within its horizon.
    ValueError
        If replicas is not an integer >= 1, a horizon is not a
        nonnegative integer, a seed is not an integer in [0, 2**64) (a
        bool is neither), a finite-kernel start or target value is not a
        state of the chain
        (``FiniteKernel.state_set``), a ball-walk start lies outside [0, 1]
        (NaN included), or the samplers cannot share a population; no
        walker runs.
    TypeError
        If a sampler is neither a FiniteKernel nor a ContinuousSampler1D.
    """
    jobs = list(jobs)
    estimates = []
    for (_, x0, _, seed, horizon), (times, censored) in zip(jobs, _walk_jobs(jobs, replicas)):
        if censored.all():
            raise AllCensored(
                f"no path from {x0} hit the target within {horizon} steps (seed {seed})")
        estimates.append(_summarize(times, seed, horizon, censored))
    return estimates


def _walk_jobs(jobs: list, replicas: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(times, censored) of ``replicas`` walkers for each job (sampler, x0, target, seed, horizon).

    The one place where jobs become walkers, and the one judge of a walk:
    it checks replicas and every job's seed, horizon, sampler and start
    before any walker runs, then answers each job by itself.  Each job's
    pair holds its replicas in order, as ``_first_hits`` returns them.  Two
    kinds of job take no walkers, because their results are known before
    any draw:
    - a job whose start lies in its target: each replica arrives at time 0;
    - a finite-kernel job whose target holds no state: each replica is
      censored at the horizon, which is what ``_first_hits`` would return.
    A walker's draws depend only on its key and its step, so leaving these
    jobs out changes no other job's result.  The rest run as one
    population.

    Raises the ValueError and TypeError of ``estimate_hitting_batch``
    before any walker runs.
    """
    if not (_is_int(replicas) and replicas >= 1):
        raise ValueError(f"replicas must be an integer >= 1, got {replicas!r}")
    arrivals, group_of = [], {}
    samplers = []  # the sampler of each group
    empty = set()  # the groups of a finite kernel whose target holds no state
    results = []
    walking = []  # (job index, start, seed, horizon, group) of the jobs that take walkers
    for j, (sampler, x0, target, seed, horizon) in enumerate(jobs):
        _check_walk(seed, horizon, "horizon")
        rule = _walker_rule(sampler)
        if (id(sampler), id(target)) not in group_of:
            group_of[id(sampler), id(target)] = len(arrivals)
            arrivals.append(rule.arrival(target))
            samplers.append(sampler)
            if isinstance(sampler, FiniteKernel) and not arrivals[-1](np.arange(sampler.n)).any():
                empty.add(len(arrivals) - 1)
        g, start = group_of[id(sampler), id(target)], rule.place(x0)
        if arrivals[g](np.array([start]))[0]:
            results.append((np.zeros(replicas), np.zeros(replicas, dtype=bool)))
        elif g in empty:
            results.append((np.full(replicas, float(horizon)), np.ones(replicas, dtype=bool)))
        else:
            results.append(None)  # filled in by the walk
            walking.append((j, start, seed, horizon, g))
    if walking:
        draws = _walker_rule(samplers[0]).draws
        index, starts, seeds, horizons, groups = zip(*walking)
        times, censored = _first_hits(starts, seeds, horizons, groups, arrivals,
                                      _population_advance(samplers), draws, replicas,
                                      _population(draws))
        for k, j in enumerate(index):
            rows = slice(k * replicas, (k + 1) * replicas)
            results[j] = times[rows], censored[rows]
    return results


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
    complement of the support with horizon t, run by ``_walk_jobs``.  When
    the support is the whole space, no walker runs and the estimate is 0
    exactly, with standard error 0.

    Raises
    ------
    DominationViolation
        If the entrywise domination check fails on the support.
    ValueError
        If x0 is not a state of g or lies outside the support; then, from
        ``_walk_jobs``, if t is not a nonnegative integer, seed is not an
        integer in [0, 2**64) (a bool is neither), or replicas is not an
        integer >= 1.  No walker runs.
    """
    _check_domination(g.p, g_c.kernel.p, g_c.support)
    x0 = _walker_rule(g).place(x0)
    if x0 not in g_c.support:
        raise ValueError("start state must lie in the coupling set")

    outside = np.delete(np.arange(g.n), g_c.support)
    [(_, coupled)] = _walk_jobs([(g, x0, outside, seed, t)], replicas)
    values = (~coupled).astype(float)
    return _summarize(values, seed, t, censored=np.zeros(replicas, dtype=bool))
