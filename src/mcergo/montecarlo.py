"""Trajectory simulation for continuous samplers and finite kernels.

Randomness is counter-based: replica r draws from the Philox stream keyed
(seed, r), so every replica's draws are a pure function of (seed, replica
index, step) and results are independent of scheduling and worker count.
``sample_path`` uses the replica-0 stream.  Batch estimators reposition a
single Philox generator by counter injection, which is stream-identical to
constructing ``Philox(key=[seed, r])`` per replica but far cheaper.

One walker loop, ``_first_hits``, runs every batch estimate: the hitting
time of a target set (``estimate_hitting``) and the decoupling time of the
identity coupling (``coupled_escape_estimate``), which is the g-chain's
first exit from the coupling set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllCensored, NotDominating
from .kernels import ContinuousSampler1D, DominatedKernel, FiniteKernel
from .tolerances import ROW_SUM_TOL

_CHUNK = 16384
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
    """Batch access to the per-replica Philox streams.

    ``block(replicas, offset, width)`` returns draw positions
    [offset, offset + width) of each requested replica's stream; offsets
    must be multiples of 4 so the 256-bit Philox output buffer never
    straddles two requests.
    """

    def __init__(self, seed: int):
        self._bg = np.random.Philox(key=np.uint64(int(seed)))
        self._gen = np.random.Generator(self._bg)
        self._template = self._bg.state
        self._template["state"]["counter"][:] = 0
        self._template["buffer_pos"] = _PHILOX_WORDS

    def block(self, replicas, offset: int, width: int) -> np.ndarray:
        if offset % _PHILOX_WORDS:
            raise ValueError("stream offset must be a multiple of 4")
        out = np.empty((len(replicas), width))
        st = self._template
        key = st["state"]["key"]
        counter = st["state"]["counter"]
        counter[0] = offset // _PHILOX_WORDS
        for i, r in enumerate(replicas):
            key[1] = r
            self._bg.state = st
            out[i] = self._gen.random(width)
        return out


def _block_widths(horizon: int, draws_per_step: int):
    """Step-count block schedule: grows 16 -> 256/d, offsets stay 4-aligned."""
    cap = max(4, 256 // draws_per_step)
    width = 16
    done = 0
    while done < horizon:
        w = min(width, horizon - done)
        yield done, w
        done += w
        width = min(width * 2, cap)


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


def _step_states(cdf: np.ndarray, cur: np.ndarray, u: np.ndarray) -> np.ndarray:
    nxt = np.empty_like(cur)
    for s in np.unique(cur):
        sel = cur == s
        nxt[sel] = np.searchsorted(cdf[s], u[sel], side="right")
    return nxt


# --- the walker loop ------------------------------------------------------------

def _finite_advance(k: FiniteKernel):
    """One step of a finite-kernel walker population from one draw each."""
    cdf = _row_cdfs(k.p)
    return lambda pos, u: _step_states(cdf, pos, u[:, 0])


def _first_hits(start, advance, arrived, draws, replicas, horizon, seed):
    """Run walkers from ``start`` until each arrives or the horizon passes.

    The one walker loop: replicas go in chunks of at most 16384, each
    chunk draws its stream blocks on the ``_block_widths`` schedule,
    ``advance(pos, u)`` moves the live walkers with u of shape
    (walkers, draws), and walkers for which ``arrived(pos)`` holds retire.
    Returns (times, censored): the first arrival time of each replica, the
    horizon for those that never arrive, and which ones never did.
    """
    times = np.full(replicas, float(horizon))
    censored = np.ones(replicas, dtype=bool)
    streams = _ReplicaStreams(seed)
    for done in range(0, replicas, _CHUNK):
        alive = np.arange(done, min(done + _CHUNK, replicas))
        pos = np.full(alive.size, start)
        for step0, width in _block_widths(horizon, draws):
            if not alive.size:
                break
            u = streams.block(alive, step0 * draws, width * draws)
            u = u.reshape(alive.size, width, draws)
            for b in range(width):
                pos = advance(pos, u[:, b])
                just = arrived(pos)
                if just.any():
                    idx = alive[just]
                    times[idx] = step0 + b + 1
                    censored[idx] = False
                    keep = ~just
                    alive = alive[keep]
                    pos = pos[keep]
                    u = u[keep]
                if not alive.size:
                    break
    return times, censored


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
    ``censored_fraction``.

    Raises
    ------
    AllCensored
        If no replica hits within the horizon.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if isinstance(sampler, FiniteKernel):
        member = np.zeros(sampler.n, dtype=bool)
        member[np.asarray(list(target), dtype=int)] = True
        start, draws = int(x0), 1
        advance, arrived = _finite_advance(sampler), member.__getitem__
    elif isinstance(sampler, ContinuousSampler1D):
        start, draws = float(x0), 2

        def advance(pos, u):
            return sampler.batch_step(pos, u[:, 0], u[:, 1])

        def arrived(pos):
            return np.asarray(target(pos), dtype=bool)
    else:
        raise TypeError(f"unsupported sampler type {type(sampler)!r}")

    if arrived(np.array([start]))[0]:
        times = np.zeros(replicas)
        return _summarize(times, seed, horizon, np.zeros(replicas, dtype=bool))
    times, censored = _first_hits(start, advance, arrived, draws, replicas, horizon, seed)
    if censored.all():
        raise AllCensored(f"no path hit the target within {horizon} steps")
    return _summarize(times, seed, horizon, censored)


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
    in_s = np.zeros(g.n, dtype=bool)
    in_s[S] = True
    if not in_s[int(x0)]:
        raise ValueError("start state must lie in the coupling set")

    outside = ~in_s
    _, coupled = _first_hits(
        int(x0), _finite_advance(g), outside.__getitem__, 1, replicas, t, seed)
    values = (~coupled).astype(float)
    return _summarize(values, seed, t, censored=np.zeros(replicas, dtype=bool))


def coupled_pair_paths(g: FiniteKernel, g_c: DominatedKernel, x0: int, t: int, seed: int):
    """One explicit realization of the identity coupling, for inspection.

    Returns (x_path, y_path, decouple_time).  The X path follows g on the
    full space; the Y path follows the dominating kernel on its support,
    indexed in base-state labels.  Both paths agree until X first leaves
    the support (decouple_time; None if still coupled at t).
    """
    S = g_c.support
    pos_in_s = {int(s): i for i, s in enumerate(S)}
    in_s = np.zeros(g.n, dtype=bool)
    in_s[S] = True
    if not in_s[int(x0)]:
        raise ValueError("start state must lie in the coupling set")
    rng = replica_generator(seed, 0)
    cdf_g = _row_cdfs(g.p)
    cdf_sub = _row_cdfs(g_c.kernel.p)
    x = int(x0)
    y = int(x0)
    xs = [x]
    ys = [y]
    decouple = None
    for _ in range(t):
        if decouple is None:
            u = rng.random()
            nx = int(np.searchsorted(cdf_g[x], u, side="right"))
            if in_s[nx]:
                # shared sub-probability event: both move together
                x = nx
                y = nx
            else:
                # X escapes the support; Y redraws from the residual
                # (dominating row minus the shared within-support part)
                row = g_c.kernel.p[pos_in_s[y]]
                resid = np.clip(row - g.p[y, S], 0.0, None)
                total = resid.sum()
                if total <= 0.0:
                    yi = pos_in_s[y]
                else:
                    u2 = rng.random()
                    c = np.cumsum(resid / total)
                    c[-1] = 1.0
                    yi = int(np.searchsorted(c, u2, side="right"))
                x = nx
                y = int(S[yi])
                decouple = len(xs)
        else:
            u = rng.random()
            x = int(np.searchsorted(cdf_g[x], u, side="right"))
            u2 = rng.random()
            yi = pos_in_s[y]
            yi = int(np.searchsorted(cdf_sub[yi], u2, side="right"))
            y = int(S[yi])
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys), decouple
