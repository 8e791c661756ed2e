"""Exact finite-chain computations.

Stationary distributions by dense linear algebra, total variation
distances, mixing and lazy mixing times by literal matrix powers, expected
hitting times by linear solves, maximum hitting times over set families,
the probability of leaving a set within t steps, and pairwise
pseudo-minorization constants.

All functions are pure over immutable kernels; enumeration results carry a
deterministic lexicographic tie-break on (set, start) encodings.  The
module needs numpy alone: dense solves are ``np.linalg.solve``, and closed
classes and reachability come from one depth-first search (``_reach``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateOverlap,
    EmptySubset,
    LengthMismatch,
    MissingCoordinates,
    NoFeasibleSet,
    NotBirthDeath,
    NotMixedByHorizon,
    Reducible,
    ResidualTooLarge,
    TooManyStates,
    Unreachable,
)
from .kernels import FiniteKernel, lazy_transform
from .tolerances import (
    HITTING_CONDITION_TOL,
    LINEAR_RESIDUAL_TOL,
    PROB_NORM_TOL,
    ROW_SUM_TOL,
    STATIONARY_TOL,
)

BRUTE_STATE_CAP = 14
REFINEMENT_ROUNDS = 3
DEFAULT_MIX_EPS = 0.25
MIXING_POWER_BYTES = 64 << 20  # the stored powers of mixing_time; n = 512 needs 50 MiB


# --- stationary distribution ------------------------------------------------

def stationary_distribution(k: FiniteKernel) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by dense linear algebra.

    The chain must have a single closed communicating class (checked by
    reachability on the support digraph); transient states receive mass 0.
    The solve is checked, never replaced by another method.

    Raises
    ------
    Reducible
        If the support digraph has multiple closed classes.
    ResidualTooLarge
        If the solve fails, returns a non-finite or negative vector, or
        leaves max|pi P - pi| above 1e-10.
    """
    closed = _closed_classes(k.p)
    if len(closed) > 1:
        raise Reducible(f"kernel has {len(closed)} closed classes")
    return _class_mixture(k.p, closed)


def _closed_classes(p: np.ndarray) -> list[np.ndarray]:
    """The closed communicating classes of the support digraph of p, each sorted.

    A forward/backward reachability decomposition.  From an unclassified
    pivot v, F is every state reachable from v and B every unclassified
    state that reaches v through unclassified states; every state of B is
    then classified, as a member of F or as transient.  The invariant is
    that each classified state is transient or in a class already returned.

    - If F is a subset of B, F is closed (it holds every successor of its
      states) and strongly connected (v reaches each state of F, and each
      reaches v), so F is a closed class.  A state u of B outside F reaches
      v but is not reached from it; were u recurrent, its class would be
      closed and hold v, so u would be in F.  So u is transient.
    - Otherwise every state of B is transient.  Were some u in B recurrent,
      v would lie in u's closed class C, so F = C.  No state of C is
      classified (the invariant, and C was not returned, since v is not),
      and a path inside C from any state of C to v meets only states of C,
      so C lies in B, against F not a subset of B.

    B holds v, so each round classifies at least one state.  The next pivot
    is the state the forward search found deepest, which tends to lie in a
    closed class, while it is unclassified; otherwise the first
    unclassified state.
    """
    n = p.shape[0]
    adj = p > 0.0
    succ, pred = _adjacency(adj), _adjacency(adj.T)
    classified = bytearray(n)
    closed = []
    first, pivot = 0, 0
    while pivot >= 0:
        forward, deepest = _reach(succ, [pivot], bytearray(n))
        backward, _ = _reach(pred, [pivot], classified)  # marks B as classified
        if set(forward).issubset(backward):
            closed.append(np.sort(forward))
        if not classified[deepest]:
            pivot = deepest
        else:
            first = pivot = classified.find(0, first)
    return closed


def _adjacency(adj: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(ptr, nbr): the states j with adj[i, j] are nbr[ptr[i]:ptr[i + 1]].

    ``nbr`` stays an array; ``_reach`` converts one state's list when it
    reads it, so the lists of a dense graph that the search never reads
    cost nothing.
    """
    rows, cols = np.nonzero(adj)
    return np.searchsorted(rows, np.arange(adj.shape[0] + 1)).tolist(), cols


def _reach(graph, sources: list[int], blocked: bytearray) -> tuple[list[int], int]:
    """The states reachable from ``sources`` along ``graph`` through unblocked states.

    A node-by-node depth-first search over the adjacency lists of
    ``_adjacency``.  ``blocked`` has one byte per state; the search steps
    onto no state whose byte is set, and sets the byte of every state it
    finds, the sources included.  It stops once every state that was
    unblocked is found, so on a dense graph it reads a few adjacency lists
    rather than all n^2 entries.  Returns the states found, in the order
    found, and one found at the greatest depth.
    """
    ptr, nbr = graph
    for s in sources:
        blocked[s] = 1
    found = list(sources)
    total = len(found) + blocked.count(0)
    stack = [(s, 0) for s in sources]
    deepest, most = sources[0], 0
    while stack and len(found) < total:
        u, depth = stack.pop()
        depth += 1
        before = len(found)
        for w in nbr[ptr[u]:ptr[u + 1]].tolist():
            if not blocked[w]:
                blocked[w] = 1
                found.append(w)
                stack.append((w, depth))
        if depth > most and len(found) > before:
            deepest, most = found[-1], depth
    return found, deepest


def _class_mixture(p: np.ndarray, classes: list[np.ndarray]) -> np.ndarray:
    """Equal-weight mixture of the stationary laws of the given closed classes."""
    pi = np.zeros(p.shape[0])
    for members in classes:
        pi[members] += _class_stationary(p[np.ix_(members, members)]) / len(classes)
    return pi


def _class_stationary(q: np.ndarray) -> np.ndarray:
    """Checked dense solve of pi q = pi, sum(pi) = 1 on one closed class."""
    m = q.shape[0]
    a = q.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ResidualTooLarge(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)) or np.any(pi < -1e-9):
        raise ResidualTooLarge("stationary solve returned a non-finite or negative vector")
    pi = np.clip(pi, 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ q - pi)))
    if not residual <= STATIONARY_TOL:  # a zero sum leaves NaN, which fails too
        raise ResidualTooLarge(
            f"stationary residual {residual:.3e} > {STATIONARY_TOL:.0e}")
    return pi


# --- total variation ---------------------------------------------------------

def tv_distance(p, q) -> float:
    """Half the L1 distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatch(f"length mismatch: {p.shape} vs {q.shape}")
    for v in (p, q):
        if abs(v.sum() - 1.0) > PROB_NORM_TOL:
            raise LengthMismatch("input is not normalized within 1e-9")
    return 0.5 * float(np.abs(p - q).sum())


def tv_trajectory(k: FiniteKernel, t_max: int, starts=None, pi=None):
    """Yield the vector of TV(P^t(x, .), pi) over the starts x for t = 0..t_max.

    The one every-t loop: one (starts x n) block times P per step.  pi
    defaults to the stationary law of k, solved when iteration begins.
    """
    if pi is None:
        pi = stationary_distribution(k)
    rows = np.eye(k.n) if starts is None else np.eye(k.n)[np.asarray(starts, dtype=int)]
    for t in range(t_max + 1):
        yield 0.5 * np.abs(rows - pi).sum(axis=1)
        if t < t_max:
            rows = rows @ k.p


def tv_profile(k: FiniteKernel, t_max: int, starts=None, pi=None) -> np.ndarray:
    """max over starts of TV(P^t(x, .), pi) for t = 0..t_max."""
    return np.array([float(np.max(tv)) for tv in tv_trajectory(k, t_max, starts, pi)])


# --- mixing times -------------------------------------------------------------

def default_mix_horizon(n: int) -> int:
    return max(1, 10 * n * n * math.ceil(math.log(max(n, 2))))


def mixing_time(
    k: FiniteKernel,
    eps: float = DEFAULT_MIX_EPS,
    subset=None,
    lazy: bool = False,
    t_max: int | None = None,
    pi: np.ndarray | None = None,
) -> int:
    """Smallest t with max over starts in the subset of TV(P^t(x,.), pi) <= eps.

    Computed from literal matrix powers (no spectral shortcuts) by a
    galloping search and a bisection.  For every start x,
    ||P^{t+1}(x,.) - pi|| = ||(P^t(x,.) - pi) P|| <= ||P^t(x,.) - pi||
    because pi P = pi and P contracts total variation (Levin, Peres and
    Wilmer, Markov Chains and Mixing Times, Ex. 4.2), so the maximum over
    any set of starts is non-increasing in t.  P is therefore squared until
    a power 2^i mixes or passes t_max, and the stored powers P^(2^j) then
    extend the start rows from the last unmixed time downwards in j, a
    product kept whenever its TV still exceeds eps: about 2 log2(t) dense
    products instead of t.

    The lazy flag replaces P with (P + I)/2 first; ``pi``, when given, is
    the stationary law of k, which the lazy kernel shares.  A reducible
    chain is measured against the equal mixture of its closed classes'
    stationary laws, which is stationary too, so a chain that cannot mix
    ends in ``NotMixedByHorizon`` rather than a reducibility error.

    Raises
    ------
    NotMixedByHorizon
        If the threshold is not reached by ``t_max``; the exception carries
        the TV at every time checked, in ascending order from t = 0.
    TooManyStates
        If the ceil(log2(t_max + 1)) stored n x n powers would take more
        than ``MIXING_POWER_BYTES``; raised before any product is formed.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if t_max is None:
        t_max = default_mix_horizon(k.n)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    squarings = int(t_max).bit_length()  # = ceil(log2(t_max + 1)) stored powers
    stored = squarings * k.n * k.n * np.dtype(float).itemsize
    if stored > MIXING_POWER_BYTES:
        raise TooManyStates(
            f"mixing_time would store {squarings} powers of a {k.n}-state kernel "
            f"({stored / 2**20:.0f} MiB > {MIXING_POWER_BYTES / 2**20:.0f} MiB)"
        )
    work = lazy_transform(k) if lazy else k
    if pi is None:
        try:
            pi = stationary_distribution(work)
        except Reducible:
            pi = _class_mixture(work.p, _closed_classes(work.p))
    starts = np.arange(k.n) if subset is None else np.asarray(subset, dtype=int)
    checked = {}  # t -> max over starts of TV(P^t(x,.), pi)

    def mixed(t, rows):
        checked[t] = 0.5 * float(np.max(np.abs(rows - pi).sum(axis=1)))
        return checked[t] <= eps

    # invariant: d(lo) > eps, and every t >= hi mixes or lies past t_max
    lo, hi = 0, t_max + 1
    rows = np.eye(k.n)[starts]
    if mixed(0, rows):
        return 0
    powers = []  # powers[j] = P^(2^j)
    while 1 << len(powers) < hi:
        powers.append(work.p if not powers else powers[-1] @ powers[-1])
        t, step = 1 << (len(powers) - 1), powers[-1][starts]
        if mixed(t, step):
            hi = t
        else:
            lo, rows = t, step
    for j in range(len(powers) - 1, -1, -1):
        t = lo + (1 << j)
        if t >= hi:
            continue
        step = rows @ powers[j]
        if mixed(t, step):
            hi = t
        else:
            lo, rows = t, step
    if hi <= t_max:
        return hi
    times = np.array(sorted(checked))
    raise NotMixedByHorizon(
        f"TV still {checked[t_max]:.4f} > {eps} after {t_max} steps",
        np.array([checked[t] for t in times]),
        times,
    )


# --- expected hitting times ----------------------------------------------------

def expected_hitting(k: FiniteKernel, target) -> np.ndarray:
    """Expected hitting times E_x[tau(A)] for every start x.

    tau counts from t = 0, so entries inside A are 0.  The empty target has
    tau = infinity and yields an all-infinite vector (no exception).  The
    dense linear solve is iteratively refined until its residual is at most
    1e-12 max(1, max|h|).

    A small residual does not make the answer meaningful when I - Q is
    ill-conditioned (Q = P off the target).  Q is substochastic, so
    (I - Q)^-1 = sum_k Q^k is entrywise nonnegative with row sums h >= 1,
    and kappa_inf(I - Q) = ||I - Q||_inf max h is known from the answer.
    kappa_inf 2^-52 bounds the error of h relative to max h, to first order.

    Raises
    ------
    Unreachable
        If some state cannot reach the (nonempty) target.
    ResidualTooLarge
        If the solve fails, refinement leaves the residual above that
        tolerance, some off-target entry is non-finite or below 1 by more
        than its error bound, or kappa_inf 2^-52 exceeds
        ``HITTING_CONDITION_TOL``.
    """
    n = k.n
    A = np.unique(np.asarray(list(target), dtype=int))
    if A.size == 0:
        return np.full(n, np.inf)
    if A[0] < 0 or A[-1] >= n:
        raise Unreachable("target indices out of range")
    rest = np.setdiff1d(np.arange(n), A)
    if rest.size == 0:
        return np.zeros(n)
    reached, _ = _reach(_adjacency(k.p.T > 0.0), A.tolist(), bytearray(n))
    if len(reached) < n:
        raise Unreachable("target is not reachable from every state")
    q = k.p[np.ix_(rest, rest)]
    m = np.eye(rest.size) - q
    b = np.ones(rest.size)
    try:
        h = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:  # a later round solves with the same m
        raise ResidualTooLarge(f"hitting-time solve failed: {exc}") from exc
    for rounds in range(REFINEMENT_ROUNDS + 1):
        r = b - m @ h
        residual = float(np.max(np.abs(r)))
        tol = LINEAR_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(h))))
        if residual <= tol:
            break
        if rounds == REFINEMENT_ROUNDS:
            raise ResidualTooLarge(
                f"hitting-time residual {residual:.3e} > {tol:.3e} "
                f"after {REFINEMENT_ROUNDS} refinement rounds"
            )
        h = h + np.linalg.solve(m, r)
    low, top = float(h.min()), float(h.max())
    error = float(np.abs(m).sum(axis=1).max()) * top * 2.0**-52  # kappa_inf 2^-52
    # every time is >= 1, up to the error bound
    if not (np.isfinite(h).all() and top >= 1.0 and low >= 1.0 - error * top):
        raise ResidualTooLarge(
            f"hitting-time solve returned times from {low!r} to {top!r}; every time is >= 1")
    if error > HITTING_CONDITION_TOL:
        raise ResidualTooLarge(
            f"hitting-time system too ill-conditioned: kappa_inf(I - Q) 2^-52 = {error:.3e} "
            f"> {HITTING_CONDITION_TOL:.0e}"
        )
    out = np.zeros(n)
    out[rest] = h
    return out


# --- maximum hitting times -------------------------------------------------------

@dataclass
class HitMixReport:
    """Worst-case expected hitting time over a family of large sets."""

    alpha: float
    t_h: float
    method: str  # "brute" | "interval"
    worst_set: tuple
    worst_start: int
    t_m: int | None = None
    t_l: int | None = None
    eps_mix: float = DEFAULT_MIX_EPS

    def csv_row(self) -> list[str]:
        return [
            repr(float(self.alpha)),
            repr(float(self.t_h)),
            self.method,
            ";".join(str(i) for i in self.worst_set),
            str(self.worst_start),
            "" if self.t_m is None else str(self.t_m),
            "" if self.t_l is None else str(self.t_l),
        ]

    CSV_HEADER = ["alpha", "tH", "method", "worst_set", "worst_start", "tm", "tL"]


def max_hitting_time(
    k: FiniteKernel,
    alpha: float,
    strategy: str = "brute",
    pi: np.ndarray | None = None,
) -> HitMixReport:
    """Maximum expected hitting time of sets with stationary mass >= alpha.

    strategy "brute" enumerates every subset (n <= 14), solves the
    first-step equations for each, and keeps the first maximum in bitmask
    order.  Strategy "interval" is the birth-death closed form (Levin,
    Peres and Wilmer, Markov Chains and Mixing Times, section 2.5); it
    needs state coordinates and a tridiagonal P, raises NotBirthDeath on
    any other P, and makes no linear solve.  Paths of a birth-death chain
    cannot skip states, so the worst sets are contiguous windows [i..j],
    the worst start is state 0 or n - 1, and E_0[tau_i] and E_{n-1}[tau_j]
    are prefix sums of the per-edge times E_x[tau_{x+1}] and
    E_x[tau_{x-1}], which first-step recursions over positive terms give.
    For each i only the smallest window of mass >= alpha can be worst, so
    the scan costs O(n w) for windows of w states.
    Ties break to the lexicographically smallest (set, start).

    Raises
    ------
    TooManyStates, NoFeasibleSet, MissingCoordinates, NotBirthDeath,
    Unreachable
    """
    if alpha <= 0.0:
        raise NoFeasibleSet("alpha must be positive")
    if pi is None:
        pi = stationary_distribution(k)
    if strategy == "brute":
        best = _brute_max(k, pi, alpha)
    elif strategy == "interval":
        best = _birth_death_max(k, pi, alpha)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if best is None:
        raise NoFeasibleSet(f"no set has stationary mass >= {alpha}")
    return HitMixReport(
        alpha=alpha,
        t_h=best[0],
        method=strategy,
        worst_set=best[1],
        worst_start=best[2],
    )


def is_birth_death(k: FiniteKernel) -> bool:
    """True when P moves only between neighbouring indices (tridiagonal)."""
    return not (np.any(np.triu(k.p, 2)) or np.any(np.tril(k.p, -2)))


def _brute_max(k: FiniteKernel, pi: np.ndarray, alpha: float):
    if k.n > BRUTE_STATE_CAP:
        raise TooManyStates(f"brute enumeration capped at {BRUTE_STATE_CAP} states")
    best = None  # (value, set, start)
    for mask in range(1, 1 << k.n):
        members = [i for i in range(k.n) if mask >> i & 1]
        if pi[members].sum() < alpha - ROW_SUM_TOL:
            continue
        h = expected_hitting(k, members)
        start = int(np.argmax(h))
        val = float(h[start])
        if best is None or val > best[0]:
            best = (val, tuple(members), start)
    return best


def _birth_death_max(k: FiniteKernel, pi: np.ndarray, alpha: float):
    if k.states is None:
        raise MissingCoordinates("interval strategy requires state coordinates")
    if not is_birth_death(k):
        raise NotBirthDeath("interval strategy requires a tridiagonal (birth-death) kernel")
    n = k.n
    right = np.append(np.diagonal(k.p, 1), 0.0).tolist()  # P(x, x+1)
    left = np.insert(np.diagonal(k.p, -1), 0, 0.0).tolist()  # P(x, x-1)
    from_low = _climb_times(right, left)  # E_0[tau_i]
    from_high = _climb_times(left[::-1], right[::-1])  # E_{n-1}[tau_{n-1-i}]

    mass_of = pi.tolist()
    threshold = alpha - ROW_SUM_TOL
    best = None  # (value, set, start)
    for i in range(n):
        # the smallest feasible window [i..j]: larger j only lowers E_{n-1}[tau_j]
        mass = 0.0
        for j in range(i, n):
            mass += mass_of[j]
            if mass >= threshold:
                break
        else:
            break  # sums from i + 1 on are no larger, so no later window is feasible
        if i >= len(from_low) or n - 1 - j >= len(from_high):
            raise Unreachable(f"window [{i}..{j}] is not reachable from every state")
        low, high = from_low[i], from_high[n - 1 - j]
        val, start = (low, 0) if low >= high else (high, n - 1)
        if best is None or val > best[0]:
            best = (val, tuple(range(i, j + 1)), start)
    return best


def _climb_times(up: list, down: list) -> list:
    """[E_0[tau_0], E_0[tau_1], ...] for a birth-death chain with these
    up and down probabilities, stopping at the first zero up-edge, above
    which state 0 cannot climb.

    Sums the edge times u_x = E_x[tau_{x+1}] = (1 + down[x] u_{x-1}) / up[x].
    """
    times = [0.0]
    u = 0.0
    for x in range(len(up) - 1):
        if up[x] == 0.0:
            break
        u = (1.0 + down[x] * u) / up[x]
        times.append(times[-1] + u)
    return times


# --- exit from a set ---------------------------------------------------------------

def exit_probability(k: FiniteKernel, subset, x0: int, t: int) -> float:
    """P_x0(the chain leaves ``subset`` within t steps) = 1 - (Q^t 1)(x0), Q = P[S, S].

    (Q^t 1)(x) is the probability of t steps from x that all stay in S, so
    this costs t matrix-vector products with Q.  The identity coupling of
    a kernel with a restriction that dominates it on S keeps the two chains
    equal until the base chain first leaves S, so this is the exact
    decoupling probability that ``montecarlo.coupled_escape_estimate``
    estimates.

    Raises
    ------
    EmptySubset
        If ``subset`` is empty.
    ValueError
        If t < 0, a state of ``subset`` lies outside [0, n), or x0 is not in
        ``subset``.
    """
    S = np.unique(np.asarray(subset, dtype=int))
    if S.size == 0:
        raise EmptySubset("exit subset is empty")
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if S[0] < 0 or S[-1] >= k.n:
        raise ValueError(f"subset states must lie in 0..{k.n - 1}")
    at = np.flatnonzero(S == x0)
    if not at.size:
        raise ValueError(f"start {x0} is not in the subset")
    q = k.p[np.ix_(S, S)]
    stay = np.ones(S.size)
    for _ in range(t):
        stay = q @ stay
    return 1.0 - float(stay[at[0]])


# --- pseudo-minorization ----------------------------------------------------------

@dataclass
class MinorizationReport:
    """Pairwise overlap report: eps = 1 - worst pairwise TV of T-step rows.

    For the worst pair (x, y), ``support`` is the positive-difference set
    C_xy and ``mu`` the shared minorizing probability vector with
    P^T(x, .) >= eps * mu and P^T(y, .) >= eps * mu entrywise.
    """

    subset: tuple
    t: int
    eps: float
    worst_pair: tuple
    mu: np.ndarray = field(repr=False)
    support: tuple = ()

    def minorization_gap(self, rows: np.ndarray) -> float:
        """min over the worst pair's rows of row - eps*mu (>= 0 if valid)."""
        x, y = self.worst_pair
        return float(min(np.min(rows[x] - self.eps * self.mu),
                         np.min(rows[y] - self.eps * self.mu)))


def pseudo_minorization(k: FiniteKernel, subset, t: int) -> MinorizationReport:
    """Pairwise minorization constant of the t-step kernel on a subset.

    eps = 1 - max over pairs x, y in S of TV(P^t(x,.), P^t(y,.)).  For the
    worst pair the shared measure mu_xy is materialized from the
    positive-difference support C_xy and both entrywise inequalities are
    verified before returning.

    Raises
    ------
    DegenerateOverlap
        If eps <= 0 within tolerance, signalling t too small.
    """
    S = np.unique(np.asarray(subset, dtype=int))
    if S.size == 0:
        raise EmptySubset("minorization subset is empty")
    if t < 1:
        raise ValueError("step count must be >= 1")
    rows = np.linalg.matrix_power(k.p, t)
    sub = rows[S]
    worst = (0.0, (int(S[0]), int(S[0])))
    for a in range(S.size):
        diffs = 0.5 * np.abs(sub[a][None, :] - sub[a + 1:]).sum(axis=1)
        if diffs.size:
            b = int(np.argmax(diffs))
            val = float(diffs[b])
            if val > worst[0]:
                worst = (val, (int(S[a]), int(S[a + b + 1])))
    eps = 1.0 - worst[0]
    if eps <= ROW_SUM_TOL:
        raise DegenerateOverlap(f"pairwise TV is 1 at t={t}; overlap degenerate")
    x, y = worst[1]
    rx, ry = rows[x], rows[y]
    support = rx > ry
    num = np.where(support, ry, rx)
    denom = float(num.sum())  # equals 1 - TV(rx, ry) = eps for the worst pair
    mu = num / denom
    report = MinorizationReport(
        subset=tuple(int(i) for i in S),
        t=t,
        eps=eps,
        worst_pair=(x, y),
        mu=mu,
        support=tuple(int(i) for i in np.flatnonzero(support)),
    )
    gap = report.minorization_gap(rows)
    if gap < -ROW_SUM_TOL:
        raise DegenerateOverlap(f"minorization inequality violated by {gap:.3e}")
    return report


def mix_to_hit_bound(t_m: int) -> float:
    """Certified upper bound t_H(1/3) <= 12 * t_m."""
    if t_m < 0:
        raise ValueError("mixing time must be nonnegative")
    return 12.0 * t_m
