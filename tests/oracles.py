"""Independent oracles used to freeze and cross-check derived values.

Deliberately simple textbook implementations, kept separate from the
library code they verify.
"""
import math

import numpy as np
import scipy.sparse.csgraph as csgraph

from mcergo.certify import _check_drift
from mcergo.chain_analysis import tv_table
from mcergo.harness import TV_PROFILE_HORIZON


def hitting_solve(p, target):
    """Plain dense solve of the first-step equations h = 1 + Q h."""
    n = p.shape[0]
    target = set(int(i) for i in target)
    rest = [i for i in range(n) if i not in target]
    q = p[np.ix_(rest, rest)]
    h = np.linalg.solve(np.eye(len(rest)) - q, np.ones(len(rest)))
    out = np.zeros(n)
    out[rest] = h
    return out


def stationary_power(p, iters=200000, tol=1e-14):
    """Power iteration on the lazy kernel."""
    n = p.shape[0]
    lazy = 0.5 * p + 0.5 * np.eye(n)
    pi = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = pi @ lazy
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def gibbs_restricted_loop(table, S):
    """Random-scan Gibbs kernel of an n1 x n2 table (n1, n2 >= 2) restricted to
    the row-major cells S, built cell by cell: half the mass resamples within
    the cell's column, half within its row, over the cells of S only."""
    n1, n2 = table.shape
    flat = table.ravel()
    pos = {int(s): a for a, s in enumerate(S)}
    q = np.zeros((len(S), len(S)))
    for a, s in enumerate(S):
        i, j = divmod(int(s), n2)
        for line in ([i2 * n2 + j for i2 in range(n1)], [i * n2 + j2 for j2 in range(n2)]):
            members = [t for t in line if t in pos]
            mass = sum(flat[t] for t in members)
            for t in members:
                q[a, pos[t]] += 0.5 * flat[t] / mass
    return q


def lazy_srw_loop(c):
    """Half-lazy simple random walk on {0, c, ..., 1-c}, built row by row:
    hold 1/2, move +-c with 1/4 each, and hold a move that leaves the grid."""
    n = round(1.0 / c)
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = 0.5
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                p[i, j] = 0.25
            else:
                p[i, i] += 0.25
    return p


def mixing_scan(p, pi, eps, t_max):
    """Exact mixing time by explicit matrix powers (worst start, all states)."""
    for t in range(t_max + 1):
        rows = np.linalg.matrix_power(p, t)
        if 0.5 * np.max(np.abs(rows - pi).sum(axis=1)) <= eps:
            return t
    return None


def mixing_step_scan(p, pi, starts, eps, t_max):
    """Mixing time by one step at a time over the start rows.

    Returns (t, profile): the smallest t <= t_max with worst-start TV
    <= eps (None if there is none) and the worst-start TV at every
    t = 0..t (0..t_max when none mixes).
    """
    rows = np.eye(p.shape[0])[list(starts)]
    profile = []
    for t in range(t_max + 1):
        profile.append(0.5 * np.max(np.abs(rows - pi).sum(axis=1)))
        if profile[-1] <= eps:
            return t, profile
        rows = rows @ p
    return None, profile


def ball_walk_step_clipped(psi, c, xs, u1, u2):
    """One ball-walk step, accepting with probability min{1, psi(y)/psi(x)}.

    Proposals outside [0, 1] stay; psi is read at the proposal clipped into
    [0, 1], so it is never evaluated outside the interval.
    """
    y = xs + c * (2.0 * u1 - 1.0)
    inside = (y >= 0.0) & (y <= 1.0)
    beta = np.minimum(1.0, psi.pdf(np.clip(y, 0.0, 1.0)) / psi.pdf(xs))
    return np.where(inside & (u2 <= beta), y, xs)


def brute_max_hitting(p, pi, alpha):
    """Exhaustive maximum over subsets with stationary mass >= alpha."""
    n = p.shape[0]
    best = 0.0
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if pi[members].sum() < alpha - 1e-12:
            continue
        best = max(best, hitting_solve(p, members).max())
    return best


def interval_scan(p, pi, alpha):
    """Solve-per-window maximum over contiguous windows of mass >= alpha.

    Scans every window [i..j], i then j ascending, with the mass summed from
    i upward; keeps the first strict maximum and its first worst start.
    Returns (value, window, start), or None when no window is feasible.
    """
    n = p.shape[0]
    best = None
    for i in range(n):
        mass = 0.0
        for j in range(i, n):
            mass += pi[j]
            if mass >= alpha - 1e-12:
                h = hitting_solve(p, range(i, j + 1))
                start = int(np.argmax(h))
                if best is None or h[start] > best[0]:
                    best = (float(h[start]), tuple(range(i, j + 1)), start)
    return best


def contraction_bisection(eps, lam, b, r, iters=200):
    """Bisection on the defining equality of the interpolation exponent."""
    a = (1.0 + 2.0 * b + lam * r) / (1.0 + r)
    big_b = 1.0 + 2.0 * (lam * r + b)

    def f(q):
        return q * np.log1p(-eps) - (1.0 - q) * np.log(a) - q * np.log(big_b)

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return p_star, 1.0 - (1.0 - eps) ** p_star


def lazy_drift_params(lam, b):
    """Drift parameters of the half-lazy chain: ((1 + lam)/2, b/2)."""
    _check_drift(lam, b)
    return (1.0 + lam) / 2.0, b / 2.0


def drift_envelope(lam, b, v0, t):
    """Upper bound lam^t V(X_0) + b/(1 - lam) on E[V(X_t)]."""
    _check_drift(lam, b, v0)
    return lam ** t * v0 + b / (1.0 - lam)


def bound_rhs(eps, lam, b, r, p, v_x, t):
    """The two-term bound (1-eps)^(pt) + (1 + b/(1-lam) + V(x)) [A^(1-p) B^p]^t,
    A = (1 + 2b + lam r)/(1 + r) and B = 1 + 2(lam r + b)."""
    _check_drift(lam, b, v_x)
    a = (1.0 + 2.0 * b + lam * r) / (1.0 + r)
    big_b = 1.0 + 2.0 * (lam * r + b)
    second = (1.0 + b / (1.0 - lam) + v_x) * (a ** (1.0 - p) * big_b ** p) ** t
    return (1.0 - eps) ** (p * t) + second


def lemma_rhs(bound, v_x, t):
    """``bound_rhs`` of a GeometricBound at floor(t / T) composite steps."""
    return bound_rhs(bound.eps, bound.lam_eff, bound.b_eff, bound.r_eff, bound.p, v_x,
                     t // bound.t)


def telescoped_birth_death_stationary(up, down):
    """Detailed-balance telescoping pi_{i+1} = pi_i * up_i / down_{i+1}."""
    n = len(up)
    pi = np.ones(n)
    for i in range(n - 1):
        pi[i + 1] = pi[i] * up[i] / down[i + 1]
    return pi / pi.sum()


def trace_transition_frequency(p, subset, steps, seed):
    """Empirical transition frequencies of the chain censored to a subset."""
    rng = np.random.default_rng(seed)
    subset = list(subset)
    pos = {s: i for i, s in enumerate(subset)}
    m = len(subset)
    counts = np.zeros((m, m))
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0
    x = subset[0]
    last = pos[x]
    for _ in range(steps):
        x = int(np.searchsorted(cdf[x], rng.random(), side="right"))
        if x in pos:
            counts[last, pos[x]] += 1.0
            last = pos[x]
    return counts / counts.sum(axis=1, keepdims=True)


def decoupling_exact(p, S, x0, t):
    """P(the identity coupling from x0 has decoupled by t), by the backward recursion.

    The chains stay equal until the base chain first leaves S, so this is
    h_t(x0), where h_s(x) is the probability of leaving S within s steps
    from x: h_0 = 0 and h_{s+1} = e + Q h_s, with Q = P[S, S] and
    e = P[S, S^c] 1 the one-step exit mass.
    """
    S = [int(s) for s in S]
    p = np.asarray(p)
    rest = [j for j in range(p.shape[0]) if j not in set(S)]
    q = p[np.ix_(S, S)]
    e = p[np.ix_(S, rest)].sum(axis=1)
    h = np.zeros(len(S))
    for _ in range(t):
        h = e + q @ h
    return float(h[S.index(int(x0))])


def closed_classes_scc(p):
    """Closed communicating classes of the support digraph, as sorted tuples in sorted order.

    Strongly connected components by scipy's csgraph; a component is closed
    when no edge leaves it.
    """
    adj = np.asarray(p) > 0.0
    n_comp, labels = csgraph.connected_components(adj.astype(np.int8), directed=True,
                                                  connection="strong")
    closed = []
    for comp in range(n_comp):
        inside = labels == comp
        if not np.any(adj[np.ix_(inside, ~inside)]):
            closed.append(tuple(np.flatnonzero(inside).tolist()))
    return sorted(closed)


def is_tridiagonal_triu(p):
    """P moves only between neighbouring indices: nothing above the first
    superdiagonal or below the first subdiagonal, by two triangular copies."""
    p = np.asarray(p)
    return not (np.any(np.triu(p, 2)) or np.any(np.tril(p, -2)))


def tv_trajectory_dense(k, t_max):
    """TV(P^t(x, .), pi) from every start for t = 0..t_max, one full rows @ P
    product per step: the loop ``chain_analysis.tv_table`` ran before it
    multiplied only the band of P."""
    rows = np.eye(k.n)
    pi = k.stationary
    for t in range(t_max + 1):
        yield 0.5 * np.abs(rows - pi).sum(axis=1)
        if t < t_max:
            rows = rows @ k.p


def dominance_profile_loop(k, cert, bound):
    """(verdict, max violation, CSV rows) of the dominance audit, one bound
    evaluation, three reductions and two reprs per t: the loop
    ``harness._dominance_profile`` ran before it read one table."""
    profile_rows = []
    ok = True
    max_violation = -math.inf
    for t, tv in enumerate(tv_table(k, TV_PROFILE_HORIZON)):
        bounds = bound.evaluate(cert.v, t)
        violation = float(np.max(tv - bounds))
        max_violation = max(max_violation, violation)
        dominated = violation <= 1e-9
        ok = ok and dominated
        profile_rows.append([
            str(t),
            repr(float(np.max(tv))),
            repr(float(np.min(bounds))),
            "1" if dominated else "0",
        ])
    return ok, max_violation, profile_rows


def pairwise_overlap_scan(k, subset, t):
    """(eps, worst pair, mu, support) from every pair of starts of the subset,
    with no pruning: the scan ``chain_analysis.pseudo_minorization`` ran before
    it skipped starts that cannot own a maximal pair."""
    S = k.state_set(subset, "subset state")
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
    x, y = worst[1]
    if eps <= 1e-12:  # the overlap is degenerate: there is no mu
        return eps, (x, y), None, None
    rx, ry = rows[x], rows[y]
    support = rx > ry
    num = np.where(support, ry, rx)
    mu = num / float(num.sum())
    return eps, (x, y), mu, tuple(int(i) for i in np.flatnonzero(support))
