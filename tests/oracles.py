"""Independent oracles used to freeze and cross-check derived values.

Deliberately simple textbook implementations, kept separate from the
library code they verify.
"""
import numpy as np


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
    """P(the identity coupling from x0 has decoupled by t) = 1 - (Q^t 1)(x0), Q = P[S, S].

    The chains stay equal until the base chain first leaves S, so this is
    the probability that the base chain has left S within t steps.
    """
    S = [int(s) for s in S]
    q = np.asarray(p)[np.ix_(S, S)]
    stay = np.ones(len(S))
    for _ in range(t):
        stay = q @ stay
    return 1.0 - stay[S.index(int(x0))]
