"""Finite Markov kernels and the constructions used throughout the toolkit.

Builds row-stochastic matrices (with optional [0,1] state coordinates so
interval set families stay well defined on discretizations), lazy
transforms, Metropolized birth-death discretizations of a density, the
half-lazy simple random walk, grid Metropolis-Hastings and random-scan
Gibbs kernels, the continuous ball walk, and the three dominated
restrictions (Metropolis-Hastings rejection, restricted Gibbs, trace).

All kernel values are immutable after construction; samplers carry no
hidden mutable state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .density import DensitySpec, _checked_inverse
from .errors import (
    DensityNonpositive,
    DimensionMismatch,
    DominationViolation,
    EmptySubset,
    GridMismatch,
    NegativeEntry,
    ProposalNotReversible,
    RowSumViolation,
    SingularCensoring,
    StatesNotOrdered,
    ZeroProbabilityCell,
)
from .tolerances import (
    DETAILED_BALANCE_TOL,
    ROW_RENORM_TOL,
    ROW_SUM_TOL,
    STATIONARY_TOL,
)

TRACE_STATE_CAP = 4096

RESTRICTION_VARIANTS = ("mh-restriction", "gibbs-restriction", "trace")


@dataclass(frozen=True)
class FiniteKernel:
    """A row-stochastic transition matrix over an ordered finite state set.

    Parameters
    ----------
    p : ndarray, shape (n, n)
        Transition probabilities; every row sums to 1 within 1e-12.
    states : ndarray or None
        Optional ascending coordinates of the states in [0, 1].  ``None``
        means abstract indices.
    reversible_wrt : ndarray or None
        Optional detailed-balance witness pi with pi_i P_ij = pi_j P_ji.
    """

    p: np.ndarray
    states: np.ndarray | None = None
    reversible_wrt: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen_array(self.p))
        if self.states is not None:
            object.__setattr__(self, "states", _frozen_array(self.states))
        if self.reversible_wrt is not None:
            object.__setattr__(self, "reversible_wrt", _frozen_array(self.reversible_wrt))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.p[i]

    def coordinates(self) -> np.ndarray:
        """State coordinates; abstract chains fall back to 0..n-1."""
        if self.states is not None:
            return self.states
        return np.arange(self.n, dtype=float)

    def __eq__(self, other):
        if not isinstance(other, FiniteKernel):
            return NotImplemented
        same_states = (self.states is None) == (other.states is None) and (
            self.states is None or np.array_equal(self.states, other.states)
        )
        return np.array_equal(self.p, other.p) and same_states


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def build_finite_kernel(rows, states=None, reversible_wrt=None) -> FiniteKernel:
    """Validate a transition matrix and wrap it as a FiniteKernel.

    Rows are renormalized only when each row sum deviates from 1 by at most
    1e-9; larger deviations raise ``RowSumViolation``.

    Raises
    ------
    NegativeEntry, RowSumViolation, DimensionMismatch, StatesNotOrdered
    """
    p = np.array(rows, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise DimensionMismatch(f"transition matrix must be square, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DimensionMismatch("transition matrix has non-finite entries")
    if np.any(p < 0.0):
        i, j = np.argwhere(p < 0.0)[0]
        raise NegativeEntry(f"negative transition probability at ({i}, {j})")
    sums = p.sum(axis=1)
    dev = np.abs(sums - 1.0)
    if np.any(dev > ROW_RENORM_TOL):
        i = int(np.argmax(dev))
        raise RowSumViolation(f"row {i} sums to {sums[i]!r}")
    p = p / sums[:, None]
    if states is not None:
        states = np.asarray(states, dtype=float)
        if states.shape != (p.shape[0],):
            raise DimensionMismatch("states length does not match matrix dimension")
        if np.any(np.diff(states) <= 0.0):
            raise StatesNotOrdered("state coordinates must be strictly increasing")
    if reversible_wrt is not None:
        reversible_wrt = np.asarray(reversible_wrt, dtype=float)
        _check_detailed_balance(p, reversible_wrt)
    return FiniteKernel(p=p, states=states, reversible_wrt=reversible_wrt)


def _check_detailed_balance(p: np.ndarray, pi: np.ndarray, tol=DETAILED_BALANCE_TOL):
    flux = pi[:, None] * p
    gap = np.max(np.abs(flux - flux.T))
    if gap > tol:
        raise ProposalNotReversible(f"detailed balance violated by {gap:.3e}")


def lazy_transform(k: FiniteKernel) -> FiniteKernel:
    """Half-lazy version (P + I) / 2; preserves stationarity and reversibility."""
    p = 0.5 * k.p + 0.5 * np.eye(k.n)
    return FiniteKernel(p=p, states=k.states, reversible_wrt=k.reversible_wrt)


def birth_death_chain(psi: DensitySpec, c: float) -> FiniteKernel:
    """Metropolized birth-death discretization of ``psi`` with step ``c``.

    On the grid {0, c, ..., 1-c}: up moves x -> x+c carry probability
    (1/2) min{1, psi(x+c)/psi(x)} (x < 1-c), down moves the mirror image
    (x > 0), and the remainder is holding mass.  Detailed balance makes the
    normalized grid values of psi stationary; they are attached as the
    ``reversible_wrt`` witness.
    """
    n = _checked_inverse(c)
    if n < 2:
        raise GridMismatch("birth-death grid needs 1/c >= 2")
    vals = psi.grid_values(c)
    if np.any(vals <= 0.0):
        raise DensityNonpositive("density nonpositive on the grid")
    p = np.zeros((n, n))
    for i in range(n):
        if i < n - 1:
            p[i, i + 1] = 0.5 * min(1.0, vals[i + 1] / vals[i])
        if i > 0:
            p[i, i - 1] = 0.5 * min(1.0, vals[i - 1] / vals[i])
        p[i, i] = 1.0 - p[i].sum()
    pi = vals / vals.sum()
    return FiniteKernel(p=p, states=np.arange(n) * c, reversible_wrt=pi)


def lazy_srw(c: float) -> FiniteKernel:
    """Half-lazy simple random walk on the grid {0, c, ..., 1-c}.

    Holding 1/2 plus +-c moves with probability 1/4 each; attempted moves
    off the grid are held, so boundary rows hold 3/4.  The stationary
    distribution is uniform.
    """
    n = _checked_inverse(c)
    if n < 2:
        raise GridMismatch("lazy srw grid needs 1/c >= 2")
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = 0.5
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                p[i, j] = 0.25
            else:
                p[i, i] += 0.25
    pi = np.full(n, 1.0 / n)
    return FiniteKernel(p=p, states=np.arange(n) * c, reversible_wrt=pi)


def mh_grid_kernel(psi: DensitySpec | np.ndarray, proposal: FiniteKernel) -> FiniteKernel:
    """Metropolis-Hastings kernel on the proposal's grid targeting ``psi``.

    ``psi`` may be a DensitySpec (evaluated on the proposal's coordinates)
    or an explicit positive table over the states.  The acceptance
    probability is beta(x, y) = min{1, psi(y) q(y,x) / (psi(x) q(x,y))};
    rejected mass is held.  The proposal must be reversible with respect to
    a known positive vector (its ``reversible_wrt`` witness, or its
    stationary vector when the witness is omitted).

    Raises
    ------
    ProposalNotReversible, GridMismatch
    """
    n = proposal.n
    if isinstance(psi, DensitySpec):
        if proposal.states is None:
            raise GridMismatch("proposal carries no grid coordinates for the density")
        target = np.asarray(psi.pdf(proposal.states), dtype=float)
    else:
        target = np.asarray(psi, dtype=float)
        if target.shape != (n,):
            raise GridMismatch("target table length does not match the proposal grid")
    if np.any(target <= 0.0):
        raise DensityNonpositive("target must be positive on the grid")

    nu = proposal.reversible_wrt
    if nu is None:
        from .chain_analysis import stationary_distribution

        nu = stationary_distribution(proposal)
    if np.any(nu <= 0.0):
        raise ProposalNotReversible("proposal witness vector must be positive")
    _check_detailed_balance(proposal.p, nu)

    q = proposal.p
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (target[None, :] * q.T) / (target[:, None] * q)
    beta = np.minimum(1.0, np.where(q > 0.0, ratio, 0.0))
    p = q * beta
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    pi = target / target.sum()
    return FiniteKernel(p=p, states=proposal.states, reversible_wrt=pi)


def gibbs_grid_kernel(table) -> FiniteKernel:
    """Random-scan Gibbs kernel for a positive probability table on a grid.

    For an n1 x n2 table the chain resamples coordinate 1 from its
    conditional given coordinate 2 with probability 1/2, else coordinate 2
    given coordinate 1.  Cells are flattened row-major.  A table with a
    single row or column is a one-coordinate problem: every row of the
    kernel is the normalized table (exact sampling).

    Raises
    ------
    ZeroProbabilityCell
        If any cell is nonpositive (the discrete analogue of a continuous
        positive density).
    """
    t = np.array(table, dtype=float)
    if t.ndim == 1:
        t = t[None, :]
    if t.ndim != 2:
        raise DimensionMismatch("probability table must be 1- or 2-dimensional")
    if np.any(t <= 0.0):
        raise ZeroProbabilityCell("all table cells must be positive")
    n1, n2 = t.shape
    pi = (t / t.sum()).ravel()
    n = n1 * n2
    if n1 == 1 or n2 == 1:
        p = np.tile(pi, (n, 1))
        return FiniteKernel(p=p, reversible_wrt=pi)
    col_sums = t.sum(axis=0)
    row_sums = t.sum(axis=1)
    p = np.zeros((n, n))
    for i in range(n1):
        for j in range(n2):
            s = i * n2 + j
            # resample coordinate 1 (move within column j)
            p[s, j::n2] += 0.5 * t[:, j] / col_sums[j]
            # resample coordinate 2 (move within row i)
            p[s, i * n2:(i + 1) * n2] += 0.5 * t[i, :] / row_sums[i]
    return FiniteKernel(p=p, reversible_wrt=pi)


@dataclass(frozen=True)
class ContinuousSampler1D:
    """Ball-walk Metropolis-Hastings step rule on [0, 1].

    The proposal is uniform on [x - c, x + c]; proposals outside [0, 1] are
    rejected (the chain stays), and in-range proposals are accepted with
    probability min{1, psi(y)/psi(x)} (the uniform proposal density ratio
    is 1).  A step consumes exactly two uniform draws and is a
    deterministic function of (x, draw1, draw2).
    """

    target: DensitySpec
    c: float

    draws_per_step = 2

    def step(self, x: float, u1: float, u2: float) -> float:
        y = x + self.c * (2.0 * u1 - 1.0)
        if y < 0.0 or y > 1.0:
            return x
        if u2 <= min(1.0, self.target.pdf(y) / self.target.pdf(x)):
            return y
        return x

    def batch_step(self, xs: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        y = xs + self.c * (2.0 * u1 - 1.0)
        inside = (y >= 0.0) & (y <= 1.0)
        ysafe = np.clip(y, 0.0, 1.0)
        beta = np.minimum(1.0, self.target.pdf(ysafe) / self.target.pdf(xs))
        accept = inside & (u2 <= beta)
        return np.where(accept, y, xs)


def ball_walk_sampler(psi: DensitySpec, c: float) -> ContinuousSampler1D:
    """Ball walk with proposal half-width c targeting psi; c in (0, 1/2]."""
    if not (0.0 < c <= 0.5):
        raise GridMismatch("ball walk half-width must lie in (0, 1/2]")
    _checked_inverse(c)
    return ContinuousSampler1D(target=psi, c=c)


@dataclass(frozen=True)
class DominatedKernel:
    """A kernel supported on S that is S-dominated by its base kernel.

    Invariants (verified at construction unless ``validate=False``):
    the conditional stationary law pi(. | S) is stationary for ``kernel``
    within 1e-10, and ``kernel`` dominates ``base`` entrywise on S.
    """

    variant: str
    base: FiniteKernel
    support: np.ndarray  # indices into the base state set, ascending
    kernel: FiniteKernel
    conditional_stationary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", _frozen_array_int(self.support))
        object.__setattr__(
            self, "conditional_stationary", _frozen_array(self.conditional_stationary)
        )


def _frozen_array_int(a) -> np.ndarray:
    out = np.array(a, dtype=int, copy=True)
    out.setflags(write=False)
    return out


def restrict(
    k: FiniteKernel,
    subset,
    variant: str,
    pi_table=None,
    base_stationary=None,
    validate: bool = True,
) -> DominatedKernel:
    """Restrict a kernel to a state subset by one of three dominated variants.

    Parameters
    ----------
    k : FiniteKernel
        The base kernel.
    subset : index sequence
        Nonempty subset S of state indices.
    variant : {"mh-restriction", "gibbs-restriction", "trace"}
        mh-restriction keeps within-S transitions and turns escaping mass
        into holding mass; gibbs-restriction builds the Gibbs kernel of the
        conditional table restricted to S (``pi_table`` required); trace
        censors time spent outside S.
    base_stationary : ndarray, optional
        Stationary law of the base; computed when omitted and needed.
    validate : bool
        Verify both dominated-chain invariants (skip for very large chains).

    Raises
    ------
    EmptySubset, SingularCensoring, DominationViolation
    """
    if variant not in RESTRICTION_VARIANTS:
        raise ValueError(f"unknown restriction variant {variant!r}")
    S = np.unique(np.asarray(subset, dtype=int))
    if S.size == 0:
        raise EmptySubset("restriction subset is empty")
    if S.size and (S[0] < 0 or S[-1] >= k.n):
        raise DimensionMismatch("subset indices out of range")

    if variant == "gibbs-restriction":
        if pi_table is None:
            raise ValueError("gibbs-restriction requires the probability table")
        q = _gibbs_restricted_matrix(np.array(pi_table, dtype=float), S)
    elif variant == "trace":
        q = _trace_matrix(k.p, S)
    else:
        q = _mh_restricted_matrix(k.p, S)

    sub_states = k.states[S] if k.states is not None else None

    if base_stationary is None:
        if variant == "gibbs-restriction":
            t = np.array(pi_table, dtype=float)
            base_stationary = (t / t.sum()).ravel()
        elif k.reversible_wrt is not None:
            base_stationary = np.asarray(k.reversible_wrt, dtype=float)
        else:
            from .chain_analysis import stationary_distribution

            base_stationary = stationary_distribution(k)
    pi_s = base_stationary[S]
    total = pi_s.sum()
    if total <= 0.0:
        raise EmptySubset("subset carries no stationary mass")
    pi_s = pi_s / total

    if validate:
        _check_domination(k.p, q, S)
        drift = float(np.max(np.abs(pi_s @ q - pi_s)))
        if drift > STATIONARY_TOL:
            raise DominationViolation(
                f"conditional stationarity violated by {drift:.3e} "
                f"({variant} of a kernel that is not reversible on S?)"
            )

    sub = FiniteKernel(p=q, states=sub_states)
    return DominatedKernel(
        variant=variant,
        base=k,
        support=S,
        kernel=sub,
        conditional_stationary=pi_s,
    )


def _mh_restricted_matrix(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    q = p[np.ix_(S, S)].copy()
    escape = 1.0 - q.sum(axis=1)
    q[np.diag_indices_from(q)] += escape
    return q


def _trace_matrix(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    if n > TRACE_STATE_CAP:
        raise DimensionMismatch(f"trace restriction capped at {TRACE_STATE_CAP} states")
    comp = np.setdiff1d(np.arange(n), S)
    if comp.size == 0:
        return p.copy()
    a = p[np.ix_(S, S)]
    b = p[np.ix_(S, comp)]
    c = p[np.ix_(comp, S)]
    d = p[np.ix_(comp, comp)]
    m = np.eye(comp.size) - d
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = scipy.linalg.solve(m, c)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCensoring("complement contains an absorbing set") from exc
    if not np.all(np.isfinite(x)):
        raise SingularCensoring("complement contains an absorbing set")
    q = a + b @ x
    # rows sum to 1 - (mass absorbed in the complement forever) = 1 here
    sums = q.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise SingularCensoring("censored rows do not renormalize; absorbing complement")
    return q / sums[:, None]


def _gibbs_restricted_matrix(table: np.ndarray, S: np.ndarray) -> np.ndarray:
    if table.ndim == 1:
        table = table[None, :]
    if np.any(table <= 0.0):
        raise ZeroProbabilityCell("all table cells must be positive")
    n1, n2 = table.shape
    m = S.size
    pos = {int(s): a for a, s in enumerate(S)}
    flat = table.ravel()
    if n1 == 1 or n2 == 1:
        w = flat[S] / flat[S].sum()
        return np.tile(w, (m, 1))
    q = np.zeros((m, m))
    in_s = np.zeros(n1 * n2, dtype=bool)
    in_s[S] = True
    for a, s in enumerate(S):
        i, j = divmod(int(s), n2)
        col = [i2 * n2 + j for i2 in range(n1) if in_s[i2 * n2 + j]]
        col_mass = flat[col].sum()
        for t in col:
            q[a, pos[t]] += 0.5 * flat[t] / col_mass
        row = [i * n2 + j2 for j2 in range(n2) if in_s[i * n2 + j2]]
        row_mass = flat[row].sum()
        for t in row:
            q[a, pos[t]] += 0.5 * flat[t] / row_mass
    return q


def _check_domination(p: np.ndarray, q: np.ndarray, S: np.ndarray, tol=ROW_SUM_TOL):
    base = p[np.ix_(S, S)]
    gap = float(np.min(q - base))
    if gap < -tol:
        raise DominationViolation(f"S-domination violated by {gap:.3e}")


# --- serialization ---------------------------------------------------------

def kernel_to_csv(k: FiniteKernel, path):
    """Write a kernel as CSV: header of state coordinates, then matrix rows.

    A kernel without coordinates gets an empty header line.
    """
    states = () if k.states is None else k.states
    lines = [",".join(repr(float(x)) for x in states)]
    for row in k.p:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def kernel_from_csv(path) -> FiniteKernel:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [[float(v) for v in ln.split(",")] for ln in fh if ln.strip()]
    if not rows:
        raise DimensionMismatch("kernel csv needs a header and at least one row")
    states = [float(v) for v in header.split(",")] if header else None
    k = build_finite_kernel(rows, states=states)
    # rows stochastic to rounding are kept bit for bit, so that reading back
    # what kernel_to_csv wrote gives the same kernel
    p = np.array(rows)
    if np.all(np.abs(p.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
        return FiniteKernel(p=p, states=k.states)
    return k
