"""Finite Markov kernels and the constructions used throughout the toolkit.

Builds row-stochastic matrices (with optional [0,1] state coordinates), lazy
transforms, Metropolized birth-death discretizations of a density, the
half-lazy simple random walk, grid Metropolis-Hastings and random-scan
Gibbs kernels, the continuous ball walk, and the three dominated
restrictions (Metropolis-Hastings rejection, restricted Gibbs, trace).

Kernel values are immutable; the one value a FiniteKernel adds later is its
stationary law ``FiniteKernel.stationary``, solved at most once per object,
or the error that solve raised.  It is the only stationary law a kernel
carries: no builder attaches one.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import DensitySpec, _checked_inverse
from .errors import (
    DensityNonpositive,
    DimensionMismatch,
    DominationViolation,
    EmptySubset,
    GridMismatch,
    NegativeEntry,
    ProposalNotReversible,
    Reducible,
    ResidualTooLarge,
    RowSumViolation,
    SingularCensoring,
    StatesNotOrdered,
    TooManyStates,
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

    Raises
    ------
    DimensionMismatch
        If p is not a square array of finite numbers, or states does not
        have one value per row.
    NegativeEntry, RowSumViolation, StatesNotOrdered
    """

    p: np.ndarray
    states: np.ndarray | None = None

    def __post_init__(self):
        p = _float_array(self.p, "transition matrix")
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise DimensionMismatch(f"transition matrix must be square, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise DimensionMismatch("transition matrix has non-finite entries")
        if np.any(p < 0.0):
            i, j = np.argwhere(p < 0.0)[0]
            raise NegativeEntry(f"negative transition probability at ({i}, {j})")
        sums = p.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if np.any(dev > ROW_SUM_TOL):
            i = int(np.argmax(dev))
            raise RowSumViolation(f"row {i} sums to {sums[i]!r}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        if self.states is not None:
            states = _float_array(self.states, "states")
            if states.shape != (p.shape[0],):
                raise DimensionMismatch("states length does not match matrix dimension")
            if np.any(np.diff(states) <= 0.0):
                raise StatesNotOrdered("state coordinates must be strictly increasing")
            states.setflags(write=False)
            object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def stationary(self) -> np.ndarray:
        """The read-only stationary law pi of P, solved on first read: the one source of pi.

        A refusal (``Reducible`` or ``ResidualTooLarge``) is kept as well, so every
        later read raises the same error without solving again."""
        law = self._stationary
        if isinstance(law, Exception):
            raise law.with_traceback(None)
        return law

    @cached_property
    def _stationary(self) -> np.ndarray | Exception:
        try:
            pi = chain_analysis.stationary_distribution(self)
        except (Reducible, ResidualTooLarge) as exc:
            return exc
        pi.setflags(write=False)
        return pi

    def coordinates(self) -> np.ndarray:
        """State coordinates; abstract chains fall back to 0..n-1."""
        if self.states is not None:
            return self.states
        return np.arange(self.n, dtype=float)

    def state_set(self, states, what: str) -> np.ndarray:
        """The sorted, distinct indices of ``states``: the one reading of a set of states.

        A state is a value of integer type in [0, n): 1.5, NaN and boolean masks are
        refused, not truncated, and -1 is not counted from the end.  ``what`` names
        the values in the ValueError."""
        idx = np.unique(np.asarray(states if isinstance(states, np.ndarray) else list(states)))
        whole = idx.dtype.kind in "iu"
        if idx.size and not (whole and 0 <= idx[0] and idx[-1] < self.n):
            bad = idx[-1] if whole and idx[0] >= 0 else idx[0]
            raise ValueError(f"{what} {bad.item()!r} is not a state of this {self.n}-state "
                             f"chain: states are integers that must lie in 0..{self.n - 1}")
        return idx.astype(int, copy=False)

    def __eq__(self, other):
        if not isinstance(other, FiniteKernel):
            return NotImplemented
        same_states = (self.states is None) == (other.states is None) and (
            self.states is None or np.array_equal(self.states, other.states)
        )
        return np.array_equal(self.p, other.p) and same_states


def _checked_count(value, what: str, low: int, high: int | None = None,
                   error: type[Exception] = ValueError) -> int:
    """``value`` as an int: the one rule for a count (a step count, seed or replica count).

    A count is a Python or numpy integer (a bool is not one) in [low, high),
    or >= low when ``high`` is None; ``high`` is a power of two, written
    2**k in the message.  Anything else raises ``error``, whose message
    names ``what``, the value and the range.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        count = int(value)
        if low <= count and (high is None or count < high):
            return count
    span = f">= {low}" if high is None else f"in [{low}, 2**{high.bit_length() - 1})"
    raise error(f"{what} must be an integer {span}, got {value!r}")


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a new float array; DimensionMismatch if they are ragged or not numbers."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{what} is not a rectangular array of numbers: {exc}") from None


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def build_finite_kernel(rows, states=None) -> FiniteKernel:
    """Wrap a transition matrix as a FiniteKernel, renormalizing near-stochastic rows.

    Rows that sum to 1 within ``ROW_SUM_TOL`` are kept exactly as given, so
    wrapping a kernel's ``p`` again gives the same kernel; rows off by more,
    up to ``ROW_RENORM_TOL``, are divided by their sums.  ``FiniteKernel``
    checks the result and refuses larger deviations.

    Raises
    ------
    NegativeEntry, RowSumViolation, DimensionMismatch, StatesNotOrdered
    """
    p = _float_array(rows, "transition matrix")
    if p.ndim == 2 and np.all(np.isfinite(p)):  # FiniteKernel refuses any other p
        sums = p.sum(axis=1)
        dev = np.abs(sums - 1.0)
        off = (dev > ROW_SUM_TOL) & (dev <= ROW_RENORM_TOL)
        p[off] /= sums[off, None]
    return FiniteKernel(p=p, states=states)


def _check_detailed_balance(p: np.ndarray, pi: np.ndarray):
    flux = pi[:, None] * p
    gap = np.max(np.abs(flux - flux.T))
    if not gap <= DETAILED_BALANCE_TOL:
        raise ProposalNotReversible(f"detailed balance violated by {gap:.3e}")


def _check_reversible(q: np.ndarray):
    """Refuse q unless it is irreducible and reversible w.r.t. a positive law.

    nu_i q_ij = nu_j q_ji with nu > 0 needs a symmetric support and fixes
    nu_j / nu_i = q_ij / q_ji, so the ratios along a spanning tree from
    state 0 give the one candidate nu, then tested on every move: O(n^2),
    where solving for q's stationary law (the same nu) is O(n^3).
    """
    support = q > 0.0
    oneway = np.argwhere(support & ~support.T)
    if oneway.size:
        i, j = oneway[0]
        raise ProposalNotReversible(f"detailed balance violated by the move {i} -> {j}, "
                                    "which is never reversed")
    nu = np.ones(len(q))
    unseen = np.ones(len(q), dtype=bool)
    unseen[0] = False
    stack = [0]
    while stack and unseen.any():
        i = stack.pop()
        new = np.flatnonzero(support[i] & unseen)
        unseen[new] = False
        nu[new] = nu[i] * q[i, new] / q[new, i]
        stack += new.tolist()
    if unseen.any():
        raise Reducible("proposal has several closed classes")
    _check_detailed_balance(q, nu / nu.sum())


def lazy_transform(k: FiniteKernel) -> FiniteKernel:
    """Half-lazy version (P + I) / 2; preserves stationarity and reversibility."""
    p = 0.5 * k.p + 0.5 * np.eye(k.n)
    return FiniteKernel(p=p, states=k.states)


def birth_death_chain(psi: DensitySpec, c: float) -> FiniteKernel:
    """Metropolized birth-death discretization of ``psi`` with step ``c``.

    On the grid {0, c, ..., 1-c}: up moves x -> x+c carry probability
    (1/2) min{1, psi(x+c)/psi(x)} (x < 1-c), down moves the mirror image
    (x > 0), and the remainder is holding mass.  Detailed balance makes the
    normalized grid values of psi stationary.  ConfigError for a c that
    ``DensitySpec.grid_values`` refuses.
    """
    vals = psi.grid_values(c)
    if np.any(vals <= 0.0):
        raise DensityNonpositive("density nonpositive on the grid")
    n = vals.size
    up = np.arange(n - 1)
    p = np.zeros((n, n))
    p[up, up + 1] = 0.5 * np.minimum(1.0, vals[1:] / vals[:-1])
    p[up + 1, up] = 0.5 * np.minimum(1.0, vals[:-1] / vals[1:])
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return FiniteKernel(p=p, states=np.arange(n) * c)


def lazy_srw(c: float) -> FiniteKernel:
    """Half-lazy simple random walk on the grid {0, c, ..., 1-c}: the lazy
    version of the uniform density's birth-death chain.

    Holding 1/2 plus +-c moves with probability 1/4 each; attempted moves
    off the grid are held, so boundary rows hold 3/4.  The stationary
    distribution is uniform.
    """
    return lazy_transform(birth_death_chain(DensitySpec(kind="uniform"), c))


def mh_grid_kernel(psi: DensitySpec | np.ndarray, proposal: FiniteKernel) -> FiniteKernel:
    """Metropolis-Hastings kernel on the proposal's grid targeting ``psi``.

    ``psi`` may be a DensitySpec (evaluated on the proposal's coordinates)
    or an explicit positive table over the states.  The acceptance
    probability is beta(x, y) = min{1, psi(y) q(y,x) / (psi(x) q(x,y))};
    rejected mass is held.  The proposal must be irreducible and reversible
    with respect to a positive law; ``_check_reversible`` tests that without
    solving for the law.

    Raises
    ------
    ProposalNotReversible, GridMismatch, Reducible
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

    q = proposal.p
    _check_reversible(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (target[None, :] * q.T) / (target[:, None] * q)
    beta = np.minimum(1.0, np.where(q > 0.0, ratio, 0.0))
    p = q * beta
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return FiniteKernel(p=p, states=proposal.states)


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
    return FiniteKernel(p=_gibbs_matrix(table))


@dataclass(frozen=True)
class ContinuousSampler1D:
    """Ball-walk Metropolis-Hastings step rule on [0, 1].

    The proposal is uniform on [x - c, x + c]; proposals outside [0, 1] are
    rejected (the chain stays), and in-range proposals are accepted with
    probability min{1, psi(y)/psi(x)} (the uniform proposal density ratio
    is 1).  A step consumes exactly two uniform draws and is a
    deterministic function of (x, draw1, draw2); ``batch_step`` steps an
    array of walkers, one element each of ``xs``, ``u1`` and ``u2``.  c
    enters the step elementwise, so a sampler whose c is an array, one
    half-width per walker, steps each walker as its own ball walk would.
    """

    target: DensitySpec
    c: float

    draws_per_step = 2

    def batch_step(self, xs: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """One step of every walker: accept the proposal y when u2 <= psi(y)/psi(x).

        Draws lie in [0, 1), so u2 <= psi(y)/psi(x) holds exactly when
        u2 <= min{1, psi(y)/psi(x)}, and both refuse a NaN ratio.  psi is
        read at y where y lies in [0, 1] and at x elsewhere, so it is never
        evaluated outside the interval; a proposal outside is refused
        whatever that ratio is.
        """
        y = xs + self.c * (2.0 * u1 - 1.0)
        inside = (y >= 0.0) & (y <= 1.0)
        ratio = self.target.pdf(np.where(inside, y, xs)) / self.target.pdf(xs)
        return np.where(inside & (u2 <= ratio), y, xs)


def ball_walk_sampler(psi: DensitySpec, c: float) -> ContinuousSampler1D:
    """Ball walk with proposal half-width c targeting psi; ConfigError for a c
    that ``density._checked_inverse`` refuses."""
    _checked_inverse(c)
    return ContinuousSampler1D(target=psi, c=c)


@dataclass(frozen=True)
class DominatedKernel:
    """A kernel supported on S that is S-dominated by its base kernel.

    Invariants (verified by ``restrict``, which builds it):
    the conditional stationary law pi(. | S) is stationary for ``kernel``
    within 1e-10, and ``kernel`` dominates the base kernel entrywise on S.
    """

    support: np.ndarray  # indices into the base state set, ascending
    kernel: FiniteKernel
    conditional_stationary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", _frozen_array(self.support, int))
        object.__setattr__(
            self, "conditional_stationary", _frozen_array(self.conditional_stationary)
        )


def restrict(
    k: FiniteKernel,
    subset,
    variant: str,
    pi_table=None,
) -> DominatedKernel:
    """Restrict a kernel to a state subset by one of three dominated variants.

    Parameters
    ----------
    k : FiniteKernel
        The base kernel.
    subset : states
        Nonempty subset S of states, read by ``FiniteKernel.state_set``.
    variant : {"mh-restriction", "gibbs-restriction", "trace"}
        mh-restriction keeps within-S transitions and turns escaping mass
        into holding mass; gibbs-restriction builds the Gibbs kernel of the
        conditional table restricted to S (``pi_table`` required); trace
        censors time spent outside S.  pi(. | S) comes from ``k.stationary``.
        When S holds every state, the restriction's kernel is k itself.

    Raises
    ------
    EmptySubset, SingularCensoring, DominationViolation
    Reducible, ResidualTooLarge
    TooManyStates
        For the trace variant of a kernel above ``TRACE_STATE_CAP`` states,
        before any solve.
    DimensionMismatch
        For a ``pi_table`` whose Gibbs kernel is not k within 1e-12: a table
        without one cell per state of k, or with its cells in another shape.
    ValueError
        For an unknown variant, or a subset value that is not a state of k.
    """
    if variant not in RESTRICTION_VARIANTS:
        raise ValueError(f"unknown restriction variant {variant!r}")
    S = k.state_set(subset, "subset state")
    if S.size == 0:
        raise EmptySubset("restriction subset is empty")

    if variant == "gibbs-restriction":
        if pi_table is None:
            raise ValueError("gibbs-restriction requires the probability table")
        full = _gibbs_matrix(pi_table)
        if full.shape != k.p.shape or np.max(np.abs(full - k.p)) > ROW_SUM_TOL:
            raise DimensionMismatch(
                f"probability table of shape {np.shape(pi_table)} ({np.size(pi_table)} "
                f"cells for {k.n} states) does not give this kernel's Gibbs kernel")
    elif variant == "trace" and k.n > TRACE_STATE_CAP:
        raise TooManyStates(f"trace restriction capped at {TRACE_STATE_CAP} states")

    if S.size == k.n:
        # Restricted to every state, each variant's matrix is P up to rounding
        # (the Gibbs table is P within ROW_SUM_TOL, checked above), so the chain
        # is its own restriction; the residual check of k.stationary is the
        # stationarity check, and domination holds with equality.
        return DominatedKernel(support=S, kernel=k, conditional_stationary=_conditional_law(k, S))
    if variant == "gibbs-restriction":
        q = _gibbs_matrix(pi_table, S)
    elif variant == "trace":
        q = _trace_matrix(k.p, S)
    else:
        q = _mh_restricted_matrix(k.p, S)

    pi_s = _conditional_law(k, S)
    _check_domination(k.p, q, S)
    drift = float(np.max(np.abs(pi_s @ q - pi_s)))
    if drift > STATIONARY_TOL:
        raise DominationViolation(
            f"conditional stationarity violated by {drift:.3e} "
            f"({variant} of a kernel that is not reversible on S?)"
        )

    sub = FiniteKernel(p=q, states=k.states[S] if k.states is not None else None)
    return DominatedKernel(support=S, kernel=sub, conditional_stationary=pi_s)


def _conditional_law(k: FiniteKernel, S: np.ndarray) -> np.ndarray:
    """pi(. | S) from ``k.stationary``; EmptySubset when S carries no mass."""
    pi_s = k.stationary[S]
    total = pi_s.sum()
    if total <= 0.0:
        raise EmptySubset("subset carries no stationary mass")
    return pi_s / total


def _mh_restricted_matrix(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    q = p[np.ix_(S, S)].copy()
    escape = 1.0 - q.sum(axis=1)
    q[np.diag_indices_from(q)] += escape
    return q


def _trace_matrix(p: np.ndarray, S: np.ndarray) -> np.ndarray:
    comp = np.delete(np.arange(p.shape[0]), S)
    a = p[np.ix_(S, S)]
    b = p[np.ix_(S, comp)]
    c = p[np.ix_(comp, S)]
    d = p[np.ix_(comp, comp)]
    m = np.eye(comp.size) - d
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.linalg.solve(m, c)
    except np.linalg.LinAlgError as exc:
        raise SingularCensoring("complement contains an absorbing set") from exc
    if not np.all(np.isfinite(x)):
        raise SingularCensoring("complement contains an absorbing set")
    q = a + b @ x
    # rows sum to 1 - (mass absorbed in the complement forever) = 1 here
    sums = q.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-8):
        raise SingularCensoring("censored rows do not renormalize; absorbing complement")
    return q / sums[:, None]


def _gibbs_matrix(table, S=None) -> np.ndarray:
    """The random-scan Gibbs kernel of a positive 1- or 2-d table, restricted to
    the row-major cells S (every cell when None): from cell (i, j), resample
    i within column j or j within row i, each with probability 1/2, in
    proportion to the table over the cells of S.
    """
    t = np.array(table, dtype=float)
    if t.ndim == 1:
        t = t[None, :]
    if t.ndim != 2:
        raise DimensionMismatch("probability table must be 1- or 2-dimensional")
    if np.any(t <= 0.0):
        raise ZeroProbabilityCell("all table cells must be positive")
    n1, n2 = t.shape
    S = np.arange(t.size) if S is None else S
    w = t.ravel()[S]
    if n1 == 1 or n2 == 1:
        return np.tile(w / w.sum(), (S.size, 1))
    rows, cols = np.divmod(S, n2)
    half = 0.5 * w
    q = np.zeros((S.size, S.size))
    for line in (cols, rows):
        mass = np.bincount(line, weights=w)[line]
        q += np.where(line[:, None] == line, half / mass[:, None], 0.0)
    return q


def _check_domination(p: np.ndarray, q: np.ndarray, S: np.ndarray):
    base = p[np.ix_(S, S)]
    gap = float(np.min(q - base))
    if gap < -ROW_SUM_TOL:
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            lines = [ln for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise DimensionMismatch(f"kernel csv is not UTF-8: {exc}") from None
    if not lines:
        raise DimensionMismatch("kernel csv needs a header and at least one row")
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines]
        states = [float(v) for v in header.split(",")] if header else None
    except ValueError as exc:
        raise DimensionMismatch(f"kernel csv has a cell that is not a number: {exc}") from None
    return build_finite_kernel(rows, states=states)


from . import chain_analysis  # noqa: E402  (last: chain_analysis imports this module)
