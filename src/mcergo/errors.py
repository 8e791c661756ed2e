"""Exception types raised across the toolkit."""


class McergoError(Exception):
    """Base class for all toolkit errors."""


# --- kernel construction -------------------------------------------------

class KernelError(McergoError):
    pass


class NegativeEntry(KernelError):
    pass


class RowSumViolation(KernelError):
    pass


class DimensionMismatch(KernelError):
    pass


class StatesNotOrdered(KernelError):
    pass


class DensityNonpositive(McergoError):
    pass


class ProposalNotReversible(KernelError):
    pass


class GridMismatch(KernelError):
    pass


class ZeroProbabilityCell(KernelError):
    pass


class EmptySubset(KernelError):
    pass


class SingularCensoring(KernelError):
    pass


class DominationViolation(KernelError):
    """A constructed restriction failed a dominated-chain invariant."""


# --- chain analysis ------------------------------------------------------

class Reducible(McergoError):
    pass


class LengthMismatch(McergoError):
    pass


class NotMixedByHorizon(McergoError):
    """Mixing horizon exhausted; carries the TV profile for diagnosis.

    ``profile[i]`` is the worst-start TV at step count ``times[i]``: the
    times the search checked, ascending from 0, not every t.
    """

    def __init__(self, message, profile, times):
        super().__init__(message)
        self.profile = profile
        self.times = times


class Unreachable(McergoError):
    pass


class TooManyStates(McergoError):
    pass


class NoFeasibleSet(McergoError):
    pass


class NotBirthDeath(McergoError):
    """A birth-death-only computation got a kernel that is not tridiagonal."""


class ResidualTooLarge(McergoError):
    """A linear solve missed its residual tolerance after refinement."""


class DegenerateOverlap(McergoError):
    pass


# --- monte carlo ---------------------------------------------------------

class AllCensored(McergoError):
    pass


# --- certification -------------------------------------------------------

class InvalidParameters(McergoError):
    pass


class NonpositiveDenominator(McergoError):
    pass


class IncompatibleRadius(McergoError):
    pass


class IncompatibleCertificate(McergoError):
    pass


# --- harness -------------------------------------------------------------

class ConfigError(McergoError):
    pass


class EmptySeries(McergoError):
    pass
