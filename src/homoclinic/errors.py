"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad argument shapes, out-of-range arguments) stays
a plain ValueError.
"""


class HomoclinicError(Exception):
    """Base class for all package-specific errors."""


class SingularityHit(HomoclinicError):
    """A well evaluation was requested at (or within guard distance of) q."""


class HypothesisViolation(HomoclinicError):
    """A sampled structural hypothesis on a(t), W or a witness failed."""


class ShiftOutOfRange(HomoclinicError):
    """A whole-period shift would move the window past the grid."""


class ZeroFunction(HomoclinicError):
    """An operation needing a nonzero trajectory got the zero function."""


class WindowOutOfDomain(HomoclinicError):
    """A unit averaging window does not fit inside the grid."""


class SingularityProximity(HomoclinicError):
    """A node of a trajectory sits inside the guard ball around q."""


class InfeasibleGuess(HomoclinicError):
    """A constructed initial guess fails the segment clearance test."""


class MaxItersExceeded(HomoclinicError):
    """Descent hit the iteration cap before reaching the gradient tolerance."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConvergedToZero(HomoclinicError):
    """Descent collapsed onto the trivial equilibrium: the attempt found no orbit."""


class TrajectoryFormatError(HomoclinicError):
    """A trajectory CSV does not parse or does not match the expected grid."""


class ConfigError(HomoclinicError):
    """A run configuration does not parse or fails field validation."""
