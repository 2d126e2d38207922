"""Exception hierarchy shared by all redkp modules."""


class RedkpError(Exception):
    """Base class for all library errors."""


class SizeMismatch(RedkpError):
    """Input dimensions are inconsistent (slice length, matrix size, window shape)."""


class ZeroValue(RedkpError):
    """A lattice value is zero; the evolution divides by every site value."""


class GcdViolation(RedkpError):
    """A coprimality requirement does not hold."""


class DegenerateEvolution(RedkpError):
    """Product of the two feeding slices coincide; the periodic closure is not unique."""


class SingularStep(RedkpError):
    """An intermediate site value vanished while propagating one time step."""


class HeightBudgetExceeded(RedkpError):
    """A stepped slice passed the bit height allowed by ``evolve --max-bits``."""


class InsufficientHistory(RedkpError):
    """A required slice predates the initial data and cannot be produced."""


class OffCurve(RedkpError):
    """A special point built from the state's slices is not on its spectral curve."""


class NonPolynomialResult(RedkpError):
    """A shift conjugation's intertwining failed: Z a != a X_t for the rebuilt image Z."""


class ExactDivisionError(RedkpError):
    """Polynomial division left a nonzero remainder."""


class WordGuard(RedkpError):
    """Word enumeration rejected: exponential cost beyond the guarded width."""


class MultipleEigenvalue(RedkpError):
    """A fiber eigenvalue is numerically non-simple; the diagnostic is not defined."""


class IllConditioned(RedkpError):
    """A floating-point computation failed to reach the requested accuracy."""


class NotCaseB(RedkpError):
    """Diagnostic requires all site invariants equal (coincident zero-fiber points)."""


class EmptyIndexSet(RedkpError):
    """The requested degeneration index set is empty for these parameters."""


class WrongParams(RedkpError):
    """Operation is only defined for a specific (M, K, N)."""
