"""Exception taxonomy shared by every module in the package.

Domain violations raise subclasses of :class:`DomainError` (a ``ValueError``),
so callers that validate inputs generically can catch one type.  Failures of
an iterative scheme raise subclasses of :class:`ConvergenceError` (an
``ArithmeticError``) and carry whatever diagnostic state is cheap to attach.
"""

from __future__ import annotations


class ZetaprodError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZetaprodError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class RangeError(DomainError):
    """An argument is inside the mathematical domain but beyond the
    range this implementation supports at its stated accuracy."""


class SingularityError(DomainError):
    """Evaluation point coincides with (or is too close to) a singularity
    of the transform, e.g. z = +-i*k for a jump at k."""


class InsufficientZerosError(DomainError):
    """A zero list does not extend far enough for the requested computation."""


class ConvergenceError(ZetaprodError, ArithmeticError):
    """An iterative or adaptive scheme failed to reach its tolerance."""


class ClusterError(ConvergenceError):
    """A scan interval straddled more than one sign change, so at least one
    zero was missed and the zero list would be incomplete."""


class ProximityError(ConvergenceError):
    """A contour passes too close to a zero for the winding number to be
    computed reliably."""
