"""Exception types shared across the package."""

from __future__ import annotations


class GapcertError(RuntimeError):
    """Base class for all package errors."""


class EmptyWordError(GapcertError):
    """An operation that needs a nonempty word received the empty word."""


class OriginOffGeodesicError(GapcertError):
    """The identity does not lie on the line between two boundary points."""


class BudgetError(GapcertError):
    """An enumeration budget is too small to be meaningful."""


class DimensionMismatchError(GapcertError):
    """Subspace dimensions are incompatible with the requested operation."""


class NoGapError(GapcertError):
    """The singular value gap needed to define a subspace is absent."""


class EmptySubsetError(GapcertError):
    """The enumerated positive set is empty at every requested length."""


class NoConvergenceError(GapcertError):
    """An iterative limit did not reach the requested tolerance."""


class MembershipError(GapcertError):
    """A word or point could not be verified to belong to the declared set."""


class NonTransverseSeedError(GapcertError):
    """The seed subspace is not transverse to the repelling limit subspace."""


class NotCertifiedError(GapcertError):
    """An operation requires a Certified domination certificate."""


class InsufficientSampleError(GapcertError):
    """Fewer usable sample pairs than the minimum needed for a fit."""


class SingularBlockError(GapcertError):
    """The denominator block of the graph transform is not invertible."""


class NumericalError(GapcertError):
    """A floating-point computation left the range where its result means
    anything; a run records it as an Error verdict."""


class DependentColumnsError(NumericalError, ValueError):
    """Spanning columns are numerically dependent, so they span no plane of
    the requested dimension."""


class IllConditionedError(NumericalError, ValueError):
    """A generator image is not finite, or too ill-conditioned to invert."""


class ScaleOverflowError(NumericalError, OverflowError):
    """A scale-tracked product is too large or too small to materialize."""


class HypothesesFailError(GapcertError):
    """The norm hypotheses of the graph transform are violated."""

    def __init__(self, message: str, norms: dict | None = None):
        super().__init__(message)
        self.norms = norms or {}


class ConfigError(GapcertError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """The configuration document could not be parsed."""


class ValidationError(ConfigError):
    """The configuration document parsed but failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
