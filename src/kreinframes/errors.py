"""Exception hierarchy.

All library errors derive from :class:`KreinFramesError` so callers can
distinguish them from built-in exceptions.
"""


class KreinFramesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(KreinFramesError):
    """Shapes of vectors/matrices do not match the ambient space."""


class RankError(KreinFramesError):
    """A basis matrix is numerically rank deficient."""


class ClassificationError(KreinFramesError):
    """A subspace does not have the definiteness class an operation requires."""


class DegenerateSubspaceError(KreinFramesError):
    """The subspace is not regular, so the requested J-projection does not exist."""


class MemberClassificationError(ClassificationError):
    """A family member fails the uniform-definiteness requirement.

    Carries the offending member index in ``index`` and the message without
    its ``member <index>:`` prefix in ``detail``.
    """

    def __init__(self, index, message):
        super().__init__(f"member {index}: {message}")
        self.index = index
        self.detail = message


class WeightError(KreinFramesError):
    """A family weight is not strictly positive."""


class NotAFrameError(KreinFramesError):
    """The operation requires a certified J-fusion frame / J-frame."""


class NotSurjectiveError(KreinFramesError):
    """The operator (or synthesis operator) is not surjective onto the space."""


class SingularOperatorError(KreinFramesError):
    """An operator that must be inverted is numerically singular."""


class DefinitenessTransportError(KreinFramesError):
    """The inverse frame operator failed to preserve the sign of a member."""


class HypothesisNotMetError(KreinFramesError):
    """A theorem-check was invoked on an instance violating its hypothesis."""


class SchemaError(KreinFramesError):
    """A problem document is structurally malformed."""


class ValidationError(KreinFramesError):
    """A problem document parses but violates a structural invariant."""


class UsageError(KreinFramesError):
    """Bad command-line usage (unknown command, unresolved name, ...)."""
