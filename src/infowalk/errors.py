"""Exception hierarchy.

Three families map onto the CLI exit codes: parse failures (1), violated
preconditions (2), and resource caps (3).
"""


class InfowalkError(Exception):
    """Base class for all library errors."""


class ParseError(InfowalkError):
    """Malformed input: bad JSON, wrong schema, NaN/negative entries."""


class PreconditionError(InfowalkError):
    """An operation was called outside its stated domain."""


class DistributionError(PreconditionError):
    """Invalid probability mass (negative, non-finite, or not normalized)."""


class ShapeMismatchError(DistributionError):
    """Two distributions that must share a rectangle do not."""


class UndefinedProductError(DistributionError):
    """The odot product of two measures with inner product zero."""


class DecompositionError(DistributionError):
    """No symmetric reference/pretend decomposition exists for this input."""


class ProtocolError(PreconditionError):
    """Structurally invalid protocol tree or signal."""


class DecompositionMismatchError(PreconditionError):
    """A prior does not recompose from the supplied reference/pretend pair."""


class ResourceCapError(InfowalkError):
    """A configured size cap was exceeded."""
