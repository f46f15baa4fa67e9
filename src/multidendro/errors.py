"""Exception and warning types shared across the package.

Every error raised on bad user input derives from MultidendroError so
callers (and the command line tool) can catch one base class.
"""


class MultidendroError(Exception):
    """Base class for all input and state errors raised by this package."""


# ---- matrix ingestion ----

class FormatError(MultidendroError):
    """Input text does not follow the declared matrix format."""


class AsymmetricInput(MultidendroError):
    """Square input where entry (i, j) disagrees with entry (j, i)."""


class MissingPair(MultidendroError):
    """Pair list input that does not cover every unordered pair."""


class DuplicatePair(MultidendroError):
    """Pair list input that states the same unordered pair twice."""


class NegativeValue(MultidendroError):
    """A dissimilarity value below zero."""


class DuplicateLabel(MultidendroError):
    """Two individuals share the same label."""


class OutOfRange(MultidendroError):
    """Similarity outside [0, 1], or a value above proximity.MAX_VALUE."""


# ---- linkage evaluation ----

class UnsupportedMethod(MultidendroError):
    """Method name unknown, or operation undefined for the method."""


# ---- agglomeration ----

class EmptyInput(MultidendroError):
    """Clustering asked for on zero individuals."""


class TooManySolutions(MultidendroError):
    """Tie enumeration exceeded the configured solution limit."""


class PolicyUnavailable(MultidendroError):
    """A single fusion value was requested under the interval-only policy."""


# ---- trees ----

class UnresolvedHeights(MultidendroError):
    """A single height was requested from a node that only has an interval."""


class ParseError(MultidendroError):
    """Malformed serialized tree text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


# ---- warnings ----

class ZeroDistanceWarning(UserWarning):
    """Distinct individuals at distance zero; they will merge at height 0."""


class FusionFallbackWarning(UserWarning):
    """Natural fusion value undefined for the method; shortest used instead."""
