"""Exception types shared across the library, and the one number renderer."""

import sys
from fractions import Fraction


def render_value(v) -> str:
    """"inf", an integer, "p/q", or a tuple of integers, exact at any size."""
    if type(v) is float:
        return "inf" if v == float("inf") else str(v)
    v = v if type(v) is tuple else Fraction(v)
    try:
        return str(v)
    except ValueError:
        # past the interpreter's int-to-str digit limit: lift it for this call
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(v)
        finally:
            sys.set_int_max_str_digits(limit)


class TreeMeasureError(Exception):
    """Base class for all library-specific errors."""


class DepthLimitError(TreeMeasureError):
    """A depth or vertex index exceeds the configured maximum depth."""


class BudgetError(TreeMeasureError):
    """An enumeration or normalization exceeded its work budget."""


class SpinRangeError(TreeMeasureError):
    """A spin value lies outside the configured spin set."""


class ContextMismatchError(TreeMeasureError):
    """Two objects built over different trees or spin sets were combined."""


class DisjointnessError(TreeMeasureError):
    """An operation requiring pairwise disjoint sets received overlapping ones."""


class NestingError(TreeMeasureError):
    """A sequence that must be decreasing under inclusion is not."""


class MassError(TreeMeasureError):
    """A mass that must be finite (or constant across depths) is not."""


class VerificationError(TreeMeasureError):
    """Evaluation requested beyond the consistency-verified depth, or the
    family failed its consistency check."""


class FamilyDepthError(TreeMeasureError):
    """A depth-indexed family was asked for a depth it does not define."""


class CoverError(TreeMeasureError):
    """A cover violates its contract (overlap, infinite part mass, gap)."""


class SpecError(TreeMeasureError):
    """Problem in a spec document or event expression."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected) if expected else ()
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        tail = ""
        if self.expected:
            tail = "; expected one of: " + ", ".join(self.expected)
        super().__init__(where + message + tail)


class SpecSyntaxError(SpecError):
    """Malformed spec document or event text."""


class SpecSemanticError(SpecError):
    """Well-formed text whose meaning violates a contract."""
