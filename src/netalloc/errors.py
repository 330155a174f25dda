"""Exception types raised across the package, its one rule for numbers in text,
and its one message for a file it cannot read.

Every error message is a single line so command-line callers can relay it
verbatim.
"""


class NetallocError(Exception):
    """Base class for all errors raised by netalloc."""


class DisconnectedGraph(NetallocError):
    """The communication graph is not connected."""


class InfeasibleTotal(NetallocError):
    """The total resource cannot be met by the nodes' intervals."""


class ParseError(NetallocError):
    """A text input is malformed; carries the offending line number."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


def _field(text, kind):
    """``text`` read as numpy's reader reads an int64 (``kind`` is ``int``)
    or a float64 (``kind`` is ``float``) field.

    Every number the package reads from text, in a file or on the command
    line, is read here. Python's ``int`` and ``float`` also take ``_``
    between digits and non-ASCII digits, and ``int`` any size; numpy's
    reader takes none of these.
    """
    stripped = text.strip()
    try:
        if not stripped.isascii() or "_" in stripped:
            raise ValueError
        value = kind(stripped)
        if kind is int and not -(2**63) <= value < 2**63:
            raise ValueError
    except ValueError:
        raise ValueError(f"could not convert {text!r} to {kind.__name__}64") from None
    return value


def _unreadable(what, path, exc):
    """The ValueError ``cannot read WHAT PATH: REASON`` for the OSError ``exc``."""
    return ValueError(f"cannot read {what} {path}: {exc.strerror or exc}")


class FeasibilityError(NetallocError):
    """Case demand lies outside the combined generator limits."""


class ShareSumMismatch(NetallocError):
    """Explicit per-node shares do not sum to the case demand."""


class HypothesisViolation(NetallocError):
    """A bound was requested under a schedule that breaks its hypotheses."""
