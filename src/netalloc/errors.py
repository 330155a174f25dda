"""Exception types raised across the package.

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


class FeasibilityError(NetallocError):
    """Case demand lies outside the combined generator limits."""


class ShareSumMismatch(NetallocError):
    """Explicit per-node shares do not sum to the case demand."""


class HypothesisViolation(NetallocError):
    """A bound was requested under a schedule that breaks its hypotheses."""
