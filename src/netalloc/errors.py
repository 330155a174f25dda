"""Exception types raised across the package.

Every error message is a single line so command-line callers can relay it
verbatim.
"""


class NetallocError(Exception):
    """Base class for all errors raised by netalloc."""


class DisconnectedGraph(NetallocError):
    """The communication graph is not connected."""


class RowSumViolation(NetallocError):
    """A weight-matrix row does not sum to one."""

    def __init__(self, index, total):
        self.index = index
        self.total = total
        super().__init__(f"row {index} sums to {total!r}, expected 1")


class ColSumViolation(NetallocError):
    """A weight-matrix column does not sum to one."""

    def __init__(self, index, total):
        self.index = index
        self.total = total
        super().__init__(f"column {index} sums to {total!r}, expected 1")


class ZeroDiagonal(NetallocError):
    """A diagonal weight entry is not strictly positive."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"diagonal entry ({index},{index}) is {value!r}, expected > 0")


class SparsityMismatch(NetallocError):
    """A weight entry disagrees with the edge set of the graph."""

    def __init__(self, i, j, value, is_edge):
        self.i = i
        self.j = j
        self.value = value
        self.is_edge = is_edge
        if is_edge:
            reason = f"entry ({i},{j}) is {value!r} but ({i},{j}) is an edge and must be positive"
        else:
            reason = f"entry ({i},{j}) is {value!r} but ({i},{j}) is not an edge and must be zero"
        super().__init__(reason)


class InfeasibleTotal(NetallocError):
    """The total resource cannot be met by the nodes' intervals."""


class BracketFailure(NetallocError):
    """No sign change found while expanding the multiplier bracket."""


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
