"""Exception taxonomy shared by all regtail modules."""


class RegtailError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RegtailError):
    """An argument is outside the mathematical domain of the operation."""


class ParseError(RegtailError):
    """Malformed edge-list text."""


class NotConnectedError(RegtailError):
    """Pattern graph is not connected."""


class NotRegularError(RegtailError):
    """Pattern graph is not regular."""


class TooSmallError(RegtailError):
    """Pattern graph has fewer than 3 vertices."""


class TooLargeError(RegtailError):
    """Instance exceeds the exact-enumeration vertex cap."""


class BudgetExceededError(RegtailError):
    """Enumeration work exceeded the configured budget."""


class EdgeAbsentError(RegtailError):
    """A designated edge is not present in the graph."""


class NotSpannedError(RegtailError):
    """Graph has an edge not covered by any pattern copy."""


class PoolTooSmallError(RegtailError):
    """Vertex pool cannot host the requested glued construction."""


class IsolatedVertexError(RegtailError):
    """Planted graph has an isolated vertex where none are allowed."""


class TooFewVerticesError(RegtailError):
    """Host graph has fewer vertices than the required clique size."""


class BlockTooSmallError(RegtailError):
    """Vertex blocks are smaller than the pattern after splitting."""


class ContractError(RegtailError):
    """An identity or inequality the mathematics guarantees failed to hold,
    which points to a defect in the computation rather than in the input."""
