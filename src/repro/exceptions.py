"""Exception hierarchy for the ``repro`` package.

Every error deliberately raised by the library derives from :class:`ReproError`
so that callers can catch library failures without accidentally swallowing
programming errors (``TypeError``, ``KeyError`` from unrelated code, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphFormatError(ReproError):
    """Raised when a graph file or edge list cannot be parsed or is invalid."""


class NodeNotFoundError(ReproError, KeyError):
    """Raised when a query references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class ParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter is outside its valid range."""


class IndexNotBuiltError(ReproError, RuntimeError):
    """Raised when a query is issued against an index that was never built."""

    def __init__(self, what: str = "index") -> None:
        super().__init__(
            f"the {what} has not been built yet; call build() before querying"
        )


class StorageError(ReproError, IOError):
    """Raised when the on-disk index store cannot be read or written."""


class WireFormatError(ReproError, ValueError):
    """Raised when a wire-protocol payload cannot be decoded into a request
    or result (unknown kind, missing or mistyped fields, unexpected keys)."""
