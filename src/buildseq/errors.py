"""Shared exception types and the state budget they enforce."""

DEFAULT_STATE_LIMIT = 1 << 26


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size or state budget.

    Raised instead of silently approximating; callers may retry with a
    larger explicit limit.
    """


class IsolatedVertexError(ValueError):
    """Vertex-attributed cost is undefined when some vertex has degree zero."""
