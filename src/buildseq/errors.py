"""Shared exception types, the state budget, and the limit checks that the
kernels and the CLI (on a spec's size, before building) both run."""

DEFAULT_STATE_LIMIT = 1 << 26


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size or state budget.

    Raised instead of silently approximating; callers may retry with a
    larger explicit limit.
    """


class IsolatedVertexError(ValueError):
    """Vertex-attributed cost is undefined when some vertex has degree zero."""


def check_limit(amount: int, unit: str, limit: int, kernel: str) -> None:
    """Raise when ``amount`` (of vertices or elements) exceeds ``limit``."""
    if amount > limit:
        raise ResourceLimitError(f"{amount} {unit} exceed the {kernel} limit {limit}")


def check_subset_limits(p: int, vertex_limit: int, max_states: int, kernel: str) -> None:
    """The limits of a sweep over the 2^p vertex subsets: on p and on 2^p."""
    check_limit(p, "vertices", vertex_limit, kernel)
    if 1 << p > max_states:
        raise ResourceLimitError(
            f"{kernel} needs 2^{p} vertex-subset states, over the limit {max_states}; "
            "raise max_states to continue"
        )
