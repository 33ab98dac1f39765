"""Shared exception types and the limit checks that the kernels and the
CLI (on a spec's size, before building) both run."""

import math

__all__ = ["ResourceLimitError", "IsolatedVertexError"]


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


def check_range(name: str, value: int, low: int, high: int) -> None:
    """Raise when a size parameter ``value`` lies outside ``low..high``."""
    if not low <= value <= high:
        raise ValueError(f"supported range is {low} <= {name} <= {high}, got {value}")


def check_subset_limits(p: int, max_states: int, kernel: str) -> None:
    """The one limit of a sweep over the 2^p vertex subsets: 2^p table
    entries at most ``max_states``.  Compared through the bit length, so a
    huge p costs no 2^p integer."""
    if p >= max(max_states, 0).bit_length():
        raise ResourceLimitError(
            f"{kernel} needs 2^{p} vertex-subset states, over the limit {max_states}; "
            "raise max_states to continue"
        )


def check_class_limits(sizes: list[int], max_states: int, kernel: str) -> None:
    """The one limit of a sweep over twin-class count vectors: the
    prod(n_i + 1) states for classes of sizes n_i at most ``max_states``.
    With every class a single vertex that is 2^p, checked and worded as by
    :func:`check_subset_limits`."""
    if sum(sizes) == len(sizes):  # every class a single vertex
        check_subset_limits(len(sizes), max_states, kernel)
        return
    states = math.prod(n + 1 for n in sizes)
    if states > max_states:
        raise ResourceLimitError(
            f"{kernel} needs {states} twin-class states, over the limit {max_states}; "
            "raise max_states to continue"
        )
