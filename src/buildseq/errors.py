"""Shared exception types, ``LIMITS``, the one table of caps, which every
limit check reads, ``_Record``, the base of the package's value types, and
the one rule for index arguments: ``_index`` reads a 1-based index and
``_permutation`` a permutation, each item through ``operator.index``."""

import math
import operator
import re
from typing import Iterable, NamedTuple

__all__ = ["ResourceLimitError", "IsolatedVertexError"]


class _Record:
    """Base of the immutable value types.  A subclass names its fields in
    ``_fields``, lists its slots in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Equality and hashing read the
    fields through one ``attrgetter``; ``repr`` is ``Name(field=value, ...)``;
    assignment and deletion raise ``AttributeError``; copies and pickles call
    the class on the fields, so they are validated again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        key = operator.attrgetter(*cls._fields)

        def __eq__(self, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _index(value: int, high: int, what: str) -> int:
    """``value`` through ``operator.index``, unless it is outside 1..``high``."""
    value = operator.index(value)
    if not 1 <= value <= high:
        raise ValueError(f"{what} {value} outside 1..{high}")
    return value


def _permutation(items: Iterable[int] | None, low: int, high: int, message: str) -> tuple[int, ...]:
    """``items``, by default ``low``..``high``, through ``operator.index``, unless they
    are not ``low``..``high`` in some order; a wrong length fails before any sort."""
    items = tuple(range(low, high + 1) if items is None else map(operator.index, items))
    if len(items) != high - low + 1 or sorted(items) != list(range(low, high + 1)):
        raise ValueError(message)
    return items


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size or state budget.

    Raised instead of silently approximating; callers may retry with a
    larger explicit limit.
    """


class IsolatedVertexError(ValueError):
    """Vertex-attributed cost is undefined when some vertex has degree zero."""


_OVER = "{amount} {unit} exceed the {kernel} limit {limit}"
_STATES = "{kernel} needs {amount} {unit}, over the limit {limit}; raise max_states to continue"
_RANGE = "supported range is {low} <= {unit} <= {limit}, got {amount}"


class Limit(NamedTuple):
    """One cap and its message's words: ``unit``, what is counted or the
    parameter bounded, and ``kernel``, what is bounded.  With a ``low`` end
    it raises ``ValueError`` (CLI exit 1), by default as a range, else
    :class:`ResourceLimitError` (exit 3).  ``admits`` is the largest input
    admitted, a CLI request or a statement on the package ``b``, taking
    ``seconds`` end to end; :attr:`refuses`, its first number raised by one, is not."""

    value: int
    unit: str
    kernel: str
    admits: str
    seconds: float
    low: int | None = None
    message: str = ""

    @property
    def refuses(self) -> str:
        return re.sub(r"\d+", lambda size: str(int(size[0]) + 1), self.admits, count=1)

    def error(self, amount: object, limit: int | None = None) -> Exception:
        """The error for ``amount`` over ``limit``, by default the cap."""
        words = self.message or (_OVER if self.low is None else _RANGE)
        text = words.format(amount=amount, limit=self.value if limit is None else limit, **self._asdict())
        return ResourceLimitError(text) if self.low is None else ValueError(text)

    def check(self, amount: int, limit: int | None = None) -> int:
        """``amount``, unless it is over ``limit``, by default the cap, or under ``low``.
        Both go through ``operator.index``: a float or a str raises
        ``TypeError``, and ``True`` is 1, as in every check below."""
        amount = operator.index(amount)
        limit = self.value if limit is None else operator.index(limit)
        if amount > limit or self.low is not None and amount < self.low:
            raise self.error(amount, limit)
        return amount

    def check_subsets(self, p: int, max_states: int) -> None:
        """2^p subset states at most ``max_states``, compared by bit length: no 2^p integer is built."""
        max_states = operator.index(max_states)
        if p >= max(max_states, 0).bit_length():
            raise self.error(f"2^{p} vertex-subset", max_states)

    def check_classes(self, sizes: list[int], max_states: int) -> None:
        """prod(n_i + 1) twin-class states at most ``max_states``, as 2^p if every n_i is 1."""
        max_states = operator.index(max_states)
        if sum(sizes) == len(sizes):
            return self.check_subsets(len(sizes), max_states)
        states = math.prod(n + 1 for n in sizes)
        if states > max_states:
            raise self.error(f"{states} twin-class", max_states)


#: Every cap by name, in the order of README's Limits table (a test checks it).
LIMITS = {
    "oracle": Limit(10, "elements", "brute-force", "count family:cycle:5 --route oracle", 1.5),
    "enumerators": Limit(11, "elements", "enumeration", "enumerate family:path:6", 1.8),
    "greedy_all": Limit(8, "vertices", "greedy-all", "b.greedy_all(b.build_family('complete:8'))", 1.0),
    "builders": Limit(160_000, "elements", "sequence builder", "greedy family:path:80000", 1.0),
    "count_dp": Limit(1 << 24, "states", "count DP", "count family:path:24", 14.6, message=_STATES),
    "min_cost": Limit(1 << 22, "states", "optimizer", "optimize family:path:22", 3.5, message=_STATES),
    "poset_sweep": Limit(1 << 18, "states", "linear-extension sweep",
                         "b.count_linear_extensions(b.incidence_poset(b.build_family('complete:18')))", 1.0,
                         message="{kernel} exceeded {limit} {unit}; raise max_states to continue"),
    "bernoulli": Limit(100, "n", "Bernoulli forms", "count family:cycle:100 --route formula", 0.1, 1),
    "complete": Limit(700, "n", "complete product", "count family:complete:700 --route formula", 1.0, 1),
    "path_recursion": Limit(350, "n", "path recursion", "count family:path:350 --route recursion", 0.4, 1),
    "star_recursion": Limit(30_000, "n", "star recursion", "count family:star:30000 --route recursion", 0.4, 0),
    "zigzag": Limit(800, "n_max", "zigzag triangle", "count family:path:800 --base 1 --route formula", 0.4, 1),
    "tremolo": Limit(500, "r_max", "tremolo numbers", "b.tremolo_numbers(500)", 0.6, 0),
    "star_formula": Limit(120_000, "n", "star forms", "count family:star:120000 --base 1 --route formula",
                          0.8, 0),
    "trees": Limit(8, "n", "labeled trees", "xi trees:8", 24.0, 2),
    "graphs_pq": Limit(7, "p", "graphs:p:q", "xi graphs:7:10", 16.8, 1),
    "family_spec": Limit(1_000_000, "elements", "family spec", "b.build_family('path:500000')", 0.4, 0,
                         "{kernel} needs {amount} {unit}, over the guard {limit}"),
}
