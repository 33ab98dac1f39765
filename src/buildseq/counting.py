"""Counting routes for construction sequences.

Several independent routes compute the same quantities so they can check
one another:

* a permutation-filter oracle that tries every ordering of the elements,
* a dynamic program over placed vertex subsets, A(S) = sum A(S+v) / h(S),
  swept over twin-class count vectors: twins (vertices with the same edges
  to every other vertex and the same loops) are interchangeable, so a
  state only says how many members of each class are placed,
* closed forms and recursions for paths, stars, and cycles,
* composition laws for disjoint unions and wedges, and
* the integer-sequence helpers behind the closed forms (zigzag numbers via
  the boustrophedon triangle, Bernoulli numbers, tremolo numbers).

The subset kernel serves ``count_dp`` and ``optimize.min_cost``;
``count_based`` is the ``count_dp`` of the graph left after its base.
``_quotient`` builds the table from integer neighbour rows, one per vertex
with the edge multiplicities as digits, which also key the twin classes and
give each class, in one loop, the edges it opens into the states before it.
``_free_steps`` plans the sweeps and ``_descending`` walks them, a block of
low digits at a time; ``_scaled_completions`` is the count sweep, which adds
the whole blocks that a block's high steps lead to at once.
The kernel's one limit, ``max_states``, bounds the class-count vectors,
prod(n_i + 1), 2^p when no two vertices are twins.  All counts are exact
Python integers: the DP's entries are the count scaled by N!/h(S)! and
divided by the orders of the unplaced twins, which keeps its divisions
exact, and the Bernoulli route asserts that its final division is.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import LIMITS, Limit
from .graphs import Graph, _check_base
from .sequences import CSeq, _from_codes

__all__ = [
    "count_bruteforce",
    "count_dp",
    "count_based",
    "enumerate_csequences",
    "star_count",
    "star_count_recursive",
    "complete_count",
    "path_count_recursive",
    "ZigzagNumbers",
    "zigzag_numbers",
    "bernoulli_number",
    "path_count_bernoulli",
    "cycle_count_bernoulli",
    "tremolo_numbers",
    "union_count",
    "wedge_count",
    "DEFAULT_ELEMENT_LIMIT",
    "DEFAULT_DP_STATE_LIMIT",
]

DEFAULT_ELEMENT_LIMIT = LIMITS["enumerators"].value
DEFAULT_DP_STATE_LIMIT = LIMITS["count_dp"].value
# Twin classes are formed for TWIN_MIN_VERTICES <= p <= TWIN_VERTICES, and
# below that only when 2^p states are over the limit: on smaller graphs the
# bookkeeping costs more than the at most 128 states it saves.  Past 2^12
# vertices the limit is 2^p, checked before anything else: the entries are
# factorials of the element count, so a graph that large fails at once
# whatever its classes.
_TWIN_MIN_VERTICES = 8
_TWIN_VERTICES = 1 << 12


# ---------------------------------------------------------------------------
# Oracle and dynamic program


def count_bruteforce(
    g: Graph, *, base: int | None = None, element_limit: int = LIMITS["oracle"].value
) -> int:
    """Ground-truth oracle: run through all (p+q)! orderings of the elements
    and count the ones where every edge follows both endpoints.  With
    ``base``, only the orderings that start with that vertex."""
    if base is not None:
        _check_base(base, g.p)
    total_elements = g.element_count
    LIMITS["oracle"].check(total_elements, element_limit)
    need = g.endpoint_masks()
    start = 0 if base is None else 1 << (base - 1)
    count = 0
    for perm in itertools.permutations(c for c in range(total_elements) if not start >> c & 1):
        seen = start
        for code in perm:
            if need[code] & ~seen:
                break
            seen |= 1 << code
        else:
            count += 1
    return count


class _Quotient(NamedTuple):
    """A graph's twin classes and the table the subset sweeps share.

    Vertices u and v are twins when they have the same edge multiplicity to
    every other vertex and the same number of loops.  The relation is
    transitive, and all pairs inside a class have one multiplicity, so the
    build problem depends only on how many members of each class are
    placed: a state is the class-count vector (k_i), stored in mixed radix
    as x = sum of k_i * radix[i].  ``radix`` has one more entry than there
    are classes, the state count prod(n_i + 1), and N = p + q is placed[-1].
    The sweeps read nothing else; :func:`_free_steps` plans their order.
    """

    sizes: list[int]  # n_i, the members of class i
    radix: list[int]
    vertex_class: list[int]  # the class of each vertex (0-based)
    placed: list[int]  # per state: |S| + e(S), the elements placed
    scale: int  # prod(n_i!): the table's entries are divided by prod((n_i - k_i)!)


def _quotient(
    p: int, edges: Sequence[tuple[int, int]], *, max_states: int, kernel: Limit
) -> _Quotient:
    """Group the vertices 1..p into twin classes and tabulate
    placed[x] = |S| + e(S) over the class-count vectors; e(S) counts the
    records of ``edges``, (u, w) pairs with u <= w as ``Graph`` normalizes
    them, with all endpoints in S, so loops and parallel edges count with
    multiplicity.

    One pass over the distinct pairs of ``edges`` gives each vertex v its
    loops and an integer row, the multiplicity m_vw of each other vertex w
    as digit w in base B, a power of two above the largest multiplicity of
    an edge that is not a loop (B = 2 without parallel edges).  Twins u and
    v with no edge between them have the same neighbours, with the same
    multiplicities, so the same row; joined by m edges, they have the same
    ones once each counts itself as its own neighbour by m edges, row + m *
    B^v.  So each vertex is keyed by its loops with its row, and with row +
    m * B^v for each multiplicity m at it, and the vertices that share a key
    form a class.
    The classes are formed from ``_TWIN_MIN_VERTICES`` up to
    ``_TWIN_VERTICES`` vertices, and on fewer vertices only when 2^p states
    are over the limit; otherwise every vertex is a class of its own.
    Classes of one vertex come first, then the larger classes by their
    smallest vertex.

    ``max_states`` bounds the states, prod(n_i + 1), and is checked before
    any table is built, by ``kernel``, the caller's record in ``LIMITS``.
    Class i extends the table by placed[x + k * radix[i]]: k members with
    their loops, the C(k, 2) * m_ii edges among them, and k times opened[x],
    the edges from one member to the vertices of state x, which adds m_ij
    for each member of class j in x.  Class i reads m_ij from its first
    member's row, at the digit of class j's first member, and m_ii at the
    digit of its own last member; opened grows once per earlier class j,
    repeated n_j + 1 times with 0, m_ij, ..., n_j * m_ij added, by C-level
    list operations.  With no twins and no parallel edges a state is the bit
    mask of its vertices, and up to 2^8 states opened[x] is a popcount of
    the state and the row.  The rows come from the distinct pairs, never
    once per parallel edge, so the limit is checked before any table,
    however many are parallel.
    """
    max_states = operator.index(max_states)
    if p > _TWIN_VERTICES:
        kernel.check_subsets(p, max_states)
    counts = dict.fromkeys(edges, 1)  # per pair u <= w
    bits = 1  # per digit of a row
    at: list[set[int]] | None = None  # with parallel edges, the multiplicities at each vertex
    if len(counts) < len(edges):
        counts = Counter(edges)
        at = [set() for _ in range(p)]
        for (u, w), k in counts.items():
            if u != w:
                at[u - 1].add(k)
                at[w - 1].add(k)
        bits = max(map(max, filter(None, at)), default=1).bit_length()
    loops = [0] * p
    rows = [0] * p  # row v: the edges joining v and w as digit w, in base 2^bits
    for (u, w), k in counts.items():
        if u == w:
            loops[u - 1] = k
        else:
            rows[u - 1] += k << bits * (w - 1)
            rows[w - 1] += k << bits * (u - 1)
    classes: list[list[int]] = []  # the classes of two or more, by smallest vertex
    if p <= _TWIN_VERTICES and (p >= _TWIN_MIN_VERTICES or 1 << p > max_states):
        shared: dict[tuple[int, int], list[int]] = {}
        for v, row in enumerate(rows):
            shared.setdefault((loops[v], row), []).append(v)
            for m in at[v] if at else (1,) if row else ():
                shared.setdefault((loops[v], row + (m << bits * v)), []).append(v)
        classes = sorted(members for members in shared.values() if len(members) > 1)
    if classes:
        twins = {v for members in classes for v in members}
        classes = [[v] for v in range(p) if v not in twins] + classes
        vertex_class = [0] * p
        for i, members in enumerate(classes):
            for v in members:
                vertex_class[v] = i
    else:  # every vertex a class of its own, in order
        classes, vertex_class = [[v] for v in range(p)], list(range(p))
    sizes = list(map(len, classes))
    kernel.check_classes(sizes, max_states)
    radix = [1, *itertools.accumulate([n + 1 for n in sizes], operator.mul)]
    placed = [0]
    digit = (1 << bits) - 1
    bitmasks = len(sizes) == p and bits == 1  # state s is then the bit mask of its vertices
    for i, members in enumerate(classes):
        v = members[0]
        row, step = rows[v], 1 + loops[v]
        if bitmasks and i < 8:  # up to 2^8 states a popcount is faster
            placed += [z + step + (row & s).bit_count() for s, z in enumerate(placed)]
            continue
        # Per state of classes 0..i-1: the edges from one member of class i
        # into it, and for a class of one its step too.
        opened = [step if len(members) == 1 else 0]
        for j in range(i):
            m = row >> bits * classes[j][0] & digit
            if m:
                opened += [y + t for t in range(m, (sizes[j] + 1) * m, m) for y in opened]
            else:
                opened *= sizes[j] + 1
        if len(members) == 1:
            # opened is as long as the table was, so the map stops there.
            placed += map(operator.add, placed, opened)
            continue
        inner = row >> bits * members[-1] & digit  # m_ii
        for k in range(1, len(members) + 1):
            a = k * step + k * (k - 1) // 2 * inner
            placed += [z + a + k * y for z, y in zip(placed, opened)]
    scale = math.prod(map(math.factorial, sizes))
    return _Quotient(sizes, radix, vertex_class, placed, scale)


def _doubled(sizes: list[int], items: list) -> list[tuple]:
    """The free steps of the states of classes with ``sizes``, in mixed
    radix: class i repeats the tuples so far n_i times with items[i] added,
    then once without it."""
    steps: list[tuple] = [()]
    for n, item in zip(sizes, items):
        one = (item,)
        steps = [free + one for free in steps] * n + steps
    return steps


# The free steps of up to eight single-vertex classes, radices 1, 2, 4, ...:
# the same in every count sweep whose low half they are, so built once.
_BIT_STEPS = tuple(_doubled([1] * m, [1 << i for i in range(m)]) for m in range(9))


def _free_steps(q: _Quotient, weights: list[int] | None = None) -> tuple[list[tuple], list[tuple]]:
    """The sweep plan, made only here: the steps open at each state, split
    at s by halves of its digits.  A state x = lo + hi * L (L = radix[s]) can
    add one member of class i exactly when k_i < n_i, so its free steps are
    low[lo] + high[hi]; a step is the radix r_i, or (r_i, weights[i])."""
    # The low half takes about the square root of the states, a few times
    # more on small tables, where each block of the sweep costs more; a
    # table of single vertices with up to 2^8 states is all low half, whose
    # free steps a count sweep finds ready in _BIT_STEPS.
    s = bisect.bisect_right(q.radix, math.isqrt(8 * q.radix[-1])) - 1
    if q.radix[-1] == 1 << len(q.sizes) and len(q.sizes) < len(_BIT_STEPS):
        s = len(q.sizes)
    items = q.radix if weights is None else list(zip(q.radix, weights))
    if weights is None and s < len(_BIT_STEPS) and q.radix[s] == 1 << s:
        low = _BIT_STEPS[s]
    else:
        low = _doubled(q.sizes[:s], items[:s])
    return low, _doubled(q.sizes[s:], items[s:])


def _descending(low: list[tuple], high: list[tuple]) -> Iterator[tuple[int, Iterator, tuple]]:
    """Both subset sweeps' walk over a :func:`_free_steps` plan: per block of
    low digits, its first state start = hi * L, the pairs (x, low[x % L])
    with x decreasing and L = len(low), and high[hi]; the full state, which
    each sweep sets, is left out."""
    down = low[::-1]
    block = down[1:]
    for hi in range(len(high) - 1, -1, -1):
        start = hi * len(down)
        yield start, zip(range(start + len(block) - 1, start - 1, -1), block), high[hi]
        block = down


def _scaled_completions(q: _Quotient) -> list[int]:
    """Ã(x) = A(x) / prod over j of (n_j - k_j)! for every state x, with
    n = N = p + q = placed[-1].

    A(S) = C(S) * N!/h(S)! for a vertex set S, where C(S) counts the ways to
    finish a build that has placed the vertices of S and their e(S) edges,
    and h(S) = N - |S| - e(S) elements are left.  The next is a vertex v
    outside S, and the d = e(S+v) - e(S) edges it opens take any d of the
    other h(S) - 1 positions in any order, so C(S) = sum over v of
    C(S+v) * (h(S)-1)!/h(S+v)!, with C(all) = 1.  This is the hook-length
    formula for forests (Knuth, TAOCP Vol. 3, 5.1.4) summed over vertex
    orders, whose incidence posets are forests.  Scaling by N!/h(S)!
    cancels the step weight: A(S) = (sum over v of A(S+v)) / h(S).
    Twins give the same A, so A(x) = (sum over i of (n_i - k_i) A(x + r_i))
    / h(x), and dividing by prod (n_j - k_j)! cancels the multiplicities:
    Ã(x) = (sum over free i of Ã(x + r_i)) / h(x), with Ã(full) = N!.  The
    division is exact: permuting the unplaced members of each class acts
    freely on the completions, so prod (n_j - k_j)! divides C(S).  States go
    in decreasing order, by :func:`_descending`.
    """
    placed = q.placed
    n = placed[-1]
    a = [0] * len(placed)
    a[-1] = math.factorial(n)
    low, high = _free_steps(q)
    size = len(low)
    for start, states, up in _descending(low, high):
        if not up:
            for x, steps in states:
                total = 0
                for r in steps:
                    total += a[x + r]
                a[x] = total // (n - placed[x])
            continue
        # A high step leads the whole block to a whole block above it, a
        # slice of the table: add those first, then the low steps per state.
        r, *others = up
        sums = a[start + r : start + r + size]
        for r in others:
            sums = list(map(operator.add, sums, a[start + r : start + r + size]))
        for (x, steps), total in zip(states, reversed(sums)):
            for r in steps:
                total += a[x + r]
            a[x] = total // (n - placed[x])
    return a


def count_dp(g: Graph, *, max_states: int = DEFAULT_DP_STATE_LIMIT) -> int:
    """Exact construction-sequence count by a sweep over the twin-class
    count vectors: Ã(0) * prod(n_j!), as h = N there.  ``max_states`` bounds
    the states, prod(n_i + 1); that is 2^p when no two vertices are twins,
    so the default admits any graph with p <= 24."""
    q = _quotient(g.p, g.edges, max_states=max_states, kernel=LIMITS["count_dp"])
    return _scaled_completions(q)[0] * q.scale


def count_based(g: Graph, base: int, *, max_states: int = DEFAULT_DP_STATE_LIMIT) -> int:
    """Count of sequences whose first element is the vertex ``base``: the
    :func:`count_dp` of the rest, the graph without ``base``, whose states
    ``max_states`` bounds.

    Once ``base`` is placed, an edge from it to w waits only for w, as a
    loop at w does, so the rest turns each such edge into a loop at w and
    shifts the labels above ``base`` down by one.  The L loops at ``base``
    wait for nothing and take any L of the N - 1 positions after it.  The
    kernel gets the rest's edges as they are, without a ``Graph`` built for
    them.
    """
    _check_base(base, g.p)
    shift = [0, *range(1, base), 0, *range(base, g.p)]
    edges = [(shift[u] or shift[w], shift[w] or shift[u]) for u, w in g.edges]
    rest = [e for e in edges if e[0]]
    q = _quotient(g.p - 1, rest, max_states=max_states, kernel=LIMITS["count_dp"])
    return _scaled_completions(q)[0] * q.scale * math.perm(g.element_count - 1, g.q - len(rest))


# ---------------------------------------------------------------------------
# Enumeration


def _iter_codes(
    g: Graph, keep: Callable[[int, list[int]], list[int]] | None = None
) -> Iterator[tuple[int, ...]]:
    """All valid sequences as element-code tuples, in lexicographic order.

    ``keep(placed, free)`` narrows the walk: given the bitmask of the codes
    placed so far and the placeable codes in increasing order, it returns
    the ones to try next, still in increasing order, so the output stays
    lexicographic.  The last element is the only one left and is placed
    without asking.  The depth-first walk keeps its own stack, one iterator
    of candidate codes per placed element, so any element count works; the
    public enumerators check their element limit before they walk.
    """
    n = g.element_count
    if n < 2:
        yield tuple(range(n))
        return
    need = g.endpoint_masks()
    # Code c may come next iff it is unplaced and its endpoints are placed,
    # that is iff (need[c] | bit c) & placed == need[c].
    want = [mask | 1 << c for c, mask in enumerate(need)]
    full = (1 << n) - 1
    prefix: list[int] = []
    placed = 0
    first = list(range(g.p))  # every sequence starts with a vertex
    stack = [iter(keep(0, first) if keep else first)]
    while stack:
        code = next(stack[-1], None)
        if code is None:
            stack.pop()
            if prefix:
                placed ^= 1 << prefix.pop()
        elif len(prefix) == n - 2:
            # The one element left is placeable after all the others.
            last = (full ^ placed ^ 1 << code).bit_length() - 1
            yield (*prefix, code, last)
        else:
            prefix.append(code)
            placed |= 1 << code
            free = [c for c in range(n) if want[c] & placed == need[c]]
            stack.append(iter(keep(placed, free) if keep else free))


def enumerate_csequences(
    g: Graph, *, element_limit: int = DEFAULT_ELEMENT_LIMIT
) -> Iterator[CSeq]:
    """Stream every construction sequence in lexicographic element order."""
    LIMITS["enumerators"].check(g.element_count, element_limit)
    return _from_codes(g, _iter_codes(g))


# ---------------------------------------------------------------------------
# Family closed forms and recursions


def star_count(n: int) -> int:
    """Count for the star with n peripheral vertices: 2^n * (n!)^2."""
    if n < 0:
        raise ValueError(f"star size must be >= 0, got {n}")
    LIMITS["star_formula"].check(n)
    return 2**n * math.factorial(n) ** 2


def star_count_recursive(n: int) -> int:
    """Same quantity by the last-edge recursion: f(n) = 2*n^2 * f(n-1).

    Removing the final edge and the leaf it exposes leaves a sequence for
    the next smaller star; the leaf can sit anywhere among the remaining
    2n slots and any of the n edges can be last.
    """
    LIMITS["star_recursion"].check(n)
    value = 1
    for k in range(1, n + 1):
        value *= 2 * k * k
    return value


def complete_count(n: int) -> int:
    """Count for the complete graph K_n:
    n! * prod over k = 1..n-1 of (N-k-C(k,2)-1)(N-k-C(k,2)-2)...(N-k-C(k,2)-k),
    with N = n + C(n,2).

    Every vertex of K_n looks the same, so only how many are placed
    matters: n! orders of the vertices, and once k of them and their C(k,2)
    edges are placed, the next vertex opens k edges that take any k of the
    other N - k - C(k,2) - 1 positions left.
    """
    LIMITS["complete"].check(n)
    total = n + math.comb(n, 2)
    factors = [math.factorial(n)]
    factors.extend(math.perm(total - k - math.comb(k, 2) - 1, k) for k in range(1, n))
    # Multiplying neighbours pairwise keeps the operands balanced, which
    # is much faster than growing one product a factor at a time.
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def path_count_recursive(n: int) -> int:
    """Count for the n-vertex path by splitting at the last-placed edge.

    f(1) = 1 and f(n) = sum over k of f(k) f(n-k) C(2n-2, 2k-1): the final
    edge splits the path into two subpaths whose sequences interleave freely
    in the remaining positions.
    """
    return _path_counts_recursive(n)[n]


def _path_counts_recursive(n_max: int) -> list[int]:
    """[0, f(1), ..., f(n_max)] by ``path_count_recursive``'s recursion."""
    LIMITS["path_recursion"].check(n_max)
    counts = [0, 1]
    for m in range(2, n_max + 1):
        counts.append(
            sum(
                counts[k] * counts[m - k] * math.comb(2 * m - 2, 2 * k - 1)
                for k in range(1, m)
            )
        )
    return counts


class ZigzagNumbers(NamedTuple):
    """Tangent and secant numbers; ``tangent[n]`` is defined for n >= 1
    (index 0 is a placeholder 0), ``secant[n]`` for n >= 0."""

    tangent: list[int]
    secant: list[int]


def zigzag_numbers(n_max: int) -> ZigzagNumbers:
    """Zigzag numbers by the boustrophedon (Seidel) triangle.

    The zigzag sequence a(k) counts up-down permutations of [k]; odd indices
    give the tangent numbers tangent[n] = a(2n-1) and even indices the
    secant numbers secant[n] = a(2n).
    """
    LIMITS["zigzag"].check(n_max)
    highest = 2 * n_max
    zigzag = [1]
    row = [1]
    for k in range(1, highest + 1):
        previous = row
        row = [0]
        for i in range(k):
            row.append(row[-1] + previous[k - 1 - i])
        zigzag.append(row[-1])
    tangent = [0] + [zigzag[2 * n - 1] for n in range(1, n_max + 1)]
    secant = [zigzag[2 * n] for n in range(0, n_max + 1)]
    return ZigzagNumbers(tangent, secant)


def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m with 2 <= m <= 200."""
    high = 2 * LIMITS["bernoulli"].value
    if m % 2 != 0 or not 2 <= m <= high:
        raise ValueError(f"supported range is even m with 2 <= m <= {high}, got {m}")
    return _bernoulli_numbers(m)[m]


def _bernoulli_numbers(m_max: int) -> list[Fraction]:
    """[B_0, ..., B_m_max] by the defining recurrence
    sum_{j<=m} C(m+1, j) B_j = 0, with the convention B_1 = -1/2
    (irrelevant to even indices beyond the shared recurrence)."""
    values = [Fraction(1)]
    for k in range(1, m_max + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * values[j]
        values.append(-acc / (k + 1))
    return values


def path_count_bernoulli(n: int) -> int:
    """Path count through Bernoulli numbers: (1/n) C(2^(2n), 2) |B_(2n)|,
    the cycle count over n.

    The division must come out exact; a remainder signals a bug.
    """
    return _path_counts_bernoulli(n)[n]


def _path_counts_bernoulli(n_max: int) -> list[int]:
    """[0, path count at 1, ..., at n_max] by ``path_count_bernoulli``."""
    counts = [0]
    for n, cycles in enumerate(_cycle_counts_bernoulli(n_max)[1:], 1):
        value = Fraction(cycles, n)
        if value.denominator != 1:
            raise ArithmeticError(f"path count for n={n} did not divide exactly: {value}")
        counts.append(value.numerator)
    return counts


def cycle_count_bernoulli(n: int) -> int:
    """Cycle count through Bernoulli numbers: C(2^(2n), 2) |B_(2n)|.

    Covers the one- and two-vertex multigraph cycles as well.
    """
    return _cycle_counts_bernoulli(n)[n]


def _cycle_counts_bernoulli(n_max: int) -> list[int]:
    """[0, cycle count at 1, ..., at n_max] by ``cycle_count_bernoulli``."""
    LIMITS["bernoulli"].check(n_max)
    bernoulli = _bernoulli_numbers(2 * n_max)
    counts = [0]
    for n in range(1, n_max + 1):
        value = Fraction(math.comb(2 ** (2 * n), 2)) * abs(bernoulli[2 * n])
        if value.denominator != 1:
            raise ArithmeticError(f"cycle count for n={n} did not divide exactly: {value}")
        counts.append(value.numerator)
    return counts


def tremolo_numbers(r_max: int) -> list[int]:
    """Tremolo numbers J_0..J_r_max (R. Street's alternating sequences that
    begin with 1 and end with 0).

    J_0 = 0, J_1 = 1, J_2 = 0, then J_r = sum_m C(r-1, m) J_m J_{r-1-m}.
    The even-indexed values vanish and J_{2n-1} equals the n-vertex path
    count.  J_0 = 0 is forced: taking J_0 = 1 would give J_4 = 4 != 0.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    values = [0, 1, 0]
    for r in range(3, r_max + 1):
        values.append(
            sum(
                math.comb(r - 1, m) * values[m] * values[r - 1 - m]
                for m in range(r)
            )
        )
    return values[: r_max + 1]


# ---------------------------------------------------------------------------
# Composition laws


def union_count(parts: Iterable[tuple[int, int]]) -> int:
    """Count for a disjoint union from per-part (count, element count) pairs.

    The parts' sequences shuffle freely: multiply the counts and the
    multinomial of the element counts.
    """
    return _shuffle_count(parts, 0, "union_count")


def wedge_count(parts: Iterable[tuple[int, int]]) -> int:
    """Based count at a wedge point from per-part (based count, element
    count) pairs.

    The shared base vertex is placed first; the remaining elements of each
    part (one fewer than its element count) shuffle freely, so the
    multinomial runs over the element counts minus one.
    """
    return _shuffle_count(parts, 1, "wedge_count")


def _shuffle_count(parts: Iterable[tuple[int, int]], shift: int, name: str) -> int:
    """The product of the counts and the multinomial of the element counts
    minus ``shift``, the elements placed before the parts shuffle."""
    parts = list(parts)
    if not parts:
        raise ValueError(f"{name} needs at least one part")
    if any(length < 1 for _, length in parts):
        raise ValueError("part element counts must be >= 1")
    value = math.factorial(sum(length - shift for _, length in parts))
    for count, length in parts:
        value = value // math.factorial(length - shift) * count
    return value
