"""Counting routes for construction sequences.

Several independent routes compute the same quantities so they can check
one another:

* a permutation-filter oracle that tries every ordering of the elements,
* a dynamic program over placed vertex subsets, A(S) = sum A(S+v) / h(S),
* closed forms and recursions for paths, stars, and cycles,
* composition laws for disjoint unions and wedges, and
* the integer-sequence helpers behind the closed forms (zigzag numbers via
  the boustrophedon triangle, Bernoulli numbers, tremolo numbers).

All counts are exact Python integers: the DP's A(S) is the count scaled by
N!/h(S)!, which makes its divisions exact, and the Bernoulli route asserts
that its final division is.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import check_limit, check_subset_limits
from .graphs import Graph
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

DEFAULT_ELEMENT_LIMIT = 11
DEFAULT_DP_STATE_LIMIT = 1 << 24
# Largest n of the Bernoulli forms for paths and cycles, which need B_2n.
# B_200 takes about 0.1 s, and no subset sweep reaches 100 vertices.
_BERNOULLI_MAX_N = 100
# Largest n of the path and star recursions and of the zigzag triangle:
# each takes about a second there, and its time grows faster than n^2.
_PATH_RECURSION_MAX_N = 350
_STAR_RECURSION_MAX_N = 30_000
_ZIGZAG_MAX_N = 800


# ---------------------------------------------------------------------------
# Oracle and dynamic program


def count_bruteforce(
    g: Graph, *, base: int | None = None, element_limit: int = DEFAULT_ELEMENT_LIMIT
) -> int:
    """Ground-truth oracle: run through all (p+q)! orderings of the elements
    and count the ones where every edge follows both endpoints.  With
    ``base``, only the orderings that start with that vertex."""
    if base is not None and not 1 <= base <= g.p:
        raise ValueError(f"base vertex {base} outside 1..{g.p}")
    total_elements = g.element_count
    check_limit(total_elements, "elements", element_limit, "brute-force")
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


def _subset_edge_counts(g: Graph, *, max_states: int, kernel: str) -> list[int]:
    """e[S] for every vertex subset S (bit v-1 stands for vertex v): the
    number of edge records with all endpoints in S, so loops and parallel
    edges count with multiplicity.

    Splitting off the highest vertex v of S leaves R = S - v, and
    e[S] = e[R] + loops(v) + sum over j of popcount(layer_j(v) & R), where
    layer_j(v) holds the lower neighbours joined to v by at least j edges.
    The subsets whose highest vertex is v are 2^v..2^(v+1)-1, so their
    entries form one column computed from the 2^v entries before it.

    ``max_states`` bounds 2^p and is checked before the table is allocated;
    ``kernel`` names the caller in the error message.
    """
    p = g.p
    check_subset_limits(p, max_states, kernel)
    loops = [0] * p
    layers: list[list[int]] = [[] for _ in range(p)]
    for (u, w), k in Counter(g.edges).items():  # u <= w: edges are normalized
        if u == w:
            loops[w - 1] = k
            continue
        rows = layers[w - 1]
        rows.extend([0] * (k - len(rows)))
        for j in range(k):
            rows[j] |= 1 << (u - 1)
    e = [0]
    for v in range(p):
        column = [x + loops[v] for x in e]
        for layer in layers[v]:
            column = [x + (layer & rest).bit_count() for rest, x in enumerate(column)]
        e += column
    return e


def _completions(g: Graph, e: list[int], base: int) -> list[int]:
    """A(S) = C(S) * N!/h(S)! for every vertex subset S containing ``base``.

    C(S) counts the ways to finish a build that has placed the vertices of S
    and their e(S) edges; h(S) = N - |S| - e(S) elements are left (N = p+q).
    The next is a vertex v outside S, and the d = e(S+v) - e(S) edges it
    opens take any d of the other h(S) - 1 positions in any order, so
    C(S) = sum over v of C(S+v) * (h(S)-1)!/h(S+v)!, with C(all) = 1.  This
    is the hook-length formula for forests (Knuth, TAOCP Vol. 3, 5.1.4)
    summed over vertex orders, whose incidence posets are forests: the count
    is N! times the sum over vertex orders of the product of 1/h(S_k).
    Scaling by N!/h(S)! cancels the step weight: A(S) = (sum over v of
    A(S+v)) / h(S), with A(all) = N!, exact since N!/h(S)! is an integer,
    and h(S) >= 1 for every proper S.  Subsets go in decreasing order.
    """
    n = g.element_count
    full = (1 << g.p) - 1
    free_part = full ^ base
    a = [0] * (full + 1)
    a[full] = math.factorial(n)
    sub = free_part
    while sub:
        sub = (sub - 1) & free_part
        s = sub | base
        total = 0
        free = full ^ s
        while free:
            bit = free & -free
            free ^= bit
            total += a[s | bit]
        a[s] = total // (n - s.bit_count() - e[s])
    return a


def count_dp(g: Graph, *, max_states: int = DEFAULT_DP_STATE_LIMIT) -> int:
    """Exact construction-sequence count by a sweep over the 2^p vertex
    subsets: A(empty set), as h = N there.  ``max_states`` bounds 2^p, the
    table size, so the default admits p <= 24."""
    e = _subset_edge_counts(g, max_states=max_states, kernel="count DP")
    return _completions(g, e, 0)[0]


def count_based(g: Graph, base: int, *, max_states: int = DEFAULT_DP_STATE_LIMIT) -> int:
    """Count of sequences whose first element is the vertex ``base``, by
    the sweep of :func:`count_dp` under the same ``max_states`` bound on 2^p.

    The elements after ``base``, other than its loops, follow in C({base})
    orders, and the loops at ``base`` take any of the N - 1 later positions:
    C({base}) * (N-1)!/h({base})!, which is A({base}) / N.
    """
    if not 1 <= base <= g.p:
        raise ValueError(f"base vertex {base} outside 1..{g.p}")
    e = _subset_edge_counts(g, max_states=max_states, kernel="count DP")
    bit = 1 << (base - 1)
    return _completions(g, e, bit)[bit] // g.element_count


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
    check_limit(g.element_count, "elements", element_limit, "enumeration")
    return _from_codes(g, _iter_codes(g))


# ---------------------------------------------------------------------------
# Family closed forms and recursions


def star_count(n: int) -> int:
    """Count for the star with n peripheral vertices: 2^n * (n!)^2."""
    if n < 0:
        raise ValueError(f"star size must be >= 0, got {n}")
    return 2**n * math.factorial(n) ** 2


def star_count_recursive(n: int) -> int:
    """Same quantity by the last-edge recursion: f(n) = 2*n^2 * f(n-1).

    Removing the final edge and the leaf it exposes leaves a sequence for
    the next smaller star; the leaf can sit anywhere among the remaining
    2n slots and any of the n edges can be last.
    """
    if n < 0:
        raise ValueError(f"star size must be >= 0, got {n}")
    _check_range("n", n, 0, _STAR_RECURSION_MAX_N)
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
    if n < 1:
        raise ValueError(f"complete graph size must be >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"path size must be >= 1, got {n}")
    _check_range("n", n, 1, _PATH_RECURSION_MAX_N)
    counts = [0, 1]
    for m in range(2, n + 1):
        counts.append(
            sum(
                counts[k] * counts[m - k] * math.comb(2 * m - 2, 2 * k - 1)
                for k in range(1, m)
            )
        )
    return counts[n]


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
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_range("n_max", n_max, 1, _ZIGZAG_MAX_N)
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
    """Exact Bernoulli number B_m for even m with 2 <= m <= 200.

    Uses the defining recurrence sum_{j<=m} C(m+1, j) B_j = 0 with the
    convention B_1 = -1/2 (irrelevant to even indices beyond the shared
    recurrence).
    """
    if m % 2 != 0 or not 2 <= m <= 2 * _BERNOULLI_MAX_N:
        raise ValueError(
            f"supported range is even m with 2 <= m <= {2 * _BERNOULLI_MAX_N}, got {m}"
        )
    values = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * values[j]
        values.append(-acc / (k + 1))
    return values[m]


def path_count_bernoulli(n: int) -> int:
    """Path count through Bernoulli numbers: (1/n) C(2^(2n), 2) |B_(2n)|,
    the cycle count over n.

    The division must come out exact; a remainder signals a bug.
    """
    value = Fraction(cycle_count_bernoulli(n), n)
    if value.denominator != 1:
        raise ArithmeticError(f"path count for n={n} did not divide exactly: {value}")
    return value.numerator


def cycle_count_bernoulli(n: int) -> int:
    """Cycle count through Bernoulli numbers: C(2^(2n), 2) |B_(2n)|.

    Covers the one- and two-vertex multigraph cycles as well.
    """
    _check_range("n", n, 1, _BERNOULLI_MAX_N)
    value = Fraction(math.comb(2 ** (2 * n), 2)) * abs(bernoulli_number(2 * n))
    if value.denominator != 1:
        raise ArithmeticError(f"cycle count for n={n} did not divide exactly: {value}")
    return value.numerator


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"supported range is {low} <= {name} <= {high}, got {value}")


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
