"""Finite posets given by cover relations, with exact linear-extension counting.

A linear extension is a total order on the elements in which every element
is preceded by everything below it in the partial order.  Counting sweeps
forward by size over the downsets D of the non-maximal ("core") elements,
keeping two levels.  A maximal element blocks nothing, so it floats: once
its lower covers are placed it may take any later position, and no state
records it.  Each D maps to the number of ways to build it, to its addable
core elements (the minimal elements of its complement in the core) and to
a(D), the number of maximal elements whose lower covers all lie in D.  A
step D -> D+x that makes d maximal elements available multiplies the count
by perm(h(D) - 1, d), where h(D) = n - |D| - a(D).  ``max_states`` bounds
the states stored, one per core downset, as in the subset kernels.  A
level of one D with one addable core element is a forced run, as in Kahn's
algorithm: the sweep steps it by element index, and builds no level table
and no n-bit mask until a step leaves several addable elements.

A :class:`Poset` validates its covers on a cover index built in one pass,
upper-cover lists and lower-cover masks, and keeps it for the sweep.

Elements are 0..n-1.  The convention throughout is that smaller poset
elements appear *earlier* in an extension; no reversed reading is supported.
"""
from __future__ import annotations

import math
import operator
from typing import Hashable, Iterable, Sequence

from .errors import LIMITS, _permutation, _Record

__all__ = [
    "Poset",
    "count_linear_extensions",
    "poset_from_hypergraph",
    "poset_from_faces",
    "relabel_poset",
    "parse_poset",
    "format_poset",
    "DEFAULT_STATE_LIMIT",
]

DEFAULT_STATE_LIMIT = LIMITS["poset_sweep"].value


class Poset(_Record):
    """A finite order on elements 0..n-1 described by its cover pairs.

    Construction validates that the cover relation is acyclic and
    irredundant (no cover pair already implied by a longer chain), on the
    cover index that the poset then keeps.
    """

    _fields = ("n", "covers")
    __slots__ = (*_fields, "_index")

    def __init__(self, n: int, covers: tuple[tuple[int, int], ...] = ()) -> None:
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"element count must be >= 0, got {n}")
        covers = tuple((operator.index(lo), operator.index(hi)) for lo, hi in covers)
        above: list[list[int]] = [[] for _ in range(n)]
        below = [0] * n
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ValueError(f"cover ({lo},{hi}) out of range for n={n}")
            if lo == hi:
                raise ValueError(f"cover ({lo},{hi}) relates an element to itself")
            if below[hi] >> lo & 1:
                raise ValueError(f"duplicate cover ({lo},{hi})")
            below[hi] |= 1 << lo
            above[lo].append(hi)
        # Kahn's check: an element joins the order once its lower covers have.
        indeg = [mask.bit_count() for mask in below]
        order = [x for x in range(n) if not below[x]]
        for x in order:
            for y in above[x]:
                indeg[y] -= 1
                if not indeg[y]:
                    order.append(y)
        if len(order) != n:
            raise ValueError("cover relation contains a cycle")
        # A cover (lo, hi) is redundant when hi also lies two or more covers
        # above lo, which takes two upper covers of lo: one walk per such lo.
        redundant = set()
        for lo, ups in enumerate(above):
            if len(ups) < 2:
                continue
            stack = [z for y in ups for z in above[y]]
            visited = set(stack)
            while stack:
                for y in above[stack.pop()]:
                    if y not in visited:
                        visited.add(y)
                        stack.append(y)
            redundant.update((lo, hi) for hi in ups if hi in visited)
        if redundant:
            lo, hi = next(cover for cover in covers if cover in redundant)
            raise ValueError(f"cover ({lo},{hi}) is implied by transitivity and must be omitted")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "_index", (above, below))

    def upper_adjacency(self) -> list[list[int]]:
        """Immediate successors of each element."""
        return [list(ups) for ups in self._index[0]]


def count_linear_extensions(poset: Poset, *, max_states: int = DEFAULT_STATE_LIMIT) -> int:
    """Exact number of linear extensions of ``poset``, by the level sweep
    over the core downsets D of the module docstring.

    Adding a core element x to D keeps D's other addable elements, adds each
    core upper cover of x whose lower covers all lie in D+x, and makes each
    such maximal one available, d of them.  x precedes every other element
    neither placed nor available, so it takes the first of their h(D) free
    positions, and its d maximal elements any d of the other h(D) - 1, in
    perm(h(D) - 1, d) ways.  The isolated elements start the count at
    perm(n, isolated), and it ends at the one D that is the whole core.

    While a level holds one D with one addable core element x, each step is
    forced, and the run keeps x's index, not D's masks.  An upper cover y
    first reached from x has its other unplaced lower covers outside the
    run's starting D, so one mask operation counts them; each later step to
    a lower cover of y decrements the count, and y is addable, or available
    if maximal, at zero.  The run ends when a step leaves several addable
    elements, and builds D's masks once, or when it completes the core.
    Each forced state is stored and checked as any other.

    ``max_states`` bounds the states stored, one per core downset, the empty
    one included.  Raises :class:`ResourceLimitError` at the first D past
    ``max_states``, or earlier, as soon as some D has c addable core elements
    with 2^c > ``max_states``: D plus any subset of them is a core downset,
    so the limit would be hit.
    """
    max_states = operator.index(max_states)
    n, (above, below) = poset.n, poset._index
    cores, minimal, isolated = 0, [], 0
    for x, ups in enumerate(above):
        if ups:
            cores += 1
            if not below[x]:
                minimal.append(x)
        elif not below[x]:
            isolated += 1
    stored = 1
    LIMITS["poset_sweep"].check(1 << len(minimal), max_states)
    level = {0: [math.perm(n, isolated), _mask(minimal, n), isolated]}
    size = 0
    while size < cores:
        if len(level) == 1:
            (downset, (count, mask, avail)), = level.items()
            if not mask & (mask - 1):  # one addable core element: a forced run
                x, placed, waiting = mask.bit_length() - 1, [], {}
                while True:
                    placed.append(x)
                    opened, ready = 0, []
                    for y in above[x]:
                        # waiting holds no zeros, so ``or`` falls back on a first reach
                        left = waiting.get(y) or below[y].bit_count() - (below[y] & downset).bit_count()
                        left -= 1
                        if left:
                            waiting[y] = left
                        elif above[y]:
                            ready.append(y)
                        else:
                            opened += 1
                    if opened:
                        count *= math.perm(n - size - avail - 1, opened)
                        avail += opened
                    size += 1
                    stored += 1
                    if len(ready) == 1:  # 2^1 <= stored, so one check covers both
                        if stored > max_states:
                            raise LIMITS["poset_sweep"].error(stored, max_states)
                        x = ready[0]
                        continue
                    if stored > max_states or 1 << len(ready) > max_states:
                        raise LIMITS["poset_sweep"].error(stored, max_states)
                    break
                if size == cores:  # no masks to build for the whole core
                    return count
                level = {downset | _mask(placed, n): [count, _mask(ready, n), avail]}
                continue
        grown_level: dict[int, list[int]] = {}
        for downset, (count, mask, avail) in level.items():
            free = n - size - avail - 1  # h(D) - 1
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                grown = downset | bit
                entry = grown_level.get(grown)
                if entry is None:
                    grown_mask = mask ^ bit
                    grown_avail = avail
                    for y in above[bit.bit_length() - 1]:
                        if not below[y] & ~grown:
                            if above[y]:
                                grown_mask |= 1 << y
                            else:
                                grown_avail += 1
                    stored += 1
                    if stored > max_states or 1 << grown_mask.bit_count() > max_states:
                        raise LIMITS["poset_sweep"].error(stored, max_states)
                    entry = grown_level[grown] = [0, grown_mask, grown_avail]
                opened = entry[2] - avail
                entry[0] += count * math.perm(free, opened) if opened else count
        level = grown_level
        size += 1
    (count, _, _), = level.values()
    return count


def _mask(elements: Iterable[int], n: int) -> int:
    """The bit mask of ``elements``, all below ``n``, packed in a bytearray:
    O(n) in all, where summing 1 << x costs O(x) per element."""
    bits = bytearray(n // 8 + 1)
    for x in elements:
        bits[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(bits, "little")


def poset_from_hypergraph(p: int, hyperedges: Sequence[Iterable[int]]) -> Poset:
    """Two-layer poset of a hypergraph: vertices minimal, each hyperedge above
    exactly its members.

    Vertices are labeled 1..p on input and become elements 0..p-1; the i-th
    hyperedge becomes element p+i.  Repeated members within one hyperedge
    collapse, so a loop contributes a single cover.
    """
    if p < 0:
        raise ValueError(f"vertex count must be >= 0, got {p}")
    covers: list[tuple[int, int]] = []
    for i, members in enumerate(hyperedges):
        distinct = sorted(set(members))
        if not distinct:
            raise ValueError(f"hyperedge {i + 1} is empty")
        for v in distinct:
            if not 1 <= v <= p:
                raise ValueError(f"hyperedge {i + 1} member {v} outside 1..{p}")
            covers.append((v - 1, p + i))
    return Poset(p + len(hyperedges), tuple(covers))


def poset_from_faces(faces: Sequence[tuple[Hashable, Iterable[int]]]) -> Poset:
    """Face poset of a complex, ordered by strict containment of vertex sets.

    ``faces`` lists (face id, member vertices); vertices themselves must be
    present as singleton faces.  The i-th face becomes element i, and covers
    are the immediate strict containments, sorted.  Faces with identical
    vertex sets (parallel cells) are allowed and stay incomparable.  The
    faces below b are found among those filed under b's vertices, one vertex
    per face, and b covers each that no other of them contains.
    """
    ids = [fid for fid, _ in faces]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate face ids")
    vertex_sets: list[frozenset[int]] = []
    for fid, members in faces:
        fs = frozenset(members)
        if not fs:
            raise ValueError(f"face {fid!r} has no vertices")
        vertex_sets.append(fs)
    present = set(vertex_sets)
    for fid, fs in zip(ids, vertex_sets):
        for v in fs:
            if frozenset([v]) not in present:
                raise ValueError(
                    f"face {fid!r} uses vertex {v} but the singleton face is missing"
                )
    filed: dict[int, list[int]] = {}
    for a, fs in enumerate(vertex_sets):
        filed.setdefault(next(iter(fs)), []).append(a)
    covers = []
    for b, fs in enumerate(vertex_sets):
        below = [a for v in fs for a in filed.get(v, ()) if vertex_sets[a] < fs]
        covers += [(a, b) for a in below if not any(vertex_sets[a] < vertex_sets[c] for c in below)]
    return Poset(len(faces), tuple(sorted(covers)))


def relabel_poset(poset: Poset, perm: Sequence[int]) -> Poset:
    """Isomorphic copy with element x renamed to perm[x]."""
    perm = _permutation(perm, 0, poset.n - 1, "perm is not a permutation of 0..n-1")
    return Poset(poset.n, tuple((perm[lo], perm[hi]) for lo, hi in poset.covers))


def parse_poset(text: str) -> Poset:
    """Read the poset text format: first line ``n``, then one ``l u`` cover
    pair per line, 0-based.  ``#`` starts a comment line."""
    lines = _text_lines(text, "poset")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the element count, got {lines[0]!r}") from None
    covers = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"cover line must be 'l u', got {line!r}")
        covers.append((int(parts[0]), int(parts[1])))
    return Poset(n, tuple(covers))


def _text_lines(text: str, what: str) -> list[str]:
    """The stripped lines of a text format, blank and ``#`` lines dropped;
    none left is an ``empty <what> description``."""
    lines = [line for raw in text.splitlines() if (line := raw.strip()) and line[0] != "#"]
    if not lines:
        raise ValueError(f"empty {what} description")
    return lines


def format_poset(poset: Poset) -> str:
    lines = [str(poset.n)]
    lines.extend(f"{lo} {hi}" for lo, hi in poset.covers)
    return "\n".join(lines) + "\n"
