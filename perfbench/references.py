"""Pinned reference values for inputs whose independent check is too slow
to run inside every benchmark run.

Each value in ``references.json`` was computed by a route that shares no
code with the package's counting:

* family averages: members generated here (Prufer decoding, edge-subset
  combinations) and counted by the vertex-subset DP in :mod:`checker`;
* face-poset counts: the forward downset DP in :mod:`checker`.

Run ``python3 perfbench/references.py`` to recompute every value and
compare it with the file.
"""
from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import checker

PATH = Path(__file__).with_name("references.json")

# Families whose averages are pinned: every family of the family-sweep
# workload and of the cli-small workload's ``xi`` requests.
FAMILIES = (
    ["trees:4", "trees:5", "trees:6"]
    + [f"graphs:4:{q}" for q in (1, 2, 3)]
    + [f"graphs:5:{q}" for q in range(11)]
    + [f"graphs:6:{q}" for q in (0, 1, 2, 3, 11, 12, 13, 14, 15)]
)


def _complex(triangles, extra_edges=()):
    """Faces of a 2-complex: its vertices, edges and triangles."""
    vertices = sorted({v for t in triangles for v in t} | {v for e in extra_edges for v in e})
    edges = sorted(
        {tuple(sorted(e)) for t in triangles for e in itertools.combinations(sorted(t), 2)}
        | {tuple(sorted(e)) for e in extra_edges}
    )
    return [[v] for v in vertices] + [list(e) for e in edges] + [sorted(t) for t in triangles]


COMPLEXES = {
    "triangle": _complex([(1, 2, 3)]),
    "square": _complex([(1, 2, 3), (1, 3, 4)]),
    "bowtie": _complex([(1, 2, 3), (1, 4, 5)]),
    "tetrahedron": _complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
    "strip": _complex([(1, 2, 3), (2, 3, 4), (3, 4, 5)]),
    "kite": _complex([(1, 2, 3), (1, 3, 4)], [(4, 5), (1, 5)]),
    "fan4": _complex([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)]),
    "fan5": _complex([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 7)]),
}


def family_members(label: str):
    """(p, edges) for every member of ``trees:<n>`` or ``graphs:<p>:<q>``."""
    parts = label.split(":")
    if parts[0] == "trees":
        n = int(parts[1])
        for word in itertools.product(range(1, n + 1), repeat=n - 2):
            yield n, checker.prufer_tree(n, word)
    else:
        p, q = int(parts[1]), int(parts[2])
        for chosen in itertools.combinations(itertools.combinations(range(1, p + 1), 2), q):
            yield p, list(chosen)


def family_average(label: str) -> Fraction:
    counts = [checker.SubsetTables(p, edges).total_count() for p, edges in family_members(label)]
    return Fraction(sum(counts), len(counts))


def face_poset_count(faces) -> int:
    """Linear extensions of the strict-containment order on the faces."""
    sets = [frozenset(f) for f in faces]
    covers = [
        (a, b)
        for a, sa in enumerate(sets)
        for b, sb in enumerate(sets)
        if sa < sb and not any(sa < sc < sb for sc in sets)
    ]
    return checker.linear_extensions(len(sets), covers)


def compute() -> dict:
    return {
        "family_average": {label: str(family_average(label)) for label in FAMILIES},
        "face_poset": {name: str(face_poset_count(f)) for name, f in COMPLEXES.items()},
    }


def load(path: Path = PATH) -> dict:
    """The pinned values as exact numbers."""
    raw = json.loads(path.read_text())
    return {
        "family_average": {k: Fraction(v) for k, v in raw["family_average"].items()},
        "face_poset": {k: int(v) for k, v in raw["face_poset"].items()},
    }


def main() -> int:
    pinned = json.loads(PATH.read_text())
    if pinned != compute():
        print("references.json differs from the recomputed values", file=sys.stderr)
        return 1
    print("references.json matches the recomputed values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
