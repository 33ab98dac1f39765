"""Exact toolkit for graph construction sequences.

A construction sequence lists a graph's vertices and edges in an order
where every edge follows both of its endpoints.  This package counts,
enumerates, and validates such sequences, optimizes their edge-delay cost,
generalizes the counting to arbitrary finite posets, and compares graphs by
relative constructability.  All arithmetic is exact.

Each module declares its public names in its ``__all__``; the package
republishes them all.
"""
from .errors import *
from .graphs import *
from .posets import *
from .sequences import *
from .counting import *
from .optimize import *
from .families import *
from . import counting, errors, families, graphs, optimize, posets, sequences

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *graphs.__all__,
    *posets.__all__,
    *sequences.__all__,
    *counting.__all__,
    *optimize.__all__,
    *families.__all__,
]
