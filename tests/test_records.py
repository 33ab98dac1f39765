"""The package's value types: construction, equality, hashing, repr,
immutability and copies, as each type printed and behaved when it was a
frozen dataclass."""
import copy
import pickle
from fractions import Fraction

import pytest

import buildseq as b
from buildseq import CSeq, Element, Graph, TimeAssignment
from buildseq.sequences import ComponentProfile, Violation

G = Graph(2, ((2, 1),))
V1, V2, E1 = Element("v", 1), Element("v", 2), Element("e", 1)
X = CSeq(G, (V1, V2, E1))
X_TEXT = (
    "CSeq(graph=Graph(p=2, edges=((1, 2),), multigraph=False), "
    "elements=(Element(kind='v', index=1), Element(kind='v', index=2), Element(kind='e', index=1)))"
)

# Per type: its fields in order, the defaults of the trailing ones, its repr,
# and the fields of an unequal value.
CASES = {
    "Element": (Element, {"kind": "v", "index": 1}, {}, "Element(kind='v', index=1)", {"kind": "e", "index": 1}),
    "Graph": (
        Graph,
        {"p": 2, "edges": ((1, 2),), "multigraph": False},
        {"edges": (), "multigraph": False},
        "Graph(p=2, edges=((1, 2),), multigraph=False)",
        {"p": 2, "edges": ((1, 2),), "multigraph": True},
    ),
    "Poset": (
        b.Poset,
        {"n": 3, "covers": ((0, 1), (1, 2))},
        {"covers": ()},
        "Poset(n=3, covers=((0, 1), (1, 2)))",
        {"n": 3, "covers": ((1, 2), (0, 1))},
    ),
    "Violation": (
        Violation,
        {"kind": "edge-before-endpoint", "message": "m", "edge": 1, "vertex": 2},
        {"edge": None, "vertex": None},
        "Violation(kind='edge-before-endpoint', message='m', edge=1, vertex=2)",
        {"kind": "edge-before-endpoint", "message": "m", "edge": 1, "vertex": 1},
    ),
    "CSeq": (CSeq, {"graph": G, "elements": (V1, V2, E1)}, {}, X_TEXT, {"graph": G, "elements": (V2, V1, E1)}),
    "ComponentProfile": (
        ComponentProfile,
        {"counts": (1, 2, 1)},
        {},
        "ComponentProfile(counts=(1, 2, 1))",
        {"counts": (1, 1)},
    ),
    "TimeAssignment": (
        TimeAssignment,
        {"graph": G, "times": {V1: Fraction(0), V2: Fraction(1, 2), E1: Fraction(1)}},
        {},
        "TimeAssignment(graph=Graph(p=2, edges=((1, 2),), multigraph=False), times={Element(kind='v', index=1): "
        "Fraction(0, 1), Element(kind='v', index=2): Fraction(1, 2), Element(kind='e', index=1): Fraction(1, 1)})",
        {"graph": G, "times": {V1: Fraction(0), V2: Fraction(1, 3), E1: Fraction(1)}},
    ),
    "TieBreak": (
        b.TieBreak,
        {"policy": "lexicographic", "seed": 0},
        {"policy": "lexicographic", "seed": 0},
        "TieBreak(policy='lexicographic', seed=0)",
        {"policy": "lexicographic", "seed": 1},
    ),
    "OptResult": (
        b.OptResult,
        {"min_cost": 3, "num_optimal": 1, "witnesses": (X,)},
        {"witnesses": ()},
        f"OptResult(min_cost=3, num_optimal=1, witnesses=({X_TEXT},))",
        {"min_cost": 3, "num_optimal": 2, "witnesses": (X,)},
    ),
    "ConjectureReport": (
        b.ConjectureReport,
        {"holds": False, "policy": "exhaustive", "num_min_cost": 1, "num_greedy": 0, "counterexamples": (X,)},
        {},
        f"ConjectureReport(holds=False, policy='exhaustive', num_min_cost=1, num_greedy=0, counterexamples=({X_TEXT},))",
        {"holds": True, "policy": "exhaustive", "num_min_cost": 1, "num_greedy": 1, "counterexamples": ()},
    ),
    "Family": (
        b.Family,
        {"kind": "explicit", "params": (G,)},
        {"params": ()},
        "Family(kind='explicit', params=(Graph(p=2, edges=((1, 2),), multigraph=False),))",
        {"kind": "explicit", "params": ()},
    ),
}


@pytest.mark.parametrize("name", CASES)
class TestRecord:
    def test_construction_and_defaults(self, name):
        cls, fields, defaults, _, _ = CASES[name]
        x = cls(*fields.values())
        assert x == cls(**fields)
        assert {field: getattr(x, field) for field in fields} == fields
        required = {field: value for field, value in fields.items() if field not in defaults}
        assert {field: getattr(cls(**required), field) for field in defaults} == defaults
        with pytest.raises(TypeError):
            cls(*fields.values(), None)

    def test_equality_and_hash_see_only_the_fields(self, name):
        cls, fields, _, _, other = CASES[name]
        x, y = cls(**fields), cls(**fields)
        assert x == y and x is not y and not x != y
        assert x != cls(**other)
        assert x != tuple(fields.values())
        if name == "TimeAssignment":  # its times are a dict
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(x)
        else:
            assert hash(x) == hash(y) and len({x, y, cls(**other)}) == 2

    def test_repr(self, name):
        cls, fields, _, text, _ = CASES[name]
        assert repr(cls(**fields)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        cls, fields, _, _, _ = CASES[name]
        x = cls(**fields)
        for field in (*fields, "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
                setattr(x, field, None)
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(x, field)
        assert {field: getattr(x, field) for field in fields} == fields

    def test_copies_and_pickles_are_equal(self, name):
        cls, fields, _, text, _ = CASES[name]
        x = cls(**fields)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is cls and twin == x and repr(twin) == text


def test_element_comparisons():
    v2, e1 = Element.vertex(2), Element.edge(1)
    assert v2 < e1 and v2 <= e1 and e1 > v2 and e1 >= v2
    assert v2 <= Element("v", 2) and v2 >= Element("v", 2)
    assert not (e1 < v2 or e1 <= v2 or v2 > e1 or v2 >= e1)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(v2, compare)(2) is NotImplemented


def test_cseq_positions_are_kept_after_the_first_call():
    x = CSeq(G, (V2, V1, E1))
    assert x.position(V1) == 2
    assert [x.position(el) for el in (V1, V2, E1)] == [2, 1, 3]
    assert b.total_cost(x) == 3
    # The kept positions take no part in equality, hashing or copies.
    fresh = CSeq(G, (V2, V1, E1))
    assert x == fresh and hash(x) == hash(fresh)
    assert pickle.loads(pickle.dumps(x)).position(E1) == 3
