"""The package republishes the public names of its modules, each once."""
import buildseq
from buildseq import counting, errors, families, graphs, optimize, posets, sequences

MODULES = (errors, graphs, posets, sequences, counting, optimize, families)


def test_each_public_name_is_declared_once():
    names = buildseq.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(buildseq, name) is getattr(module, name)


def test_the_limits_are_package_attributes():
    assert buildseq.DEFAULT_ELEMENT_LIMIT == 11
    assert buildseq.DEFAULT_GREEDY_VERTEX_LIMIT == 8
    assert buildseq.DEFAULT_DP_STATE_LIMIT == 1 << 24
    assert buildseq.DEFAULT_OPT_STATE_LIMIT == 1 << 22
    assert buildseq.DEFAULT_STATE_LIMIT == 1 << 18
    assert buildseq.MAX_FAMILY_SIZE == 1_000_000
    assert buildseq.POLICIES == ("lexicographic", "cycle-avoiding", "seeded-random")
