import importlib
import subprocess
import sys

import pytest

import cobwebs
from conftest import cli_env

# the package's names: the API and its six submodules
ALL = [
    "AdjacencyMatrix", "BinaryRelation", "ChainFerrersResult", "CobwebPoset", "FSequence",
    "FiniteSet", "GradedDigraph", "NaryRelation", "PermSubmatrixWitness", "Poset",
    "Realizer", "RelationChain", "StaircaseProfile", "bool_product",
    "boolmat", "build_cobweb", "chain_is_ferrers", "closure_series",
    "cobweb", "compose_relations", "count_paths", "delete_arcs", "digraph", "direct_sum",
    "embed_biadjacency", "ferrers", "fibonacci_tree", "fseq",
    "global_adjacency", "has_perm2x2", "hasse_matrix", "identity", "is_ferrers",
    "is_join_decomposable", "is_transitive_irreducible", "join_size", "leq", "level_size",
    "level_sizes", "njoin", "njoin_adjacency", "njoin_digraphs",
    "njoin_fold", "njoin_graded", "njoin_relations", "ones_matrix", "project_chain",
    "realizer", "reduced_composition", "staircase_profile", "strict_order_is_ferrers",
    "to_dot", "to_text", "transitive_closure", "transitive_reduction", "verify_dim2",
    "zeta_matrix",
]
SUBMODULES = ("boolmat", "cobweb", "digraph", "ferrers", "fseq", "njoin")

LOADED = """
import sys
import cobwebs
print(sorted(m for m in sys.modules if m.startswith(("cobwebs", "numpy"))))
cobwebs.FSequence
print(sorted(m for m in sys.modules if m.startswith(("cobwebs", "numpy"))))
"""


def test_import_loads_no_submodule_and_no_numpy():
    proc = subprocess.run([sys.executable, "-c", LOADED], env=cli_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["['cobwebs']", "['cobwebs', 'cobwebs.fseq']"]


def test_all_is_unchanged():
    assert len(ALL) == 57
    assert cobwebs.__all__ == ALL


def test_names_are_the_submodules_objects():
    for name in ALL:
        value = getattr(cobwebs, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"cobwebs.{name}")
        else:
            assert value.__module__.startswith("cobwebs.")
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(ALL) <= set(dir(cobwebs))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cobwebs import *", namespace)
    assert all(namespace[name] is getattr(cobwebs, name) for name in ALL)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cobwebs.no_such_name
    from cobwebs import cli  # not exported, so it is imported as a submodule

    assert cli.__name__ == "cobwebs.cli"


def test_names_follow_their_submodule_bindings(monkeypatch):
    from cobwebs import cobweb

    original = cobweb.build_cobweb

    def double(*args):
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(cobweb, "build_cobweb", double)
        assert cobwebs.build_cobweb is double
    assert cobwebs.build_cobweb is original
