"""Cobweb posets, KoDAG Hasse digraphs, and natural joins of relations.

The names below load on first use (PEP 562): ``import cobwebs`` imports
no submodule, and so not numpy, until one of them is read.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "boolmat": (
        "bool_product",
        "closure_series",
        "direct_sum",
        "identity",
        "ones_matrix",
        "to_text",
    ),
    "cobweb": (
        "CobwebPoset",
        "Realizer",
        "build_cobweb",
        "count_paths",
        "delete_arcs",
        "fibonacci_tree",
        "hasse_matrix",
        "leq",
        "realizer",
        "verify_dim2",
        "zeta_matrix",
    ),
    "digraph": (
        "GradedDigraph",
        "Poset",
        "global_adjacency",
        "is_transitive_irreducible",
        "to_dot",
        "transitive_closure",
        "transitive_reduction",
    ),
    "ferrers": (
        "ChainFerrersResult",
        "PermSubmatrixWitness",
        "StaircaseProfile",
        "chain_is_ferrers",
        "has_perm2x2",
        "is_ferrers",
        "staircase_profile",
        "strict_order_is_ferrers",
    ),
    "fseq": ("FSequence", "level_size", "level_sizes"),
    "njoin": (
        "AdjacencyMatrix",
        "BinaryRelation",
        "FiniteSet",
        "NaryRelation",
        "RelationChain",
        "compose_relations",
        "embed_biadjacency",
        "is_join_decomposable",
        "join_size",
        "njoin_adjacency",
        "njoin_digraphs",
        "njoin_fold",
        "njoin_graded",
        "njoin_relations",
        "project_chain",
        "reduced_composition",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that ``name`` is or comes from.

    A name is read from its submodule on every use and never stored
    here, so wrappers installed on the submodule (tracing, test doubles)
    show through the package and are gone once they are undone there.
    """
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        # unknown names fall through, so ``from cobwebs import cli`` imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
