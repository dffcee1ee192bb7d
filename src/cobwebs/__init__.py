"""Cobweb posets, KoDAG Hasse digraphs, and natural joins of relations."""

from .boolmat import (
    bool_product,
    closure_series,
    direct_sum,
    from_text,
    identity,
    ones_matrix,
    to_text,
    zeros_matrix,
)
from .cobweb import (
    CobwebPoset,
    Realizer,
    build_cobweb,
    count_paths,
    delete_arcs,
    fibonacci_tree,
    hasse_matrix,
    leq,
    realizer,
    verify_dim2,
    zeta_matrix,
)
from .digraph import (
    GradedDigraph,
    Poset,
    chain_biadjacency,
    global_adjacency,
    is_transitive_irreducible,
    to_dot,
    transitive_closure,
    transitive_reduction,
)
from .ferrers import (
    ChainFerrersResult,
    PermSubmatrixWitness,
    StaircaseProfile,
    chain_is_ferrers,
    has_perm2x2,
    is_ferrers,
    staircase_profile,
    strict_order_is_ferrers,
)
from .fseq import FSequence, level_size, level_sizes
from .njoin import (
    AdjacencyMatrix,
    BinaryRelation,
    FiniteSet,
    NaryRelation,
    RelationChain,
    biadjacency_of,
    compose_relations,
    embed_biadjacency,
    is_join_decomposable,
    join_size,
    njoin_adjacency,
    njoin_condition,
    njoin_digraphs,
    njoin_fold,
    njoin_graded,
    njoin_relations,
    project_chain,
    reduced_composition,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
