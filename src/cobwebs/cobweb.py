"""Cobweb posets and their Hasse digraphs (KoDAGs).

A cobweb poset over a sequence F is the graded poset whose Hasse diagram
is the natural join of complete bipartite digraphs (di-bicliques) between
consecutive levels of sizes F_0, F_1, ...  Its Hasse matrix A_F carries
all-ones blocks on the level super-diagonal, and its zeta matrix is the
saturated Boolean series I v A_F v A_F^2 v ..., whose rows show the
staircase pattern characteristic of cobwebs: above the diagonal, zeros
exactly within a vertex's own level and ones on every later level.

A ``CobwebPoset`` is its Hasse digraph, a ``GradedDigraph`` with every
arc block complete, so whatever takes a graded digraph takes a cobweb;
like every graded digraph it has at least one level, each nonempty.

Cobweb posets have order dimension at most 2: the level-major labeling
and its within-level reversal intersect to the partial order, which
``realizer``/``verify_dim2`` construct and check.  ``fibonacci_tree``
builds the rabbit-genealogy tree, a subgraph of the Fibonacci cobweb
whose blocks are not Ferrers, used as the standard negative fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .boolmat import ROW_BLOCK, BoolMatrix, closure_series, ones_matrix
from .digraph import GradedDigraph, global_adjacency, push_path_counts, transitive_closure
from .fseq import FSequence, _rabbit_tree, as_ints, cobweb_sizes


@dataclass(frozen=True, eq=False)
class CobwebPoset(GradedDigraph):
    """A cobweb poset as its Hasse digraph (KoDAG): every arc block is complete."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for k, b in enumerate(self.blocks):
            if not b.all():
                raise ValueError(f"arc block {k} is not complete; not a cobweb")

    @property
    def hasse(self) -> CobwebPoset:
        """The Hasse digraph, which is the poset itself."""
        return self

    @cached_property
    def zeta(self) -> BoolMatrix:
        """Zeta matrix, filled lazily and at most once (fill is idempotent)."""
        z = closure_series(global_adjacency(self), reflexive=True)
        z.flags.writeable = False
        return z


@dataclass(frozen=True)
class Realizer:
    """Two linear orders on the vertices whose intersection is the poset."""

    l1: tuple[int, ...]
    l2: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l1", as_ints(self.l1, "realizer entries"))
        object.__setattr__(self, "l2", as_ints(self.l2, "realizer entries"))
        n = len(self.l1)
        if sorted(self.l1) != list(range(1, n + 1)) or sorted(self.l2) != list(
            range(1, n + 1)
        ):
            raise ValueError("each order must permute the vertices 1..n")


def build_cobweb(f: FSequence | Iterable[int], n: Optional[int] = None) -> CobwebPoset:
    """Build the cobweb poset with levels sized by f (see ``cobweb_sizes``)."""
    sizes = tuple(cobweb_sizes(f, n))
    blocks = (ones_matrix(r, c) for r, c in zip(sizes, sizes[1:]))  # read after the size checks
    return CobwebPoset(sizes, blocks)


def hasse_matrix(p: CobwebPoset) -> BoolMatrix:
    """Global adjacency of the Hasse digraph: ones blocks, super-diagonal."""
    return global_adjacency(p)


def zeta_matrix(p: CobwebPoset) -> BoolMatrix:
    """Zeta matrix: entry (i, j) = 1 iff vertex i <= vertex j."""
    return p.zeta


def leq(p: CobwebPoset, x: int, y: int) -> bool:
    """Order query on global 1-based vertex indices of a cobweb poset.

    Every block of a cobweb is complete, so x <= y exactly when x == y or
    x sits on an earlier level than y; the zeta matrix is not built.
    """
    if not isinstance(p, CobwebPoset):
        raise TypeError(f"leq needs a CobwebPoset, not {type(p).__name__}: use transitive_closure")
    i, j = p.locate(x)[0], p.locate(y)[0]
    return bool(x == y or i < j)


def realizer(d: GradedDigraph) -> Realizer:
    """The dimension-2 realizer of a cobweb poset.

    L1 is the level-major left-to-right order (the global numbering);
    L2 visits levels in the same order but right-to-left within each.
    """
    l2 = [v for off, s in zip(d.level_offsets, d.levels) for v in range(off + s, off, -1)]
    return Realizer(tuple(range(1, d.n_vertices + 1)), tuple(l2))


def verify_dim2(d: GradedDigraph, r: Optional[Realizer] = None) -> bool:
    """Check that the two linear orders intersect to the partial order.

    For all x != y the poset must have x <= y exactly when x precedes y
    in both orders.  True for every complete cobweb; fails e.g. for a
    corrupted L2 without the per-level reversal.  A realizer of the
    wrong length is rejected before any closure is built.  The order is
    ``transitive_closure`` of the Hasse digraph, for a cobweb too.
    """
    if r is None:
        r = realizer(d)
    n = d.n_vertices
    if len(r.l1) != n:
        raise ValueError(f"realizer covers {len(r.l1)} vertices, poset has {n}")
    z = transitive_closure(d).leq
    pos1, pos2 = np.argsort(r.l1), np.argsort(r.l2)  # pos[v - 1]: v's place
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        both = pos1[rows, None] < pos1
        both &= pos2[rows, None] < pos2
        np.fill_diagonal(both[:, start:], True)
        if not np.array_equal(both, z[rows]):
            return False
    return True


def count_paths(d: GradedDigraph, x: int, y: int) -> int:
    """Number of directed Hasse paths from x to y (1-based vertices).

    Length-0 paths are excluded: comparable vertices of levels i < j are
    joined by paths of the single length j - i.  They are counted by
    pushing the unit row vector of x along the arcs of blocks i .. j-1
    (``push_path_counts``).  Returns 0 for x = y and for y not above x.
    """
    i, a = d.locate(x)
    j, b = d.locate(y)
    if j <= i:
        return 0
    row = np.zeros(d.levels[i], dtype=object)
    row[a] = 1
    arcs = ((*np.nonzero(block), block.shape[1]) for block in d.blocks[i:j])
    return int(push_path_counts(row, arcs)[b])


def delete_arcs(
    p: CobwebPoset, removals: Iterable[tuple[int, int]]
) -> GradedDigraph:
    """Drop the given Hasse arcs, yielding a general graded digraph.

    Each removal is a global 1-based (source, target) pair and must be an
    existing arc between consecutive levels.
    """
    blocks = [b.copy() for b in p.blocks]
    for u, v in removals:
        ku, i = p.locate(u)
        kv, j = p.locate(v)
        if kv != ku + 1:
            raise ValueError(f"({u}, {v}) is not an arc between consecutive levels")
        if not blocks[ku][i, j]:
            raise ValueError(f"arc ({u}, {v}) does not exist")
        blocks[ku][i, j] = False
    return GradedDigraph(p.levels, tuple(blocks))


def fibonacci_tree(n: int) -> GradedDigraph:
    """The rabbit-genealogy tree graded by generation.

    Level sizes follow 1, 1, 2, 3, 5, ...  The generation rule is
    ``fseq._rabbit_tree``, which ``cobweb fibtree`` writes from as well:
    a mature parent has two children, a juvenile one, and every parent's
    first child is mature.  Block k has a one at (parent_of_child[j], j)
    for each child j.  The result is a subgraph of the Fibonacci cobweb
    Hasse digraph; its blocks are not Ferrers.
    """
    blocks = []
    for counts in _rabbit_tree(n):
        parent_of_child = np.repeat(np.arange(len(counts)), counts)
        block = np.zeros((len(counts), len(parent_of_child)), dtype=bool)
        block[parent_of_child, np.arange(len(parent_of_child))] = True
        blocks.append(block)
    return GradedDigraph((1, *(b.shape[1] for b in blocks)), tuple(blocks))
