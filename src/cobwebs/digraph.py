"""Graded digraphs, their posets, and closure/reduction operators.

A graded digraph has one or more nonempty levels Phi_0, ..., Phi_n and only
arcs from one level to the next, so it is acyclic by construction.
Vertices carry a global 1-based index assigned level-major, left to right
within a level; that numbering makes printed adjacency and zeta grids
literal row/column indices.

The square adjacency matrix is the direct sum of the arc blocks shifted
right by the size of level 0.

The poset associated to a graded digraph is its reflexive-transitive
closure; a digraph is transitive-irreducible (a Hasse diagram) when the
transitive reduction leaves it unchanged.  Every arc of a graded digraph
joins level k to level k + 1, so level i's strict rows are B_i on level
i + 1 and B_i (c) (level i + 1's strict rows) beyond it: closing from the
last level back takes one level-sized product per arc block, never an
n x n product.  Raw adjacency matrices have no levels; one row sweep in
reverse topological order closes and reduces them together.

``Poset(z)`` validates a user-supplied zeta matrix in full (one n^3
transitivity product); ``transitive_closure`` wraps the closures it
builds itself without that check, since they are orders by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .boolmat import (
    BoolMatrix,
    as_bool_matrix,
    as_square_matrix,
    bool_product,
    chain_adjacency,
    closure_series,
    identity,
)
from . import boolmat
from .fseq import (
    _check_blocks,
    _digraph_json,
    _json_arcs,
    _json_levels,
    _level_sizes,
    dot_text,
    locate,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GradedDigraph:
    """Leveled vertex sets plus one arc block per consecutive level pair.

    ``levels[k]`` is |Phi_k| and ``blocks[k]`` is the |Phi_k| x |Phi_{k+1}|
    Boolean block of arcs from level k to level k+1.
    """

    levels: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        levels = _level_sizes(self.levels)
        object.__setattr__(self, "levels", levels)
        blocks = tuple(_freeze(as_bool_matrix(b)) for b in self.blocks)  # after the level checks
        object.__setattr__(self, "blocks", blocks)
        _check_blocks(levels, [b.shape for b in blocks])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDigraph):
            return NotImplemented
        return self.levels == other.levels and all(
            np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)
        )

    @property
    def n_vertices(self) -> int:
        return sum(self.levels)

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        """0-based starting offset of each level in the global numbering."""
        return tuple(accumulate(self.levels, initial=0))[:-1]

    def locate(self, v: int) -> tuple[int, int]:
        """(level, 0-based position within that level) of global 1-based vertex v."""
        return locate(self.levels, v)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs as global 1-based (source, target) pairs."""
        offsets = self.level_offsets
        for k, b in enumerate(self.blocks):
            for i, j in zip(*np.nonzero(b)):
                yield offsets[k] + int(i) + 1, offsets[k + 1] + int(j) + 1


@dataclass(frozen=True, eq=False)
class Poset:
    """A finite poset given by its zeta matrix (the Boolean matrix of <=).

    ``Poset(z)`` validates the matrix to be reflexive, antisymmetric and
    transitive; ``transitive_closure`` builds its results unchecked.
    """

    leq: np.ndarray

    @classmethod
    def _trusted(cls, z: BoolMatrix) -> "Poset":
        """Wrap a zeta matrix this module built, freezing it in place unchecked."""
        p = object.__new__(cls)
        z.flags.writeable = False
        object.__setattr__(p, "leq", z)
        return p

    def __post_init__(self) -> None:
        z = _freeze(as_square_matrix(self.leq, "zeta matrix"))
        object.__setattr__(self, "leq", z)
        if not z.diagonal().all():
            raise ValueError("zeta matrix must be reflexive")
        if (z & z.T & ~identity(len(z))).any():
            raise ValueError("zeta matrix must be antisymmetric")
        if (bool_product(z, z) & ~z).any():
            raise ValueError("zeta matrix must be transitive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return np.array_equal(self.leq, other.leq)


def push_path_counts(row: np.ndarray, arc_lists: Iterable[tuple]) -> np.ndarray:
    """An object-dtype row of exact path counts times each arc block in turn.

    A block is ``(heads, tails, width)``: arc t joins position heads[t] to
    position tails[t] of the next level, which has ``width`` vertices.
    """
    for heads, tails, width in arc_lists:
        row, pushed = np.zeros(width, dtype=object), row
        np.add.at(row, tails, pushed[heads])
    return row


def global_adjacency(d: GradedDigraph) -> BoolMatrix:
    """Square adjacency matrix, strictly upper triangular."""
    return chain_adjacency(d.blocks, d.levels[0])


def _dag_sweep(a: BoolMatrix) -> tuple[BoolMatrix, BoolMatrix]:
    """Strict transitive closure and transitive reduction of a square DAG.

    In reverse Kahn order each row is its arcs OR its successors' closed
    rows; an arc is redundant exactly when its head is reached through
    another successor (Goralcikova and Koubek, MFCS 1979).  On a cycle,
    only the vertices Kahn left out are closed, to name the smallest.
    """
    n = a.shape[0]
    succ = [np.flatnonzero(row) for row in a]
    indeg = a.sum(axis=0)
    order = list(np.flatnonzero(indeg == 0))
    for v in order:  # grows while it is read: Kahn's queue
        indeg[succ[v]] -= 1
        order.extend(succ[v][indeg[succ[v]] == 0])
    if len(order) < n:
        left = np.setdiff1d(np.arange(n), order)
        on_cycle = closure_series(a[np.ix_(left, left)], reflexive=False).diagonal()
        v = int(left[on_cycle.argmax()]) + 1
        raise ValueError(f"input digraph is cyclic (vertex {v} reaches itself)")
    strict = np.zeros_like(a)
    reduced = np.zeros_like(a)
    for v in reversed(order):
        via = strict[succ[v]].any(axis=0)
        strict[v] = a[v] | via
        reduced[v] = a[v] & ~via
    return strict, reduced


def _level_sweep_zeta(d: GradedDigraph) -> BoolMatrix:
    """Zeta matrix of a graded digraph, closed from the last level back.

    A vertex's strict row is its arcs OR its successors' strict rows (see
    ``_dag_sweep``); for level i that is B_i on level i + 1 and B_i (c) the
    rows of level i + 1 beyond it: one level-sized product per arc block.
    """
    bounds = (*d.level_offsets, d.n_vertices)
    z = identity(d.n_vertices)
    for i in reversed(range(len(d.blocks))):
        a, b, c = bounds[i : i + 3]
        z[a:b, b:c] = d.blocks[i]
        z[a:b, c:] = bool_product(d.blocks[i], z[b:c, c:])
    return z


def transitive_closure(d: GradedDigraph | BoolMatrix) -> Poset:
    """The poset associated to an acyclic digraph.

    Accepts a graded digraph (acyclic by construction), closed from its
    last level back with one product per arc block, or a raw square
    adjacency matrix, closed by one reverse-topological row sweep and
    rejected if cyclic.  The result's ``leq`` is the reflexive-transitive
    closure, i.e. the zeta matrix; it is an order by construction, so the
    ``Poset`` is built without re-checking.
    """
    if isinstance(d, GradedDigraph):
        return Poset._trusted(_level_sweep_zeta(d))
    z = _dag_sweep(as_square_matrix(d, "adjacency matrix"))[0]
    np.fill_diagonal(z, True)
    return Poset._trusted(z)


def transitive_reduction(a: BoolMatrix) -> BoolMatrix:
    """Minimal sub-digraph of a DAG with the same transitive closure.

    An arc (x, y) is redundant exactly when some directed path of length
    >= 2 joins x to y, i.e. when y is reached from another successor of
    x; one reverse-topological sweep finds them (see ``_dag_sweep``).
    """
    return _dag_sweep(as_square_matrix(a, "adjacency matrix"))[1]


def is_transitive_irreducible(a: BoolMatrix) -> bool:
    """True when the digraph equals its own transitive reduction."""
    a = as_bool_matrix(a)
    return np.array_equal(transitive_reduction(a), a)


def to_dot(d: GradedDigraph) -> str:
    """Render as a DOT digraph, one rank per level (``fseq.dot_text``, joined)."""
    return "".join(dot_text(d.levels, d.arcs()))


def digraph_to_json(d: GradedDigraph) -> Iterator[str]:
    """The digraph JSON of ``d`` in pieces: ``fseq``'s layout, rows by ``boolmat.to_text``.

    Joined, the pieces are ``json.dumps(indent=2, sort_keys=True)`` of
    {"arcs": [each block's 0/1 rows], "levels": [sizes]}, then a newline.
    """
    return _digraph_json(d.levels, [partial(boolmat.to_text, b) for b in d.blocks])


def digraph_from_json(data: dict) -> GradedDigraph:
    """Inverse of ``digraph_to_json``, from the parsed JSON.

    The levels and then the arcs are read and checked by ``fseq``'s reader,
    one C-level test per row, before numpy sees them.
    """
    levels = _json_levels(data)
    return GradedDigraph(levels, tuple(_json_arcs(data, levels)[0]))
