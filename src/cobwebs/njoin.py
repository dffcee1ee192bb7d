"""Natural join of relations, bipartite digraphs, and adjacency matrices.

The natural join here is chain-structured: two binary relations (or their
bipartite digraphs, or their adjacency matrices) glue along one shared
middle set, keeping a single copy of it.  On square adjacency matrices in
bipartite block form the join follows the dimension scheme

    [(k+m) x (k+m)]  join  [(m+s) x (m+s)]  =  [(k+m+s) x (k+m+s)]

while the reduced composition projects the middle set away,

    [(k+m) x (k+m)]  compose  [(m+s) x (m+s)]  =  [(k+s) x (k+s)],

its biadjacency block being the Boolean product of the operands' blocks.
An ``AdjacencyMatrix`` holds only its block, and every square form here is
rendered from blocks by ``chain_adjacency``: the direct sum of the blocks
shifted right by the size of the first set, for one block, two or a chain.

Chains of binary relations joined this way encode n-ary relations: the
tuples of the join are the maximal paths through the chain's biadjacency
blocks, and relation composition is their Boolean product.  Relations are
worked on as integer index pairs, with labels looked up only on the way
in and out, so no |dom| x |ran| block is built for them.  The reverse
direction projects an n-ary relation onto its adjacent-column pairs, and
a relation is faithfully encoded by that chain exactly when re-joining
the projections reproduces it; since that join always contains the
relation, it is counted as a path count, not built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .boolmat import (BoolMatrix, as_bool_matrix, bool_product, chain_adjacency,
                      check_join_condition)
from .digraph import GradedDigraph, push_path_counts


@dataclass(frozen=True)
class FiniteSet:
    """An ordered finite set of distinct labels; order fixes matrix axes."""

    labels: tuple[str, ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        position = {label: i for i, label in enumerate(labels)}
        if len(position) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        object.__setattr__(self, "_position", position)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._position

    def positions(self, labels: Sequence[str]) -> np.ndarray:
        """The positions of member labels, as an index array."""
        lookup = map(self._position.__getitem__, labels)
        return np.fromiter(lookup, dtype=np.intp, count=len(labels))

    def at(self, positions: np.ndarray) -> list[str]:
        """The labels at an index array of positions."""
        return np.array(self.labels, dtype=object)[positions].tolist()


@dataclass(frozen=True)
class BinaryRelation:
    """A relation between two labeled finite sets, i.e. a bipartite digraph."""

    dom: FiniteSet
    ran: FiniteSet
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(map(tuple, self.pairs)))
        bad = [(a, b) for a, b in self.pairs if a not in self.dom or b not in self.ran]
        if bad:
            a, b = min(bad, key=_label_key)
            if a not in self.dom:
                raise ValueError(f"pair component {a!r} not in domain {self.dom.labels}")
            raise ValueError(f"pair component {b!r} not in range {self.ran.labels}")

    @classmethod
    def complete(cls, dom: FiniteSet, ran: FiniteSet) -> "BinaryRelation":
        """The di-biclique: every domain label related to every range label."""
        return cls(dom, ran, frozenset(itertools.product(dom.labels, ran.labels)))

    def index_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs as head and tail position arrays, grouped by head."""
        heads, tails = zip(*self.pairs) if self.pairs else ((), ())
        heads, tails = self.dom.positions(heads), self.ran.positions(tails)
        order = np.argsort(heads, kind="stable")
        return heads[order], tails[order]

    def biadjacency(self) -> BoolMatrix:
        """|dom| x |ran| Boolean matrix in label order."""
        b = np.zeros((len(self.dom), len(self.ran)), dtype=bool)
        b[self.index_pairs()] = True
        return b


def _label_key(entry: tuple) -> tuple[str, ...]:
    """Sort key naming the smallest bad pair or tuple whatever its value types."""
    return tuple(map(str, entry))


@dataclass(frozen=True)
class RelationChain:
    """Consecutively linked relations: dom of each link is ran of the last."""

    links: tuple[BinaryRelation, ...]

    def __post_init__(self) -> None:
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        if not links:
            raise ValueError("relation chain must be nonempty")
        for k in range(len(links) - 1):
            if links[k].ran != links[k + 1].dom:
                raise ValueError(
                    f"middle sets differ at link {k}: ran {list(links[k].ran.labels)} "
                    f"vs dom {list(links[k + 1].dom.labels)} of link {k + 1}"
                )


@dataclass(frozen=True)
class NaryRelation:
    """A set of tuples over an ordered list of column sets."""

    columns: tuple[FiniteSet, ...]
    tuples: frozenset[tuple[str, ...]]

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        tuples = frozenset(map(tuple, self.tuples))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "tuples", tuples)
        if not columns:
            raise ValueError("n-ary relation needs at least one column")
        # membership through map over the label dicts keeps the per-tuple check in C
        lookups = [col._position for col in columns]
        bad = [
            t for t in tuples
            if len(t) != len(columns) or not all(map(dict.__contains__, lookups, t))
        ]
        if not bad:
            return
        t = min(bad, key=_label_key)
        if len(t) != len(columns):
            raise ValueError(f"tuple {t} has arity {len(t)}, expected {len(columns)}")
        v, col = next((v, col) for v, col in zip(t, columns) if v not in col)
        raise ValueError(f"tuple component {v!r} not in column {col.labels}")

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Adjacency of a bipartite digraph, held as its k x m biadjacency block.

    The (k+m)-square matrix, zero outside its top-right block, is rendered
    from the block on request (``mat``); the block's shape fixes (k, m).
    """

    block: np.ndarray

    def __post_init__(self) -> None:
        block = as_bool_matrix(self.block).copy()
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return np.array_equal(self.block, other.block)

    @property
    def shape(self) -> tuple[int, int]:
        return self.block.shape

    @property
    def k(self) -> int:
        return self.block.shape[0]

    @property
    def mat(self) -> BoolMatrix:
        return chain_adjacency([self.block], self.k)


def embed_biadjacency(b: BoolMatrix) -> AdjacencyMatrix:
    """The adjacency matrix of a k x m biadjacency block."""
    return AdjacencyMatrix(b)


def njoin_adjacency(a1: AdjacencyMatrix, a2: AdjacencyMatrix) -> BoolMatrix:
    """Natural join of two adjacency matrices sharing their middle set.

    The (k+m+s)-square result keeps one copy of the middle index block.
    """
    return njoin_fold((a1, a2))


def njoin_fold(mats: Sequence[AdjacencyMatrix]) -> BoolMatrix:
    """Left fold of the natural join over a chain of adjacency matrices."""
    if not mats:
        raise ValueError("cannot fold an empty chain")
    check_join_condition([a.shape for a in mats])
    return chain_adjacency([a.block for a in mats], mats[0].k)


def reduced_composition(a1: AdjacencyMatrix, a2: AdjacencyMatrix) -> AdjacencyMatrix:
    """Compose along the middle set: biadjacency blocks Boolean-multiply."""
    check_join_condition([a1.shape, a2.shape])
    return AdjacencyMatrix(bool_product(a1.block, a2.block))


def njoin_digraphs(g1: BinaryRelation, g2: BinaryRelation) -> GradedDigraph:
    """Natural join of two bipartite digraphs into a three-level digraph.

    The middle sets must agree by labels and order (matrix columns are
    label-ordered).  The operation is ordered: g1 feeds g2.
    """
    RelationChain((g1, g2))  # checks the middle set
    return GradedDigraph(
        (len(g1.dom), len(g1.ran), len(g2.ran)),
        (g1.biadjacency(), g2.biadjacency()),
    )


def njoin_graded(d1: GradedDigraph, d2: GradedDigraph) -> GradedDigraph:
    """Natural join of two graded digraphs along the shared boundary level."""
    if d1.levels[-1] != d2.levels[0]:
        raise ValueError(
            f"boundary levels differ: {d1.levels[-1]} vs {d2.levels[0]}"
        )
    return GradedDigraph(d1.levels + d2.levels[1:], d1.blocks + d2.blocks)


def _index_paths(links: Sequence[BinaryRelation]) -> list[np.ndarray]:
    """The maximal paths through a chain, one position array per column.

    Paths start as the first link's index pairs and are extended one link
    at a time along that link's successor lists, so the cost follows the
    number of paths and no |dom| x |ran| block is built.
    """
    paths = list(links[0].index_pairs())
    for link in links[1:]:
        # successor lists in CSR form: row v's successors are tails[starts[v]:][:fanout[v]]
        heads, tails = link.index_pairs()
        fanout = np.bincount(heads, minlength=len(link.dom))
        starts = np.cumsum(fanout) - fanout
        reps = fanout[paths[-1]]
        parent = np.repeat(np.arange(len(reps)), reps)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        paths = [col[parent] for col in paths]
        paths.append(tails[starts[paths[-1]] + offset])
    return paths


def compose_relations(r: BinaryRelation, s: BinaryRelation) -> BinaryRelation:
    """Relation composition: the Boolean product of the biadjacency blocks.

    Its pairs are the distinct (first, last) ends of the two-link join's
    index paths, so the cost follows the number of those paths, not the
    sizes of the label sets.
    """
    RelationChain((r, s))  # checks the middle set
    first, _, last = _index_paths((r, s))
    heads, tails = np.divmod(np.unique(first * len(s.ran) + last), len(s.ran))
    return BinaryRelation(r.dom, s.ran, frozenset(zip(r.dom.at(heads), s.ran.at(tails))))


def _chain(chain: RelationChain | Iterable[BinaryRelation]) -> RelationChain:
    return chain if isinstance(chain, RelationChain) else RelationChain(tuple(chain))


def njoin_relations(chain: RelationChain | Iterable[BinaryRelation]) -> NaryRelation:
    """Natural join of a relation chain into one n-ary relation.

    Columns are the chained sets and every tuple threads one pair of each
    link; a single link yields its relation as a 2-ary relation.  The
    tuples are the maximal paths through the chain's biadjacency blocks,
    found on index pairs and turned into labels once, at the end, so the
    cost follows the number of tuples.
    """
    links = _chain(chain).links
    columns = (links[0].dom,) + tuple(link.ran for link in links)
    paths = _index_paths(links)
    tuples = zip(*(col.at(path) for col, path in zip(columns, paths)))
    return NaryRelation(columns, tuples)


def join_size(chain: RelationChain | Iterable[BinaryRelation]) -> int:
    """Number of tuples in the natural join of a chain, counted, not built.

    The tuples are the paths through the biadjacency blocks, so their
    number is 1^T B_0 ... B_{k-1} 1: a row of ones pushed along each
    link's index pairs by ``push_path_counts`` (no block is built).
    """
    links = _chain(chain).links
    arcs = ((*link.index_pairs(), len(link.ran)) for link in links)
    row = np.ones(len(links[0].dom), dtype=object)
    return int(push_path_counts(row, arcs).sum())


def project_chain(t: NaryRelation) -> RelationChain:
    """Adjacent-column pair projections of an n-ary relation."""
    if t.arity < 2:
        raise ValueError(f"arity must be >= 2 to project a chain, got {t.arity}")
    links = []
    for k in range(t.arity - 1):
        pairs = frozenset((tup[k], tup[k + 1]) for tup in t.tuples)
        links.append(BinaryRelation(t.columns[k], t.columns[k + 1], pairs))
    return RelationChain(tuple(links))


def is_join_decomposable(t: NaryRelation) -> bool:
    """True when re-joining the adjacent-pair projections reproduces t.

    The join of the projections always contains the source tuples, so it
    equals t exactly when it has |t| tuples; it is counted with
    ``join_size``, not built.  Exactness holds precisely for relations
    that their binary chain encodes faithfully.
    """
    return join_size(project_chain(t)) == len(t.tuples)


# -- JSON wire formats -------------------------------------------------------

def relation_to_json(r: BinaryRelation) -> dict:
    return {
        "dom": list(r.dom.labels),
        "ran": list(r.ran.labels),
        "pairs": sorted([a, b] for (a, b) in r.pairs),
    }


def _json_list(value) -> list:
    """``value`` if it is a JSON list; a string would split into its characters."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _json_labels(value) -> tuple[str, ...]:
    """A JSON list of labels, each a JSON string or number, as strings."""
    for x in _json_list(value):
        if isinstance(x, bool) or not isinstance(x, (str, int, float)):
            raise TypeError(f"label {x!r} is not a string or number")
    return tuple(str(x) for x in value)


def relation_from_json(data: dict) -> BinaryRelation:
    try:
        dom = FiniteSet(_json_labels(data["dom"]))
        ran = FiniteSet(_json_labels(data["ran"]))
        pairs = frozenset(
            (a, b) for a, b in map(_json_labels, _json_list(data["pairs"]))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad relation JSON: {exc}") from None
    return BinaryRelation(dom, ran, pairs)


def nary_to_json(t: NaryRelation) -> dict:
    return {
        "columns": [list(c.labels) for c in t.columns],
        "tuples": sorted(list(tup) for tup in t.tuples),
    }


def nary_from_json(data: dict) -> NaryRelation:
    try:
        columns = tuple(FiniteSet(c) for c in map(_json_labels, _json_list(data["columns"])))
        tuples = frozenset(map(_json_labels, _json_list(data["tuples"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad n-ary relation JSON: {exc}") from None
    return NaryRelation(columns, tuples)
