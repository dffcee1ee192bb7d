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
worked on as label dicts and exact Python ints, with no numpy and no
|dom| x |ran| block: the join extends label tuples along each link's
successor lists, composition ORs Python-int bitset rows, and the join's
size is a path count pushed over the pairs.  The reverse direction
projects an n-ary relation onto its adjacent-column pairs, and a relation
is faithfully encoded by that chain exactly when re-joining the
projections reproduces it; since that join always contains the relation,
it is counted, not built.

The matrix half (adjacency matrices, biadjacency blocks, graded digraphs)
calls ``cobwebs.boolmat`` and ``cobwebs.digraph`` at call time, so
importing this module loads neither of them, nor numpy, and wrappers
installed on them (tracing, test doubles) apply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import cobwebs


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


@dataclass(frozen=True)
class BinaryRelation:
    """A relation between two labeled finite sets, i.e. a bipartite digraph."""

    dom: FiniteSet
    ran: FiniteSet
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(map(tuple, self.pairs)))
        dom, ran = self.dom._position, self.ran._position
        bad = [(a, b) for a, b in self.pairs if a not in dom or b not in ran]
        if bad:
            a, b = min(bad, key=_label_key)
            if a not in self.dom:
                raise ValueError(f"pair component {a!r} not in domain {self.dom.labels}")
            raise ValueError(f"pair component {b!r} not in range {self.ran.labels}")

    @classmethod
    def complete(cls, dom: FiniteSet, ran: FiniteSet) -> "BinaryRelation":
        """The di-biclique: every domain label related to every range label."""
        return cls(dom, ran, frozenset(itertools.product(dom.labels, ran.labels)))

    def biadjacency(self) -> cobwebs.boolmat.BoolMatrix:
        """|dom| x |ran| Boolean matrix in label order."""
        import numpy as np

        b = np.zeros((len(self.dom), len(self.ran)), dtype=bool)
        b[[self.dom._position[a] for a, _ in self.pairs],
          [self.ran._position[c] for _, c in self.pairs]] = True
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

    block: cobwebs.boolmat.BoolMatrix

    def __post_init__(self) -> None:
        block = cobwebs.boolmat.as_bool_matrix(self.block).copy()
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self.block == other.block).all())

    @property
    def shape(self) -> tuple[int, int]:
        return self.block.shape

    @property
    def k(self) -> int:
        return self.block.shape[0]

    @property
    def mat(self) -> cobwebs.boolmat.BoolMatrix:
        return cobwebs.boolmat.chain_adjacency([self.block], self.k)


def embed_biadjacency(b: cobwebs.boolmat.BoolMatrix) -> AdjacencyMatrix:
    """The adjacency matrix of a k x m biadjacency block."""
    return AdjacencyMatrix(b)


def njoin_adjacency(a1: AdjacencyMatrix, a2: AdjacencyMatrix) -> cobwebs.boolmat.BoolMatrix:
    """Natural join of two adjacency matrices sharing their middle set.

    The (k+m+s)-square result keeps one copy of the middle index block.
    """
    return njoin_fold((a1, a2))


def njoin_fold(mats: Sequence[AdjacencyMatrix]) -> cobwebs.boolmat.BoolMatrix:
    """Left fold of the natural join over a chain of adjacency matrices."""
    if not mats:
        raise ValueError("cannot fold an empty chain")
    cobwebs.boolmat.check_join_condition([a.shape for a in mats])
    return cobwebs.boolmat.chain_adjacency([a.block for a in mats], mats[0].k)


def reduced_composition(a1: AdjacencyMatrix, a2: AdjacencyMatrix) -> AdjacencyMatrix:
    """Compose along the middle set: biadjacency blocks Boolean-multiply."""
    cobwebs.boolmat.check_join_condition([a1.shape, a2.shape])
    return AdjacencyMatrix(cobwebs.boolmat.bool_product(a1.block, a2.block))


def njoin_digraphs(g1: BinaryRelation, g2: BinaryRelation) -> cobwebs.digraph.GradedDigraph:
    """Natural join of two bipartite digraphs into a three-level digraph.

    The middle sets must agree by labels and order (matrix columns are
    label-ordered).  The operation is ordered: g1 feeds g2.
    """
    RelationChain((g1, g2))  # checks the middle set
    return cobwebs.digraph.GradedDigraph(
        (len(g1.dom), len(g1.ran), len(g2.ran)),
        (g1.biadjacency(), g2.biadjacency()),
    )


def njoin_graded(d1: cobwebs.digraph.GradedDigraph,
                 d2: cobwebs.digraph.GradedDigraph) -> cobwebs.digraph.GradedDigraph:
    """Natural join of two graded digraphs along the shared boundary level."""
    if d1.levels[-1] != d2.levels[0]:
        raise ValueError(
            f"boundary levels differ: {d1.levels[-1]} vs {d2.levels[0]}"
        )
    return cobwebs.digraph.GradedDigraph(d1.levels + d2.levels[1:], d1.blocks + d2.blocks)


def __getattr__(name: str):
    """``njoin.bool_product`` is ``boolmat.bool_product`` as bound when it is read (PEP 562).

    So a wrapper installed on ``boolmat`` (tracing, test doubles) shows
    here too, and is gone here once it is undone there.
    """
    if name == "bool_product":
        return cobwebs.boolmat.bool_product
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def compose_relations(r: BinaryRelation, s: BinaryRelation) -> BinaryRelation:
    """Relation composition: the Boolean product of the biadjacency blocks.

    The product is formed row by row on Python-int bitsets over the
    positions of ``s.ran``: a middle label's row has one bit per successor,
    and a domain label's row is the OR of its successors' rows.  That is
    O((|r| + |s|) * |s.ran| / 64 + |result|) word operations, however
    many two-link paths there are.
    """
    RelationChain((r, s))  # checks the middle set
    position = s.ran._position
    middle: dict[str, int] = {}
    for b, c in s.pairs:
        middle[b] = middle.get(b, 0) | 1 << position[c]
    rows: dict[str, int] = {}
    for a, b in r.pairs:
        rows[a] = rows.get(a, 0) | middle.get(b, 0)
    # bin(row)[:1:-1] lists the bits from position 0 up, as "0" and "1"
    pairs = [(a, c) for a, row in rows.items()
             for c in itertools.compress(s.ran.labels, map("1".__eq__, bin(row)[:1:-1]))]
    return BinaryRelation(r.dom, s.ran, frozenset(pairs))


def _chain(chain: RelationChain | Iterable[BinaryRelation]) -> RelationChain:
    return chain if isinstance(chain, RelationChain) else RelationChain(tuple(chain))


def njoin_relations(chain: RelationChain | Iterable[BinaryRelation]) -> NaryRelation:
    """Natural join of a relation chain into one n-ary relation.

    Columns are the chained sets and every tuple threads one pair of each
    link; a single link yields its relation as a 2-ary relation.  The
    tuples are the maximal paths through the chain's biadjacency blocks:
    the first link's pairs, extended one link at a time along that link's
    successor lists, so the cost follows the number of tuples.
    """
    links = _chain(chain).links
    columns = (links[0].dom,) + tuple(link.ran for link in links)
    tuples = list(links[0].pairs)
    for link in links[1:]:
        successors: dict[str, list[str]] = {}
        for a, b in link.pairs:
            successors.setdefault(a, []).append(b)
        tuples = [t + (c,) for t in tuples for c in successors.get(t[-1], ())]
    return NaryRelation(columns, tuples)


def join_size(chain: RelationChain | Iterable[BinaryRelation]) -> int:
    """Number of tuples in the natural join of a chain, counted, not built.

    The tuples are the paths through the biadjacency blocks, so their
    number is 1^T B_0 ... B_{k-1} 1: a count of one per first-column label,
    pushed along each link's pairs as exact Python ints (no block is built).
    """
    links = _chain(chain).links
    counts = dict.fromkeys(links[0].dom.labels, 1)
    for link in links:
        pushed, counts = counts, {}
        for a, b in link.pairs:
            if a in pushed:
                counts[b] = counts.get(b, 0) + pushed[a]
    return sum(counts.values())


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
        # the pairs hold the sets' own label strings, so the file's copies can be freed
        same = {x: x for x in (*dom.labels, *ran.labels)}
        pairs = frozenset(
            (same.get(a, a), same.get(b, b))
            for a, b in map(_json_labels, _json_list(data["pairs"]))
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
