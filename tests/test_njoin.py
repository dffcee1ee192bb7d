import itertools
import random
import string
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobwebs import boolmat, njoin
from cobwebs.cobweb import build_cobweb, hasse_matrix
from cobwebs.digraph import GradedDigraph, global_adjacency
from cobwebs.fseq import level_sizes
from cobwebs.njoin import (
    AdjacencyMatrix,
    BinaryRelation,
    FiniteSet,
    NaryRelation,
    RelationChain,
    compose_relations,
    embed_biadjacency,
    is_join_decomposable,
    join_size,
    njoin_adjacency,
    njoin_digraphs,
    njoin_fold,
    njoin_graded,
    njoin_relations,
    project_chain,
    reduced_composition,
)

from conftest import BUILTIN_SEQUENCES, brute_force_join, rand_bool_matrix


def labels(prefix: str, n: int) -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}{i}" for i in range(1, n + 1)))


def rand_relation(rng: random.Random, dom: FiniteSet, ran: FiniteSet, density=0.5) -> BinaryRelation:
    pairs = frozenset(
        (a, b)
        for a in dom.labels
        for b in ran.labels
        if rng.random() < density
    )
    return BinaryRelation(dom, ran, pairs)


def ternary_fixture():
    x = FiniteSet(("x1", "x2", "x3"))
    z = FiniteSet(("z1", "z2", "z3", "z4"))
    y = FiniteSet(("y1", "y2"))
    e1 = BinaryRelation(
        x, z,
        frozenset({("x1", "z1"), ("x1", "z2"), ("x1", "z4"), ("x2", "z3"), ("x3", "z3")}),
    )
    e2 = BinaryRelation(
        z, y,
        frozenset({("z1", "y1"), ("z2", "y1"), ("z3", "y2"), ("z4", "y2")}),
    )
    t = NaryRelation(
        (x, z, y),
        frozenset({
            ("x1", "z1", "y1"),
            ("x1", "z2", "y1"),
            ("x1", "z4", "y2"),
            ("x2", "z3", "y2"),
            ("x3", "z3", "y2"),
        }),
    )
    return x, z, y, e1, e2, t


# -- adjacency matrices -------------------------------------------------------

def test_embed_biadjacency_examples():
    a = embed_biadjacency(np.array([[1, 1]], dtype=bool))
    assert a.mat.astype(int).tolist() == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]
    z = embed_biadjacency(np.zeros((2, 2), dtype=bool))
    assert z.shape == (2, 2) and not z.mat.any()
    wide = embed_biadjacency(boolmat.ones_matrix(2, 3))
    assert wide.mat[:2, 2:].all() and wide.mat.sum() == 6


def test_zero_matrix_shape_comes_from_metadata():
    # an all-zero square matrix does not determine (k, m); the block's shape does
    narrow = AdjacencyMatrix(np.zeros((1, 2)))
    wide = AdjacencyMatrix(np.zeros((2, 1)))
    assert narrow.shape == (1, 2) and wide.shape == (2, 1)
    assert narrow.block.shape == (1, 2) and wide.block.shape == (2, 1)
    assert np.array_equal(narrow.mat, wide.mat) and narrow != wide


@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_embed_extract_roundtrip(k, m, rng):
    b = rand_bool_matrix(rng, k, m)
    assert np.array_equal(embed_biadjacency(b).block, b)


def test_njoin_adjacency_worked_example():
    a1 = embed_biadjacency(np.array([[1, 1]], dtype=bool))
    a2 = embed_biadjacency(np.array([[1], [0]], dtype=bool))
    joined = njoin_adjacency(a1, a2)
    assert joined.shape == (4, 4)  # (1+2) join (2+1) keeps one middle copy
    assert joined.astype(int).tolist() == [
        [0, 1, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    with pytest.raises(ValueError, match="natural join condition"):
        njoin_adjacency(a1, a1)


def test_zero_size_sides_embed_and_join():
    # an empty domain or codomain is a legal bipartite digraph: no rows or
    # no columns in its block, and only zeros in its square matrix
    empty_dom = embed_biadjacency(np.zeros((0, 3), dtype=bool))
    assert empty_dom.shape == (0, 3) and empty_dom.mat.shape == (3, 3)
    assert not empty_dom.mat.any()
    empty_ran = embed_biadjacency(np.zeros((2, 0), dtype=bool))
    assert empty_ran.shape == (2, 0) and empty_ran.mat.shape == (2, 2)
    assert embed_biadjacency(np.zeros((0, 0), dtype=bool)).mat.shape == (0, 0)

    joined = njoin_adjacency(empty_dom, embed_biadjacency(boolmat.ones_matrix(3, 2)))
    expected = np.zeros((5, 5), dtype=bool)
    expected[:3, 3:] = True
    assert np.array_equal(joined, expected)
    assert np.array_equal(
        njoin_adjacency(empty_ran, embed_biadjacency(np.zeros((0, 3), dtype=bool))),
        np.zeros((5, 5), dtype=bool),
    )
    tail = njoin_adjacency(embed_biadjacency(boolmat.ones_matrix(1, 2)), empty_ran)
    assert tail.astype(int).tolist() == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("seq", BUILTIN_SEQUENCES, ids=lambda s: s.kind)
def test_njoin_fold_of_complete_blocks_is_cobweb_adjacency(seq):
    sizes = level_sizes(seq, 7)
    mats = [
        embed_biadjacency(boolmat.ones_matrix(sizes[k], sizes[k + 1]))
        for k in range(len(sizes) - 1)
    ]
    assert np.array_equal(njoin_fold(mats), hasse_matrix(build_cobweb(sizes)))


def test_njoin_fold_validates_chain():
    a = embed_biadjacency(boolmat.ones_matrix(1, 2))
    with pytest.raises(ValueError, match="position 0"):
        njoin_fold([a, a])
    a22 = embed_biadjacency(boolmat.ones_matrix(2, 2))
    assert njoin_fold([a, a22, a22]).shape == (7, 7)  # 2x2 chains with 2x2
    a31 = embed_biadjacency(boolmat.ones_matrix(3, 1))
    with pytest.raises(ValueError, match=r"position 0: shapes \(1, 2\) and \(3, 1\)"):
        njoin_fold([a, a31])
    with pytest.raises(ValueError):
        njoin_fold([])


def test_reduced_composition():
    a1 = embed_biadjacency(np.array([[1, 1]], dtype=bool))
    a2 = embed_biadjacency(np.array([[1], [0]], dtype=bool))
    composed = reduced_composition(a1, a2)
    assert composed.shape == (1, 1)
    assert composed.block.astype(int).tolist() == [[1]]

    rng = random.Random(17)
    b = rand_bool_matrix(rng, 3, 3)
    viaid = reduced_composition(
        embed_biadjacency(b), embed_biadjacency(boolmat.identity(3))
    )
    assert np.array_equal(viaid.block, b)
    zero = reduced_composition(
        embed_biadjacency(np.zeros((2, 3), dtype=bool)),
        embed_biadjacency(rand_bool_matrix(rng, 3, 2)),
    )
    assert not zero.block.any()


def test_reduced_composition_matches_bool_product():
    rng = random.Random(29)
    for _ in range(200):
        k, m, s = (rng.randint(1, 6) for _ in range(3))
        b1, b2 = rand_bool_matrix(rng, k, m), rand_bool_matrix(rng, m, s)
        out = reduced_composition(embed_biadjacency(b1), embed_biadjacency(b2))
        assert np.array_equal(out.block, boolmat.bool_product(b1, b2))


# -- digraph joins ------------------------------------------------------------

def test_njoin_digraphs_builds_cobweb_prefix():
    g1 = BinaryRelation.complete(labels("a", 1), labels("b", 2))
    g2 = BinaryRelation.complete(labels("b", 2), labels("c", 3))
    d = njoin_digraphs(g1, g2)
    assert d.levels == (1, 2, 3)
    assert d == build_cobweb([1, 2, 3]).hasse
    joined = njoin_adjacency(
        embed_biadjacency(g1.biadjacency()), embed_biadjacency(g2.biadjacency())
    )
    assert np.array_equal(global_adjacency(d), joined)


def test_njoin_digraphs_empty_second_block():
    g1 = BinaryRelation.complete(labels("a", 1), labels("b", 2))
    g2 = BinaryRelation(labels("b", 2), labels("c", 2), frozenset())
    d = njoin_digraphs(g1, g2)
    assert not d.blocks[1].any()


def test_njoin_digraphs_rejects_middle_mismatch():
    g1 = BinaryRelation.complete(labels("a", 1), labels("b", 2))
    g2 = BinaryRelation.complete(labels("c", 2), labels("d", 1))
    with pytest.raises(ValueError, match="middle sets differ"):
        njoin_digraphs(g1, g2)
    # same cardinality, different label order: still a mismatch
    swapped = FiniteSet(("b2", "b1"))
    g3 = BinaryRelation.complete(swapped, labels("d", 1))
    with pytest.raises(ValueError, match="middle sets differ"):
        njoin_digraphs(g1, g3)


def test_join_biadjacency_is_direct_sum_of_blocks():
    rng = random.Random(0xD1A6)
    for _ in range(1000):
        k, m, s = (rng.randint(1, 6) for _ in range(3))
        g1 = rand_relation(rng, labels("a", k), labels("b", m))
        g2 = rand_relation(rng, labels("b", m), labels("c", s))
        d = njoin_digraphs(g1, g2)
        assert np.array_equal(
            boolmat.direct_sum(d.blocks),
            boolmat.direct_sum([g1.biadjacency(), g2.biadjacency()]),
        )


def test_nfold_join_biadjacency_is_block_diagonal():
    rng = random.Random(0xD1A7)
    for _ in range(100):
        n_links = rng.randint(1, 6)
        sizes = [rng.randint(1, 4) for _ in range(n_links + 1)]
        blocks = [rand_bool_matrix(rng, sizes[k], sizes[k + 1]) for k in range(n_links)]
        d = GradedDigraph(tuple(sizes), tuple(blocks))
        assert np.array_equal(boolmat.direct_sum(d.blocks), boolmat.direct_sum(blocks))


def test_njoin_graded_is_associative_on_matrices():
    rng = random.Random(0xA550)
    for _ in range(300):
        k, m, s, t = (rng.randint(1, 5) for _ in range(4))
        d1 = GradedDigraph((k, m), (rand_bool_matrix(rng, k, m),))
        d2 = GradedDigraph((m, s), (rand_bool_matrix(rng, m, s),))
        d3 = GradedDigraph((s, t), (rand_bool_matrix(rng, s, t),))
        left = njoin_graded(njoin_graded(d1, d2), d3)
        right = njoin_graded(d1, njoin_graded(d2, d3))
        assert left == right
        assert np.array_equal(global_adjacency(left), global_adjacency(right))
    with pytest.raises(ValueError, match="boundary levels differ"):
        njoin_graded(
            GradedDigraph((1, 2), (boolmat.ones_matrix(1, 2),)),
            GradedDigraph((3, 1), (boolmat.ones_matrix(3, 1),)),
        )


# -- relations ----------------------------------------------------------------

def test_compose_with_identity_relation():
    dom = labels("u", 3)
    ident = BinaryRelation(dom, dom, frozenset((u, u) for u in dom.labels))
    s = rand_relation(random.Random(3), dom, labels("v", 2))
    assert compose_relations(ident, s).pairs == s.pairs


def test_compose_ternary_example():
    _, _, _, e1, e2, _ = ternary_fixture()
    composed = compose_relations(e1, e2)
    assert composed.pairs == frozenset(
        {("x1", "y1"), ("x1", "y2"), ("x2", "y2"), ("x3", "y2")}
    )


def test_compose_empty_relation():
    x, z, y, _, e2, _ = ternary_fixture()
    empty = BinaryRelation(x, z, frozenset())
    assert compose_relations(empty, e2).pairs == frozenset()


def test_compose_biadjacency_morphism():
    rng = random.Random(41)
    for _ in range(300):
        k, m, s = (rng.randint(1, 6) for _ in range(3))
        r = rand_relation(rng, labels("a", k), labels("b", m))
        rel_s = rand_relation(rng, labels("b", m), labels("c", s))
        assert np.array_equal(
            compose_relations(r, rel_s).biadjacency(),
            boolmat.bool_product(r.biadjacency(), rel_s.biadjacency()),
        )


def test_single_link_join_is_binary_relation():
    _, _, _, e1, _, _ = ternary_fixture()
    t = njoin_relations([e1])
    assert t.arity == 2
    assert len(t.tuples) == 5
    assert t.tuples == frozenset(e1.pairs)


def test_join_reproduces_ternary_fixture():
    x, z, y, e1, e2, t = ternary_fixture()
    joined = njoin_relations([e1, e2])
    assert joined.columns == (x, z, y)
    assert joined.tuples == t.tuples
    assert joined.tuples == brute_force_join((x, z, y), (e1, e2))


def test_join_of_complete_chain_is_full_product():
    a, b, c = labels("a", 2), labels("b", 3), labels("c", 2)
    chain = [BinaryRelation.complete(a, b), BinaryRelation.complete(b, c)]
    t = njoin_relations(chain)
    assert len(t.tuples) == 2 * 3 * 2
    assert t.tuples == set(itertools.product(a.labels, b.labels, c.labels))


def test_join_tuple_count_matches_brute_force():
    rng = random.Random(61)
    for _ in range(100):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        cols = [labels(string.ascii_lowercase[i], s) for i, s in enumerate(sizes)]
        links = [
            rand_relation(rng, cols[i], cols[i + 1], density=0.6)
            for i in range(len(cols) - 1)
        ]
        t = njoin_relations(links)
        assert t.tuples == brute_force_join(cols, links)


def test_chain_condition_reports_offending_link():
    x, z, y, e1, e2, _ = ternary_fixture()
    with pytest.raises(ValueError, match="link 0"):
        RelationChain((e1, e1))
    chain = RelationChain((e1, e2))
    assert chain.links == (e1, e2)


def test_project_chain_of_ternary_fixture():
    _, _, _, e1, e2, t = ternary_fixture()
    chain = project_chain(t)
    assert chain.links[0].pairs == e1.pairs
    assert chain.links[1].pairs == e2.pairs


def test_project_full_product_gives_complete_links():
    a, b = labels("a", 2), labels("b", 3)
    t = NaryRelation((a, b), frozenset(itertools.product(a.labels, b.labels)))
    chain = project_chain(t)
    assert chain.links[0].pairs == BinaryRelation.complete(a, b).pairs


def test_project_single_tuple():
    a, b, c = labels("a", 2), labels("b", 2), labels("c", 2)
    t = NaryRelation((a, b, c), frozenset({("a1", "b2", "c1")}))
    chain = project_chain(t)
    assert [link.pairs for link in chain.links] == [
        frozenset({("a1", "b2")}),
        frozenset({("b2", "c1")}),
    ]
    with pytest.raises(ValueError, match="arity"):
        project_chain(NaryRelation((a,), frozenset({("a1",)})))


def test_join_decomposability():
    _, _, _, _, _, t = ternary_fixture()
    assert is_join_decomposable(t)

    a = FiniteSet(("a", "b"))
    b = FiniteSet(("c", "d"))
    c = FiniteSet(("e", "f"))
    tricky = NaryRelation(
        (a, b, c),
        frozenset({("a", "c", "e"), ("b", "d", "f"), ("a", "d", "e")}),
    )
    assert not is_join_decomposable(tricky)
    rejoined = njoin_relations(project_chain(tricky))
    assert ("b", "d", "e") in rejoined.tuples

    full = NaryRelation((a, b), frozenset(itertools.product(a.labels, b.labels)))
    assert is_join_decomposable(full)


def test_rejoin_is_extensive():
    rng = random.Random(71)
    for _ in range(200):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        cols = [labels(string.ascii_lowercase[i], s) for i, s in enumerate(sizes)]
        universe = list(itertools.product(*[c.labels for c in cols]))
        chosen = frozenset(t for t in universe if rng.random() < 0.4)
        if not chosen:
            continue
        t = NaryRelation(tuple(cols), chosen)
        rejoined = njoin_relations(project_chain(t))
        assert t.tuples <= rejoined.tuples
        assert (rejoined.tuples == t.tuples) == is_join_decomposable(t)


@st.composite
def relation_chains(draw, min_links=1, max_links=4, max_labels=4):
    """Label sets and their links, each link random, empty or complete."""
    count = draw(st.integers(min_links, max_links))
    sizes = draw(st.lists(st.integers(0, max_labels), min_size=count + 1, max_size=count + 1))
    cols = [labels(string.ascii_lowercase[i], s) for i, s in enumerate(sizes)]
    links = []
    for dom, ran in zip(cols, cols[1:]):
        kind = draw(st.sampled_from(("random", "empty", "complete")))
        if kind == "complete":
            links.append(BinaryRelation.complete(dom, ran))
        elif kind == "empty":
            links.append(BinaryRelation(dom, ran, frozenset()))
        else:
            universe = list(itertools.product(dom.labels, ran.labels))
            keep = draw(st.lists(st.booleans(), min_size=len(universe), max_size=len(universe)))
            links.append(BinaryRelation(dom, ran, frozenset(itertools.compress(universe, keep))))
    return cols, links


def compose_oracle(r, s):
    return {(x, z) for (x, y) in r.pairs for (y2, z) in s.pairs if y == y2}


@given(relation_chains())
def test_join_and_its_size_match_brute_force(chain):
    cols, links = chain
    expected = brute_force_join(cols, links)
    t = njoin_relations(links)
    assert t.columns == tuple(cols)
    assert t.tuples == expected
    assert join_size(links) == len(expected)


@given(relation_chains(min_links=2, max_links=2))
def test_compose_matches_pairwise_oracle(chain):
    _, links = chain
    composed = compose_relations(*links)
    assert (composed.dom, composed.ran) == (links[0].dom, links[1].ran)
    assert composed.pairs == compose_oracle(*links)


@given(relation_chains(), st.data())
def test_decomposability_matches_brute_force_rejoin(chain, data):
    cols, _ = chain
    if not all(cols):
        return
    rows = st.tuples(*(st.sampled_from(c.labels) for c in cols))
    t = NaryRelation(tuple(cols), frozenset(data.draw(st.lists(rows, max_size=12))))
    rejoined = brute_force_join(cols, project_chain(t).links)
    assert is_join_decomposable(t) == (rejoined == t.tuples)


def test_relation_validation():
    x = labels("x", 2)
    assert x.labels.index("x2") == 1 and "x2" in x and "x3" not in x
    with pytest.raises(ValueError):
        BinaryRelation(x, x, frozenset({("x1", "nope")}))
    with pytest.raises(ValueError):
        FiniteSet(("a", "a"))
    with pytest.raises(ValueError):
        NaryRelation((x,), frozenset({("x1", "x2")}))


def test_relation_kernels_allocate_by_pairs_not_label_sets():
    # 20,000 labels per set: a 20,000 x 20,000 block would be 400 MB
    x, y, z = (labels(c, 20_000) for c in "xyz")
    r = BinaryRelation(x, y, frozenset({("x1", "y1"), ("x2", "y1"), ("x3", "y8")}))
    s = BinaryRelation(y, z, frozenset({("y1", "z6"), ("y1", "z9"), ("y4", "z2")}))
    t = NaryRelation((x, y, z), frozenset({("x1", "y1", "z6"), ("x2", "y1", "z9")}))
    tracemalloc.start()
    try:
        joined = njoin_relations((r, s))
        composed = compose_relations(r, s)
        decomposable = is_join_decomposable(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23
    assert len(joined.tuples) == 4 and len(composed.pairs) == 4 and not decomposable


def test_complete_600_label_relations_compose_within_budget():
    # 216,000,000 two-link paths; composition costs bitset rows, not paths
    x, y, z = (labels(c, 600) for c in "xyz")
    r, s = BinaryRelation.complete(x, y), BinaryRelation.complete(y, z)
    start = time.perf_counter()
    composed = compose_relations(r, s)
    seconds = time.perf_counter() - start
    assert composed == BinaryRelation.complete(x, z)
    assert seconds < 3  # about 0.6 s on a 2-CPU host
    assert join_size((r, s)) == 216_000_000


def test_bad_entries_of_mixed_types_are_value_errors():
    x = labels("x", 2)
    with pytest.raises(ValueError, match="pair component 1 not in domain"):
        BinaryRelation(x, x, frozenset({(1, "x1"), ("y", "x1")}))
    with pytest.raises(ValueError, match="tuple component 1 not in column"):
        NaryRelation((x, x), frozenset({(1, "x1"), ("y", "x1"), ("x1",)}))


def test_relation_json_roundtrip():
    _, _, _, e1, _, t0 = ternary_fixture()
    again = njoin.relation_from_json(njoin.relation_to_json(e1))
    assert again == e1
    t = njoin.nary_from_json(njoin.nary_to_json(t0))
    assert t == t0
    with pytest.raises(ValueError):
        njoin.relation_from_json({"dom": ["a"]})
    with pytest.raises(ValueError):
        njoin.nary_from_json({"columns": [["a"]]})
