import math
import random
import time
from functools import reduce

import numpy as np
import pytest

from cobwebs import boolmat, cobweb
from cobwebs.cobweb import (
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
from cobwebs.digraph import (
    GradedDigraph,
    global_adjacency,
    transitive_closure,
    transitive_reduction,
)
from cobwebs.ferrers import chain_is_ferrers
from cobwebs.fseq import FSequence, level_sizes

from conftest import (
    BUILTIN_SEQUENCES,
    dfs_count_paths,
    golden_text,
    rabbit_tree_oracle,
    rand_bool_matrix,
    rand_graded_sizes,
    warshall_closure,
)


def an_blocks(sizes):
    expected = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    offsets = np.cumsum([0] + sizes)
    for k in range(len(sizes) - 1):
        expected[offsets[k] : offsets[k + 1], offsets[k + 1] : offsets[k + 2]] = True
    return expected


def test_build_cobweb_naturals_window():
    p = build_cobweb([1, 2, 3, 4, 5, 1])
    assert hasse_matrix(p).shape == (16, 16)
    assert np.array_equal(hasse_matrix(p), an_blocks([1, 2, 3, 4, 5, 1]))


def test_build_cobweb_degenerate_cases():
    single = build_cobweb([1])
    assert single.n_vertices == 1 and single.hasse.blocks == ()
    square = build_cobweb([2, 2])
    assert square.hasse.blocks[0].all()
    assert int(hasse_matrix(square).sum()) == 4
    with pytest.raises(ValueError):
        build_cobweb([])
    with pytest.raises(ValueError):
        build_cobweb([1, 0])
    with pytest.raises(ValueError):
        build_cobweb(FSequence.naturals())
    with pytest.raises(ValueError, match="not complete"):
        CobwebPoset((2, 2), (boolmat.identity(2),))


def test_zero_levels_are_rejected():
    for make in (GradedDigraph, CobwebPoset):
        with pytest.raises(ValueError, match="at least one level is required"):
            make((), ())
    with pytest.raises(ValueError, match="at least one level is required"):
        build_cobweb([])


def test_build_cobweb_checks_sizes_before_making_blocks(monkeypatch):
    monkeypatch.setattr(cobweb, "ones_matrix", lambda r, c: pytest.fail(f"{r}x{c} block made"))
    for sizes in ([2, 0, 3], [2, -1]):
        with pytest.raises(ValueError, match="level sizes must be >= 1"):
            build_cobweb(sizes)


def test_cobweb_is_its_hasse_digraph():
    p = build_cobweb([1, 2, 3])
    assert isinstance(p, GradedDigraph)
    assert p.hasse is p
    assert delete_arcs(p, []) == p
    assert p == GradedDigraph(p.levels, p.blocks)


def test_build_cobweb_rejects_non_integer_sizes():
    with pytest.raises(ValueError, match="level sizes must be integers, got 1.5"):
        build_cobweb([1.5, 2.7])
    p = build_cobweb(np.array([1, 2]))  # numpy integers are integers
    assert p.levels == (1, 2) and all(type(s) is int for s in p.levels)


def test_realizer_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="realizer entries must be integers, got 1.5"):
        Realizer((1.5, 2), (2, 1))
    assert Realizer(np.array([1, 2]), (2, 1)).l1 == (1, 2)


def test_build_cobweb_from_sequence_object():
    assert build_cobweb(FSequence.naturals(), 3) == build_cobweb([1, 2, 3])


def test_hasse_block_shapes_follow_sequence():
    for seq in BUILTIN_SEQUENCES:
        sizes = level_sizes(seq, 6)
        p = build_cobweb(sizes)
        for k, b in enumerate(p.hasse.blocks):
            assert b.shape == (sizes[k], sizes[k + 1])
            assert b.all()


def test_hasse_matrix_smallest():
    p = build_cobweb([1, 2])
    assert hasse_matrix(p).astype(int).tolist() == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]


def test_zeta_matrix_golden_grids():
    assert boolmat.to_text(zeta_matrix(build_cobweb([1, 2, 3, 4, 5, 1]))) == golden_text(
        "zeta_n_16.txt"
    )
    assert boolmat.to_text(zeta_matrix(build_cobweb([1, 1, 1, 2, 3, 5, 3]))) == golden_text(
        "zeta_f_16.txt"
    )
    assert zeta_matrix(build_cobweb([1])).astype(int).tolist() == [[1]]


def test_zeta_matches_warshall_for_builtin_sequences():
    for seq in BUILTIN_SEQUENCES:
        for n in range(1, 8):
            p = build_cobweb(level_sizes(seq, n))
            assert np.array_equal(
                zeta_matrix(p), warshall_closure(hasse_matrix(p), reflexive=True)
            )


def test_zeta_is_cached_once():
    p = build_cobweb([1, 2, 3])
    first = zeta_matrix(p)
    assert zeta_matrix(p) is first
    assert not first.flags.writeable


def test_zeta_cache_fill_is_safe_under_concurrency():
    from concurrent.futures import ThreadPoolExecutor

    p = build_cobweb([1, 2, 3, 4, 5])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: zeta_matrix(p), range(32)))
    assert all(np.array_equal(r, results[0]) for r in results)
    assert zeta_matrix(p) is results[0]


def test_staircase_rows_of_zeta():
    # above the diagonal: zeros exactly on the vertex's own level, ones on
    # every later level
    for seq in BUILTIN_SEQUENCES:
        sizes = level_sizes(seq, 6)
        p = build_cobweb(sizes)
        z = zeta_matrix(p)
        level_of = np.repeat(np.arange(len(sizes)), sizes)
        n = p.n_vertices
        for i in range(n):
            for j in range(i + 1, n):
                assert z[i, j] == (level_of[j] > level_of[i])


def test_leq_examples():
    p = build_cobweb([1, 2, 3, 4, 5, 1])
    assert leq(p, 4, 4)
    assert not leq(p, 2, 3)  # same level: an antichain
    assert leq(p, 2, 4)
    assert not leq(p, 4, 2)
    with pytest.raises(ValueError):
        leq(p, 0, 1)
    with pytest.raises(ValueError):
        leq(p, 1, 17)
    with pytest.raises(ValueError):
        leq(p, 0, 0)  # x == y is answered only after the range check


def test_leq_refuses_digraphs_that_are_not_cobwebs():
    # neither pair is ordered, though x sits on an earlier level than y
    cases = [(delete_arcs(build_cobweb([1, 2, 2]), [(2, 4)]), 2, 4), (fibonacci_tree(4), 3, 7)]
    for d, x, y in cases:
        assert not transitive_closure(d).leq[x - 1, y - 1]
        with pytest.raises(TypeError, match="transitive_closure"):
            leq(d, x, y)


def test_leq_does_not_build_the_zeta():
    p = build_cobweb([1, 2, 3, 4, 5, 1])
    answers = [leq(p, x, y) for x in range(1, 17) for y in range(1, 17)]
    assert "zeta" not in p.__dict__
    assert answers == [bool(v) for v in zeta_matrix(p).flat]


def test_leq_agrees_with_zeta_and_block_composition():
    p = build_cobweb([1, 2, 3, 2])
    z = zeta_matrix(p)
    offsets = p.hasse.level_offsets
    n = p.n_vertices
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            assert leq(p, x, y) == bool(z[x - 1, y - 1])
            i, j = p.hasse.locate(x)[0], p.hasse.locate(y)[0]
            if i < j:
                # Boolean composition of the arc blocks between the levels
                composed = reduce(boolmat.bool_product, p.hasse.blocks[i:j])
                assert leq(p, x, y) == bool(
                    composed[x - 1 - offsets[i], y - 1 - offsets[j]]
                )


def test_realizer_orders():
    assert realizer(build_cobweb([1, 2])) == Realizer((1, 2, 3), (1, 3, 2))
    assert realizer(build_cobweb([2, 2])).l2 == (2, 1, 4, 3)
    assert realizer(build_cobweb([1, 2, 3])).l2 == (1, 3, 2, 6, 5, 4)
    assert realizer(build_cobweb([1, 2, 3])).l1 == (1, 2, 3, 4, 5, 6)


def test_verify_dim2_for_builtin_cobwebs():
    for seq in BUILTIN_SEQUENCES:
        for n in range(1, 7):
            assert verify_dim2(build_cobweb(level_sizes(seq, n)))


def test_verify_dim2_single_vertex():
    assert verify_dim2(build_cobweb([1]))


def test_verify_dim2_checks_the_realizer_length_before_any_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure built before the realizer was checked")

    monkeypatch.setattr(cobweb, "transitive_closure", no_closure)
    monkeypatch.setattr(cobweb, "closure_series", no_closure)
    short = realizer(build_cobweb([1, 2]))
    for p in (build_cobweb([1, 2, 3]), build_cobweb([1, 2, 3]).hasse):
        with pytest.raises(ValueError, match="realizer covers 3 vertices, poset has 6"):
            verify_dim2(p, short)


def test_verify_dim2_closes_the_hasse_digraph_not_the_cobweb_zeta():
    p = build_cobweb(FSequence.naturals(), 40)  # n = 820
    assert verify_dim2(p)
    assert "zeta" not in p.__dict__  # the cached squaring series was not filled


def test_cap_sized_closure_is_the_staircase():
    # n = 9870, just under the command line's default COBWEB_MAX_VERTICES
    d = build_cobweb(FSequence.naturals(), 140).hasse
    level = np.repeat(np.arange(len(d.levels)), d.levels)
    staircase = level[:, None] < level
    np.fill_diagonal(staircase, True)
    assert np.array_equal(transitive_closure(d).leq, staircase)
    del staircase
    assert verify_dim2(d)


def test_verify_dim2_finds_a_defect_past_the_first_row_block():
    p = build_cobweb(FSequence.naturals(), 30)  # n = 465
    assert p.n_vertices > boolmat.ROW_BLOCK
    r = realizer(p)
    last = p.levels[-1]
    l2 = r.l2[:-last] + tuple(sorted(r.l2[-last:]))  # last level not reversed
    assert not verify_dim2(p, Realizer(r.l1, l2))
    assert verify_dim2(p.hasse, r)


def test_verify_dim2_rejects_unreversed_l2():
    p = build_cobweb([1, 2, 2])
    l1 = realizer(p).l1
    corrupted = Realizer(l1, l1)
    assert not verify_dim2(p, corrupted)


def test_count_paths_examples():
    p = build_cobweb([1, 2, 3])
    assert count_paths(p, 1, 1) == 0
    for target in (4, 5, 6):
        assert count_paths(p, 1, target) == 2
    assert count_paths(p, 4, 1) == 0
    assert count_paths(p, 2, 3) == 0
    with pytest.raises(ValueError):
        count_paths(p, 1, 7)


def test_count_paths_closed_form_and_dfs():
    rng = random.Random(0xFEED)
    for seq in BUILTIN_SEQUENCES:
        sizes = level_sizes(seq, 6)
        p = build_cobweb(sizes)
        a = hasse_matrix(p)
        for _ in range(20):
            x = rng.randint(1, p.n_vertices)
            y = rng.randint(1, p.n_vertices)
            got = count_paths(p, x, y)
            assert got == dfs_count_paths(a, x, y)
            i, j = p.hasse.locate(x)[0], p.hasse.locate(y)[0]
            if i < j:
                product = 1
                for t in range(i + 1, j):
                    product *= sizes[t]
                assert got == product


def test_count_paths_matches_dfs_on_incomplete_digraphs():
    rng = random.Random(0xC0B)
    digraphs = [fibonacci_tree(n) for n in range(1, 8)]
    for _ in range(40):
        sizes = rand_graded_sizes(rng)
        digraphs.append(GradedDigraph(tuple(sizes), tuple(
            rand_bool_matrix(rng, sizes[k], sizes[k + 1], 0.6) for k in range(len(sizes) - 1)
        )))
        arcs = list(build_cobweb(sizes).hasse.arcs())
        removals = rng.sample(arcs, rng.randint(0, len(arcs)))
        digraphs.append(delete_arcs(build_cobweb(sizes), removals))
    for d in digraphs:
        a = global_adjacency(d)
        for x in range(1, d.n_vertices + 1):
            for y in range(1, d.n_vertices + 1):
                assert count_paths(d, x, y) == dfs_count_paths(a, x, y)


def test_count_paths_is_exact_past_int64():
    # 1 -> 465 crosses every level of the 30-level naturals cobweb; the
    # count is the product 2 * 3 * ... * 29 of the intermediate sizes
    p = build_cobweb(FSequence.naturals(), 30)
    start = time.perf_counter()
    assert count_paths(p, 1, 465) == math.factorial(29)
    assert time.perf_counter() - start < 1.0
    assert math.factorial(29) > 2**63


def test_maximal_chain_count_is_product_of_sizes():
    for seq in BUILTIN_SEQUENCES:
        for n in range(2, 7):
            sizes = level_sizes(seq, n)
            p = build_cobweb(sizes)
            offsets = p.hasse.level_offsets
            bottom = range(1, sizes[0] + 1)
            top = range(offsets[-1] + 1, offsets[-1] + sizes[-1] + 1)
            total = sum(count_paths(p, x, y) for x in bottom for y in top)
            product = 1
            for s in sizes:
                product *= s
            assert total == product


def test_hasse_is_transitive_irreducible():
    for seq in BUILTIN_SEQUENCES:
        for n in range(1, 7):
            a = hasse_matrix(build_cobweb(level_sizes(seq, n)))
            assert np.array_equal(transitive_reduction(a), a)


def test_delete_arcs_noop_and_full_block():
    p = build_cobweb([1, 2, 3])
    assert delete_arcs(p, []) == p.hasse

    removals = [(u, v) for (u, v) in p.hasse.arcs() if p.hasse.locate(u)[0] == 0]
    d = delete_arcs(p, removals)
    assert not d.blocks[0].any()
    z = transitive_closure(d).leq
    assert not z[0, 1:].any()  # the root no longer reaches anything


def test_delete_arcs_to_identity_blocks():
    p = build_cobweb([2, 2])
    d = delete_arcs(p, [(1, 4), (2, 3)])
    assert np.array_equal(d.blocks[0], boolmat.identity(2))
    result = chain_is_ferrers(list(d.blocks))
    assert not result.ok
    (block, witness), = result.failures
    assert block == 0
    assert (witness.r1, witness.r2, witness.c1, witness.c2) == (1, 2, 1, 2)


def test_delete_arcs_rejects_missing_arc():
    p = build_cobweb([1, 2, 3])
    with pytest.raises(ValueError):
        delete_arcs(p, [(2, 3)])  # same level, never an arc
    delete_arcs(p, [(1, 2)])
    with pytest.raises(ValueError):
        delete_arcs(p, [(1, 2), (1, 2)])  # second removal no longer exists


def test_fibonacci_tree_shapes():
    t2 = fibonacci_tree(2)
    assert t2.levels == (1, 1)
    assert list(t2.arcs()) == [(1, 2)]
    t5 = fibonacci_tree(5)
    assert t5.levels == (1, 1, 2, 3, 5)
    assert fibonacci_tree(1).levels == (1,)
    with pytest.raises(ValueError):
        fibonacci_tree(0)


def test_fibonacci_tree_matches_the_status_string_oracle():
    for n in range(1, 19):
        assert fibonacci_tree(n) == rabbit_tree_oracle(n)


def test_fibonacci_tree_is_a_tree_inside_the_cobweb():
    t6 = fibonacci_tree(6)
    assert t6.levels == tuple(level_sizes(FSequence.fibonacci(), 6))
    for b in t6.blocks:
        assert (b.sum(axis=0) == 1).all()  # every child has exactly one parent
    # sits inside the complete cobweb on the same levels
    cob = build_cobweb(list(t6.levels))
    assert not (global_adjacency(t6) & ~hasse_matrix(cob)).any()


def test_fibonacci_tree_blocks_are_not_ferrers():
    result = chain_is_ferrers(list(fibonacci_tree(5).blocks))
    assert not result.ok
    assert result.failures[0][0] == 2


def test_hasse_equals_njoin_fold_for_builtins():
    from cobwebs.njoin import embed_biadjacency, njoin_fold

    for seq in BUILTIN_SEQUENCES:
        sizes = level_sizes(seq, 7)
        mats = [
            embed_biadjacency(boolmat.ones_matrix(sizes[k], sizes[k + 1]))
            for k in range(len(sizes) - 1)
        ]
        assert np.array_equal(njoin_fold(mats), hasse_matrix(build_cobweb(sizes)))
