import json
import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobwebs import boolmat, digraph
from cobwebs.cobweb import build_cobweb
from cobwebs.digraph import GradedDigraph, Poset

from conftest import (
    CLOSURE_INPUT_KINDS,
    golden_text,
    rand_bool_matrix,
    rand_closure_input,
    rand_dag,
    rand_graded_sizes,
    warshall_closure,
)


def rand_graded(rng: random.Random) -> GradedDigraph:
    sizes = rand_graded_sizes(rng)
    blocks = tuple(
        rand_bool_matrix(rng, sizes[k], sizes[k + 1]) for k in range(len(sizes) - 1)
    )
    return GradedDigraph(tuple(sizes), blocks)


def test_graded_digraph_validation():
    with pytest.raises(ValueError):
        GradedDigraph((1, 0), (boolmat.ones_matrix(1, 0),))
    with pytest.raises(ValueError):
        GradedDigraph((1, 2), ())
    with pytest.raises(ValueError):
        GradedDigraph((1, 2), (boolmat.ones_matrix(2, 2),))


def test_graded_digraph_rejects_non_integer_level_sizes():
    with pytest.raises(ValueError, match="level sizes must be integers, got 1.9"):
        GradedDigraph((1.9, 1), (boolmat.ones_matrix(1, 1),))
    d = GradedDigraph(np.array([1, 1]), (boolmat.ones_matrix(1, 1),))
    assert d.levels == (1, 1) and all(type(s) is int for s in d.levels)


def test_global_adjacency_single_block():
    d = GradedDigraph((1, 2), (boolmat.ones_matrix(1, 2),))
    assert digraph.global_adjacency(d).astype(int).tolist() == [
        [0, 1, 1],
        [0, 0, 0],
        [0, 0, 0],
    ]


def test_global_adjacency_cobweb_prefix():
    d = build_cobweb([1, 2, 3]).hasse
    a = digraph.global_adjacency(d)
    expected = np.zeros((6, 6), dtype=bool)
    expected[0, 1:3] = True
    expected[1:3, 3:6] = True
    assert np.array_equal(a, expected)


def test_global_adjacency_identity_block():
    d = GradedDigraph((2, 2), (boolmat.identity(2),))
    a = digraph.global_adjacency(d)
    assert a.astype(int).tolist() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]


def test_global_adjacency_strictly_upper_triangular():
    rng = random.Random(5)
    for _ in range(100):
        a = digraph.global_adjacency(rand_graded(rng))
        assert not np.tril(a).any()


def test_vertex_levels_and_arcs():
    d = build_cobweb([1, 2, 3]).hasse
    assert d.locate(1)[0] == 0
    assert d.locate(3)[0] == 1
    assert d.locate(6)[0] == 2
    with pytest.raises(ValueError):
        d.locate(7)
    arcs = list(d.arcs())
    assert arcs[:2] == [(1, 2), (1, 3)]
    assert len(arcs) == 2 + 6


def test_closure_of_chain_is_full_upper_triangle():
    chain = GradedDigraph((1, 1, 1), (boolmat.ones_matrix(1, 1),) * 2)
    p = digraph.transitive_closure(chain)
    assert np.array_equal(p.leq, np.triu(np.ones((3, 3), dtype=bool)))


def test_closure_of_naturals_cobweb_matches_golden():
    d = build_cobweb([1, 2, 3, 4, 5, 1]).hasse
    p = digraph.transitive_closure(d)
    assert boolmat.to_text(p.leq) == golden_text("zeta_n_16.txt")


@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_closure_equals_warshall_on_random_dags(n, rnd):
    a = rand_dag(rnd, n)
    p = digraph.transitive_closure(a)
    assert np.array_equal(p.leq, warshall_closure(a, reflexive=True))


@given(st.sampled_from(CLOSURE_INPUT_KINDS), st.randoms(use_true_random=False))
def test_closure_equals_warshall_on_graded_and_permuted_dags(kind, rnd):
    d = rand_closure_input(rnd, kind)
    a = digraph.global_adjacency(d) if isinstance(d, GradedDigraph) else d
    p = digraph.transitive_closure(d)
    assert np.array_equal(p.leq, warshall_closure(a, reflexive=True))


@pytest.mark.parametrize("kind", ["graded", "deleted-arcs", "fibonacci-tree"])
def test_graded_closure_multiplies_only_level_sized_operands(monkeypatch, kind):
    calls = []
    original = boolmat.bool_product

    def recording(a, b):
        calls.append((len(a), len(b)))
        return original(a, b)

    monkeypatch.setattr(boolmat, "bool_product", recording)
    monkeypatch.setattr(digraph, "bool_product", recording)
    rng = random.Random(kind)
    for _ in range(30):
        d = rand_closure_input(rng, kind)
        calls.clear()
        digraph.transitive_closure(d)
        assert len(calls) == len(d.blocks)  # one product per arc block
        assert max(map(max, calls), default=0) <= max(d.levels)
    d = build_cobweb([1, 2, 3, 4, 5, 1]).hasse
    calls.clear()
    digraph.transitive_closure(d)
    assert len(calls) == 5 and max(map(max, calls)) <= 5


def test_closure_skips_the_validating_poset_constructor(monkeypatch):
    def refuse(self):
        raise AssertionError("Poset validation ran on a library-built closure")

    monkeypatch.setattr(Poset, "__post_init__", refuse)
    rng = random.Random(8)
    for kind in CLOSURE_INPUT_KINDS:
        d = rand_closure_input(rng, kind)
        p = digraph.transitive_closure(d)
        assert not p.leq.flags.writeable
        assert p == digraph.transitive_closure(d)
    monkeypatch.undo()
    z = digraph.transitive_closure(build_cobweb([1, 2, 2]).hasse).leq
    assert Poset(z) == Poset(z.copy())
    for (i, j), broken in [((0, 0), "reflexive"), ((1, 0), "antisymmetric"),
                           ((0, 3), "transitive")]:
        bad = z.copy()
        bad[i, j] = not bad[i, j]
        with pytest.raises(ValueError, match=broken):
            Poset(bad)


def test_closure_rejects_cycles():
    cycle = np.array([[0, 1], [1, 0]], dtype=bool)
    with pytest.raises(ValueError, match="cyclic"):
        digraph.transitive_closure(cycle)


def test_closure_is_idempotent():
    rng = random.Random(99)
    for _ in range(50):
        p = digraph.transitive_closure(rand_dag(rng, rng.randint(0, 8)))
        again = digraph.transitive_closure(p.leq & ~boolmat.identity(p.leq.shape[0]))
        assert p == again


def test_poset_invariants_enforced():
    with pytest.raises(ValueError, match="reflexive"):
        Poset(np.zeros((2, 2), dtype=bool))
    sym = np.array([[1, 1], [1, 1]], dtype=bool)
    with pytest.raises(ValueError, match="antisymmetric"):
        Poset(sym)
    intransitive = np.array(
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool
    )
    with pytest.raises(ValueError, match="transitive"):
        Poset(intransitive)


def test_transitive_reduction_textbook():
    a = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=bool)
    reduced = digraph.transitive_reduction(a)
    assert reduced.astype(int).tolist() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert not digraph.is_transitive_irreducible(a)
    assert digraph.is_transitive_irreducible(reduced)


def test_transitive_reduction_of_reduced_chain_is_noop():
    a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
    assert np.array_equal(digraph.transitive_reduction(a), a)


def test_transitive_reduction_rejects_cycles():
    with pytest.raises(ValueError, match="cyclic"):
        digraph.transitive_reduction(np.array([[0, 1], [1, 0]], dtype=bool))
    with pytest.raises(ValueError):
        digraph.transitive_reduction(boolmat.ones_matrix(2, 3))


def test_reduce_close_reduce_is_reduce():
    rng = random.Random(2024)
    for _ in range(200):
        a = rand_dag(rng, rng.randint(0, 8))
        red = digraph.transitive_reduction(a)
        closed = digraph.transitive_closure(red).leq & ~boolmat.identity(red.shape[0])
        assert np.array_equal(digraph.transitive_reduction(closed), red)


def test_empty_digraph_is_irreducible():
    for n in (0, 1, 3):
        a = np.zeros((n, n), dtype=bool)
        assert digraph.is_transitive_irreducible(a)
        assert np.array_equal(digraph.transitive_reduction(a), a)
        assert np.array_equal(digraph.transitive_closure(a).leq, boolmat.identity(n))


def test_to_dot_small():
    d = GradedDigraph((1, 2), (boolmat.ones_matrix(1, 2),))
    dot = digraph.to_dot(d)
    assert dot.startswith("digraph {")
    assert dot.endswith("}\n")
    assert dot.count("->") == 2
    assert dot.count("rank=same") == 2
    for vertex in ("1;", "2;", "3;"):
        assert vertex in dot


def test_json_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        d = rand_graded(rng)
        again = digraph.digraph_from_json(json.loads("".join(digraph.digraph_to_json(d))))
        assert again == d
    with pytest.raises(ValueError):
        digraph.digraph_from_json({"levels": [1, 2]})


def warshall_reduction(a: np.ndarray) -> np.ndarray:
    """Arcs not implied by a path of length >= 2, by an integer product of
    Warshall strict closures."""
    c = warshall_closure(a).astype(int)
    return a & ~((c @ c) > 0)


def permuted(rng: random.Random, a: np.ndarray) -> np.ndarray:
    perm = list(range(a.shape[0]))
    rng.shuffle(perm)
    return a[np.ix_(perm, perm)]


RAW_DAG_KINDS = ("permuted-dag", "complete", "isolated")


def rand_raw_dag(rng: random.Random, kind: str) -> np.ndarray:
    """A raw acyclic adjacency: random, complete, or a random DAG padded
    with isolated vertices, always relabelled by a random permutation."""
    n = rng.randint(0, 16)
    if kind == "complete":
        return permuted(rng, np.triu(np.ones((n, n), dtype=bool), 1))
    a = rand_dag(rng, n, rng.random())
    if kind == "isolated":
        a = np.pad(a, (0, rng.randint(1, 5)))
    return permuted(rng, a)


@given(st.sampled_from(RAW_DAG_KINDS), st.randoms(use_true_random=False))
def test_raw_closure_and_reduction_match_warshall(kind, rnd):
    a = rand_raw_dag(rnd, kind)
    assert np.array_equal(digraph.transitive_closure(a).leq, warshall_closure(a, reflexive=True))
    red = digraph.transitive_reduction(a)
    assert np.array_equal(red, warshall_reduction(a))
    assert digraph.is_transitive_irreducible(red)
    assert digraph.is_transitive_irreducible(a) == np.array_equal(red, a)


def arcs_matrix(n: int, arcs) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        a[u - 1, v - 1] = True
    return a


@pytest.mark.parametrize("n, arcs, vertex", [
    (3, [(1, 2), (2, 2)], 2),                  # self-loop
    (2, [(1, 2), (2, 1)], 1),                  # 2-cycle
    (4, [(1, 2), (3, 4), (4, 3)], 3),          # cycle after an acyclic prefix
    (4, [(3, 4), (4, 3), (4, 1), (1, 2)], 3),  # smaller vertices only below the cycle
    (6, [(6, 5), (5, 4), (4, 6), (2, 3), (3, 2), (1, 2)], 2),
])
def test_cyclic_input_names_the_smallest_vertex_on_a_cycle(n, arcs, vertex):
    a = arcs_matrix(n, arcs)
    message = f"input digraph is cyclic (vertex {vertex} reaches itself)"
    for op in (digraph.transitive_closure, digraph.transitive_reduction,
               digraph.is_transitive_irreducible):
        with pytest.raises(ValueError) as info:
            op(a)
        assert str(info.value) == message


def test_raw_acyclic_input_needs_no_matrix_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix product or squaring closure ran on a raw DAG")

    for module in (boolmat, digraph):
        monkeypatch.setattr(module, "bool_product", refuse)
        monkeypatch.setattr(module, "closure_series", refuse)
    rng = random.Random(41)
    for kind in RAW_DAG_KINDS * 10:
        a = rand_raw_dag(rng, kind)
        digraph.transitive_closure(a)
        digraph.transitive_reduction(a)
        digraph.is_transitive_irreducible(a)


def test_naturals_cobweb_adjacency_is_its_own_reduction_at_scale():
    a = digraph.global_adjacency(build_cobweb(list(range(1, 41))).hasse)
    assert a.shape == (820, 820)
    start = time.perf_counter()
    assert digraph.is_transitive_irreducible(a)
    z = digraph.transitive_closure(a).leq
    elapsed = time.perf_counter() - start
    level = np.repeat(np.arange(40), np.arange(1, 41))
    assert np.array_equal(z, (level[:, None] < level) | np.eye(820, dtype=bool))
    # the sweep costs about arcs x n (tens of ms here); an n^3 closure takes seconds
    assert elapsed < 2.0, f"reduction and closure at n=820 took {elapsed:.2f}s"
