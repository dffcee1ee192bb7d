import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobwebs import boolmat, digraph
from cobwebs.cobweb import build_cobweb, hasse_matrix
from cobwebs.digraph import GradedDigraph, Poset, global_adjacency
from cobwebs.ferrers import chain_is_ferrers, staircase_profile, strict_order_is_ferrers
from cobwebs.fseq import FSequence, level_sizes
from cobwebs.njoin import embed_biadjacency, njoin_fold, reduced_composition

from conftest import (
    BUILTIN_SEQUENCES,
    CLOSURE_INPUT_KINDS,
    rand_bool_matrix,
    rand_closure_input,
    warshall_closure,
)


def bool_matrices(max_rows=8, max_cols=8, min_rows=0, min_cols=0):
    def build(dims):
        r, c = dims
        return st.lists(
            st.lists(st.booleans(), min_size=c, max_size=c), min_size=r, max_size=r
        ).map(lambda rows: np.array(rows, dtype=bool).reshape(r, c))

    return st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    ).flatmap(build)


def square_bool_matrices(max_n=8):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: np.array(rows, dtype=bool).reshape(n, n))
    )


def test_ones_matrix():
    assert boolmat.ones_matrix(1, 2).astype(int).tolist() == [[1, 1]]
    assert boolmat.ones_matrix(2, 3).astype(int).tolist() == [[1, 1, 1], [1, 1, 1]]
    empty = boolmat.ones_matrix(0, 3)
    assert empty.shape == (0, 3)
    with pytest.raises(ValueError):
        boolmat.ones_matrix(-1, 2)


def test_bool_product_examples():
    b = rand_bool_matrix(random.Random(7), 2, 5)
    assert np.array_equal(boolmat.bool_product(boolmat.identity(2), b), b)
    prod = boolmat.bool_product(
        np.array([[1, 1]], dtype=bool), np.array([[1], [0]], dtype=bool)
    )
    assert prod.astype(int).tolist() == [[1]]
    swap = np.array([[0, 1], [1, 0]], dtype=bool)
    assert np.array_equal(boolmat.bool_product(boolmat.identity(2), swap), swap)


def test_bool_product_dimension_mismatch():
    with pytest.raises(ValueError):
        boolmat.bool_product(boolmat.ones_matrix(2, 3), boolmat.ones_matrix(2, 3))


def test_bool_product_associative_bulk():
    rng = random.Random(0xC0B3EB)
    for _ in range(1000):
        k, m, s, t = (rng.randint(1, 8) for _ in range(4))
        a = rand_bool_matrix(rng, k, m)
        b = rand_bool_matrix(rng, m, s)
        c = rand_bool_matrix(rng, s, t)
        left = boolmat.bool_product(boolmat.bool_product(a, b), c)
        right = boolmat.bool_product(a, boolmat.bool_product(b, c))
        assert np.array_equal(left, right)


def test_closure_of_zeros_is_identity():
    z = boolmat.closure_series(np.zeros((3, 3), dtype=bool), reflexive=True)
    assert np.array_equal(z, boolmat.identity(3))
    strict = boolmat.closure_series(np.zeros((3, 3), dtype=bool), reflexive=False)
    assert not strict.any()


def test_closure_requires_square():
    with pytest.raises(ValueError):
        boolmat.closure_series(boolmat.ones_matrix(2, 3))


@pytest.mark.parametrize("call, noun", [
    (boolmat.closure_series, "matrix"),
    (Poset, "zeta matrix"),
    (strict_order_is_ferrers, "order matrix"),
    (staircase_profile, "zeta matrix"),
    (digraph.transitive_closure, "adjacency matrix"),
    (digraph.transitive_reduction, "adjacency matrix"),
    (digraph.is_transitive_irreducible, "adjacency matrix"),
])
def test_every_square_check_raises_the_one_message(call, noun):
    with pytest.raises(ValueError, match=rf"^{noun} must be square, got shape \(2, 3\)$"):
        call(np.ones((2, 3), dtype=bool))


@pytest.mark.parametrize("call", [
    lambda a, b: chain_is_ferrers([a, b]),
    lambda a, b: njoin_fold([embed_biadjacency(a), embed_biadjacency(b)]),
    lambda a, b: reduced_composition(embed_biadjacency(a), embed_biadjacency(b)),
], ids=["chain_is_ferrers", "njoin_fold", "reduced_composition"])
def test_every_join_check_raises_the_one_message(call):
    message = (r"^natural join condition violated at position 0: shapes \(1, 2\) and "
               r"\(3, 1\) \(columns of block 0, rows of block 1\)$")
    with pytest.raises(ValueError, match=message):
        call(np.ones((1, 2), dtype=bool), np.ones((3, 1), dtype=bool))


@given(square_bool_matrices(max_n=10), st.booleans())
def test_closure_series_equals_warshall(a, reflexive):
    assert np.array_equal(
        boolmat.closure_series(a, reflexive=reflexive),
        warshall_closure(a, reflexive=reflexive),
    )


@given(st.sampled_from(CLOSURE_INPUT_KINDS), st.randoms(use_true_random=False), st.booleans())
def test_closure_series_equals_warshall_on_dags(kind, rnd, reflexive):
    d = rand_closure_input(rnd, kind)
    a = global_adjacency(d) if isinstance(d, GradedDigraph) else d
    assert np.array_equal(
        boolmat.closure_series(a, reflexive=reflexive),
        warshall_closure(a, reflexive=reflexive),
    )


def counting_products(monkeypatch) -> list:
    """Route ``boolmat.bool_product`` through a counter; returns the call log."""
    calls = []
    product = boolmat.bool_product

    def counted(a, b):
        calls.append(a.shape)
        return product(a, b)

    monkeypatch.setattr(boolmat, "bool_product", counted)
    return calls


def test_path_closes_in_logarithmically_many_products(monkeypatch):
    calls = counting_products(monkeypatch)
    for arcs in range(40):
        path = np.eye(arcs + 1, k=1, dtype=bool)
        calls.clear()
        z = boolmat.closure_series(path)
        assert np.array_equal(z, np.triu(np.ones((arcs + 1,) * 2, dtype=bool)))
        # (arcs - 1).bit_length() is ceil(log2(arcs)) for arcs >= 1
        assert len(calls) == (1 + (arcs - 1).bit_length() if arcs else 1), arcs


def test_cycle_closes_within_log_rows_products(monkeypatch):
    calls = counting_products(monkeypatch)
    for n in range(1, 40):
        cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        calls.clear()
        assert boolmat.closure_series(cycle, reflexive=False).all()
        assert len(calls) <= 1 + (n - 1).bit_length(), n


def test_nilpotent_powers_vanish_within_rows():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        a = np.triu(rand_bool_matrix(rng, n, n), 1)
        powers = [a]
        for _ in range(n - 1):
            powers.append(boolmat.bool_product(powers[-1], a))
        assert not boolmat.bool_product(powers[-1], a).any()
        partial = boolmat.identity(n)
        for power in powers:
            partial = partial | power
        assert np.array_equal(partial, boolmat.closure_series(a, reflexive=True))


def test_direct_sum():
    out = boolmat.direct_sum([np.array([[1]], dtype=bool), np.array([[1, 1]], dtype=bool)])
    assert out.astype(int).tolist() == [[1, 0, 0], [0, 1, 1]]
    assert boolmat.direct_sum([]).shape == (0, 0)
    two = boolmat.direct_sum([boolmat.ones_matrix(1, 2), boolmat.ones_matrix(2, 3)])
    expected = np.zeros((3, 5), dtype=bool)
    expected[0, 0:2] = True
    expected[1:3, 2:5] = True
    assert np.array_equal(two, expected)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_chain_adjacency_is_shifted_direct_sum(sizes, rng):
    # definition: direct_sum(blocks) at rows [:rows], columns [first:] of a zero square
    blocks = [rand_bool_matrix(rng, r, c) for r, c in zip(sizes, sizes[1:])]
    s = boolmat.direct_sum(blocks)
    expected = np.zeros((sum(sizes),) * 2, dtype=bool)
    expected[: s.shape[0], sizes[0] :] = s
    assert np.array_equal(boolmat.chain_adjacency(blocks, sizes[0]), expected)


def test_chain_adjacency_allocates_one_square():
    d = build_cobweb(FSequence.parse("naturals"), 60).hasse
    n = d.n_vertices
    assert n == 1830
    tracemalloc.start()
    try:
        a = global_adjacency(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (n, n)
    # one n x n bool array; a direct sum copied into the square would be ~2 n^2
    assert peak < 1.25 * n * n


@pytest.mark.parametrize("seq", BUILTIN_SEQUENCES, ids=lambda s: s.kind)
def test_cobweb_power_supports_are_disjoint(seq):
    a = hasse_matrix(build_cobweb(level_sizes(seq, 6)))
    powers = [a]
    for _ in range(5):
        powers.append(boolmat.bool_product(powers[-1], a))
    for i in range(len(powers)):
        for j in range(i + 1, len(powers)):
            assert not (powers[i] & powers[j]).any()


def test_text_format_exact():
    m = np.array([[1, 0], [0, 1]], dtype=bool)
    assert boolmat.to_text(m) == "1 0\n0 1\n"
    assert boolmat.to_text(np.zeros((0, 0), dtype=bool)) == ""


@given(bool_matrices())
def test_text_matches_the_per_entry_join(m):
    expected = "".join(" ".join("1" if x else "0" for x in row) + "\n" for row in m)
    assert boolmat.to_text(m) == expected


