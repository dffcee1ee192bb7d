import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobwebs import boolmat, ferrers
from cobwebs.cobweb import build_cobweb, fibonacci_tree, zeta_matrix
from cobwebs.digraph import transitive_closure
from cobwebs.ferrers import (
    StaircaseProfile,
    chain_is_ferrers,
    has_perm2x2,
    is_ferrers,
    staircase_profile,
    strict_order_is_ferrers,
)
from cobwebs.fseq import level_sizes

from conftest import BUILTIN_SEQUENCES, golden_grid, naive_perm2x2, staircase_reference


def small_bool_matrices(max_dim=7):
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda dims: st.lists(
            st.lists(st.booleans(), min_size=dims[1], max_size=dims[1]),
            min_size=dims[0],
            max_size=dims[0],
        ).map(lambda rows: np.array(rows, dtype=bool).reshape(dims))
    )


def test_has_perm2x2_on_all_ones_and_identity():
    assert has_perm2x2(boolmat.ones_matrix(3, 4)) is None
    witness = has_perm2x2(boolmat.identity(2))
    assert (witness.r1, witness.r2, witness.c1, witness.c2) == (1, 2, 1, 2)
    assert witness.pattern == "10"
    swapped = has_perm2x2(np.array([[0, 1], [1, 0]], dtype=bool))
    assert swapped.pattern == "01"


def test_has_perm2x2_returns_lex_smallest_witness():
    b = np.array(
        [
            [0, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
        ],
        dtype=bool,
    )
    w = has_perm2x2(b)
    # rows (1,2): cols reading (1,0) are {3}, cols reading (0,1) are {1};
    # smallest pair is c1=1 (0,1) then c2=3 (1,0), the swapped pattern
    assert (w.r1, w.r2, w.c1, w.c2, w.pattern) == (1, 2, 1, 3, "01")
    assert w.describe() == "rows (1,2) cols (1,3) pattern 01"


def test_cobweb_blocks_have_no_perm2x2():
    for seq in BUILTIN_SEQUENCES:
        p = build_cobweb(level_sizes(seq, 6))
        for b in p.hasse.blocks:
            assert has_perm2x2(b) is None


def test_is_ferrers_examples():
    assert is_ferrers(boolmat.ones_matrix(2, 2))
    assert is_ferrers(np.array([[1, 1], [0, 1]], dtype=bool))
    assert not is_ferrers(boolmat.identity(2))
    assert is_ferrers(np.zeros((3, 3), dtype=bool))
    assert is_ferrers(np.zeros((0, 0), dtype=bool))


def test_is_ferrers_checks_the_pair_across_a_row_block_boundary():
    n, k = boolmat.ROW_BLOCK + 10, boolmat.ROW_BLOCK - 1
    b = np.arange(n) < (n - np.arange(n))[:, None]  # row i: the first n - i columns
    assert is_ferrers(b)
    # row k + 1 keeps its size but takes a column row k lacks; it still
    # contains row k + 2, so sorted rows k, k + 1 are the only bad pair
    b[k + 1, n - k - 2] = False
    b[k + 1, n - k] = True
    assert not is_ferrers(b)
    assert has_perm2x2(b) is not None


@given(small_bool_matrices())
def test_is_ferrers_iff_no_perm2x2(b):
    witness = has_perm2x2(b)
    assert is_ferrers(b) == (witness is None)
    assert (witness is not None) == naive_perm2x2(b)
    if witness is not None:
        quad = np.array(
            [
                [b[witness.r1 - 1, witness.c1 - 1], b[witness.r1 - 1, witness.c2 - 1]],
                [b[witness.r2 - 1, witness.c1 - 1], b[witness.r2 - 1, witness.c2 - 1]],
            ]
        )
        expected = [[1, 0], [0, 1]] if witness.pattern == "10" else [[0, 1], [1, 0]]
        assert quad.astype(int).tolist() == expected


def quartic_witness(b):
    """The first 2x2 permutation submatrix in (r1, r2, c1, c2) order, 1-based."""
    rows, cols = b.shape
    for r1 in range(rows):
        for r2 in range(r1 + 1, rows):
            for c1 in range(cols):
                for c2 in range(c1 + 1, cols):
                    if b[r1, c1] == b[r2, c2] != b[r1, c2] == b[r2, c1]:
                        return (r1 + 1, r2 + 1, c1 + 1, c2 + 1, "10" if b[r1, c1] else "01")
    return None


@given(small_bool_matrices())
def test_has_perm2x2_is_the_first_quartic_witness(b):
    w = has_perm2x2(b)
    found = None if w is None else (w.r1, w.r2, w.c1, w.c2, w.pattern)
    assert found == quartic_witness(b)


@given(small_bool_matrices(max_dim=6), st.integers(0, 5), st.integers(0, 5))
def test_ferrers_closed_under_duplication(b, row, col):
    if not is_ferrers(b):
        return
    if b.shape[0]:
        r = row % b.shape[0]
        assert is_ferrers(np.insert(b, r, b[r], axis=0))
    if b.shape[1]:
        c = col % b.shape[1]
        assert is_ferrers(np.insert(b, c, b[:, c], axis=1))


def test_staircase_profile_recovers_golden_sizes():
    zn = golden_grid("zeta_n_16.txt")
    assert staircase_profile(zn).level_sizes == (1, 2, 3, 4, 5, 1)
    zf = golden_grid("zeta_f_16.txt")
    assert staircase_profile(zf).level_sizes == (1, 1, 1, 2, 3, 5, 3)


def test_staircase_profile_on_identity():
    assert staircase_profile(np.zeros((0, 0), dtype=bool)) == StaircaseProfile((), None)
    assert staircase_profile(boolmat.identity(1)).level_sizes == (1,)
    for n in (2, 3, 6):
        profile = staircase_profile(boolmat.identity(n))
        assert not profile.ok
        assert profile.violation == (1, 2)


def test_staircase_profile_roundtrips_construction_sizes():
    # a single multi-vertex level is a bare antichain, not a join of
    # complete bipartite blocks, so the roundtrip starts at two levels
    for seq in BUILTIN_SEQUENCES:
        for n in range(2, 7):
            sizes = level_sizes(seq, n)
            profile = staircase_profile(zeta_matrix(build_cobweb(sizes)))
            assert profile.ok
            assert profile.level_sizes == tuple(sizes)
    assert staircase_profile(zeta_matrix(build_cobweb([1]))).level_sizes == (1,)


def test_staircase_profile_reports_first_violation():
    z = golden_grid("zeta_n_16.txt")
    z[5, 6] = False  # vertex 6 loses its first later-level one
    profile = staircase_profile(z)
    assert profile.violation == (6, 7)

    bumpy = np.triu(np.ones((3, 3), dtype=bool))
    bumpy[0, 2] = False  # a zero past the boundary claimed by row 1
    profile = staircase_profile(bumpy)
    assert not profile.ok and profile.violation == (1, 3)


@pytest.mark.parametrize("name, i, j, value, violation, sizes", [
    ("zeta_n_16.txt", 3, 4, True, (4, 6), None),  # a same-level one moves a boundary
    ("zeta_n_16.txt", 0, 15, False, (1, 16), None),
    ("zeta_n_16.txt", 10, 12, True, (11, 14), None),
    ("zeta_n_16.txt", 1, 2, True, None, (1, 1, 1, 3, 4, 5, 1)),  # another staircase
    ("zeta_f_16.txt", 0, slice(1, None), False, (1, 2), None),
    ("zeta_f_16.txt", 2, 3, False, (4, 5), None),  # two levels merge
    ("zeta_f_16.txt", 8, 15, False, (9, 16), None),
    ("zeta_f_16.txt", 13, 14, True, (14, 16), None),
])
def test_staircase_profile_on_corrupted_golden_grids(name, i, j, value, violation, sizes):
    z = golden_grid(name)
    z[i, j] = value
    profile = staircase_profile(z)
    assert (profile.violation, profile.level_sizes) == (violation, sizes)


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=7),
    st.lists(st.tuples(st.integers(0, 41), st.integers(0, 41)), max_size=3),
)
def test_staircase_profile_agrees_with_the_row_boundary_reference(sizes, flips):
    z = zeta_matrix(build_cobweb(sizes)).copy()
    n = len(z)
    for a, b in flips:  # a cell strictly above the diagonal
        i, j = sorted((a % n, b % n))
        if i < j:
            z[i, j] = ~z[i, j]
    profile = staircase_profile(z)
    assert (profile.level_sizes, profile.violation) == staircase_reference(z)


def test_staircase_profile_validates_input():
    with pytest.raises(ValueError):
        staircase_profile(boolmat.ones_matrix(2, 3))
    with pytest.raises(ValueError):
        staircase_profile(np.zeros((2, 2), dtype=bool))
    full = boolmat.ones_matrix(2, 2)
    with pytest.raises(ValueError):
        staircase_profile(full)  # lower triangle occupied


def test_chain_is_ferrers_for_builtin_cobwebs():
    for seq in BUILTIN_SEQUENCES:
        for n in range(1, 7):
            p = build_cobweb(level_sizes(seq, n))
            assert chain_is_ferrers(list(p.hasse.blocks)).ok


def test_chain_is_ferrers_fails_on_fibonacci_tree():
    result = chain_is_ferrers(list(fibonacci_tree(5).blocks))
    assert not result
    block, witness = result.failures[0]
    assert block == 2
    assert (witness.r1, witness.r2, witness.c1, witness.c2) == (1, 2, 1, 3)


def test_chain_is_ferrers_checks_each_block_once(monkeypatch):
    calls = []
    original = ferrers.is_ferrers

    def counted(b):
        calls.append(b.shape)
        return original(b)

    monkeypatch.setattr(ferrers, "is_ferrers", counted)
    blocks = fibonacci_tree(5).blocks
    assert not chain_is_ferrers(list(blocks))
    assert calls == [b.shape for b in blocks]  # failing blocks are not sorted twice


def test_chain_with_identity_block_fails_there():
    blocks = [boolmat.ones_matrix(1, 2), boolmat.identity(2), boolmat.ones_matrix(2, 1)]
    result = chain_is_ferrers(blocks)
    assert not result.ok
    assert [k for k, _ in result.failures] == [1]


def test_chain_is_ferrers_requires_conformable_blocks():
    with pytest.raises(ValueError, match="block 0"):
        chain_is_ferrers([boolmat.ones_matrix(1, 2), boolmat.ones_matrix(3, 1)])


def test_strict_order_matrix_of_cobwebs_is_ferrers():
    for seq in BUILTIN_SEQUENCES:
        for n in range(1, 7):
            sizes = level_sizes(seq, n)
            z = zeta_matrix(build_cobweb(sizes))
            assert strict_order_is_ferrers(z)
            if max(sizes) >= 2:
                # the reflexive diagonal spoils nesting between same-level
                # rows; the certificate lives on the strict part only
                assert not is_ferrers(z)


@given(small_bool_matrices(), st.booleans())
def test_strict_order_is_ferrers_of_the_cleared_diagonal(b, reflexive):
    n = min(b.shape)
    z = b[:n, :n].copy()
    if reflexive:
        np.fill_diagonal(z, True)
    assert strict_order_is_ferrers(z) == is_ferrers(z & ~boolmat.identity(n))


def test_strict_order_is_ferrers_clears_the_diagonal_in_every_row_block():
    z = zeta_matrix(build_cobweb(range(1, 31)))  # n = 465; its last levels sort last
    assert len(z) > boolmat.ROW_BLOCK and not is_ferrers(z)
    assert strict_order_is_ferrers(z)


def test_strict_order_ferrers_negative():
    z = transitive_closure(fibonacci_tree(5)).leq
    assert not strict_order_is_ferrers(z)
