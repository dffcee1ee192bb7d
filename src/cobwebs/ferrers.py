"""Ferrers digraph recognition and staircase certification.

A 0/1 matrix is a Ferrers (bi)adjacency matrix when its rows are linearly
ordered by support inclusion; equivalently, when it contains no 2x2
permutation submatrix ([[1,0],[0,1]] or [[0,1],[1,0]]).  Both
characterizations are implemented: ``is_ferrers`` runs the fast nesting
check and ``has_perm2x2`` scans for an explicit witness, only in blocks
that the nesting check rejects.

A chain of bipartite blocks whose every block is Ferrers assembles into a
graded digraph of Ferrers dimension one; complete cobweb blocks always
pass, while deleting arcs may introduce a forbidden submatrix
(``chain_is_ferrers`` reports a witness per failing block).

``staircase_profile`` recognizes the zeta matrix of a cobweb poset by its
staircase of zeros above the diagonal, reading each level's size off
the level's first row, and recovers the level sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .boolmat import ROW_BLOCK, BoolMatrix, as_bool_matrix, as_square_matrix, check_join_condition


@dataclass(frozen=True)
class PermSubmatrixWitness:
    """Rows and columns (1-based) of a 2x2 permutation submatrix.

    ``pattern`` is "10" for [[1,0],[0,1]] and "01" for [[0,1],[1,0]].
    """

    r1: int
    r2: int
    c1: int
    c2: int
    pattern: str

    def describe(self) -> str:
        return f"rows ({self.r1},{self.r2}) cols ({self.c1},{self.c2}) pattern {self.pattern}"


@dataclass(frozen=True)
class ChainFerrersResult:
    """Outcome of the blockwise Ferrers check; ``ok`` is derived from ``failures``."""

    failures: tuple[tuple[int, PermSubmatrixWitness], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class StaircaseProfile:
    """The level sizes recovered from a zeta grid, or its first violation.

    ``level_sizes`` is None unless the grid is a cobweb staircase, and
    ``violation`` is None or the first offending 1-based (row, column).
    """

    level_sizes: Optional[tuple[int, ...]]
    violation: Optional[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.violation is None


def has_perm2x2(b: BoolMatrix) -> Optional[PermSubmatrixWitness]:
    """Find the lexicographically smallest 2x2 permutation submatrix.

    Returns None when no such submatrix exists.  Witness order is
    (r1, r2, c1, c2) with r1 < r2 and c1 < c2, all 1-based.  Rows r1 and
    r2 hold a witness exactly when some column reads (1, 0) down the pair
    and another reads (0, 1).  For the first such pair, c1 is the first
    column where the rows differ: a column of the opposite kind must come
    after it, so it opens the pair's smallest witness.  c2 is the first
    later column of the opposite kind.  Nested rows, which ``is_ferrers``
    recognizes at the cost of one sort, hold no witness, so the row-pair
    scan runs only on blocks that have one.
    """
    b = as_bool_matrix(b)
    if is_ferrers(b):
        return None
    for r1 in range(b.shape[0] - 1):
        row, later = b[r1], b[r1 + 1 :]
        incomparable = (row & ~later).any(axis=1) & (~row & later).any(axis=1)
        if incomparable.any():
            r2 = r1 + 1 + int(incomparable.argmax())
            differ = row ^ b[r2]
            c1 = int(differ.argmax())
            c2 = int((differ & (row != row[c1])).argmax())
            pattern = "10" if row[c1] else "01"
            return PermSubmatrixWitness(r1 + 1, r2 + 1, c1 + 1, c2 + 1, pattern)
    return None


def _rows_nested(b: BoolMatrix, sizes: np.ndarray, strict: bool) -> bool:
    """True when b's rows, by decreasing ``sizes`` (stable), each contain the next.

    With ``strict`` row i is read without its entry in column i; the
    diagonal is cleared in each gathered row block, so no copy of b is made.
    """
    order = np.argsort(-sizes, kind="stable")
    for start in range(0, len(order) - 1, ROW_BLOCK):  # overlapping by one row
        rows = order[start : start + ROW_BLOCK + 1]
        nested = b[rows]
        if strict:
            nested[np.arange(len(rows)), rows] = False
        if (nested[1:] > nested[:-1]).any():  # an entry the row before lacks
            return False
    return True


def is_ferrers(b: BoolMatrix) -> bool:
    """True when the rows are linearly ordered by support inclusion.

    Sorts rows by support size and verifies consecutive containment,
    which suffices because inclusion is transitive.  Agrees with
    ``has_perm2x2(b) is None`` on every matrix.
    """
    b = as_bool_matrix(b)
    return _rows_nested(b, b.sum(axis=1), strict=False)


def strict_order_is_ferrers(z: BoolMatrix) -> bool:
    """Ferrers test for the strict part of a square order matrix.

    Equals ``is_ferrers`` of z with its diagonal cleared, without copying z.
    """
    z = as_square_matrix(z, "order matrix")
    return _rows_nested(z, z.sum(axis=1) - z.diagonal(), strict=True)


def chain_is_ferrers(blocks: Sequence[BoolMatrix]) -> ChainFerrersResult:
    """Blockwise Ferrers certification of a conformable chain of blocks.

    All blocks Ferrers certifies the assembled graded digraph as Ferrers
    dimension one; every failing block is reported with its witness.
    """
    blocks = [as_bool_matrix(b) for b in blocks]
    check_join_condition([b.shape for b in blocks])
    witnesses = enumerate(map(has_perm2x2, blocks))  # one nesting check per block
    failures = tuple((k, w) for k, w in witnesses if w is not None)
    return ChainFerrersResult(failures)


def staircase_profile(z: BoolMatrix) -> StaircaseProfile:
    """Recognize a cobweb zeta grid and recover its level sizes.

    The staircase discipline: above the diagonal, row i is 0 exactly on
    the columns of vertex i's own level and 1 on every column of every
    later level.  A trailing truncated level is fine (its rows simply
    have no 1s right of the diagonal), but a multi-vertex matrix whose
    first row has no 1s is not the zeta of any join of complete
    bipartite blocks, so it is rejected with witness (1, 2).  A level ends
    at the first later one in its first row; any other violation is the
    first cell, in row-major order, where z differs from that staircase.
    """
    z = as_square_matrix(z, "zeta matrix")
    n = z.shape[0]
    if not z.diagonal().all():
        raise ValueError("zeta matrix must be reflexive")
    if np.tril(z, -1).any():
        raise ValueError("zeta matrix must be upper triangular")

    if n == 0:
        return StaircaseProfile((), None)
    sizes: list[int] = []
    start = 0
    while start < n:
        later = z[start, start + 1 :]
        if later.any():
            end = start + 1 + int(later.argmax())
        elif start == 0 and n > 1:
            return StaircaseProfile(None, (1, 2))
        else:
            end = n  # a trailing level
        sizes.append(end - start)
        start = end
    level = np.repeat(np.arange(len(sizes)), sizes)
    staircase = level[:, None] < level[None, :]
    np.fill_diagonal(staircase, True)
    wrong = (z != staircase).ravel()
    k = int(wrong.argmax())
    if wrong[k]:
        row, col = divmod(k, n)
        return StaircaseProfile(None, (row + 1, col + 1))
    return StaircaseProfile(tuple(sizes), None)
