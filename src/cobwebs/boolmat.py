"""Dense Boolean (0/1) matrix algebra.

Boolean matrices are 2-d numpy arrays of dtype ``bool``; the product is the
or-of-ands composition (A (c) B)_{ij} = OR_t (A_{it} AND B_{tj}), written
``bool_product`` here.  The reflexive-transitive closure of a digraph with
adjacency matrix A is the saturated geometric series I v A v A^2 v ...,
computed by ``closure_series`` by repeated squaring: after k products the
accumulator holds every path of length at most 2^k, so an n-vertex digraph
saturates within ceil(log2 n) + 1 products, cyclic or not.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .fseq import GRID_FORMS, _ListForm, _rows

BoolMatrix = np.ndarray
ROW_BLOCK = 256  # rows per block where a whole n x n temporary is avoided


def as_bool_matrix(rows: Sequence[Sequence[int]] | np.ndarray) -> BoolMatrix:
    """Coerce nested 0/1 rows (or an array) to a 2-d bool array."""
    a = np.asarray(rows, dtype=bool)
    if a.ndim == 1 and a.size == 0:
        a = a.reshape(0, 0)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {a.shape}")
    return a


def as_square_matrix(a: Sequence[Sequence[int]] | np.ndarray, name: str) -> BoolMatrix:
    """Coerce to a square 2-d bool array; ``name`` is the noun the error uses."""
    a = as_bool_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def check_join_condition(shapes: Sequence[tuple[int, int]]) -> None:
    """The natural join condition: each block's columns are the next block's rows."""
    for t in range(len(shapes) - 1):
        if shapes[t][1] != shapes[t + 1][0]:
            raise ValueError(
                f"natural join condition violated at position {t}: shapes {shapes[t]} "
                f"and {shapes[t + 1]} (columns of block {t}, rows of block {t + 1})"
            )


def ones_matrix(r: int, c: int) -> BoolMatrix:
    """The r x c all-ones block."""
    if r < 0 or c < 0:
        raise ValueError(f"dimensions must be nonnegative, got {r}x{c}")
    return np.ones((r, c), dtype=bool)


def identity(n: int) -> BoolMatrix:
    return np.eye(n, dtype=bool)


def bool_product(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean matrix product: entry (i,j) is OR_t (a[i,t] AND b[t,j])."""
    a = as_bool_matrix(a)
    b = as_bool_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {a.shape[0]}x{a.shape[1]} vs "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def closure_series(a: BoolMatrix, reflexive: bool = True) -> BoolMatrix:
    """Saturate the Boolean geometric series of a square matrix.

    Returns I v A v A^2 v ... (the reflexive-transitive closure) when
    ``reflexive``, else A v A^2 v ... (the strict transitive closure).
    The strict accumulator is squared, C <- C v C (c) C, until a product
    adds nothing.  Each product doubles the longest path length covered,
    so a longest path of P arcs costs max(1, ceil(log2 P) + 1) products
    and any n-rows input, cyclic or not, stops within ceil(log2 n) + 1.
    Cycles stay visible on the strict closure's diagonal.
    """
    a = as_square_matrix(a, "matrix")
    acc = a.copy()
    while True:
        nxt = acc | bool_product(acc, acc)
        if np.array_equal(nxt, acc):
            break
        acc = nxt
    return acc | identity(len(a)) if reflexive else acc


def _place(out: BoolMatrix, blocks: Sequence[BoolMatrix]) -> BoolMatrix:
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def direct_sum(blocks: Iterable[BoolMatrix]) -> BoolMatrix:
    """Block-diagonal matrix with the given blocks, zeros elsewhere."""
    blocks = [as_bool_matrix(b) for b in blocks]
    shape = (sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    return _place(np.zeros(shape, dtype=bool), blocks)


def chain_adjacency(blocks: Iterable[BoolMatrix], first: int) -> BoolMatrix:
    """Square adjacency matrix of a chain of level blocks on its super-diagonal.

    Block t joins level t to level t + 1 and ``first`` is the size of
    level 0.  The result is ``direct_sum(blocks)`` shifted right by
    ``first`` columns, but rendered in one allocation: each block is
    written straight into the square.
    """
    blocks = [as_bool_matrix(b) for b in blocks]
    out = np.zeros((first + sum(b.shape[1] for b in blocks),) * 2, dtype=bool)
    _place(out[:, first:], blocks)
    return out


def to_text(m: BoolMatrix, form: _ListForm = GRID_FORMS["text"], start: int = 0,
            stop: int | None = None) -> str:
    """Rows ``start`` to ``stop - 1`` of a matrix (all by default), joined by ``form.sep``.

    ``form`` is one of ``fseq``'s layouts, by default newline-terminated lines
    of single-spaced entries; no rows are the empty string.  With ``m`` bound,
    this is a band's ``rows`` for ``fseq``'s piece writer, which adds the rest.
    """
    m = as_bool_matrix(m)[start:stop]
    # a row of "0"s, tiled, with each row's digits added on
    row = np.frombuffer(_rows(form, 0, 1, [(b"0", m.shape[1])]).encode() + form.sep, np.uint8)
    buf = np.tile(row, (len(m), 1))
    at, width = len(form.head) + form.at, len(form.entry)
    buf[:, at : at + width * m.shape[1] : width] += m
    return buf.tobytes()[: buf.size - len(form.sep)].decode("ascii")
