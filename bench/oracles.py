"""Independent answers the benchmark checks the program's outputs against.

None of these touch the cobwebs package: each rebuilds its answer from the
generated inputs by a different route than the code under test.

- cobweb zeta and Hasse matrices come straight from the level sizes;
- complete-cobweb path counts are products of the intermediate F_t;
- path counts on other graded digraphs come from a dynamic program over arcs;
- closures come from a Warshall sweep;
- natural joins come from a brute-force filter of the Cartesian product;
- 2x2 permutation witnesses come from an exhaustive pairwise scan.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

Pairs = frozenset  # of (str, str)
Link = tuple[Sequence[str], Sequence[str], Pairs]  # (dom labels, ran labels, pairs)


def level_index(levels: Sequence[int]) -> np.ndarray:
    """Level number of each 0-based vertex in level-major order."""
    return np.repeat(np.arange(len(levels)), levels)


def cobweb_zeta(levels: Sequence[int]) -> np.ndarray:
    """Staircase zeta of a complete cobweb: i <= j iff i == j or j is on a later level."""
    lv = level_index(levels)
    return (lv[:, None] < lv[None, :]) | np.eye(len(lv), dtype=bool)


def cobweb_hasse(levels: Sequence[int]) -> np.ndarray:
    lv = level_index(levels)
    return lv[:, None] + 1 == lv[None, :]


def cobweb_path_count(levels: Sequence[int], x: int, y: int) -> int:
    """Hasse paths x -> y (1-based) of a complete cobweb: the product of the
    sizes of the levels strictly between theirs, 0 when y is not above x."""
    lv = level_index(levels)
    lx, ly = int(lv[x - 1]), int(lv[y - 1])
    return math.prod(levels[lx + 1 : ly]) if ly > lx else 0


def square_adjacency(levels: Sequence[int], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Global adjacency of a graded digraph, assembled with ``np.block``."""
    sizes = list(levels)
    rows = []
    for i, r in enumerate(sizes):
        rows.append([
            blocks[i] if j == i + 1 else np.zeros((r, c), dtype=bool)
            for j, c in enumerate(sizes)
        ])
    return np.block(rows).astype(bool) if sizes else np.zeros((0, 0), dtype=bool)


def dag_path_count(levels: Sequence[int], blocks: Sequence[np.ndarray], x: int, y: int) -> int:
    """Paths of length >= 1 from x to y by exact dynamic programming over arcs."""
    a = square_adjacency(levels, blocks)
    succ = [np.nonzero(a[v])[0].tolist() for v in range(a.shape[0])]
    ways = {x - 1: 1}
    total = 0
    frontier = {x - 1}
    while frontier:
        nxt: dict[int, int] = {}
        for v in frontier:
            for w in succ[v]:
                nxt[w] = nxt.get(w, 0) + ways[v]
        total += nxt.get(y - 1, 0)
        ways, frontier = nxt, set(nxt)
    return total


def warshall(a: np.ndarray, reflexive: bool) -> np.ndarray:
    """Transitive closure by Warshall's sweep over intermediate vertices."""
    r = np.array(a, dtype=bool)
    for k in range(r.shape[0]):
        r |= r[:, k, None] & r[None, k, :]
    if reflexive:
        r |= np.eye(r.shape[0], dtype=bool)
    return r


def reduction(a: np.ndarray) -> np.ndarray:
    """Arcs of a DAG not implied by a path through a third vertex."""
    c = warshall(a, reflexive=False).astype(np.float64)
    return np.asarray(a, dtype=bool) & ~((c @ c) > 0)


def realizer_intersection(levels: Sequence[int]) -> np.ndarray:
    """Strict order given by the level-major orders L1 (left to right within
    a level) and L2 (right to left within a level)."""
    lv = level_index(levels)
    n = len(lv)
    pos1 = np.arange(n)
    pos2 = np.empty(n, dtype=int)
    start = 0
    for size in levels:
        pos2[start : start + size] = np.arange(start + size - 1, start - 1, -1)
        start += size
    return (pos1[:, None] < pos1[None, :]) & (pos2[:, None] < pos2[None, :])


def dim2_holds(levels: Sequence[int], blocks: Sequence[np.ndarray]) -> bool:
    """Whether the level-major realizer intersects to the digraph's order."""
    z = warshall(square_adjacency(levels, blocks), reflexive=False)
    return bool(np.array_equal(realizer_intersection(levels), z))


def perm2x2_witness(b: np.ndarray) -> Optional[tuple[int, int, int, int, str]]:
    """Lexicographically smallest (r1, r2, c1, c2, pattern), 1-based, of a
    2x2 permutation submatrix, by scanning every row pair and column pair."""
    b = np.asarray(b, dtype=bool)
    rows, cols = b.shape
    later = np.triu(np.ones((cols, cols), dtype=bool), k=1)
    for r1 in range(rows):
        x = b[r1]
        for r2 in range(r1 + 1, rows):
            y = b[r2]
            p10 = x[:, None] & ~x[None, :] & ~y[:, None] & y[None, :] & later
            p01 = ~x[:, None] & x[None, :] & y[:, None] & ~y[None, :] & later
            hits = np.argwhere(p10 | p01)
            if hits.size:
                c1, c2 = (int(v) for v in hits[0])
                return r1 + 1, r2 + 1, c1 + 1, c2 + 1, "10" if p10[c1, c2] else "01"
    return None


def rows_nested(m: np.ndarray) -> bool:
    """True when every two rows' supports are comparable by inclusion."""
    s = np.asarray(m, dtype=np.float64)
    overlap = s @ s.T
    size = s.sum(axis=1)
    return bool((overlap == np.minimum(size[:, None], size[None, :])).all())


def join_tuples(links: Sequence[Link]) -> set[tuple[str, ...]]:
    """Natural join of a chain of (dom, ran, pairs) links, by filtering the
    Cartesian product of the columns one first-column label at a time."""
    columns = [list(links[0][0])] + [list(link[1]) for link in links]
    mats = [relation_matrix(*link) for link in links]
    out: set[tuple[str, ...]] = set()
    for first in range(len(columns[0])):
        keep = mats[0][first]
        for m in mats[1:]:
            keep = keep[..., :, None] & m.reshape((1,) * (keep.ndim - 1) + m.shape)
        for idx in zip(*np.nonzero(keep)):
            out.add((columns[0][first],) + tuple(columns[k + 1][i] for k, i in enumerate(idx)))
    return out


def relation_matrix(dom: Sequence[str], ran: Sequence[str], pairs: Pairs) -> np.ndarray:
    di = {v: i for i, v in enumerate(dom)}
    ri = {v: i for i, v in enumerate(ran)}
    m = np.zeros((len(dom), len(ran)), dtype=bool)
    for a, c in pairs:
        m[di[a], ri[c]] = True
    return m


def compose_pairs(r: Link, s: Link) -> set[tuple[str, str]]:
    """Composition through the shared middle set, by an integer matrix product."""
    counts = relation_matrix(*r).astype(np.float64) @ relation_matrix(*s).astype(np.float64)
    return {(r[0][i], s[1][j]) for i, j in zip(*np.nonzero(counts))}


def fibonacci_tree_shape(levels_count: int) -> tuple[list[int], list[np.ndarray]]:
    """Rabbit tree from the Fibonacci word: M -> MJ, J -> M, mature first."""
    word = "J"
    words = [word]
    for _ in range(levels_count - 1):
        word = word.replace("M", "m").replace("J", "M").replace("m", "MJ")
        words.append(word)
    blocks = []
    for parents, children in zip(words, words[1:]):
        b = np.zeros((len(parents), len(children)), dtype=bool)
        col = 0
        for i, status in enumerate(parents):
            width = 2 if status == "M" else 1
            b[i, col : col + width] = True
            col += width
        blocks.append(b)
    return [len(w) for w in words], blocks


def sequence_sizes(spec: str, count: int) -> list[int]:
    """The first ``count`` level sizes of a CLI sequence spec, summed directly."""
    kind, _, arg = spec.partition(":")
    if kind == "explicit":
        return [int(v) for v in arg.split(",")][:count]
    sizes = []
    a, b = 1, 1
    for k in range(count):
        if kind == "naturals":
            sizes.append(k + 1)
        elif kind == "fibonacci":
            sizes.append(a)
            a, b = b, a + b
        elif kind == "gaussian":
            sizes.append(sum(int(arg) ** i for i in range(k)) or 1)
        elif kind == "constant":
            sizes.append(int(arg))
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")
    return sizes
