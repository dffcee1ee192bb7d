"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check: Warshall closure instead of the geometric series, DFS enumeration
instead of matrix powers, exhaustive Cartesian filtering instead of the
chained join, a quartic submatrix scan instead of support nesting, the
rabbit tree grown from "M"/"J" status strings instead of parent vectors,
and a staircase read off every row's boundary instead of one row per level.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import numpy as np

import cobwebs
from cobwebs.cobweb import build_cobweb, delete_arcs, fibonacci_tree
from cobwebs.digraph import GradedDigraph
from cobwebs.fseq import FSequence

GOLDEN_DIR = Path(__file__).parent / "golden"

# one representative per built-in sequence kind (explicit aside)
BUILTIN_SEQUENCES = (
    FSequence.naturals(),
    FSequence.fibonacci(),
    FSequence.gaussian(2),
    FSequence.constant(3),
)


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def golden_grid(name: str) -> np.ndarray:
    return np.loadtxt(GOLDEN_DIR / name, dtype=int, ndmin=2).astype(bool)


def cli_env(**extra):
    """The environment of a subprocess, with this package on PYTHONPATH."""
    src = str(Path(cobwebs.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def warshall_closure(a: np.ndarray, reflexive: bool = False) -> np.ndarray:
    """Reachability by Warshall's row-OR sweeps."""
    r = np.array(a, dtype=bool)
    n = r.shape[0]
    for k in range(n):
        for i in range(n):
            if r[i, k]:
                r[i] |= r[k]
    if reflexive:
        r |= np.eye(n, dtype=bool)
    return r


def dfs_count_paths(adj: np.ndarray, x: int, y: int) -> int:
    """Count directed paths of length >= 1 from x to y (1-based) by DFS."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    target = y - 1

    def walk(u: int) -> int:
        if u == target:
            return 1
        return sum(walk(v) for v in range(n) if adj[u, v])

    return sum(walk(v) for v in range(n) if adj[x - 1, v])


def naive_perm2x2(b: np.ndarray) -> bool:
    """Quartic scan: does any 2x2 permutation submatrix occur?"""
    b = np.asarray(b, dtype=bool)
    rows, cols = b.shape
    for r1 in range(rows):
        for r2 in range(r1 + 1, rows):
            for c1 in range(cols):
                for c2 in range(c1 + 1, cols):
                    quad = (b[r1, c1], b[r1, c2], b[r2, c1], b[r2, c2])
                    if quad in ((True, False, False, True), (False, True, True, False)):
                        return True
    return False


def rabbit_tree_oracle(n: int) -> GradedDigraph:
    """The rabbit tree from status strings: M begets M and J, J begets M."""
    generations: list[tuple[str, ...]] = [("J",)]
    for _ in range(n - 1):
        nxt: list[str] = []
        for status in generations[-1]:
            nxt.extend(("M", "J") if status == "M" else ("M",))
        generations.append(tuple(nxt))
    blocks = []
    for parents, children in zip(generations, generations[1:]):
        b = np.zeros((len(parents), len(children)), dtype=bool)
        col = 0
        for i, status in enumerate(parents):
            width = 2 if status == "M" else 1
            b[i, col : col + width] = True
            col += width
        blocks.append(b)
    return GradedDigraph(tuple(len(g) for g in generations), tuple(blocks))


def staircase_reference(z: np.ndarray) -> tuple:
    """(level_sizes, violation) of a reflexive upper-triangular grid.

    Reads every row's first 1 right of the diagonal, walks the levels by
    those boundaries, and compares z with the staircase cell by cell.
    """
    z = np.asarray(z, dtype=bool)
    n = z.shape[0]
    if n == 0:
        return (), None
    boundaries = []
    for i in range(n):
        later = [j for j in range(i + 1, n) if z[i, j]]
        boundaries.append(later[0] if later else None)
    if boundaries[0] is None and n > 1:
        return None, (1, 2)
    sizes, start = [], 0
    while start < n:
        end = n if boundaries[start] is None else boundaries[start]
        sizes.append(end - start)
        start = end
    level = [k for k, size in enumerate(sizes) for _ in range(size)]
    for i in range(n):
        for j in range(n):
            if z[i, j] != (i == j or level[i] < level[j]):
                return None, (i + 1, j + 1)
    return tuple(sizes), None


def brute_force_join(columns, links) -> set[tuple[str, ...]]:
    """All tuples of the full column product whose adjacent pairs are linked."""
    return {
        t
        for t in itertools.product(*[c.labels for c in columns])
        if all((t[k], t[k + 1]) in links[k].pairs for k in range(len(links)))
    }


def rand_bool_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.5) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = rng.random() < density
    return a


def rand_dag(rng: random.Random, n: int, density: float = 0.4) -> np.ndarray:
    """Random DAG adjacency: strictly upper triangular, then relabeled."""
    a = np.triu(rand_bool_matrix(rng, n, n, density), 1)
    perm = list(range(n))
    rng.shuffle(perm)
    p = np.eye(n, dtype=bool)[perm]
    return p.T @ a @ p


def rand_graded_sizes(rng: random.Random, max_levels: int = 5, max_size: int = 4) -> list[int]:
    return [rng.randint(1, max_size) for _ in range(rng.randint(1, max_levels))]


CLOSURE_INPUT_KINDS = ("graded", "permuted-dag", "deleted-arcs", "fibonacci-tree")


def rand_closure_input(rng: random.Random, kind: str) -> GradedDigraph | np.ndarray:
    """A closure input of one kind: a graded digraph, or a raw permuted DAG."""
    if kind == "permuted-dag":
        return rand_dag(rng, rng.randint(0, 14), rng.random())
    if kind == "fibonacci-tree":
        return fibonacci_tree(rng.randint(1, 8))
    sizes = rand_graded_sizes(rng, max_levels=8)
    if kind == "graded":
        density = rng.random()
        return GradedDigraph(tuple(sizes), tuple(
            rand_bool_matrix(rng, sizes[k], sizes[k + 1], density) for k in range(len(sizes) - 1)
        ))
    p = build_cobweb(sizes)
    arcs = list(p.hasse.arcs())
    return delete_arcs(p, rng.sample(arcs, rng.randint(0, len(arcs))))
