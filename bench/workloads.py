"""The benchmark's workloads as seeded lists of requests.

A workload is a list of groups.  A group is a short run of requests that
share state, such as one cobweb session (build the poset once, then query
it) or one CLI write followed by a read of what it wrote.  Each request
has a ``call`` that exercises the program and a ``check`` that compares
the answer with an independent oracle; the runner times ``call`` only.

Groups come in decks: a deck holds a fixed set of group shapes spanning
the workload's size range, each with its own seeded inputs, in seeded
order.  Every deck therefore carries about the same amount of work, which
keeps throughput comparable between seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import oracles as orc
from spans import Tracer

from cobwebs import cobweb, digraph, ferrers, njoin
from cobwebs.fseq import FSequence

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Request:
    kind: str
    n: int
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], Optional[str]]


@dataclass
class Group:
    spec: dict
    requests: list[Request] = field(default_factory=list)

    def add(self, kind: str, n: int, call, check) -> None:
        self.requests.append(Request(kind, int(n), call, check))


def fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()[:16]


def mismatch(ok: bool, what: str) -> Optional[str]:
    return None if ok else what


def grid_text(m: np.ndarray) -> str:
    """The CLI's 0/1 grid format, rendered from an oracle matrix."""
    return "".join(" ".join(map(str, row)) + "\n" for row in np.asarray(m, dtype=int).tolist())


def _int(rng: np.random.Generator, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]."""
    return int(rng.integers(lo, hi + 1))


def _vertex_in_level(rng, levels, k: int) -> int:
    return sum(levels[:k]) + _int(rng, 1, levels[k])


def _gap_endpoints(rng, levels, gap: Optional[int] = None) -> tuple[int, int]:
    """Two 1-based vertices whose levels differ by ``gap``, or by a random gap >= 1."""
    if gap is None:
        lx = _int(rng, 0, len(levels) - 2)
        ly = _int(rng, lx + 1, len(levels) - 1)
    else:
        lx = _int(rng, 0, len(levels) - 1 - gap)
        ly = lx + gap
    return _vertex_in_level(rng, levels, lx), _vertex_in_level(rng, levels, ly)


def _random_sizes(rng, n: int, count: int, smallest: int = 1) -> list[int]:
    """``count`` random level sizes of at least ``smallest`` summing to n."""
    extra = rng.multinomial(n - smallest * count, [1 / count] * count)
    return (extra + smallest).tolist()


def _explicit_spec(rng, n: int, count: int) -> str:
    """An explicit sequence of ``count`` random level sizes summing to n."""
    return "explicit:" + ",".join(map(str, _random_sizes(rng, n, count)))


# -- cobweb-session ----------------------------------------------------------

# (sequence, level count, count_paths level gap as a share of the levels);
# an explicit sequence gets random sizes summing to the vertex count given
# with it.  Level counts, vertex counts and gaps are fixed so that a deck's
# cost hardly depends on the seed: the zeta closure does one n^3 product per
# level, and count_paths one per squaring or multiply of its gap.  Full
# gaps are asked up to n = 153 and short ones above, which keeps every
# request near or below 1 s.
SESSION_SHAPES = (
    ("naturals", 9, 1.0), ("naturals", 13, 1.0), ("naturals", 17, 1.0),
    ("naturals", 21, 0.25), ("naturals", 25, 0.08),
    ("fibonacci", 9, 1.0), ("fibonacci", 10, 1.0), ("fibonacci", 11, 0.3),
    ("gaussian:2", 7, 1.0), ("gaussian:2", 8, 0.3),
    ("constant:5", 20, 1.0), ("constant:12", 20, 0.25),
    (("explicit", 90), 8, 1.0), (("explicit", 280), 20, 0.25),
)
TINY_SESSION_SHAPES = (
    ("naturals", 4, 1.0), ("fibonacci", 5, 0.5), ("gaussian:2", 4, 1.0),
    ("constant:3", 4, 0.5), (("explicit", 12), 4, 1.0),
)
LEQ_BATCH = 64


def _session(rng, seq, count, gap_share) -> Group:
    spec = _explicit_spec(rng, seq[1], count) if isinstance(seq, tuple) else seq
    levels = orc.sequence_sizes(spec, count)
    n = sum(levels)
    lv = orc.level_index(levels)
    pairs = [(_int(rng, 1, n), _int(rng, 1, n)) for _ in range(LEQ_BATCH)]
    x, y = _gap_endpoints(rng, levels, max(1, round(gap_share * (count - 1))))
    g = Group({"group": "session", "seq": spec, "levels": count, "n": n,
               "leq": fingerprint(pairs), "paths": [x, y]})

    def build(state):
        state["p"] = cobweb.build_cobweb(FSequence.parse(spec), count)
        return state["p"]

    g.add("build", n, build, lambda p, s: mismatch(p.levels == tuple(levels), "level sizes"))
    g.add("zeta", n, lambda s: cobweb.zeta_matrix(s["p"]),
          lambda z, s: mismatch(np.array_equal(z, orc.cobweb_zeta(levels)), "zeta matrix"))
    g.add("hasse", n, lambda s: cobweb.hasse_matrix(s["p"]),
          lambda a, s: mismatch(np.array_equal(a, orc.cobweb_hasse(levels)), "hasse matrix"))
    expected_leq = [bool(a == b or lv[a - 1] < lv[b - 1]) for a, b in pairs]
    g.add("leq-batch", n, lambda s: [cobweb.leq(s["p"], a, b) for a, b in pairs],
          lambda ans, s: mismatch(ans == expected_leq, "leq answers"))
    g.add("count_paths", n, lambda s: cobweb.count_paths(s["p"], x, y),
          lambda c, s: mismatch(c == orc.cobweb_path_count(levels, x, y),
                                f"count_paths({x}, {y}) = {c}"))

    def dim2(state):
        r = cobweb.realizer(state["p"])
        return r, cobweb.verify_dim2(state["p"], r)

    starts = np.cumsum([0] + levels[:-1]).tolist()
    l2 = tuple(v for start, size in zip(starts, levels) for v in range(start + size, start, -1))
    g.add("realizer+verify_dim2", n, dim2,
          lambda ans, s: mismatch(ans[1] is True and ans[0].l1 == tuple(range(1, n + 1))
                                  and ans[0].l2 == l2, "realizer"))
    g.add("chain_is_ferrers", n, lambda s: ferrers.chain_is_ferrers(list(s["p"].hasse.blocks)),
          lambda res, s: mismatch(res.ok and not res.failures, "ferrers verdict"))
    g.add("staircase_profile", n,
          lambda s: ferrers.staircase_profile(cobweb.zeta_matrix(s["p"])),
          lambda prof, s: mismatch(prof.ok and prof.level_sizes == tuple(levels),
                                   "staircase profile"))
    return g


def session_deck(rng, tiny: bool, cli=None) -> list[Group]:
    return [_session(rng, *shape) for shape in (TINY_SESSION_SHAPES if tiny else SESSION_SHAPES)]


# -- general-dag -------------------------------------------------------------

def _random_dag(rng, n: int) -> np.ndarray:
    """A DAG with about c arcs per vertex, relabelled by a random permutation."""
    upper = np.triu(rng.random((n, n)) < rng.uniform(2.5, 3.5) / n, k=1)
    perm = rng.permutation(n)
    return upper[np.ix_(perm, perm)]


def _dag_group(rng, n: int) -> Group:
    a = _random_dag(rng, n)
    g = Group({"group": "dag", "n": n, "input": fingerprint(a)})
    g.add("transitive_closure", n, lambda s: digraph.transitive_closure(a),
          lambda p, s: mismatch(np.array_equal(p.leq, orc.warshall(a, reflexive=True)),
                                "closure"))

    def reduce(state):
        state["red"] = digraph.transitive_reduction(a)
        return state["red"]

    g.add("transitive_reduction", n, reduce,
          lambda r, s: mismatch(np.array_equal(r, orc.reduction(a)), "reduction"))
    g.add("is_transitive_irreducible", n,
          lambda s: (digraph.is_transitive_irreducible(s["red"]),
                     digraph.is_transitive_irreducible(a)),
          lambda ans, s: mismatch(ans == (True, bool(np.array_equal(orc.reduction(a), a))),
                                  "irreducibility"))
    return g


def _witnesses(blocks) -> list:
    out = []
    for k, b in enumerate(blocks):
        w = orc.perm2x2_witness(b)
        if w is not None:
            out.append((k, *w))
    return out


def _reported(res) -> list:
    return [(k, w.r1, w.r2, w.c1, w.c2, w.pattern) for k, w in res.failures]


def _deleted_arcs(rng, n: int) -> tuple[list[int], list[np.ndarray], list[tuple[int, int]]]:
    """A cobweb on n vertices with some Hasse arcs removed, two of them
    leaving a 2x2 permutation submatrix behind."""
    levels = _random_sizes(rng, n, max(2, n // 7), smallest=2)
    offsets = np.cumsum([0] + levels)
    blocks = [np.ones((levels[k], levels[k + 1]), dtype=bool) for k in range(len(levels) - 1)]
    k = _int(rng, 0, len(blocks) - 1)
    r1, r2 = (int(v) for v in sorted(rng.choice(levels[k], 2, replace=False)))
    c1, c2 = (int(v) for v in sorted(rng.choice(levels[k + 1], 2, replace=False)))
    cells = {(k, r1, c2), (k, r2, c1)}
    keep = {(k, r1, c1), (k, r2, c2)}  # so the permutation submatrix survives
    for _ in range(_int(rng, 0, 6)):
        k = _int(rng, 0, len(blocks) - 1)
        cells.add((k, _int(rng, 0, levels[k] - 1), _int(rng, 0, levels[k + 1] - 1)))
    cells -= keep
    removals = []
    for k, i, j in sorted(cells):
        blocks[k][i, j] = False
        removals.append((int(offsets[k]) + i + 1, int(offsets[k + 1]) + j + 1))
    return levels, blocks, removals


def _deleted_group(rng, n: int) -> Group:
    levels, blocks, removals = _deleted_arcs(rng, n)
    p = cobweb.build_cobweb(levels)
    x, y = _gap_endpoints(rng, levels, len(levels) - 1)
    g = Group({"group": "delete_arcs", "levels": levels, "removals": removals, "paths": [x, y]})

    def delete(state):
        state["d"] = cobweb.delete_arcs(p, removals)
        return state["d"]

    g.add("delete_arcs", n, delete,
          lambda d, s: mismatch(d.levels == tuple(levels) and all(
              np.array_equal(u, v) for u, v in zip(d.blocks, blocks)), "arc blocks"))
    g.add("chain_is_ferrers", n, lambda s: ferrers.chain_is_ferrers(list(s["d"].blocks)),
          lambda res, s: mismatch(_reported(res) == _witnesses(blocks), "ferrers witnesses"))
    g.add("count_paths", n, lambda s: cobweb.count_paths(s["d"], x, y),
          lambda c, s: mismatch(c == orc.dag_path_count(levels, blocks, x, y),
                                f"count_paths({x}, {y}) = {c}"))
    g.add("verify_dim2", n, lambda s: cobweb.verify_dim2(s["d"]),
          lambda ok, s: mismatch(ok == orc.dim2_holds(levels, blocks), "dim2 verdict"))
    return g


def _fibtree_group(rng, count: int) -> Group:
    levels, blocks = orc.fibonacci_tree_shape(count)
    n = sum(levels)
    g = Group({"group": "fibonacci_tree", "levels": count})

    def grow(state):
        state["t"] = cobweb.fibonacci_tree(count)
        return state["t"]

    g.add("fibonacci_tree", n, grow,
          lambda t, s: mismatch(list(t.levels) == levels and all(
              np.array_equal(u, v) for u, v in zip(t.blocks, blocks)), "rabbit tree"))
    g.add("transitive_closure", n, lambda s: digraph.transitive_closure(s["t"]),
          lambda p, s: mismatch(np.array_equal(
              p.leq, orc.warshall(orc.square_adjacency(levels, blocks), reflexive=True)),
              "closure"))
    g.add("chain_is_ferrers", n, lambda s: ferrers.chain_is_ferrers(list(s["t"].blocks)),
          lambda res, s: mismatch(_reported(res) == _witnesses(blocks), "ferrers witnesses"))
    return g


def _perm_group(rng, rows: int, cols: int) -> Group:
    block = np.ones((rows, cols), dtype=bool)
    g = Group({"group": "has_perm2x2", "rows": rows, "cols": cols})
    g.add("has_perm2x2", rows, lambda s: ferrers.has_perm2x2(block),
          lambda w, s: mismatch((w is None) == orc.rows_nested(block), f"witness {w}"))
    return g


def _relation_chain(rng, links: int, lo: int, hi: int, density: tuple[float, float]):
    """Label sets and pairs of a relation chain, as plain tuples."""
    columns = [tuple(f"{chr(97 + c)}{i}" for i in range(_int(rng, lo, hi)))
               for c in range(links + 1)]
    chain = []
    for k in range(links):
        dom, ran = columns[k], columns[k + 1]
        m = rng.random((len(dom), len(ran))) < rng.uniform(*density)
        chain.append((dom, ran, frozenset((dom[i], ran[j]) for i, j in zip(*np.nonzero(m)))))
    return columns, chain


def _random_nary(rng, columns, count: int) -> set[tuple[str, ...]]:
    return {tuple(col[_int(rng, 0, len(col) - 1)] for col in columns) for _ in range(count)}


def _decomposable(columns, tuples) -> bool:
    links = [(columns[k], columns[k + 1], frozenset((t[k], t[k + 1]) for t in tuples))
             for k in range(len(columns) - 1)]
    return orc.join_tuples(links) == set(tuples)


def _relations_group(rng, links: int, labels: int) -> Group:
    columns, chain = _relation_chain(rng, links, labels, labels, (0.08, 0.08))
    rels = [njoin.BinaryRelation(njoin.FiniteSet(d), njoin.FiniteSet(r), p) for d, r, p in chain]
    mats = [orc.relation_matrix(*link) for link in chain]
    adj = [njoin.embed_biadjacency(m) for m in mats]
    sample = _random_nary(rng, columns[:3], _int(rng, 20, 60))
    nary = njoin.NaryRelation(tuple(njoin.FiniteSet(c) for c in columns[:3]), frozenset(sample))
    n = max(len(c) for c in columns)
    g = Group({"group": "relations", "links": links,
               "labels": [len(c) for c in columns],
               "pairs": fingerprint(sorted(p for _, _, ps in chain for p in ps)),
               "nary": fingerprint(sorted(sample))})

    def join(state):
        state["t"] = njoin.njoin_relations(rels)
        return state["t"]

    g.add("njoin_relations", n, join,
          lambda t, s: mismatch([c.labels for c in t.columns] == columns
                                and set(t.tuples) == orc.join_tuples(chain), "joined tuples"))
    g.add("compose_relations", n, lambda s: njoin.compose_relations(rels[0], rels[1]),
          lambda r, s: mismatch(set(r.pairs) == orc.compose_pairs(chain[0], chain[1]),
                                "composed pairs"))
    g.add("is_join_decomposable", n,
          lambda s: (njoin.is_join_decomposable(s["t"]), njoin.is_join_decomposable(nary)),
          lambda ans, s: mismatch(ans == (True, _decomposable(columns[:3], sample)),
                                  "decomposability"))
    g.add("njoin_fold", n, lambda s: njoin.njoin_fold(adj),
          lambda a, s: mismatch(np.array_equal(
              a, orc.square_adjacency([len(c) for c in columns], mats)), "folded adjacency"))
    composed = (mats[0].astype(int) @ mats[1].astype(int)) > 0
    g.add("reduced_composition", n, lambda s: njoin.reduced_composition(adj[0], adj[1]),
          lambda a, s: mismatch(a.shape == composed.shape and np.array_equal(
              a.mat[: a.k, a.k:], composed) and not a.mat[a.k:].any(), "reduced composition"))
    return g


# Group shapes of one deck, as builder arguments; fixed so that a deck's cost
# hardly depends on the seed.
DAG_DECK = {
    "dag": ((130,), (200,), (270,)),
    "delete_arcs": ((100,), (180,)),
    "fibonacci_tree": ((9,), (12,)),
    "has_perm2x2": ((280, 300), (450, 300)),
    "relations": ((3, 60), (4, 30)),
}
TINY_DAG_DECK = {
    "dag": ((15,),),
    "delete_arcs": ((12,),),
    "fibonacci_tree": ((5,),),
    "has_perm2x2": ((6, 5),),
    "relations": ((3, 6),),
}
DAG_BUILDERS = {
    "dag": _dag_group, "delete_arcs": _deleted_group, "fibonacci_tree": _fibtree_group,
    "has_perm2x2": _perm_group, "relations": _relations_group,
}


def dag_deck(rng, tiny: bool, cli=None) -> list[Group]:
    deck = TINY_DAG_DECK if tiny else DAG_DECK
    return [DAG_BUILDERS[kind](rng, *args) for kind, shapes in deck.items() for args in shapes]


# -- cli-oneshot -------------------------------------------------------------

@dataclass
class CliResult:
    status: int
    stdout: str
    stderr: str


class CliRunner:
    """Runs one ``python -m cobwebs.cli`` process per request.

    With a tracer attached it runs ``cli_child.py`` instead, which installs
    the same span wrappers in the child and hands its spans back through a
    file; the parent records the whole process as a ``cli.process`` span.
    """

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer: Optional[Tracer] = None
        self._files = 0

    def path(self, name: str) -> str:
        """A fresh file name in the work directory."""
        self._files += 1
        return os.path.join(self.workdir, f"{self._files}-{name}")

    def write_json(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def run(self, argv: list[str], env: Optional[dict] = None,
            out: Optional[str] = None) -> CliResult:
        env = {**self.env, **(env or {})}
        if self.tracer is None:
            return self._spawn([sys.executable, "-m", "cobwebs.cli", *argv], env)
        spans_path = self.path("spans.jsonl")
        idx = self.tracer.begin("cli.process")
        result = self._spawn(
            [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv], env)
        self.tracer.end(idx)
        written = os.path.getsize(out) if out and os.path.exists(out) else 0
        self.tracer.spans[idx].attrs["output_bytes"] = len(result.stdout.encode()) + written
        with open(spans_path, encoding="utf-8") as fh:
            self.tracer.adopt([json.loads(line) for line in fh], idx)
        os.remove(spans_path)
        return result

    def _spawn(self, cmd: list[str], env: dict) -> CliResult:
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def _expect(res: CliResult, status: int, stdout: Optional[str] = None,
            parse=None, expected=None, stderr: Optional[str] = None) -> Optional[str]:
    if res.status != status:
        return f"exit status {res.status}, expected {status}: {res.stderr.strip()[-200:]}"
    if stdout is not None and res.stdout != stdout:
        return "stdout differs from the oracle"
    if parse is not None:
        try:
            got = parse(res.stdout)
        except ValueError as exc:
            return f"unparsable stdout: {exc}"
        if got != expected:
            return "parsed stdout differs from the oracle"
    if stderr is not None and stderr not in res.stderr:
        return f"stderr lacks {stderr!r}: {res.stderr.strip()[-200:]}"
    return None


def _small_cobweb(rng, max_n: int) -> tuple[str, int, list[int]]:
    kind = ("naturals", "fibonacci", "gaussian:2", "constant", "explicit")[_int(rng, 0, 4)]
    if kind == "constant":
        c = _int(rng, 2, 10)
        spec, count = f"constant:{c}", _int(rng, 2, max(2, max_n // c))
    elif kind == "explicit":
        n = _int(rng, max(4, max_n // 4), max_n)
        count = _int(rng, 2, max(2, n // 3))
        spec = _explicit_spec(rng, n, count)
    else:
        count = _int(rng, 2, {"naturals": 15, "fibonacci": 9, "gaussian:2": 6}[kind])
        while sum(orc.sequence_sizes(kind, count)) > max_n:
            count -= 1
        spec = kind
    return spec, count, orc.sequence_sizes(spec, count)


def _graph_json(levels, blocks) -> dict:
    return {"levels": list(levels), "arcs": [np.asarray(b, dtype=int).tolist() for b in blocks]}


def _ones_blocks(levels) -> list[np.ndarray]:
    return [np.ones((levels[k], levels[k + 1]), dtype=bool) for k in range(len(levels) - 1)]


def _dot_shape(text: str) -> tuple[int, int, set]:
    vertices = ranks = 0
    arcs = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{ rank=same;"):
            ranks += 1
        elif "->" in line:
            u, v = line.rstrip(";").split("->")
            arcs.add((int(u), int(v)))
        elif line.rstrip(";").isdigit():
            vertices += 1
    return vertices, ranks, arcs


def _arc_set(levels, blocks) -> set:
    a = orc.square_adjacency(levels, blocks)
    return {(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a))}


def _relation_json(link) -> dict:
    dom, ran, pairs = link
    return {"dom": list(dom), "ran": list(ran), "pairs": sorted([a, b] for a, b in pairs)}


def cli_deck(rng, tiny: bool, cli: CliRunner) -> list[Group]:
    max_n, path_n = (12, 10) if tiny else (120, 80)
    deck: list[Group] = []

    def group(name: str, **spec) -> Group:
        deck.append(Group({"group": name, **spec}))
        return deck[-1]

    def source(spec, count):
        return ["--seq", spec, "--levels", str(count)]

    for fmt in ("text", "json"):
        spec, count, levels = _small_cobweb(rng, max_n)
        n = sum(levels)
        g = group(f"hasse-{fmt}", seq=spec, levels=count)
        if fmt == "text":
            g.add("hasse-text", n, lambda s, a=source(spec, count): cli.run(["hasse", *a]),
                  lambda r, s, lv=levels: _expect(r, 0, grid_text(orc.cobweb_hasse(lv))))
        else:
            g.add("hasse-json", n,
                  lambda s, a=source(spec, count): cli.run(["hasse", *a, "--format", "json"]),
                  lambda r, s, lv=levels: _expect(r, 0, parse=json.loads,
                                                  expected=_graph_json(lv, _ones_blocks(lv))))
        spec, count, levels = _small_cobweb(rng, max_n)
        n = sum(levels)
        g = group(f"zeta-{fmt}", seq=spec, levels=count)
        if fmt == "text":
            g.add("zeta-text", n, lambda s, a=source(spec, count): cli.run(["zeta", *a]),
                  lambda r, s, lv=levels: _expect(r, 0, grid_text(orc.cobweb_zeta(lv))))
        else:
            g.add("zeta-json", n,
                  lambda s, a=source(spec, count): cli.run(["zeta", *a, "--format", "json"]),
                  lambda r, s, lv=levels: _expect(
                      r, 0, parse=json.loads, expected=orc.cobweb_zeta(lv).astype(int).tolist()))

    spec, count, levels = _small_cobweb(rng, max_n)
    g = group("dot", seq=spec, levels=count)
    g.add("dot", sum(levels), lambda s, a=source(spec, count): cli.run(["dot", *a]),
          lambda r, s, lv=levels: _expect(r, 0, parse=_dot_shape, expected=(
              sum(lv), len(lv), _arc_set(lv, _ones_blocks(lv)))))

    count = _int(rng, 4, 6 if tiny else 9)
    fmt = ("json", "text", "dot")[_int(rng, 0, 2)]
    levels, blocks = orc.fibonacci_tree_shape(count)
    expected = {"json": (json.loads, _graph_json(levels, blocks)),
                "text": (lambda t: t, grid_text(orc.square_adjacency(levels, blocks))),
                "dot": (_dot_shape, (sum(levels), len(levels), _arc_set(levels, blocks)))}[fmt]
    g = group("fibtree", levels=count, format=fmt)
    g.add(f"fibtree-{fmt}", sum(levels),
          lambda s, a=["fibtree", "--levels", str(count), "--format", fmt]: cli.run(a),
          lambda r, s, e=expected: _expect(r, 0, parse=e[0], expected=e[1]))

    for _ in range(2):
        spec, count, levels = _small_cobweb(rng, path_n)
        x, y = _gap_endpoints(rng, levels)
        g = group("paths", seq=spec, levels=count, x=x, y=y)
        g.add("paths", sum(levels),
              lambda s, a=source(spec, count) + ["--x", str(x), "--y", str(y)]:
                  cli.run(["paths", *a]),
              lambda r, s, e=orc.cobweb_path_count(levels, x, y): _expect(r, 0, f"{e}\n"))

    spec, count, levels = _small_cobweb(rng, max_n)
    g = group("check-cobweb", seq=spec, levels=count)
    g.add("check-ferrers", sum(levels),
          lambda s, a=source(spec, count): cli.run(["check-ferrers", *a]),
          lambda r, s: _expect(r, 0, "OK: all blocks Ferrers\nOK: strict order matrix Ferrers\n"))
    g.add("check-dim2", sum(levels), lambda s, a=source(spec, count): cli.run(["check-dim2", *a]),
          lambda r, s: _expect(r, 0, "OK: realizer of two linear orders verified\n"))

    levels, blocks, removals = _deleted_arcs(rng, _int(rng, max(8, max_n // 4), max_n))
    path = cli.write_json("deleted.json", _graph_json(levels, blocks))
    lines = [f"FAIL: block {k} rows ({r1},{r2}) cols ({c1},{c2}) pattern {p}"
             for k, r1, r2, c1, c2, p in _witnesses(blocks)]
    strict = orc.warshall(orc.square_adjacency(levels, blocks), reflexive=False)
    lines.append("OK: strict order matrix Ferrers" if orc.rows_nested(strict)
                 else "FAIL: strict order matrix not Ferrers")
    dim2 = orc.dim2_holds(levels, blocks)
    g = group("check-deleted", levels=levels, removals=removals)
    g.add("check-ferrers-deleted", sum(levels),
          lambda s: cli.run(["check-ferrers", "--from", path]),
          lambda r, s, out="".join(ln + "\n" for ln in lines): _expect(r, 1, out))  # a block fails
    g.add("check-dim2-deleted", sum(levels), lambda s: cli.run(["check-dim2", "--from", path]),
          lambda r, s: _expect(r, 0 if dim2 else 1, (
              "OK: realizer of two linear orders verified\n" if dim2 else
              "FAIL: linear-order intersection differs from the partial order\n")))

    lo, hi = (3, 5) if tiny else (5, 30)
    columns, chain = _relation_chain(rng, 2, lo, hi, (0.1, 0.3))
    left = cli.write_json("left.json", _relation_json(chain[0]))
    right = cli.write_json("right.json", _relation_json(chain[1]))
    sample = _random_nary(rng, columns, _int(rng, 5, 30))
    nary = cli.write_json("nary.json", {"columns": [list(c) for c in columns],
                                        "tuples": sorted(list(t) for t in sample)})
    n = max(len(c) for c in columns)
    g = group("relations", labels=[len(c) for c in columns],
              pairs=fingerprint(sorted(p for _, _, ps in chain for p in ps)),
              nary=fingerprint(sorted(sample)))
    joined = {"columns": [list(c) for c in columns],
              "tuples": sorted(list(t) for t in orc.join_tuples(chain))}
    g.add("join", n, lambda s: cli.run(["join", "--left", left, "--right", right]),
          lambda r, s: _expect(r, 0, parse=json.loads, expected=joined))
    composed = {"dom": list(columns[0]), "ran": list(columns[2]),
                "pairs": sorted(list(p) for p in orc.compose_pairs(chain[0], chain[1]))}
    g.add("compose", n, lambda s: cli.run(["compose", "--left", left, "--right", right]),
          lambda r, s: _expect(r, 0, parse=json.loads, expected=composed))
    decomposed = {"decomposable": _decomposable(columns, sample),
                  "links": [_relation_json((columns[k], columns[k + 1], frozenset(
                      (t[k], t[k + 1]) for t in sample))) for k in range(2)]}
    g.add("decompose", n, lambda s: cli.run(["decompose", "--from", nary]),
          lambda r, s: _expect(r, 0, parse=json.loads, expected=decomposed))

    spec, count, levels = _small_cobweb(rng, max_n)
    out = cli.path("built.json")
    g = group("build-then-read", seq=spec, levels=count)

    def built_ok(r, s, lv=levels, out=out) -> Optional[str]:
        problem = _expect(r, 0, "")
        if problem:
            return problem
        with open(out, encoding="utf-8") as fh:
            return mismatch(json.load(fh) == _graph_json(lv, _ones_blocks(lv)), "built file")

    g.add("build-out", sum(levels),
          lambda s, a=source(spec, count): cli.run(["build", *a, "--out", out], out=out), built_ok)
    g.add("zeta-from", sum(levels), lambda s: cli.run(["zeta", "--from", out]),
          lambda r, s, lv=levels: _expect(r, 0, grid_text(orc.cobweb_zeta(lv))))

    errors = [
        ("usage-missing-arg", ["paths", "--seq", "naturals", "--levels", "5"], None, 2,
         "required"),
        ("domain-bad-seq", ["hasse", "--seq", "bogus", "--levels", "3"], None, 1,
         "bad sequence spec"),
        ("domain-over-cap", ["zeta", "--seq", "naturals", "--levels", "30"],
         {"COBWEB_MAX_VERTICES": "100"}, 1, "exceeds COBWEB_MAX_VERTICES"),
        ("domain-vertex-range", ["paths", "--seq", "naturals", "--levels", "4", "--x", "0",
                                 "--y", "3"], None, 1, "out of range"),
        ("domain-missing-file", ["zeta", "--from", cli.path("absent.json")], None, 1,
         "cannot read"),
    ]
    for i in rng.choice(len(errors), 3, replace=False):
        kind, argv, env, status, needle = errors[int(i)]
        g = group(kind)
        g.add(kind, 0, lambda s, a=argv, e=env: cli.run(a, env=e),
              lambda r, s, st=status, nd=needle: _expect(r, st, "", stderr=nd))
    return deck


WORKLOAD_DECKS = {"cobweb-session": session_deck, "general-dag": dag_deck, "cli-oneshot": cli_deck}
WORKLOADS = tuple(WORKLOAD_DECKS)


def generate(workload: str, seed: int, decks: int, tiny: bool = False,
             cli: Optional[CliRunner] = None) -> list[list[Group]]:
    """``decks`` decks of the workload's groups, each deck in seeded order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(decks):
        deck = WORKLOAD_DECKS[workload](rng, tiny, cli)
        out.append([deck[int(i)] for i in rng.permutation(len(deck))])
    return out


def manifest(seed: int, groups: list[Group]) -> dict:
    """What the generated request list holds, plus a digest of its inputs."""
    kinds: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for g in groups:
        for r in g.requests:
            kinds[r.kind] = kinds.get(r.kind, 0) + 1
            bucket = f"{r.n // 50 * 50}-{r.n // 50 * 50 + 49}"
            sizes[bucket] = sizes.get(bucket, 0) + 1
    digest = hashlib.sha256(json.dumps([g.spec for g in groups], sort_keys=True,
                                       default=int).encode()).hexdigest()
    return {"seed": seed, "groups": len(groups), "requests": sum(kinds.values()),
            "requests_per_kind": dict(sorted(kinds.items())),
            "n_histogram": dict(sorted(sizes.items(), key=lambda kv: int(kv[0].split("-")[0]))),
            "digest": digest}
