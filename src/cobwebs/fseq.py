"""Natural-number-valued sequences F that size the levels of a cobweb poset.

A cobweb poset over a sequence F has levels of cardinality |Phi_k| = F_k
(0-based, every level nonempty).  Built-in kinds:

    naturals     F_k = k + 1                 (sizes 1, 2, 3, ...)
    fibonacci    F_0 = F_1 = 1, F_k = F_{k-1} + F_{k-2}
    gaussian(q)  F_0 = 1, F_k = 1 + q + ... + q^{k-1}  (q-integers, q >= 2)
    constant(c)  F_k = c                     (c >= 1)
    explicit     a fixed finite list of sizes

The parameters q and c and the explicit sizes are integers: numpy
integers are accepted and stored as Python ints, while 2.5 or "2" raise
ValueError at construction, as does a parameter the kind does not take.
Explicit sizes are checked however the sequence is built, through
``FSequence.explicit`` or the constructor.

Values beyond the signed 64-bit range are reported as overflow rather
than produced.

The module also writes what the CLI answers about a graded digraph, with
no numpy.  To every writer here a graded digraph is its level sizes plus
one row writer per arc block, ``rows(form, start, stop)``: ``_rows`` for a
complete cobweb (``_cobweb_pieces``), ``_rows_each`` for the rabbit tree
(``_tree_pieces``) and ``boolmat.to_text`` for a matrix.  From them ``_digraph_json`` writes
the digraph JSON and ``_hasse_grid`` the Hasse text grid, and ``_arcs``
walks the arcs from each block's per-row heads for ``dot_text``, the one
DOT writer.  A complete cobweb's zeta grid is the staircase (zeros within
a vertex's own level, ones on every later level) plus the diagonal, and a
vertex of level i reaches one of level j > i by prod F_t Hasse paths over
the levels strictly between: ``cobweb_grid`` and ``cobweb_path_count``
write those answers from the level sizes, byte for byte as the matrix
path does.  The text-grid, JSON-grid and digraph JSON layouts are spelled
only here: ``_ListForm.pieces`` writes every list of rows from row bands,
in pieces of about ``PIECE_BYTES``.

Two more things a graded digraph needs come without numpy.  Digraph JSON
is read and checked here (``_json_levels``, then ``_json_arcs``, one
C-level test per row), with the level-size and block-shape checks that
``digraph.GradedDigraph`` shares, so the CLI can check a --from file, and
answer a complete one from its sizes, before numpy is imported.  And the
rabbit tree's generation rule is here (``_rabbit_tree``): each row of the
tree has one run of ones, on its own children, so ``_tree_pieces`` writes
the tree's digraph JSON, grid and DOT through the writers above, and
``cobweb.fibonacci_tree`` builds its blocks from the same rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

MAX_LEVEL_SIZE = 2**63 - 1

KINDS = {"naturals": None, "fibonacci": None, "gaussian": "q", "constant": "c",
         "explicit": "values"}  # each kind and the one parameter it takes


def as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple of Python ints, or ValueError naming ``what``.

    ``operator.index`` lets numpy integers through and rejects 1.5 and
    "1", which ``int`` would truncate or parse.
    """
    out = []
    for v in values:
        try:
            out.append(operator.index(v))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {v!r}") from None
    return tuple(out)


def _at_least(value, least: int, what: str) -> int:
    """``value`` as a Python int of at least ``least``, or ValueError naming ``what``."""
    try:
        n = operator.index(value)
    except TypeError:  # None, 2.5, "2"
        n = None
    if n is None or n < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value}")
    return n


@dataclass(frozen=True)
class FSequence:
    """A level-cardinality sequence; construct via the classmethods."""

    kind: str
    q: Optional[int] = None
    c: Optional[int] = None
    values: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        for name in ("q", "c", "values"):
            if getattr(self, name) is not None and name != KINDS[self.kind]:
                raise ValueError(f"{self.kind} sequence takes no {name}")
        if self.kind == "gaussian":
            object.__setattr__(self, "q", _at_least(self.q, 2, "gaussian base"))
        if self.kind == "constant":
            object.__setattr__(self, "c", _at_least(self.c, 1, "constant value"))
        if self.kind == "explicit":
            values = () if self.values is None else self.values
            object.__setattr__(self, "values", as_ints(values, "explicit sizes"))
            if not self.values:
                raise ValueError("explicit sequence needs a nonempty list of sizes")
            bad = [v for v in self.values if v < 1]
            if bad:
                raise ValueError(f"explicit sizes must be >= 1, got {bad}")

    @classmethod
    def naturals(cls) -> "FSequence":
        return cls("naturals")

    @classmethod
    def fibonacci(cls) -> "FSequence":
        return cls("fibonacci")

    @classmethod
    def gaussian(cls, q: int) -> "FSequence":
        return cls("gaussian", q=q)

    @classmethod
    def constant(cls, c: int) -> "FSequence":
        return cls("constant", c=c)

    @classmethod
    def explicit(cls, values) -> "FSequence":
        return cls("explicit", values=values)

    @classmethod
    def parse(cls, spec: str) -> "FSequence":
        """Parse a CLI spec string.

        Accepted forms: ``naturals``, ``fibonacci``, ``gaussian:2``,
        ``constant:3``, ``explicit:1,1,2,3,5``.
        """
        kind, colon, arg = spec.partition(":")
        kind = kind.strip()
        try:
            if kind in ("naturals", "fibonacci"):
                if colon:
                    raise ValueError(f"{kind} takes no argument")
                return cls(kind)
            if kind == "gaussian":
                return cls.gaussian(int(arg))
            if kind == "constant":
                return cls.constant(int(arg))
            if kind == "explicit":
                return cls.explicit(int(v) for v in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad sequence spec {spec!r}: {exc}") from None
        raise ValueError(f"bad sequence spec {spec!r}: unknown kind {kind!r}")


def level_size(seq: FSequence, k: int) -> int:
    """F_k, the cardinality of level k (0-based)."""
    if k < 0:
        raise ValueError(f"level index must be >= 0, got {k}")
    if seq.kind == "naturals":
        value = k + 1
    elif seq.kind == "fibonacci":
        a, b = 1, 1
        for _ in range(k):
            a, b = b, a + b
        value = a
    elif seq.kind == "gaussian":
        value = 1 if k == 0 else (seq.q**k - 1) // (seq.q - 1)
    elif seq.kind == "constant":
        value = seq.c
    else:
        if k >= len(seq.values):
            raise IndexError(
                f"level index {k} out of range for explicit sequence of "
                f"length {len(seq.values)}"
            )
        value = seq.values[k]
    if value > MAX_LEVEL_SIZE:
        raise OverflowError(f"level size F_{k} exceeds 64-bit range")
    return value


def level_sizes(seq: FSequence, n: int) -> list[int]:
    """The first n cardinalities [F_0, ..., F_{n-1}]."""
    if n < 1:
        raise ValueError(f"level count must be >= 1, got {n}")
    return list(cobweb_sizes(seq, n))


def cobweb_sizes(f: FSequence | Iterable[int], n: Optional[int] = None) -> Iterator[int]:
    """Level sizes for ``build_cobweb(f, n)``, produced lazily.

    ``f`` is a sequence object (then ``n`` picks how many levels) or a
    list of sizes; an explicit sequence counts as its list.  A bad ``n``
    raises at the call, so a caller capping the total can stop reading
    at the cap.
    """
    if isinstance(f, FSequence) and f.kind != "explicit":
        if n is None:
            raise ValueError(f"a level count is required with sequence {f.kind!r}")
        return (level_size(f, k) for k in range(n))
    sizes = f.values if isinstance(f, FSequence) else as_ints(f, "level sizes")
    if n is not None and n != len(sizes):
        raise ValueError(f"level count {n} disagrees with {len(sizes)} explicit sizes")
    return iter(sizes)


def _level_sizes(values: Iterable[int]) -> tuple[int, ...]:
    """The level sizes of a graded digraph as Python ints: at least one, each >= 1."""
    levels = as_ints(values, "level sizes")
    if not levels:
        raise ValueError("at least one level is required")
    if any(s < 1 for s in levels):
        raise ValueError(f"level sizes must be >= 1, got {levels}")
    return levels


def _check_blocks(levels: Sequence[int], shapes: Sequence[tuple[int, int]]) -> None:
    """A graded digraph's arc blocks: one per pair of consecutive levels, each of their shape."""
    if len(shapes) != len(levels) - 1:
        raise ValueError(
            f"expected {len(levels) - 1} arc blocks for {len(levels)} levels, got {len(shapes)}"
        )
    for k, shape in enumerate(shapes):
        if shape != (levels[k], levels[k + 1]):
            raise ValueError(
                f"arc block {k} has shape {shape}, expected {(levels[k], levels[k + 1])}"
            )


def locate(levels: Sequence[int], v: int) -> tuple[int, int]:
    """(level, 0-based position in it) of global 1-based vertex v, numbered level-major."""
    rest = v - 1
    for k, size in enumerate(levels):
        if 0 <= rest < size:
            return k, rest
        rest -= size
    raise ValueError(f"vertex {v} out of range 1..{sum(levels)}")


# -- writers: a graded digraph from its arc blocks, a cobweb from its sizes --

PIECE_BYTES = 1 << 20  # grids, digraph JSON and drawings come in pieces of about this size


class _ListForm(NamedTuple):
    """How a list of 0/1 rows is written: the bytes around rows and entries."""

    start: bytes  # before the first row
    head: bytes  # before each row's first entry
    entry: bytes  # one entry, its digit at ``at``; the bytes after the digit separate entries
    at: int
    tail: bytes  # after each row's last entry
    sep: bytes  # between two rows
    end: bytes  # after the last row

    def pieces(self, cols: int, bands: Iterable[tuple[int, Callable]]) -> Iterator[str]:
        """The rows of ``bands`` as one list in this form, in pieces of about ``PIECE_BYTES``.

        A band is ``(count, rows)``, and ``rows(form, start, stop)`` writes its rows
        ``start`` to ``stop - 1``, of ``cols`` entries, joined by ``form.sep``.
        """
        start, sep, end = (b.decode("ascii") for b in (self.start, self.sep, self.end))
        step = max(1, PIECE_BYTES // (len(_rows(self, 0, 1, [(b"0", cols)])) + len(self.sep)))
        chunks = (rows(self, row, min(row + step, count))
                  for count, rows in bands for row in range(0, count, step))
        piece = start + next(chunks, "")  # the first piece opens the list, the last closes it
        for chunk in chunks:
            yield piece
            piece = sep + chunk
        yield piece + end


def _json_form(depth: int, end: bytes = b"") -> _ListForm:
    """A list of rows nested ``depth`` lists deep in ``json.dumps(..., indent=2)``."""
    pad = b" " * (2 * depth)
    return _ListForm(b"[\n", pad + b"  [\n", pad + b"    0,\n", len(pad) + 4,
                     b"\n" + pad + b"  ]", b",\n", b"\n" + pad + b"]" + end)


# a whole grid by format: lines of 0/1 entries, or ``json.dumps(rows, indent=2) + "\n"``
GRID_FORMS = {"text": _ListForm(b"", b"", b"0 ", 0, b"\n", b"", b""),
              "json": _json_form(0, b"\n")}


def _rows(form: _ListForm, start: int, stop: int, runs: Sequence[tuple[bytes, int]],
          first: Optional[int] = None) -> str:
    """Rows ``start`` to ``stop - 1`` of a band of one row repeated, joined by ``form.sep``.

    The row's entries are ``runs``: (digit, how many) pairs in column order;
    with ``first``, the band's first row number, each row has its diagonal one
    too.  Copies are bytes: a huge ``bytearray`` can raise SystemError on 3.11.
    """
    entry, at = form.entry, form.at
    cells = b"".join((entry[:at] + digit + entry[at + 1 :]) * width for digit, width in runs)
    row = form.head + cells[: len(cells) - (len(entry) - at - 1)] + form.tail
    text = form.sep.join([row] * (stop - start))
    if first is not None:  # row r's diagonal is one row and one entry past row r - 1's
        text, skip = bytearray(text), len(row) + len(form.sep) + len(entry)
        text[len(form.head) + len(entry) * (first + start) + at :: skip] = b"1" * (stop - start)
    return text.decode("ascii")


def cobweb_grid(sizes: Sequence[int], fmt: str) -> Iterator[str]:
    """The zeta grid of the complete cobweb, in pieces.

    ``fmt`` names the layout in ``GRID_FORMS``.  Every row of a level reads
    the same: ones on every later level, plus its own diagonal one.  Each
    level is one band of ``GRID_FORMS[fmt].pieces``.
    """
    n, bands = sum(sizes), []
    for first, last in zip(accumulate(sizes, initial=0), accumulate(sizes)):
        runs = [(b"0", last), (b"1", n - last)]
        bands.append((last - first, partial(_rows, runs=runs, first=first)))
    return GRID_FORMS[fmt].pieces(n, bands)


def _padded(form: _ListForm, start: int, stop: int, rows: Callable, before: int,
            after: int) -> str:
    """``rows(form, start, stop)``, each row with ``before`` and ``after`` zero entries added."""
    pre, post = form.entry[: form.at], form.entry[form.at + 1 :]
    return rows(form._replace(head=form.head + (pre + b"0" + post) * before,
                              tail=(post + pre + b"0") * after + form.tail), start, stop)


def _hasse_grid(levels: Sequence[int], blocks: Sequence[Callable]) -> Iterator[str]:
    """The Hasse text grid of a graded digraph in pieces: level k's rows are ``blocks[k]``'s
    (as in ``_digraph_json``) padded onto level k + 1's columns, the last level's zeros."""
    n, ends = sum(levels), list(accumulate(levels))
    bands = [(levels[k], partial(_padded, rows=rows, before=ends[k], after=n - ends[k + 1]))
             for k, rows in enumerate(blocks)]
    bands.append((levels[-1], partial(_rows, runs=[(b"0", n)])))
    return GRID_FORMS["text"].pieces(n, bands)


def _digraph_json(levels: Sequence[int], blocks: Sequence[Callable]) -> Iterator[str]:
    """Digraph JSON in pieces: ``json.dumps(indent=2, sort_keys=True)`` of a dict, then a newline.

    The dict is {"arcs": [each block's 0/1 rows], "levels": [sizes]}; ``blocks[k]``
    writes arc block k's rows, as a band's ``rows`` in ``_ListForm.pieces``.
    """
    form = _json_form(2)
    yield '{\n  "arcs": ['
    for k, rows in enumerate(blocks):
        yield ",\n    " if k else "\n    "
        yield from form.pieces(levels[k + 1], [(levels[k], rows)])
    yield "\n  ],\n" if len(levels) > 1 else "],\n"
    yield '  "levels": [\n' + ",\n".join(f"    {s}" for s in levels) + "\n  ]\n}\n"


def _cobweb_pieces(sizes: Sequence[int], fmt: str) -> Iterator[str]:
    """The complete cobweb's digraph JSON, Hasse text grid or DOT: each row is all ones."""
    if fmt == "dot":  # level k + 1 starts after vertex ``end``; one tuple makes each int once
        return dot_text(sizes, _arcs(repeat(tuple(range(end + 1, end + c + 1)), r)
                                     for r, c, end in zip(sizes, sizes[1:], accumulate(sizes))))
    writers = [partial(_rows, runs=[(b"1", c)]) for c in sizes[1:]]
    return (_digraph_json if fmt == "json" else _hasse_grid)(sizes, writers)


def _arcs(heads: Iterable[Iterable[Iterable[int]]]) -> Iterator[tuple[int, int]]:
    """The 1-based arcs (u, v) of a graded digraph, row by row; the walk runs in C.

    ``heads[k]`` holds the global 1-based heads of each row of arc block k; the
    rows of all blocks are the vertices 1, 2, ... in turn.
    """
    return chain.from_iterable(map(zip, map(repeat, count(1)), chain.from_iterable(heads)))


def cobweb_path_count(sizes: Sequence[int], x: int, y: int) -> int:
    """``count_paths`` of the complete cobweb: prod F_t over the levels strictly between.

    0 unless y's level is above x's (so also for x = y).
    """
    i, j = locate(sizes, x)[0], locate(sizes, y)[0]
    return math.prod(sizes[i + 1 : j]) if j > i else 0


def dot_text(levels: Sequence[int], arcs: Iterable[tuple[int, int]]) -> Iterator[str]:
    """A DOT drawing of a graded digraph, one rank per level, in pieces.

    ``levels`` are the level sizes and ``arcs`` the 1-based (u, v) pairs.
    Whole lines are joined into pieces of about ``PIECE_BYTES``, so the
    drawing is never held as one string.
    """
    lines = _dot_lines(levels, arcs)
    piece: list[str] = []
    size = 0
    while batch := "".join(islice(lines, 4096)):  # joined in C, not line by line
        piece.append(batch)
        size += len(batch)
        if size >= PIECE_BYTES:
            yield "".join(piece)
            piece, size = [], 0
    yield "".join(piece)


def _dot_lines(levels: Sequence[int], arcs: Iterable[tuple[int, int]]) -> Iterator[str]:
    """The lines of ``dot_text``, each newline-terminated."""
    yield "digraph {\n  rankdir=BT;\n"
    yield from (f"  {v};\n" for v in range(1, sum(levels) + 1))
    first = 1
    for size in levels:
        members = " ".join(f"{v};" for v in range(first, first + size))
        yield f"  {{ rank=same; {members} }}\n"
        first += size
    yield from (f"  {u} -> {v};\n" for u, v in arcs)
    yield "}\n"


# -- digraph JSON, read and checked without numpy ----------------------------

def _json_levels(data: dict) -> tuple[int, ...]:
    """The level sizes of parsed digraph JSON, checked as a graded digraph's; no arc is read."""
    try:
        levels = tuple(data["levels"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad digraph JSON: {exc}") from None
    for s in levels:
        if type(s) is not int:  # int() would accept 1.5, "1" and true
            raise ValueError(f"bad digraph JSON: level size {s!r} is not an integer")
    return _level_sizes(levels)


def _json_arcs(data: dict, levels: Sequence[int]) -> tuple[list, bool]:
    """The arc blocks of parsed digraph JSON, checked, and whether every entry is a one.

    Each row is checked in C: the types of its entries are ``int`` alone, so
    ``true``, ``false`` and ``1.0`` fail, and its zeros and ones add up to its
    length.  A block's rows are checked before their lengths are compared,
    and the blocks' count and shapes last, with ``_check_blocks``.
    """
    try:
        arcs = list(data["arcs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad digraph JSON: {exc}") from None
    complete = True
    for k, b in enumerate(arcs):
        if not isinstance(b, list) or not all(
            isinstance(row, list) and set(map(type, row)) <= {int}
            and row.count(0) + row.count(1) == len(row) for row in b
        ):
            raise ValueError(f"bad digraph JSON: arc block {k} is not a list of 0/1 rows")
        if len({len(row) for row in b}) > 1:
            raise ValueError(f"bad digraph JSON: arc block {k} has rows of unequal length")
        complete = complete and all(row.count(1) == len(row) for row in b)
    _check_blocks(levels, [(len(b), len(b[0]) if b else 0) for b in arcs])
    return arcs, complete


# -- the rabbit tree, from its generation rule -------------------------------

def _rabbit_tree(n: int) -> list[list[int]]:
    """The arc blocks of the rabbit-genealogy tree of ``n`` generations, as child counts.

    Generation 0 is one juvenile.  A mature rabbit has two children and a
    juvenile one; a parent's first child is mature, its second juvenile.
    Block k lists each rabbit of generation k's number of children, in
    order.  The children are numbered parent by parent, so row i of block k
    has ones on ``counts[i]`` consecutive columns from ``sum(counts[:i])``,
    and the generations have 1, 1, 2, 3, 5, ... rabbits.
    """
    if n < 1:
        raise ValueError(f"level count must be >= 1, got {n}")
    mature, blocks = [False], []
    for _ in range(n - 1):
        blocks.append([1 + m for m in mature])
        mature = [child == 0 for m in mature for child in range(1 + m)]
    return blocks


def _rows_each(form: _ListForm, start: int, stop: int, children: Sequence[tuple[int, int]],
               width: int) -> str:
    """Rows ``start`` to ``stop - 1`` of a tree block of ``width`` columns, joined by
    ``form.sep``: ``children[r]`` is ``(first, count)``, row r's run of ones."""
    return form.sep.decode("ascii").join(
        [_rows(form, 0, 1, [(b"0", first), (b"1", c), (b"0", width - first - c)])
         for first, c in children[start:stop]])


def _tree_pieces(n: int, fmt: str) -> Iterator[str]:
    """``fibtree``: the rabbit tree of ``n`` generations as digraph JSON, text grid or DOT.

    The pieces are those that ``digraph.digraph_to_json``, the text grid of
    ``digraph.global_adjacency`` and ``digraph.to_dot`` write for
    ``cobweb.fibonacci_tree(n)``, written from ``_rabbit_tree`` without numpy.
    """
    blocks = _rabbit_tree(n)
    levels = [1, *map(sum, blocks)]
    children = [list(zip(accumulate(c, initial=0), c)) for c in blocks]  # grid rows and heads
    if fmt == "dot":  # level k + 1 starts after vertex ``end``
        return dot_text(levels, _arcs([range(end + first + 1, end + first + c + 1)
                                       for first, c in ch]
                                      for ch, end in zip(children, accumulate(levels))))
    writers = [partial(_rows_each, children=ch, width=w) for ch, w in zip(children, levels[1:])]
    return (_digraph_json if fmt == "json" else _hasse_grid)(levels, writers)
