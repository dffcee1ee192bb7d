"""Batch command-line front end.

One action per invocation: build cobweb posets and emit their matrices or
DOT drawings, count Hasse paths, join/compose relations from JSON files,
run Ferrers and dimension-2 checks, and decompose n-ary relations into
binary chains.  ``main`` writes every output: each handler returns its
text and exit status.  Exit status 0 on success, 1 on a failed check, on
invalid input, on running out of memory and on an unwritable --out
(message on stderr) or a closed stdout, 2 on usage errors.

The subcommands that take --seq or --from (build, hasse, zeta, dot,
paths, check-ferrers, check-dim2) share one handler.  ``_resolve`` reads
the source once and picks an answer table.  A complete cobweb is
answered from its level sizes by ``_FROM_SIZES``, in closed form through
``fseq``, with no numpy, no matrix and no closure: --seq gives those
sizes, and so does a --from file whose every arc entry is a one.  Any
other --from file gives a ``GradedDigraph``, which ``_FROM_DIGRAPH``
answers through its matrices; check-dim2 is the exception.  It checks
the level-major realizer (``cobweb.realizer``), whose two orders
intersect to "x < y exactly when x's level is below y's" (Dushnik and
Miller 1941).  In a graded digraph a vertex reaches the next level only
through its own arcs, so that is the digraph's order exactly when every
arc block is all ones: check-dim2 --from is a completeness test, and a
file with a missing arc fails it (``_MISSING_ARC``) with no digraph
built, in one pass over the file's rows.  ``fibtree`` writes the rabbit
tree from its generation rule (``fseq._tree_pieces``), without numpy
too.  Every table writes the same bytes for the same digraph, in pieces,
through ``fseq``'s writers, from the level sizes and one row writer per
arc block, which on the matrix path is ``boolmat.to_text``.

A --from file is read and checked by ``fseq``'s reader, with no numpy:
its level sizes first, then each arc row by one C-level test of its
entries' types and values.  ``digraph.digraph_from_json`` reads through
the same reader.

Each process runs one subcommand, so the command loads only what that
subcommand runs, and only once its input has been read and checked.  The
top level imports argparse, json, ``fseq`` and the ``cobwebs`` package,
which loads no submodule by itself; every other call into the library is
written ``cobwebs.<module>.<name>``, and the package imports that module
on first use.  ``join``, ``compose`` and ``decompose`` load only
``njoin``, whose relations are label dicts and Python ints, so they
never import numpy; the matrix modules do.  Their calls come after the
checks, so ``--help``, usage errors, every --seq answer, every answer to
a complete --from file, check-dim2 --from, ``fibtree``, the vertex cap
and an unreadable or malformed file never import numpy, and no cobweb
subcommand loads ``njoin``, nor ``ferrers`` unless it checks a --from
digraph that is not a cobweb.  Python looks a callee up before it
evaluates the arguments, so input for a matrix module is read and
checked in a statement of its own, not inside the call that hands it to
the library.

The environment variable COBWEB_MAX_VERTICES (a positive integer, default
10000) caps the size of any constructed digraph.  For --seq and
``fibtree`` the cap is checked on the level sizes before any output or
arc block exists; for --from, on the file's level sizes before any arc
is read.  The cap bounds vertices, not output bytes: ``build``'s worst
legal input under the default cap is ``--seq constant:5000 --levels 2``,
two complete levels joined by 25 M arcs, whose 275 MB of digraph JSON is
written in pieces in about 20 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

import cobwebs

from .fseq import (
    GRID_FORMS,
    FSequence,
    _cobweb_pieces,
    _hasse_grid,
    _json_arcs,
    _json_levels,
    _tree_pieces,
    cobweb_grid,
    cobweb_path_count,
    cobweb_sizes,
)

DEFAULT_MAX_VERTICES = 10000


def _max_vertices() -> int:
    raw = os.environ.get("COBWEB_MAX_VERTICES")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"COBWEB_MAX_VERTICES must be a positive integer, got {raw!r}")
    return cap


def _check_size(levels: Iterable[int]) -> list[int]:
    """The level sizes as a list; stops reading them once the cap is passed."""
    cap = _max_vertices()
    sizes: list[int] = []
    total = 0
    for s in levels:
        total += s
        if total > cap:
            raise ValueError(
                f"construction of at least {total} vertices exceeds COBWEB_MAX_VERTICES={cap}"
            )
        sizes.append(s)
    return sizes


def _sizes(seq: FSequence, levels: Optional[int]) -> list[int]:
    """Level sizes for --seq/--levels, checked against the cap as they are made."""
    try:
        sizes = cobweb_sizes(seq, levels)
    except ValueError as exc:
        raise ValueError(f"--levels: {exc}")
    return _check_size(sizes)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")


def _resolve(args: argparse.Namespace) -> tuple[dict, object]:
    """The answer table and its source.

    A cobweb, from --seq or a --from file whose every arc entry is a one,
    is answered from its level sizes.  Any other --from file is answered
    through its ``GradedDigraph``, except ``check-dim2``, which fails on it
    without one.
    """
    if getattr(args, "from_path", None):
        if args.seq is not None or args.levels is not None:
            raise ValueError("--seq and --levels cannot be used with --from")
        data = _load_json(args.from_path)
        levels = _check_size(_json_levels(data))  # before any arc is read
        arcs, complete = _json_arcs(data, levels)
        if complete:
            return _FROM_SIZES, levels
        if (args.answer, args.format) in _MISSING_ARC:
            return _MISSING_ARC, levels
        return _FROM_DIGRAPH, cobwebs.digraph.GradedDigraph(levels, tuple(arcs))
    if not args.seq:
        raise ValueError("either --seq or --from is required")
    sizes = _sizes(FSequence.parse(args.seq), args.levels)
    if not sizes:  # --levels 0 or below, which a graded digraph refuses
        raise ValueError("at least one level is required")
    return _FROM_SIZES, sizes


def _load_relations(args: argparse.Namespace) -> list[cobwebs.njoin.BinaryRelation]:
    """The --left and --right relations, read and checked in that order.

    Each file's JSON is dropped once its relation is built, before the
    next is read; join and compose pass the list straight on, so the
    relations are freed before the output is written.
    """
    left = _load_json(args.left)
    left = cobwebs.njoin.relation_from_json(left)
    right = _load_json(args.right)
    return [left, cobwebs.njoin.relation_from_json(right)]


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    """Write the text, or its pieces in order, to --out or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.writelines(pieces)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grid_pieces(m: cobwebs.boolmat.BoolMatrix, fmt: str) -> Iterator[str]:
    """``m`` in ``fseq``'s ``fmt`` grid layout, in pieces, its rows rendered by ``to_text``."""
    return GRID_FORMS[fmt].pieces(m.shape[1], [(len(m), partial(cobwebs.boolmat.to_text, m))])


def _ferrers_report(failures: Sequence, strict_ok: bool) -> tuple[str, int]:
    """check-ferrers' lines and exit status: the failing blocks, then the strict order."""
    lines = ([f"FAIL: block {k} {witness.describe()}" for k, witness in failures]
             or ["OK: all blocks Ferrers"])
    lines.append("OK: strict order matrix Ferrers" if strict_ok
                 else "FAIL: strict order matrix not Ferrers")
    return "".join(ln + "\n" for ln in lines), 0 if not failures and strict_ok else 1


def _dim2_report(ok: bool) -> tuple[str, int]:
    if ok:
        return "OK: realizer of two linear orders verified\n", 0
    return "FAIL: linear-order intersection differs from the partial order\n", 1


def _check_ferrers(d: cobwebs.digraph.GradedDigraph) -> tuple[str, int]:
    result = cobwebs.ferrers.chain_is_ferrers(list(d.blocks))
    strict_ok = cobwebs.ferrers.strict_order_is_ferrers(cobwebs.digraph.transitive_closure(d).leq)
    return _ferrers_report(result.failures, strict_ok)


# -- answers: (text or its pieces, exit status), keyed by (answer, format) ---

# from a graded digraph (a --from file with a missing arc) through its matrices;
# ``cobwebs.<module>`` is read at call time, so wrappers installed on it (tracing,
# test doubles) apply
_FROM_DIGRAPH = {
    ("digraph", "json"): lambda d, a: (cobwebs.digraph.digraph_to_json(d), 0),
    ("digraph", "text"): lambda d, a: (
        _hasse_grid(d.levels, [partial(cobwebs.boolmat.to_text, b) for b in d.blocks]), 0),
    ("digraph", "dot"): lambda d, a: (cobwebs.digraph.to_dot(d), 0),
    ("zeta", "text"): lambda d, a: (
        _grid_pieces(cobwebs.digraph.transitive_closure(d).leq, "text"), 0),
    ("zeta", "json"): lambda d, a: (
        _grid_pieces(cobwebs.digraph.transitive_closure(d).leq, "json"), 0),
    ("paths", None): lambda d, a: (f"{cobwebs.cobweb.count_paths(d, a.x, a.y)}\n", 0),
    ("check-ferrers", None): lambda d, a: _check_ferrers(d),
}

# from the level sizes of a --from file with a missing arc: its level-major realizer
# orders every vertex of a level below every vertex of the next, which only an arc
# between them can give, so it realizes the order exactly when no arc is missing
_MISSING_ARC = {
    ("check-dim2", None): lambda s, a: _dim2_report(False),
}

# from the level sizes of a complete cobweb (--seq, complete --from) in closed form: no numpy.
# Its blocks are all ones and its strict order's rows nest level by level, so
# both are Ferrers; its level-major realizer is exact (``cobweb.realizer``)
_FROM_SIZES = {
    ("digraph", "json"): lambda s, a: (_cobweb_pieces(s, "json"), 0),
    ("digraph", "text"): lambda s, a: (_cobweb_pieces(s, "text"), 0),
    ("digraph", "dot"): lambda s, a: (_cobweb_pieces(s, "dot"), 0),
    ("zeta", "text"): lambda s, a: (cobweb_grid(s, "text"), 0),
    ("zeta", "json"): lambda s, a: (cobweb_grid(s, "json"), 0),
    ("paths", None): lambda s, a: (f"{cobweb_path_count(s, a.x, a.y)}\n", 0),
    ("check-ferrers", None): lambda s, a: _ferrers_report((), True),
    ("check-dim2", None): lambda s, a: _dim2_report(True),
}


# -- subcommand handlers: each returns (text or its pieces, exit status) -----

def _cmd_answer(args):
    answers, source = _resolve(args)
    return answers[args.answer, args.format](source, args)


def _cmd_join(args):
    joined = cobwebs.njoin.njoin_relations(_load_relations(args))
    return _json_text(cobwebs.njoin.nary_to_json(joined)), 0


def _cmd_compose(args):
    composed = cobwebs.njoin.compose_relations(*_load_relations(args))
    return _json_text(cobwebs.njoin.relation_to_json(composed)), 0


def _cmd_decompose(args):
    data = _load_json(args.from_path)
    t = cobwebs.njoin.nary_from_json(data)
    chain = cobwebs.njoin.project_chain(t)
    payload = {
        "decomposable": cobwebs.njoin.join_size(chain) == len(t.tuples),
        "links": [cobwebs.njoin.relation_to_json(r) for r in chain.links],
    }
    return _json_text(payload), 0


def _cmd_fibtree(args):
    # the tree's level sizes are the Fibonacci numbers: check the cap first
    _sizes(FSequence.fibonacci(), args.levels)
    return _tree_pieces(args.levels, args.format), 0


# -- parser ------------------------------------------------------------------

def _add_source_flags(sub: argparse.ArgumentParser, with_from: bool = True) -> None:
    sub.add_argument("--seq", help="sequence spec, e.g. naturals | fibonacci | gaussian:2"
                                   " | constant:3 | explicit:1,2,3")
    sub.add_argument("--levels", type=int, help="number of levels")
    if with_from:
        sub.add_argument("--from", dest="from_path", metavar="PATH",
                         help="load a digraph JSON file instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Cobweb posets, natural joins, and Boolean matrix checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="build a cobweb and emit digraph JSON")
    _add_source_flags(sub, with_from=False)
    sub.set_defaults(handler=_cmd_answer, answer="digraph", format="json")

    sub = subs.add_parser("hasse", help="emit the Hasse adjacency matrix")
    _add_source_flags(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(handler=_cmd_answer, answer="digraph")

    sub = subs.add_parser("zeta", help="emit the zeta (incidence) matrix")
    _add_source_flags(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(handler=_cmd_answer, answer="zeta")

    sub = subs.add_parser("dot", help="emit a DOT drawing of the Hasse digraph")
    _add_source_flags(sub)
    sub.set_defaults(handler=_cmd_answer, answer="digraph", format="dot")

    sub = subs.add_parser("paths", help="count directed Hasse paths between two vertices")
    _add_source_flags(sub)
    sub.add_argument("--x", type=int, required=True, help="source vertex (1-based)")
    sub.add_argument("--y", type=int, required=True, help="target vertex (1-based)")
    sub.set_defaults(handler=_cmd_answer, answer="paths", format=None)

    sub = subs.add_parser("join", help="natural join of two relation JSON files")
    sub.add_argument("--left", required=True)
    sub.add_argument("--right", required=True)
    sub.set_defaults(handler=_cmd_join)

    sub = subs.add_parser("compose", help="compose two relation JSON files")
    sub.add_argument("--left", required=True)
    sub.add_argument("--right", required=True)
    sub.set_defaults(handler=_cmd_compose)

    sub = subs.add_parser("check-ferrers", help="blockwise and strict-order Ferrers checks")
    _add_source_flags(sub)
    sub.set_defaults(handler=_cmd_answer, answer="check-ferrers", format=None)

    sub = subs.add_parser("check-dim2", help="verify the two-linear-order realizer")
    _add_source_flags(sub)
    sub.set_defaults(handler=_cmd_answer, answer="check-dim2", format=None)

    sub = subs.add_parser("decompose", help="project an n-ary relation JSON into a binary chain")
    sub.add_argument("--from", dest="from_path", metavar="PATH", required=True)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser("fibtree", help="emit the rabbit-genealogy tree digraph")
    sub.add_argument("--levels", type=int, required=True)
    sub.add_argument("--format", choices=("json", "text", "dot"), default="json")
    sub.set_defaults(handler=_cmd_fibtree)

    for sub in subs.choices.values():  # the last option of every subcommand
        sub.add_argument("--out")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output, status = args.handler(args)
        _emit(output, args.out)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so that the
        # interpreter's final flush stays quiet, as the ``signal`` docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, IndexError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
