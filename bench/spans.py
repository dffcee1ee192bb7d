"""Span tracing of the cobwebs public API, installed from outside the package.

``install`` wraps every public function of the cobwebs modules in every
module namespace it is bound into, so a call made through
``cobweb.closure_series`` or ``digraph.bool_product`` nests under its
caller as a child span.  Two methods get named spans of their own:
``cobweb.zeta_fill`` is the function behind the ``CobwebPoset.zeta``
cached property and ``digraph.Poset`` is the validation run on every
``Poset`` construction.  The package source is not modified.

Spans live in memory as ``Span`` records and are written out once, at the
end of a run.  Per-layer metrics are derived from them: a span's self time
is its duration minus the time its child spans cover; calls run strictly
nested on one thread, so the children never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

MODULES = ("boolmat", "digraph", "cobweb", "ferrers", "njoin", "fseq", "cli")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the tracer's span list, -1 for a root span
    request: Optional[str]
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans; ``request`` tags every span opened meanwhile."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request: Optional[str] = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.request))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        if attrs:
            span.attrs.update(attrs)
        self._open.pop()

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        ``time.perf_counter_ns`` reads the system-wide monotonic clock on
        Linux, so child timestamps share the parent's time line.
        """
        base = len(self.spans)
        for r in records:
            p = r["parent"]
            self.spans.append(Span(r["name"], r["start_ns"], r["end_ns"],
                                   parent if p < 0 else base + p, self.request, r["attrs"]))

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "request": s.request, "attrs": s.attrs}
            for s in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records():
                fh.write(json.dumps(r) + "\n")


# -- computed attributes (from array shapes, not hardware counters) ----------

def _shape(a) -> tuple[int, ...]:
    import numpy as np

    return tuple(np.shape(a))


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _bool_product_attrs(args, kwargs, result) -> dict:
    m, k = _shape(_arg(args, kwargs, 0, "a"))
    n = _shape(_arg(args, kwargs, 1, "b"))[1]
    # one AND plus one OR per (i, t, j); one byte per bool entry read or written
    return {"ops_computed": 2 * m * k * n, "bytes_computed": m * k + k * n + m * n}


def matrix_products(k: int) -> int:
    """Matrix products ``int_power`` performs for exponent k (square-and-multiply)."""
    return k.bit_length() - 1 + bin(k).count("1") if k > 0 else 0


def _int_power_attrs(args, kwargs, result) -> dict:
    n = _shape(_arg(args, kwargs, 0, "a"))[0]
    # one multiply plus one add per (i, t, j) of each n x n product
    return {"ops_computed": 2 * n**3 * matrix_products(int(_arg(args, kwargs, 1, "k")))}


ATTR_HOOKS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "boolmat.bool_product": _bool_product_attrs,
    "boolmat.int_power": _int_power_attrs,
    "boolmat.to_text": lambda a, kw, r: {"bytes_out": len(r.encode())},
    "ferrers.has_perm2x2": lambda a, kw, r: {"hit": r is not None},
    "njoin.njoin_relations": lambda a, kw, r: {"tuples_out": len(r.tuples)},
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    hook = ATTR_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, {"raised": True})
            raise
        tracer.end(idx)
        if hook is not None:
            tracer.spans[idx].attrs.update(hook(args, kwargs, result))
        return result

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public API for ``tracer``; returns the function that undoes it."""
    import cobwebs

    modules = {m: importlib.import_module(f"cobwebs.{m}") for m in MODULES}
    names: dict[Callable, str] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[obj] = f"{short}.{attr}"
    wrapped = {fn: _wrap(tracer, name, fn) for fn, name in names.items()}

    undo: list[tuple[object, str, object]] = []
    for mod in (cobwebs, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    poset_cls = modules["cobweb"].CobwebPoset
    zeta = poset_cls.__dict__["zeta"]
    traced_zeta = cached_property(_wrap(tracer, "cobweb.zeta_fill", zeta.func))
    traced_zeta.__set_name__(poset_cls, "zeta")
    undo.append((poset_cls, "zeta", zeta))
    poset_cls.zeta = traced_zeta

    validated = modules["digraph"].Poset
    undo.append((validated, "__post_init__", validated.__post_init__))
    validated.__post_init__ = _wrap(tracer, "digraph.Poset", validated.__post_init__)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer metrics -------------------------------------------------------

def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the duration of its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end_ns - s.start_ns
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, child)]


def per_layer(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-function totals over the traced spans, divided by ``passes``.

    Keys are ``<module>.<function>.<quantity>`` for quantities ``calls``,
    ``self_ms``, ``total_ms`` and each computed attribute (summed; booleans count), plus
    the ratios ``boolmat.closure_series.products_per_call`` and
    ``ferrers.has_perm2x2.hit_ratio``.  Functions never called are absent.
    """
    totals: dict[str, float] = {}
    selfs = self_times_ns(spans)
    closure_products = 0
    for s, self_ns in zip(spans, selfs):
        totals[f"{s.name}.calls"] = totals.get(f"{s.name}.calls", 0) + 1
        totals[f"{s.name}.self_ms"] = totals.get(f"{s.name}.self_ms", 0.0) + self_ns / 1e6
        totals[f"{s.name}.total_ms"] = (totals.get(f"{s.name}.total_ms", 0.0)
                                        + (s.end_ns - s.start_ns) / 1e6)
        for key, value in s.attrs.items():
            if key != "raised":
                totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value
        if (s.name == "boolmat.bool_product" and s.parent >= 0
                and spans[s.parent].name == "boolmat.closure_series"):
            closure_products += 1
    out = {k: v / passes for k, v in totals.items()}
    closures = totals.get("boolmat.closure_series.calls", 0)
    out["boolmat.closure_series.products_per_call"] = (
        closure_products / closures if closures else 0.0)
    scans = totals.get("ferrers.has_perm2x2.calls", 0)
    out["ferrers.has_perm2x2.hit_ratio"] = (
        totals.get("ferrers.has_perm2x2.hit", 0) / scans if scans else 0.0)
    return out
