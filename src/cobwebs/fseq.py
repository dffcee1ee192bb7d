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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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


def locate(levels: Sequence[int], v: int) -> tuple[int, int]:
    """(level, 0-based position in it) of global 1-based vertex v, numbered level-major."""
    rest = v - 1
    for k, size in enumerate(levels):
        if 0 <= rest < size:
            return k, rest
        rest -= size
    raise ValueError(f"vertex {v} out of range 1..{sum(levels)}")
