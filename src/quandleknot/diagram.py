"""Gauss-code level diagrams for long, closed, and 2-strand tangle knots.

Only the combinatorics (over-arc references and crossing signs) are modeled;
no planarity or realizability check ever runs, which is what makes virtual
codes first-class citizens here.  Crossing i of a long diagram separates arc
i from arc i+1; arcs are 1-based.  A sign of +1 marks the crossing type whose
coloring relation uses ``*`` (see ``coloring``), -1 the ``*bar`` type.

Long and closed diagrams share one base: the same ``(over_arc, sign)`` data
and validation.  Its class flag ``closed`` is all that differs: a closed
diagram's last arc wraps around to arc 1, so it has n arcs instead of n+1 and
needs n >= 1.  Each kind stays its own class, so equal fields of different
kinds still compare unequal, and builds its relation system once (``_compile``).
"""
from __future__ import annotations

import functools
import itertools
import json
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar


class _Diagram:
    @functools.cached_property
    def _system(self) -> System:  # read through _compile
        return _build(self)


def _check_signs(sign: tuple[int, ...]):
    if any(type(s) is not int or s not in (1, -1) for s in sign):
        raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class _GaussCode(_Diagram):
    """Crossing i's over-arc and sign, i = 1..n, over arcs in traversal order, as tuples of ints."""

    over_arc: tuple[int, ...]
    sign: tuple[int, ...]
    closed: ClassVar[bool]

    def __post_init__(self):
        object.__setattr__(self, "over_arc", tuple(self.over_arc))
        object.__setattr__(self, "sign", tuple(self.sign))
        n = len(self.over_arc)
        if self.closed and n < 1:
            raise ValueError("closed diagrams need at least one crossing")
        if len(self.sign) != n:
            raise ValueError("over_arc and sign must have equal length")
        _check_signs(self.sign)
        top = n + (not self.closed)
        if any(type(a) is not int or not 1 <= a <= top for a in self.over_arc):
            raise ValueError(f"over-arc reference outside 1..{top}")

    @property
    def n(self) -> int:
        return len(self.over_arc)

    @property
    def num_arcs(self) -> int:
        return self.n + (not self.closed)


@dataclass(frozen=True)
class LongDiagram(_GaussCode):
    """n crossings over arcs 1..n+1 in traversal order; n = 0 is the unknot."""

    closed = False

    @functools.cached_property
    def _pieces(self) -> tuple[LongDiagram, ...]:
        """The codes this one is the connected sum (``concat``) of, first one first: it splits after
        each crossing p in 1..n-1 where crossings 1..p have over-arcs <= p + 1 and crossings p+1..n
        over-arcs >= p + 1.  A code that splits nowhere gives ``(self,)``."""
        over = self.over_arc
        highest = list(itertools.accumulate(over, max))  # [p - 1]: over crossings 1..p
        lowest = list(itertools.accumulate(reversed(over), min))[::-1]  # [p]: over crossings p+1..n
        cuts = [p for p in range(1, self.n) if highest[p - 1] <= p + 1 <= lowest[p]]
        if not cuts:
            return (self,)
        return tuple(LongDiagram(tuple(a - lo for a in over[lo:hi]), self.sign[lo:hi])
                     for lo, hi in itertools.pairwise((0, *cuts, self.n)))


@dataclass(frozen=True)
class ClosedDiagram(_GaussCode):
    """n >= 1 crossings over arcs 1..n cyclically."""

    closed = True


@dataclass(frozen=True)
class TangleCrossing:
    """One under-passage: which strand/arc passes over, and the crossing sign."""

    over_strand: int  # 1 or 2
    over_arc: int
    sign: int


@dataclass(frozen=True)
class TangleDiagram(_Diagram):
    """Two oriented strands, as tuples; strand s has its own arcs 1..n_s+1 in traversal order."""

    strands: tuple[tuple[TangleCrossing, ...], tuple[TangleCrossing, ...]]

    def __post_init__(self):
        object.__setattr__(self, "strands", tuple(map(tuple, self.strands)))
        if len(self.strands) != 2:
            raise ValueError("tangles have exactly two strands")
        arcs = [len(s) + 1 for s in self.strands]
        for strand in self.strands:
            for c in strand:
                if type(c.over_strand) is not int or c.over_strand not in (1, 2):
                    raise ValueError(f"over_strand must be 1 or 2, got {c.over_strand}")
                _check_signs((c.sign,))
                if type(c.over_arc) is not int or not 1 <= c.over_arc <= arcs[c.over_strand - 1]:
                    raise ValueError(
                        f"over-arc {c.over_arc} outside 1..{arcs[c.over_strand - 1]} "
                        f"on strand {c.over_strand}"
                    )


Diagram = LongDiagram | ClosedDiagram | TangleDiagram

_CODE_KIND = {LongDiagram: "long", ClosedDiagram: "closed"}
"""The JSON ``kind`` of each Gauss-code class."""
_KIND = {**_CODE_KIND, TangleDiagram: "tangle"}


def _require(d, what: str, *kinds: type) -> None:
    """ValueError unless d is one of ``kinds``: ``<what> needs a long diagram, not a tangle one``."""
    if type(d) not in kinds:
        got = f"a {_KIND[type(d)]} one" if type(d) in _KIND else repr(d)
        raise ValueError(f"{what} needs a {' or '.join(map(_KIND.get, kinds))} diagram, not {got}")


Relation = tuple[int, int, int, int]  # (out_arc, in_arc, over_arc, sign), 0-based arcs
System = namedtuple("System", "arcs relations letters ends")
"""A diagram's relation system over 0-based arcs numbered strand after strand, as tuples: arcs per
strand, one ``Relation`` per crossing, letters ``(arc, barred)`` per strand, and the pinned end arcs."""


def _build(d: Diagram) -> System:
    """Crossing k of a strand joins its arcs k and k + 1 (cyclically when closed); its letters
    are the under-arc, barred for sign +1, then the over-arc, barred for -1.  A coloring pins
    both end arcs of every strand of a tangle, and arc 1 of a long or closed diagram."""
    tangle = type(d) is TangleDiagram
    strands = ([[(c.over_strand - 1, c.over_arc - 1, c.sign) for c in s] for s in d.strands] if tangle
               else [[(0, a - 1, s) for a, s in zip(d.over_arc, d.sign)]])
    arcs = tuple(len(s) + (type(d) is not ClosedDiagram) for s in strands)
    offsets = (0, *itertools.accumulate(arcs))
    relations, letters = [], []
    for s, crossings in enumerate(strands):
        base, own = offsets[s], []
        for k, (over_strand, over_arc, sign) in enumerate(crossings):
            inn, over = base + k, offsets[over_strand] + over_arc
            relations.append((base + (k + 1) % arcs[s], inn, over, sign))
            own += [(inn, sign > 0), (over, sign < 0)]
        letters.append(tuple(own))
    ends = tuple(a for lo, hi in itertools.pairwise(offsets) for a in (lo, hi - 1)) if tangle else (0,)
    return System(arcs, tuple(relations), tuple(letters), ends)


def _compile(d: Diagram) -> System:
    """d's relation system, built on the first call and kept on d; ValueError for what is not a diagram."""
    if not isinstance(d, _Diagram):
        raise ValueError(f"not a diagram: {d!r}")
    return d._system


# --- JSON codec -----------------------------------------------------------

def _int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"malformed diagram JSON: {name} must be an integer, got {value!r}")
    return value


def _ints(values, name: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"malformed diagram JSON: {name} must be a list of integers")
    return tuple(_int(v, name) for v in values)


def _objects(values, name: str) -> list[dict]:
    if not isinstance(values, list) or not all(isinstance(v, dict) for v in values):
        raise ValueError(f"malformed diagram JSON: {name} must be a list of objects")
    return values


def parse_diagram(text: str) -> Diagram:
    """Parse the JSON wire format; inverse of serialize_diagram."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("diagram JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        for cls, name in _CODE_KIND.items():
            if kind == name:
                return cls(_ints(obj["over_arc"], "over_arc"), _ints(obj["sign"], "sign"))
        if kind == "tangle":
            strands = tuple(
                tuple(
                    TangleCrossing(_int(c["over_strand"], "over_strand"),
                                   _int(c["over_arc"], "over_arc"), _int(c["sign"], "sign"))
                    for c in _objects(strand["crossings"], "crossings")
                )
                for strand in _objects(obj["strands"], "strands")
            )
            return TangleDiagram(strands)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from None
    raise ValueError(f"unknown diagram kind {kind!r}")


def serialize_diagram(d: Diagram) -> str:
    if type(d) in _CODE_KIND:
        obj = {"kind": _CODE_KIND[type(d)], "over_arc": list(d.over_arc), "sign": list(d.sign)}
    elif isinstance(d, TangleDiagram):
        obj = {
            "kind": "tangle",
            "strands": [
                {"crossings": [
                    {"over_strand": c.over_strand, "over_arc": c.over_arc, "sign": c.sign}
                    for c in strand
                ]}
                for strand in d.strands
            ],
        }
    else:
        raise ValueError(f"not a diagram: {d!r}")
    return json.dumps(obj)


# --- structural operations -------------------------------------------------

def mirror(d: Diagram) -> Diagram:
    """Negate every crossing sign; over/under assignments are unchanged."""
    if isinstance(d, _GaussCode):
        return type(d)(d.over_arc, tuple(-s for s in d.sign))
    if isinstance(d, TangleDiagram):
        return TangleDiagram(tuple(
            tuple(TangleCrossing(c.over_strand, c.over_arc, -c.sign) for c in strand)
            for strand in d.strands
        ))
    raise ValueError(f"not a diagram: {d!r}")


def _break_closed(c: ClosedDiagram, r: int, broken_to_end: bool) -> LongDiagram:
    n = c.n
    if not 1 <= r <= n:
        raise ValueError(f"arc index {r} outside 1..{n}")
    over, sign = [], []
    for k in range(n):
        idx = (r - 1 + k) % n
        a = c.over_arc[idx]
        if a == r:
            over.append(n + 1 if broken_to_end else 1)
        else:
            over.append((a - r) % n + 1)
        sign.append(c.sign[idx])
    return LongDiagram(tuple(over), tuple(sign))


def break_at(c: ClosedDiagram, r: int) -> LongDiagram:
    """Cut arc r at its start, so traversal begins with crossing r.

    Over-passages hosted on the broken arc end up on the initial arc 1.
    """
    _require(c, "break_at", ClosedDiagram)
    return _break_closed(c, r, broken_to_end=False)


def break_before_underpass(c: ClosedDiagram, i: int) -> LongDiagram:
    """Cut arc i immediately before crossing i's under-passage.

    The cut point is at the arc's far end, so over-passages hosted on the
    broken arc end up on the final arc n+1.  Cutting before every
    under-passage realizes each arc as an initial arc without ambiguity,
    which is what basepoint spectra use.
    """
    _require(c, "break_before_underpass", ClosedDiagram)
    return _break_closed(c, i, broken_to_end=True)


def close_long(d: LongDiagram) -> ClosedDiagram:
    """Join the initial and final arcs; references to arc n+1 become arc 1."""
    _require(d, "close_long", LongDiagram)
    if d.n == 0:
        raise ValueError("cannot close the 0-crossing unknot (closed diagrams need n >= 1)")
    over = tuple(1 if a == d.n + 1 else a for a in d.over_arc)
    return ClosedDiagram(over, d.sign)


def concat(a: LongDiagram, b: LongDiagram) -> LongDiagram:
    """Connected sum of long diagrams: a's crossings first, b's arcs shifted."""
    _require(a, "concat", LongDiagram)
    _require(b, "concat", LongDiagram)
    over = a.over_arc + tuple(x + a.n for x in b.over_arc)
    return LongDiagram(over, a.sign + b.sign)


# --- signed Gauss code text format ----------------------------------------

_TOKEN_RE = re.compile(r"([OU])(\d+)([+-])$")


def from_signed_gauss(text: str) -> ClosedDiagram | LongDiagram:
    """Parse tokens like ``O1+ U2- ...``; ``long:`` prefix selects a long diagram.

    Each label must appear exactly once as O and once as U, with equal signs.
    Under-passages in traversal order become crossings 1..n.
    """
    body = text.strip()
    is_long = body.startswith("long:")
    if is_long:
        body = body[len("long:"):]
    tokens = []
    for raw in body.split():
        m = _TOKEN_RE.fullmatch(raw)
        if not m:
            raise ValueError(f"malformed Gauss token {raw!r}")
        tokens.append((m.group(1), m.group(2), 1 if m.group(3) == "+" else -1))

    labels = {}
    for kind, label, s in tokens:
        slot = labels.setdefault(label, {})
        if kind in slot:
            raise ValueError(f"label {label} appears more than once as {kind}")
        slot[kind] = s
    for label, slot in labels.items():
        if set(slot) != {"O", "U"}:
            raise ValueError(f"label {label} needs exactly one O and one U token")
        if slot["O"] != slot["U"]:
            raise ValueError(f"label {label} has mismatched O/U signs")

    order = [label for kind, label, _ in tokens if kind == "U"]
    crossing_of = {label: i + 1 for i, label in enumerate(order)}
    n = len(order)
    over = [0] * n
    sign = [0] * n
    seen_under = 0
    for kind, label, s in tokens:
        c = crossing_of[label]
        if kind == "U":
            seen_under += 1
            sign[c - 1] = s
        else:
            arc = seen_under + 1
            if not is_long and arc == n + 1:
                arc = 1
            over[c - 1] = arc
    return (LongDiagram if is_long else ClosedDiagram)(tuple(over), tuple(sign))


def to_signed_gauss(d: ClosedDiagram | LongDiagram) -> str:
    """Canonical token text; within an arc, over-passages are ordered by crossing."""
    _require(d, "to_signed_gauss", LongDiagram, ClosedDiagram)
    n = d.n
    overs_on = {arc: [] for arc in range(1, d.num_arcs + 1)}
    for i, a in enumerate(d.over_arc, 1):
        overs_on[a].append(i)
    parts = []
    for arc in range(1, n + 1):
        for c in sorted(overs_on[arc]):
            parts.append(f"O{c}{'+' if d.sign[c - 1] > 0 else '-'}")
        parts.append(f"U{arc}{'+' if d.sign[arc - 1] > 0 else '-'}")
    if not d.closed:
        for c in sorted(overs_on[n + 1]):
            parts.append(f"O{c}{'+' if d.sign[c - 1] > 0 else '-'}")
        return "long: " + " ".join(parts) if parts else "long:"
    return " ".join(parts)
