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
kinds still compare unequal (a ``_value.Value`` equals only its own class),
and builds its relation system once (``_compile``); the system is kept beside
the fields and never compared.
"""
from __future__ import annotations

import functools
import itertools
import json
import re
from collections import namedtuple

from ._value import Value


class _Diagram:
    @functools.cached_property
    def _system(self) -> System:  # read through _compile
        return _build(self)


def _check_signs(sign: tuple[int, ...]):
    if any(type(s) is not int or s not in (1, -1) for s in sign):
        raise ValueError("signs must be +1 or -1")


class _GaussCode(_Diagram, Value):
    """Crossing i's over-arc and sign, i = 1..n, over arcs in traversal order, as tuples of ints.
    Each kind sets the class flag ``closed``."""

    _fields = ("over_arc", "sign")

    def __init__(self, over_arc: tuple[int, ...], sign: tuple[int, ...]):
        over_arc, sign = tuple(over_arc), tuple(sign)
        n = len(over_arc)
        if self.closed and n < 1:
            raise ValueError("closed diagrams need at least one crossing")
        if len(sign) != n:
            raise ValueError("over_arc and sign must have equal length")
        _check_signs(sign)
        top = n + (not self.closed)
        if any(type(a) is not int or not 1 <= a <= top for a in over_arc):
            raise ValueError(f"over-arc reference outside 1..{top}")
        self.__dict__.update(over_arc=over_arc, sign=sign)

    @property
    def n(self) -> int:
        return len(self.over_arc)

    @property
    def num_arcs(self) -> int:
        return self.n + (not self.closed)


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


class ClosedDiagram(_GaussCode):
    """n >= 1 crossings over arcs 1..n cyclically."""

    closed = True


class TangleCrossing(Value):
    """One under-passage: which strand (1 or 2) and arc pass over, and the crossing sign."""

    _fields = ("over_strand", "over_arc", "sign")

    def __init__(self, over_strand: int, over_arc: int, sign: int):
        self.__dict__.update(over_strand=over_strand, over_arc=over_arc, sign=sign)


class TangleDiagram(_Diagram, Value):
    """Two oriented strands, as tuples; strand s has its own arcs 1..n_s+1 in traversal order."""

    _fields = ("strands",)

    def __init__(self, strands: tuple[tuple[TangleCrossing, ...], tuple[TangleCrossing, ...]]):
        strands = tuple(map(tuple, strands))
        if len(strands) != 2:
            raise ValueError("tangles have exactly two strands")
        arcs = [len(s) + 1 for s in strands]
        for strand in strands:
            for c in strand:
                if type(c.over_strand) is not int or c.over_strand not in (1, 2):
                    raise ValueError(f"over_strand must be 1 or 2, got {c.over_strand}")
                _check_signs((c.sign,))
                if type(c.over_arc) is not int or not 1 <= c.over_arc <= arcs[c.over_strand - 1]:
                    raise ValueError(
                        f"over-arc {c.over_arc} outside 1..{arcs[c.over_strand - 1]} "
                        f"on strand {c.over_strand}"
                    )
        self.__dict__["strands"] = strands


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
    except KeyError as exc:
        raise ValueError(f"malformed diagram JSON: missing field {exc}") from None
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


def _break_closed(c: ClosedDiagram, r: int, end: int) -> LongDiagram:
    """c cut at the start of arc r, as one rotation: the codes are sliced at r - 1, an over-arc r
    (hosted on the cut arc) becomes ``end``, and any other over-arc a becomes (a - r) mod n + 1."""
    n = c.n
    if type(r) is not int:
        raise ValueError(f"arc index must be an int, got {r!r}")
    if not 1 <= r <= n:
        raise ValueError(f"arc index {r} outside 1..{n}")
    over = tuple(end if a == r else (a - r) % n + 1 for a in c.over_arc[r - 1:] + c.over_arc[:r - 1])
    return LongDiagram(over, c.sign[r - 1:] + c.sign[:r - 1])


def break_at(c: ClosedDiagram, r: int) -> LongDiagram:
    """Cut arc r at its start, so traversal begins with crossing r.

    Over-passages hosted on the broken arc end up on the initial arc 1.
    """
    _require(c, "break_at", ClosedDiagram)
    return _break_closed(c, r, end=1)


def break_before_underpass(c: ClosedDiagram, i: int) -> LongDiagram:
    """Cut arc i immediately before crossing i's under-passage.

    The cut point is at the arc's far end, so over-passages hosted on the
    broken arc end up on the final arc n+1.  Cutting before every
    under-passage realizes each arc as an initial arc without ambiguity,
    which is what basepoint spectra use.
    """
    _require(c, "break_before_underpass", ClosedDiagram)
    return _break_closed(c, i, end=c.n + 1)


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
    Under-passages in traversal order become crossings 1..n.  Once every token
    has matched, one walk records each label's tokens as (U tokens before it,
    sign): its U token's count orders the crossings, and its O token's count
    plus one is the over-arc, where n + 1 wraps to arc 1 on a closed code.
    """
    body = text.strip()
    is_long = body.startswith("long:")
    tokens = []
    for raw in body.removeprefix("long:").split():
        if not (m := _TOKEN_RE.fullmatch(raw)):
            raise ValueError(f"malformed Gauss token {raw!r}")
        tokens.append((m[1], m[2], 1 if m[3] == "+" else -1))

    labels, unders = {}, 0  # labels[label][kind] = (unders before the token, sign)
    for kind, label, s in tokens:
        slot = labels.setdefault(label, {})
        if kind in slot:
            raise ValueError(f"label {label} appears more than once as {kind}")
        slot[kind] = (unders, s)
        unders += kind == "U"
    for label, slot in labels.items():
        if len(slot) != 2:
            raise ValueError(f"label {label} needs exactly one O and one U token")
        if slot["O"][1] != slot["U"][1]:
            raise ValueError(f"label {label} has mismatched O/U signs")

    crossings = sorted(labels.values(), key=lambda slot: slot["U"])
    over = tuple(c["O"][0] % (unders + is_long) + 1 for c in crossings)
    return (LongDiagram if is_long else ClosedDiagram)(over, tuple(c["U"][1] for c in crossings))


def to_signed_gauss(d: ClosedDiagram | LongDiagram) -> str:
    """Canonical token text, in one pass over arcs 1..num_arcs: the O tokens of the crossings an
    arc hosts, in crossing order (bucketed by over-arc once), then its U token if the arc is <= n."""
    _require(d, "to_signed_gauss", LongDiagram, ClosedDiagram)
    marks = ["+" if s > 0 else "-" for s in d.sign]
    hosted = [[] for _ in range(d.num_arcs + 1)]
    for c, a in enumerate(d.over_arc, 1):
        hosted[a].append(f"O{c}{marks[c - 1]}")
    parts = [] if d.closed else ["long:"]
    for arc in range(1, d.num_arcs + 1):
        parts += hosted[arc]
        if arc <= d.n:
            parts.append(f"U{arc}{marks[arc - 1]}")
    return " ".join(parts)
