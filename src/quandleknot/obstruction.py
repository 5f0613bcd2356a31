"""Decision procedures on top of the invariants.

All verdicts are one-sided: the invariants can certify chirality,
non-embeddability, or non-classicality, but never the opposite, so the
fallback outcome is always "inconclusive".
"""
from __future__ import annotations

import json

from ._value import Value
from .diagram import ClosedDiagram, LongDiagram, TangleDiagram, _require, break_before_underpass, mirror
from .longitude import (
    FormalSum,
    InvariantQuery,
    _longitudes,
    _sum_at,
    formal_sum,
    sum_equal,
    sum_included,
    sum_render,
    tangle_sums,
)

DISTINCT = "distinct"
OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


class Verdict(Value):
    """Outcome plus the compared sums that witness it."""

    _fields = ("kind", "sums")

    def __init__(self, kind: str, sums: dict[str, FormalSum] | None = None):
        self.__dict__.update(kind=kind, sums={} if sums is None else sums)

    def payload(self) -> dict:
        return {
            "verdict": self.kind,
            "sums": {name: s.by_label() for name, s in sorted(self.sums.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def render(self) -> str:
        lines = [f"verdict: {self.kind}"]
        for name in sorted(self.sums):
            lines.append(f"  {name} = {sum_render(self.sums[name])}")
        return "\n".join(lines)


def chirality_test(d: ClosedDiagram | LongDiagram, query: InvariantQuery, jobs: int = 1) -> Verdict:
    """Distinct sums for a diagram and its mirror certify a chiral knot (``formal_sum`` breaks a closed one).
    An involutory quandle (``barstar is star``, as for ``dihedral:n``) never certifies: ``mirror``
    only flips signs, which then change neither the relations nor the longitude folds.
    ``jobs`` is ignored; it stays because ``perfbench/run.py`` passes it."""
    s = formal_sum(d, query)
    s_mirror = formal_sum(mirror(d), query)
    kind = DISTINCT if not sum_equal(s, s_mirror) else INCONCLUSIVE
    return Verdict(kind, {"diagram": s, "mirror": s_mirror})


def tangle_embedding_obstruction(t: TangleDiagram, k: ClosedDiagram | LongDiagram,
                                 query: InvariantQuery) -> Verdict:
    """Obstructed iff neither tangle sum is included in the knot's formal sum (a closed k is broken at arc 1)."""
    s1, s2 = tangle_sums(t, query)
    s_knot = formal_sum(k, query)
    obstructed = not sum_included(s1, s_knot) and not sum_included(s2, s_knot)
    return Verdict(OBSTRUCTED if obstructed else INCONCLUSIVE,
                   {"S1": s1, "S2": s2, "knot": s_knot})


def basepoint_spectrum(c: ClosedDiagram, query: InvariantQuery) -> tuple[FormalSum, ...]:
    """One formal sum per arc of a closed diagram, breaking just before each under-passage."""
    _require(c, "basepoint_spectrum", ClosedDiagram)
    return tuple(
        formal_sum(break_before_underpass(c, i), query)
        for i in range(1, c.n + 1)
    )


def nonclassical_by_basepoints(c: ClosedDiagram, query: InvariantQuery, jobs: int = 1) -> Verdict:
    """Two differing basepoint sums certify that the code is non-classical:
    a classical diagram would have a basepoint-independent invariant.
    ``jobs`` is ignored; it stays because ``perfbench/run.py`` passes it."""
    _require(c, "nonclassical_by_basepoints", ClosedDiagram)
    spectrum = basepoint_spectrum(c, query)
    sums = {f"break_{i}": s for i, s in enumerate(spectrum, 1)}
    distinct = any(not sum_equal(spectrum[0], s) for s in spectrum[1:])
    return Verdict(DISTINCT if distinct else INCONCLUSIVE, sums)


def connected_sum_commutativity(k1: LongDiagram, k2: LongDiagram,
                                query: InvariantQuery, jobs: int = 1) -> Verdict:
    """Compare the families of K1#K2 and K2#K1, for two long diagrams, and give their formal sums.

    Neither concatenation is searched: each family is composed from the
    longitudes of the pieces the factors split into (``_longitudes``), with
    one memo for both orders, so each piece is searched once per color it
    starts at.  Each sum is its family pushed forward to ``act_on``
    (``_sum_at``); equal families give equal sums, so the families decide.
    ``jobs`` is ignored; it stays because ``perfbench/run.py`` passes it."""
    _require(k1, "connected_sum_commutativity", LongDiagram)
    _require(k2, "connected_sum_commutativity", LongDiagram)
    memo = {}
    families = {name: _longitudes(codes, query.quandle, query.basepoint, memo)
                for name, codes in (("K1#K2", (k1, k2)), ("K2#K1", (k2, k1)))}
    return Verdict(DISTINCT if families["K1#K2"] != families["K2#K1"] else INCONCLUSIVE,
                   {name: _sum_at(family, query) for name, family in families.items()})
