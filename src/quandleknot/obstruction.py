"""Decision procedures on top of the invariants.

All verdicts are one-sided: the invariants can certify chirality,
non-embeddability, or non-classicality, but never the opposite, so the
fallback outcome is always "inconclusive".
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .coloring import InvariantQuery
from .diagram import ClosedDiagram, LongDiagram, TangleDiagram, break_at, break_before_underpass, concat, mirror
from .longitude import (
    FormalSum,
    formal_sum,
    longitude_family,
    sum_equal,
    sum_included,
    sum_render,
    tangle_sums,
)

DISTINCT = "distinct"
OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome plus the compared sums that witness it."""

    kind: str
    sums: dict[str, FormalSum] = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "verdict": self.kind,
            "sums": {name: {s.quandle.labels[e]: c for e, c in s.terms}
                     for name, s in sorted(self.sums.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def render(self) -> str:
        lines = [f"verdict: {self.kind}"]
        for name in sorted(self.sums):
            lines.append(f"  {name} = {sum_render(self.sums[name])}")
        return "\n".join(lines)


def _as_long(k: ClosedDiagram | LongDiagram) -> LongDiagram:
    # classical basepoint independence makes the break choice immaterial
    return break_at(k, 1) if isinstance(k, ClosedDiagram) else k


def chirality_test(d: ClosedDiagram | LongDiagram, query: InvariantQuery,
                   jobs: int = 1) -> Verdict:
    """Distinct sums for a diagram and its mirror certify a chiral knot."""
    long_d = _as_long(d)
    s = formal_sum(long_d, query.quandle, query, jobs)
    s_mirror = formal_sum(mirror(long_d), query.quandle, query, jobs)
    kind = DISTINCT if not sum_equal(s, s_mirror) else INCONCLUSIVE
    return Verdict(kind, {"diagram": s, "mirror": s_mirror})


def tangle_embedding_obstruction(t: TangleDiagram, k: ClosedDiagram | LongDiagram,
                                 query: InvariantQuery, jobs: int = 1) -> Verdict:
    """Obstructed iff neither tangle sum is included in the knot's formal sum."""
    s1, s2 = tangle_sums(t, query.quandle, query, jobs)
    s_knot = formal_sum(_as_long(k), query.quandle, query, jobs)
    obstructed = not sum_included(s1, s_knot) and not sum_included(s2, s_knot)
    return Verdict(OBSTRUCTED if obstructed else INCONCLUSIVE,
                   {"S1": s1, "S2": s2, "knot": s_knot})


def basepoint_spectrum(c: ClosedDiagram, query: InvariantQuery,
                       jobs: int = 1) -> tuple[FormalSum, ...]:
    """One formal sum per arc, breaking just before each under-passage."""
    return tuple(
        formal_sum(break_before_underpass(c, i), query.quandle, query, jobs)
        for i in range(1, c.n + 1)
    )


def nonclassical_by_basepoints(c: ClosedDiagram, query: InvariantQuery,
                               jobs: int = 1) -> Verdict:
    """Two differing basepoint sums certify that the code is non-classical:
    a classical diagram would have a basepoint-independent invariant."""
    spectrum = basepoint_spectrum(c, query, jobs)
    sums = {f"break_{i}": s for i, s in enumerate(spectrum, 1)}
    distinct = any(not sum_equal(spectrum[0], s) for s in spectrum[1:])
    return Verdict(DISTINCT if distinct else INCONCLUSIVE, sums)


def connected_sum_commutativity(k1: LongDiagram, k2: LongDiagram,
                                query: InvariantQuery, jobs: int = 1) -> Verdict:
    """Compare K1#K2 with K2#K1 at both the sum and the family level."""
    q = query.quandle
    fam_ab = longitude_family(concat(k1, k2), q, query.basepoint, jobs)
    fam_ba = longitude_family(concat(k2, k1), q, query.basepoint, jobs)
    # each family holds one longitude per coloring, so its images of act_on are the formal sum
    s_ab, s_ba = (FormalSum.from_elements(q, (a.images[query.act_on] for a in fam.members))
                  for fam in (fam_ab, fam_ba))
    families_differ = [a.images for a in fam_ab.members] != [a.images for a in fam_ba.members]
    kind = DISTINCT if (not sum_equal(s_ab, s_ba) or families_differ) else INCONCLUSIVE
    return Verdict(kind, {"K1#K2": s_ab, "K2#K1": s_ba})
