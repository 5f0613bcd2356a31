"""Quandle coloring enumeration for long, closed, and tangle diagrams.

Each crossing contributes the relation ``color(out) = color(in) op color(over)``
with ``op`` being ``*`` for sign +1 and ``*bar`` for sign -1.  Which arcs a
search has colored never depends on the colors, so the order is planned once:
segments of forced steps (derive an under-arc forwards, or backwards by Q2, or
check a relation), each opened by guessing one over-arc.  One depth-first
walk tries every color per guess and rejects on conflict, so branching is
bounded by |Q|^(number of genuinely free over-arcs).  The public functions
accept ``jobs`` for compatibility; it has no effect.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .diagram import ClosedDiagram, Diagram, LongDiagram, TangleDiagram
from .quandle import FiniteQuandle

Relation = tuple[int, int, int, int]  # (out_arc, in_arc, over_arc, sign), 0-based arcs


@dataclass(frozen=True)
class Coloring:
    """Arc colors (quandle element indices) per strand, in traversal order."""

    diagram: Diagram
    strands: tuple[tuple[int, ...], ...]

    @property
    def arc_colors(self) -> tuple[int, ...]:
        """Colors of the single strand of a long or closed diagram."""
        if len(self.strands) != 1:
            raise ValueError("arc_colors is for single-strand diagrams; use strands")
        return self.strands[0]


@dataclass(frozen=True)
class InvariantQuery:
    """A quandle together with the basepoint color q and the element x acted on."""

    quandle: FiniteQuandle
    basepoint: int
    act_on: int

    def __post_init__(self):
        m = len(self.quandle)
        if not 0 <= self.basepoint < m:
            raise ValueError(f"basepoint index {self.basepoint} out of range")
        if not 0 <= self.act_on < m:
            raise ValueError(f"act-on index {self.act_on} out of range")


def _plan(num_arcs: int, relations: list[Relation], preset) -> list[tuple[int | None, list]]:
    """The search order: segments of a guessed arc (none in the first) and fixed steps.

    Step ``(dst, a, b, barred, check)`` stores ``a op b`` at ``dst`` or, with
    ``check``, compares it with ``dst``.  The order replays a fixed-point sweep
    over the relations: a known over-arc derives ``out`` from ``in``, else
    ``in`` from ``out`` by Q2, and checks a relation whose three arcs are known
    unless ``out`` came from it.  When stuck, guess the over-arc of the first
    relation with a known end, else the first unknown arc.  A heap of (sweep,
    relation) visits revisits only relations touching a newly known arc.
    """
    touching: list[list[int]] = [[] for _ in range(num_arcs)]
    for j, (out, inn, over, _) in enumerate(relations):
        for arc in {out, inn, over}:
            touching[arc].append(j)
    known = [False] * num_arcs
    settled = [False] * len(relations)  # out derived from it, or checked
    visits: list[tuple[int, int]] = []
    guessable: list[int] = []  # relations that got a known end while their over-arc was unknown

    def learn(arc: int, sweep: int, at: int) -> None:
        known[arc] = True
        for j in touching[arc]:
            heapq.heappush(visits, (sweep + (j <= at), j))
            if not known[relations[j][2]]:
                heapq.heappush(guessable, j)

    for arc in preset:
        learn(arc, 0, -1)
    segments, guess = [], None
    while True:
        steps = []
        while visits:
            sweep, j = visit = heapq.heappop(visits)
            out, inn, over, sign = relations[j]
            if settled[j] or not known[over] or (visits and visits[0] == visit):
                continue
            if known[inn]:
                steps.append((out, inn, over, sign < 0, known[out]))
                settled[j] = True
                if not known[out]:
                    learn(out, sweep, j)
            elif known[out]:
                steps.append((inn, out, over, sign > 0, False))
                learn(inn, sweep, j)
        segments.append((guess, steps))
        while guessable and known[relations[guessable[0]][2]]:
            heapq.heappop(guessable)
        if not guessable and all(known):
            return segments
        guess = relations[guessable[0]][2] if guessable else known.index(False)
        learn(guess, 0, -1)


def _search(segments: list, assign: list[int | None], q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Every full assignment the segments accept, by a depth-first walk without recursion.
    ``assign`` is reused: a segment writes each arc it derives before deeper levels read it."""
    levels = [(arc, [(dst, (q.star, q.barstar)[barred], a, b, check) for dst, a, b, barred, check in steps])
              for arc, steps in segments]
    m, tried = len(q), [0] * len(levels)  # colors tried so far at each level
    results, level = [], 0
    while level >= 0:
        arc, steps = levels[level]
        if tried[level] == (m if level else 1):  # level 0 guesses nothing and runs once
            level -= 1
            continue
        if level:
            assign[arc] = tried[level]
        tried[level] += 1
        for dst, table, a, b, check in steps:
            value = table[assign[a]][assign[b]]
            if not check:
                assign[dst] = value
            elif value != assign[dst]:
                break
        else:
            if level + 1 == len(levels):
                results.append(tuple(assign))  # type: ignore[arg-type]
            else:
                level += 1
                tried[level] = 0
    return results


def _solve(num_arcs: int, relations: list[Relation], preset: dict[int, int],
           q: FiniteQuandle) -> list[tuple[int, ...]]:
    assign: list[int | None] = [preset.get(arc) for arc in range(num_arcs)]
    return sorted(_search(_plan(num_arcs, relations, preset), assign, q))


def _compile(d: Diagram) -> tuple[tuple[int, ...], list[Relation], tuple]:
    """A diagram as one relation system over 0-based arcs numbered strand after strand.

    Returns each strand's arc count, one ``Relation`` per crossing (strand after
    strand) and each strand's longitude letters ``(arc, barred)``.  Crossing k
    of a strand joins its arcs k and k + 1 (cyclically when closed); its letters
    are the under-arc, barred for sign +1, then the over-arc, barred for -1.
    """
    closed = False
    if isinstance(d, TangleDiagram):
        strands = [[(c.over_strand - 1, c.over_arc - 1, c.sign) for c in s] for s in d.strands]
    elif isinstance(d, (LongDiagram, ClosedDiagram)):
        strands, closed = [[(0, a - 1, s) for a, s in zip(d.over_arc, d.sign)]], d.closed
    else:
        raise TypeError(f"not a diagram: {d!r}")
    arcs = tuple(len(s) + (not closed) for s in strands)
    offsets = (0, *itertools.accumulate(arcs))
    relations, letters = [], []
    for s, crossings in enumerate(strands):
        base, own = offsets[s], []
        for k, (over_strand, over_arc, sign) in enumerate(crossings):
            inn, over = base + k, offsets[over_strand] + over_arc
            relations.append((base + (k + 1) % arcs[s], inn, over, sign))
            own += [(inn, sign > 0), (over, sign < 0)]
        letters.append(tuple(own))
    return arcs, relations, tuple(letters)


def _colorings(d: Diagram, q: FiniteQuandle, basepoint: int,
               every_end: bool = False) -> tuple[Coloring, ...]:
    """Colorings with arc 1, or both end arcs of every strand, colored ``basepoint``."""
    if not 0 <= basepoint < len(q):
        raise ValueError(f"basepoint index {basepoint} out of range")
    arcs, relations, _ = _compile(d)
    bounds = list(itertools.pairwise((0, *itertools.accumulate(arcs))))  # [lo, hi) per strand
    ends = [arc for lo, hi in bounds for arc in (lo, hi - 1)] if every_end else [0]
    rows = _solve(bounds[-1][1], relations, dict.fromkeys(ends, basepoint), q)
    if len(bounds) == 1:  # the row is the strand's colors; slicing it would cost per coloring
        return tuple(Coloring(d, (row,)) for row in rows)
    return tuple(Coloring(d, tuple(row[lo:hi] for lo, hi in bounds)) for row in rows)


def colorings_long(d: LongDiagram, q: FiniteQuandle, basepoint: int,
                   jobs: int = 1) -> tuple[Coloring, ...]:
    """All colorings of a long diagram with arc 1 colored ``basepoint``.

    The final arc is not constrained; for classical codes it comes out equal
    to the basepoint anyway, for virtual codes it may differ.  Output is
    sorted lexicographically by arc colors.
    """
    return _colorings(d, q, basepoint)


def colorings_closed(d: ClosedDiagram, q: FiniteQuandle, basepoint: int,
                     jobs: int = 1) -> tuple[Coloring, ...]:
    """All colorings of a closed diagram with arc 1 colored ``basepoint``."""
    return _colorings(d, q, basepoint)


def colorings_tangle_boundary_mono(d: TangleDiagram, q: FiniteQuandle, basepoint: int,
                                   jobs: int = 1) -> tuple[Coloring, ...]:
    """Boundary-monochromatic colorings: all four boundary arcs get ``basepoint``.

    The end-arc constraints are installed up front, so the search simply
    rejects any branch that would violate them.
    """
    return _colorings(d, q, basepoint, every_end=True)


def _colors(c: Coloring, arcs: tuple[int, ...], m: int | None) -> list[int]:
    """The colors strand after strand.  ValueError unless each strand has its
    compiled arc count and every color lies in range(m), or is >= 0 for m None."""
    if tuple(map(len, c.strands)) != arcs:
        raise ValueError(f"coloring has strands of {tuple(map(len, c.strands))} arcs, the diagram {arcs}")
    colors = [x for strand in c.strands for x in strand]
    if not all(0 <= x and (m is None or x < m) for x in colors):
        raise ValueError("coloring has a color outside the quandle")
    return colors


def verify_coloring(c: Coloring, q: FiniteQuandle) -> bool:
    """Re-check every crossing relation, independent of the search; False for a wrong shape."""
    arcs, relations, _ = _compile(c.diagram)
    try:
        colors = _colors(c, arcs, len(q))
    except ValueError:
        return False
    return all(colors[out] == q.op(colors[inn], colors[over], barred=sign < 0)
               for out, inn, over, sign in relations)
