"""Quandle coloring enumeration for long, closed, and tangle diagrams.

Each crossing contributes the relation ``color(out) = color(in) op color(over)``
with ``op`` being ``*`` for sign +1 and ``*bar`` for sign -1.  The search
relies on Q1 and Q2, which every ``FiniteQuandle`` satisfies by construction:
``y op b = z`` exactly when ``y = z op' b``, and ``a op a = a`` in both
tables.  Which arcs a search has colored never depends on the colors, so the
order is planned once per call, from the diagram alone, as levels, each
coloring one arc and then running forced steps: derive an out-arc forwards
from its in- and over-arc, derive an in-arc backwards from its out- and
over-arc, and check a relation whose arcs are all colored.  A solve level
colors the one uncolored over-arc of a relation with exactly the colors that
satisfy it, read from an index built as the search needs it.  A guess level
is planned only where no relation pins an arc.  It tries the orbit, under
Inn(Q), of the color of a known arc joined to it through in- and out-arcs
(``out = in op over`` keeps a color in its orbit), and every color only when
no such arc is known.  The result is the full solution set.  One depth-first
walk visits the levels.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .diagram import ClosedDiagram, Diagram, LongDiagram, Relation, TangleDiagram, _compile, _require
from .quandle import FiniteQuandle

Candidates = Callable[[int, int], Sequence[int]]  # (color of in-arc, color of out-arc) -> colors


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
        _check_index(self.basepoint, len(self.quandle), "basepoint")
        _check_index(self.act_on, len(self.quandle), "act-on")


def _check_index(x, m: int, name: str) -> None:
    """ValueError unless x is an element index: exactly an int (no bool, float or numpy
    integer, which would leak into the colorings) in range(m)."""
    if type(x) is not int:
        raise ValueError(f"{name} index must be an int, got {x!r}")
    if not 0 <= x < m:
        raise ValueError(f"{name} index {x} out of range")


def _plan(num_arcs: int, relations: list[Relation], preset) -> list[tuple]:
    """The search order: levels that each color one arc, then run forced steps.

    A level is ``(arc, steps, solve)``.  The first colors a preset arc with its
    preset color, or guesses arc 0 when nothing is preset.  A solve level has
    ``solve = (barred, a, b)``: the arc is the unknown over-arc of a relation
    whose in-arc ``a`` and out-arc ``b`` are known, and the level tries
    exactly the colors y with ``color(a) op y = color(b)``.  The other levels
    guess.  The in- and out-arc of a relation have colors in one orbit of
    Inn(Q), as ``out = in op over`` applies a right translation, so the arcs
    that relations join that way share an orbit.  A guess whose arc shares it
    with a known arc ``a`` (its anchor) has ``solve = (None, a, a)`` and tries
    the orbit of ``color(a)``; one with no known arc there has ``solve``
    None and tries every color.  Step ``(dst, a, b, barred, check)`` stores
    ``a op b`` at ``dst`` or, with ``check``, compares it with ``dst``.

    Which arcs are known never depends on the colors, so the plan is made
    once.  Forced steps derive an out-arc whose in-arc is known, and whose
    over-arc is known or is the out-arc itself; derive an in-arc, as ``out
    op' over`` (the step's ``barred`` flipped), whose out-arc is known and
    whose over-arc is known or is the in-arc itself; and check a relation
    whose arcs are all known.  A repeated arc is derived from the step
    ``(dst, a, a, ...)``: on a quandle ``a op a = a``, so ``x op y = y`` and
    ``y op y = x`` both force ``y = x``.  When stuck, solve a relation whose
    one unknown arc is its over-arc.  Only when no relation has one, guess
    the over-arc of a relation with a known end (else the first unknown
    arc); among the first few such over-arcs, the one whose guess would
    check the most relations and then pin the most arcs (``_cascade``).
    Each relation is revisited only when one of its arcs becomes known.
    """
    parent = list(range(num_arcs))  # union-find: the arcs joined as in- and out-arc share an orbit

    def root(arc: int) -> int:
        while parent[arc] != arc:
            parent[arc] = parent[parent[arc]]
            arc = parent[arc]
        return arc
    for out, inn, _, _ in relations:
        parent[root(out)] = root(inn)
    anchors: dict[int, int] = {}  # root -> the first arc of its part to become known
    touching: list[list[int]] = [[] for _ in range(num_arcs)]
    unknown = []  # distinct arcs of each relation not yet known
    for j, (out, inn, over, _) in enumerate(relations):
        arcs = {out, inn, over}
        unknown.append(len(arcs))
        for arc in arcs:
            touching[arc].append(j)
    known = [False] * num_arcs
    settled = [False] * len(relations)  # derived, checked or solved by a level
    fresh = list(preset) or [0]  # known arcs whose relations are not yet updated
    for arc in fresh:
        known[arc] = True
    remaining, first_unknown = num_arcs - len(fresh), 0
    ready: list[int] = []  # relations that got down to one or no unknown arc
    loose: list[int] = []  # relations whose one unknown arc is their over-arc
    guessable: list[int] = []  # relations that got a known end while their over-arc was unknown
    levels: list[tuple] = []
    arc, solve = fresh[0], None
    while True:
        steps = []
        while fresh or ready:
            if fresh:
                new = fresh.pop()
                anchors.setdefault(root(new), new)
                for j in touching[new]:
                    unknown[j] -= 1
                    if unknown[j] < 2:
                        ready.append(j)
                    elif new != relations[j][2]:
                        heapq.heappush(guessable, j)
                continue
            j = ready.pop()
            if settled[j]:
                continue
            out, inn, over, sign = relations[j]
            if known[inn] and (known[over] or over == out):
                steps.append((out, inn, over if known[over] else inn, sign < 0, known[out]))
                settled[j] = True
                if not known[out]:
                    known[out], remaining = True, remaining - 1
                    fresh.append(out)
            elif known[out] and (known[over] or over == inn):
                steps.append((inn, out, over if known[over] else out, sign > 0, False))
                settled[j] = True
                known[inn], remaining = True, remaining - 1
                fresh.append(inn)
            elif known[out] and known[inn]:
                loose.append(j)
            # else the unknown arc is both out and in: a guess colors it, then it is checked
        levels.append((arc, steps, solve))
        if not remaining:
            return levels
        solve = None
        while loose and settled[loose[-1]]:
            loose.pop()
        if loose:
            j = loose.pop()
            settled[j] = True
            out, inn, arc, sign = relations[j]
            solve = (sign < 0, inn, out)
        else:
            while guessable and known[relations[guessable[0]][2]]:
                heapq.heappop(guessable)
            candidates = [c for c in dict.fromkeys(relations[j][2] for j in guessable[:_LOOKAHEAD])
                          if not known[c]]
            if len(candidates) > 1:
                arc = max(candidates, key=lambda c: _cascade(c, relations, touching, unknown, known, settled))
            elif candidates:
                arc = candidates[0]
            else:
                while known[first_unknown]:
                    first_unknown += 1
                arc = first_unknown
            anchor = anchors.get(root(arc))
            if anchor is not None:
                solve = (None, anchor, anchor)
        known[arc], remaining = True, remaining - 1
        fresh.append(arc)


def _cascade(arc: int, relations: list[Relation], touching: list[list[int]], unknown: list[int],
             known: list[bool], settled: list[bool]) -> tuple[int, int]:
    """What knowing ``arc`` would lead to before the next guess: the relations it
    would check, and the arcs it would pin (itself, and every arc then derived
    by a step, transitively)."""
    pinned, stack, seen, used, checks = {arc}, [arc], {}, set(), 0
    while stack:
        for j in touching[stack.pop()]:
            if settled[j] or j in used:
                continue
            seen[j] = seen.get(j, 0) + 1
            left = unknown[j] - seen[j]
            if left == 0:
                checks += 1
            elif left == 1:
                out, inn, over, _ = relations[j]
                new = next((a for a in (out, inn, over) if not known[a] and a not in pinned), None)
                if new is not None and (new == out) != (new == inn):  # not a bare over-arc, nor out = in
                    pinned.add(new)
                    stack.append(new)
                    used.add(j)
    return checks, len(pinned)


def _over_candidates(table: Sequence[Sequence[int]]) -> Candidates:
    """``(x, z) -> [y : table[x][y] = z]``, each row x bucketed on first use."""
    rows: dict[int, dict[int, list[int]]] = {}

    def candidates(x: int, z: int) -> Sequence[int]:
        buckets = rows.get(x)
        if buckets is None:
            buckets = rows[x] = {}
            for y, value in enumerate(table[x]):
                if value in buckets:
                    buckets[value].append(y)
                else:
                    buckets[value] = [y]
        return buckets.get(z, ())
    return candidates


_LOOKAHEAD = 16  # guess candidates scored at a stuck point


def _search(levels: list, assign: list[int | None], q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Every full assignment the levels accept, by a depth-first walk without recursion.

    ``assign`` is reused: a level writes each arc it colors or derives before
    deeper levels read it.  A guess level tries, on entry, the orbit of its
    anchor's color, or ``range(m)`` when it has no anchor.  A solve level
    asks, on entry, the candidate function of its table (one per table in
    this call), whose index grows as the walk needs it: one pass over a
    table row serves every later entry with the same in-arc color.
    """
    every = range(len(q))
    tables = (q.star, q.barstar)
    solvers = {barred: _over_candidates(tables[barred]) for barred in (False, True)}
    solvers[None] = lambda x, _: q._orbit(x)  # a guess with an anchor
    plan, sources = [], []
    for arc, steps, solve in levels:
        plan.append((arc, [(dst, tables[barred], a, b, check) for dst, a, b, barred, check in steps]))
        sources.append(None if solve is None else (solvers[solve[0]], *solve[1:]))
    first = assign[levels[0][0]]
    options: list = [iter(every if first is None else (first,))] + [None] * (len(levels) - 1)
    results, level, last = [], 0, len(levels) - 1
    while level >= 0:
        arc, steps = plan[level]
        for assign[arc] in options[level]:  # resumes where the level left off
            for dst, table, a, b, check in steps:
                value = table[assign[a]][assign[b]]
                if not check:
                    assign[dst] = value
                elif value != assign[dst]:
                    break
            else:
                if level < last:
                    break
                results.append(tuple(assign))  # type: ignore[arg-type]
        else:
            level -= 1
            continue
        level += 1
        source = sources[level]
        if source is None:
            options[level] = iter(every)
        else:
            candidates, a, b = source
            options[level] = iter(candidates(assign[a], assign[b]))
    return results


def _solve(num_arcs: int, relations: list[Relation], preset: dict[int, int],
           q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Every solution of the relations with the preset arcs fixed, sorted."""
    assign: list[int | None] = [preset.get(arc) for arc in range(num_arcs)]
    return sorted(_search(_plan(num_arcs, relations, preset), assign, q))


def _colorings(d: Diagram, q: FiniteQuandle, basepoint: int) -> tuple[Coloring, ...]:
    """Colorings with ``basepoint`` on both end arcs of every strand of a tangle, or on arc 1."""
    _check_index(basepoint, len(q), "basepoint")
    system = _compile(d)
    bounds = list(itertools.pairwise((0, *itertools.accumulate(system.arcs))))  # [lo, hi) per strand
    rows = _solve(bounds[-1][1], system.relations, dict.fromkeys(system.ends, basepoint), q)
    if len(bounds) == 1:  # the row is the strand's colors; slicing it would cost per coloring
        return tuple(Coloring(d, (row,)) for row in rows)
    return tuple(Coloring(d, tuple(row[lo:hi] for lo, hi in bounds)) for row in rows)


def colorings_long(d: LongDiagram, q: FiniteQuandle, basepoint: int) -> tuple[Coloring, ...]:
    """All colorings of a long diagram with arc 1 colored ``basepoint``.

    The final arc is not constrained; for classical codes it comes out equal
    to the basepoint anyway, for virtual codes it may differ.  Output is
    sorted lexicographically by arc colors.
    """
    _require(d, "colorings_long", LongDiagram)
    return _colorings(d, q, basepoint)


def colorings_closed(d: ClosedDiagram, q: FiniteQuandle, basepoint: int) -> tuple[Coloring, ...]:
    """All colorings of a closed diagram with arc 1 colored ``basepoint``."""
    _require(d, "colorings_closed", ClosedDiagram)
    return _colorings(d, q, basepoint)


def colorings_tangle_boundary_mono(d: TangleDiagram, q: FiniteQuandle,
                                   basepoint: int) -> tuple[Coloring, ...]:
    """Boundary-monochromatic colorings: all four boundary arcs get ``basepoint``.

    The end-arc constraints are installed up front, so the search simply
    rejects any branch that would violate them.
    """
    _require(d, "colorings_tangle_boundary_mono", TangleDiagram)
    return _colorings(d, q, basepoint)


def _colors(c: Coloring, m: int | None) -> list[int]:
    """The colors strand after strand.  ValueError unless the strands are sequences with the
    diagram's arc counts and every color is an int in range(m), or >= 0 for m None."""
    if not isinstance(c.strands, Sequence) or not all(isinstance(s, Sequence) for s in c.strands):
        raise ValueError("coloring strands must be sequences of colors")
    if (shape := tuple(map(len, c.strands))) != (arcs := _compile(c.diagram).arcs):
        raise ValueError(f"coloring has strands of {shape} arcs, the diagram {arcs}")
    colors = [x for strand in c.strands for x in strand]
    if not all(type(x) is int and 0 <= x and (m is None or x < m) for x in colors):
        raise ValueError("coloring has a color outside the quandle")
    return colors


def verify_coloring(c: Coloring, q: FiniteQuandle) -> bool:
    """Re-check every crossing relation, independent of the search; False for a wrong shape."""
    relations = _compile(c.diagram).relations
    try:
        colors = _colors(c, len(q))
    except ValueError:
        return False
    return all(colors[out] == q.op(colors[inn], colors[over], barred=sign < 0)
               for out, inn, over, sign in relations)
