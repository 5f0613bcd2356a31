"""Quandle coloring enumeration for long, closed, and tangle diagrams, at a basepoint
color; the query that adds the element acted on is ``longitude.InvariantQuery``.

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
is planned only where no relation pins an arc.  It tries the orbit of the
basepoint under Inn(Q): every pinned end arc holds the basepoint, every arc
is joined to a pinned end through in- and out-arcs, and ``out = in op over``
keeps a color in its orbit.  So a solve level, too, looks only among the
orbit.  The result is the full solution set.  One depth-first walk visits
the levels.

When R_q: x -> x * q respects ``*`` on the orbit of the basepoint q, the
first level that guesses or solves tries only the least color of each cycle
of R_q, and every other coloring is R_q^k of one found (``_solve``).
"""
from __future__ import annotations

import heapq
import itertools
import operator
from collections.abc import Callable, Sequence

from ._value import Value
from .diagram import ClosedDiagram, Diagram, LongDiagram, Relation, System, TangleDiagram, _compile, _require
from .quandle import FiniteQuandle

Candidates = Callable[[int, int], Sequence[int]]  # (color of in-arc, color of out-arc) -> colors


class Coloring(Value):
    """Arc colors (quandle element indices) per strand, in traversal order."""

    _fields = ("diagram", "strands")

    def __init__(self, diagram: Diagram, strands: tuple[tuple[int, ...], ...]):
        self.__dict__["diagram"] = diagram  # one store per field: a search makes one per coloring
        self.__dict__["strands"] = strands

    @property
    def arc_colors(self) -> tuple[int, ...]:
        """Colors of the single strand of a long or closed diagram."""
        if len(self.strands) != 1:
            raise ValueError("arc_colors is for single-strand diagrams; use strands")
        return self.strands[0]


def _check_index(x, m: int, name: str) -> None:
    """ValueError unless x is an element index: exactly an int (no bool, float or numpy
    integer, which would leak into the colorings) in range(m)."""
    if type(x) is not int:
        raise ValueError(f"{name} index must be an int, got {x!r}")
    if not 0 <= x < m:
        raise ValueError(f"{name} index {x} out of range")


def _plan(system: System) -> list[tuple]:
    """The search order of a relation system: levels that each color one arc, then run forced steps.

    A level is ``(arc, steps, solve)``.  The first colors the first pinned end
    arc; every pinned end arc is known from the start.  A solve level has
    ``solve = (barred, a, b)``: the arc is the unknown over-arc of a relation
    whose in-arc ``a`` and out-arc ``b`` are known, and the level tries
    exactly the colors y with ``color(a) op y = color(b)``.  The other levels
    guess, with ``solve`` None.  Step ``(dst, a, b, barred, check)`` stores
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
    the over-arc of a relation with a known end: among the first few such
    over-arcs, the one whose guess would check the most relations and then
    pin the most arcs (``_cascade``).  Each relation is revisited only when
    one of its arcs becomes known.
    """
    num_arcs, relations = sum(system.arcs), system.relations
    touching: list[list[int]] = [[] for _ in range(num_arcs)]
    unknown = []  # distinct arcs of each relation not yet known
    for j, (out, inn, over, _) in enumerate(relations):
        arcs = {out, inn, over}
        unknown.append(len(arcs))
        for arc in arcs:
            touching[arc].append(j)
    known = [False] * num_arcs
    settled = [False] * len(relations)  # derived, checked or solved by a level
    # known arcs whose relations are not yet updated; a crossingless strand's one arc is both its ends
    fresh = list(dict.fromkeys(system.ends))
    for arc in fresh:
        known[arc] = True
    remaining = num_arcs - len(fresh)
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
            # Never empty: walk a strand from a pinned end to its first unknown arc.  The
            # relation there has a known in-arc and an unknown out-arc; with its over-arc
            # known or one of its ends it would be a forced step, so its over-arc is
            # unknown and it has been in ``guessable`` since its in-arc became known.
            candidates = [c for c in dict.fromkeys(relations[j][2] for j in guessable[:_LOOKAHEAD])
                          if not known[c]]
            arc = candidates[0] if len(candidates) == 1 else max(
                candidates, key=lambda c: _cascade(c, relations, touching, unknown, known, settled))
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


def _over_candidates(table: Sequence[Sequence[int]], orbit: Sequence[int]) -> Candidates:
    """``(x, z) -> [y in orbit : table[x][y] = z]``, ascending, each row x bucketed on
    first use: only the orbit's columns, since no color outside it is ever wanted."""
    rows: dict[int, dict[int, list[int]]] = {}

    def candidates(x: int, z: int) -> Sequence[int]:
        buckets = rows.get(x)
        if buckets is None:
            buckets = rows[x] = {}
            row = table[x]
            for y in orbit:
                value = row[y]
                if value in buckets:
                    buckets[value].append(y)
                else:
                    buckets[value] = [y]
        return buckets.get(z, ())
    return candidates


_LOOKAHEAD = 16  # guess candidates scored at a stuck point


def _search(levels: list, assign: list[int | None], basepoint: int, q: FiniteQuandle,
            leads: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Every full assignment the levels accept, by a depth-first walk without recursion.

    ``assign`` is reused: a level writes each arc it colors or derives before
    deeper levels read it.  The first level colors its arc ``basepoint``, and
    a guess level tries, on entry, the basepoint's orbit.  A solve level
    asks, on entry, the candidate function of its table (one per table in
    this call), whose index grows as the walk needs it: one pass over the
    orbit's columns of a table row serves every later entry with the same
    in-arc color.  With ``leads``, level 1 tries only the colors y with
    ``leads[y]`` nonzero.
    """
    orbit = q._orbit(basepoint)
    tables = (q.star, q.barstar)
    solvers = tuple(_over_candidates(table, orbit) for table in tables)
    plan, sources = [], []
    for arc, steps, solve in levels:
        plan.append((arc, [(dst, tables[barred], a, b, check) for dst, a, b, barred, check in steps]))
        sources.append(None if solve is None else (solvers[solve[0]], *solve[1:]))
    options: list = [iter((basepoint,))] + [None] * (len(levels) - 1)
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
            colors = orbit
        else:
            candidates, a, b = source
            colors = candidates(assign[a], assign[b])
        options[level] = iter(colors if level > 1 or leads is None else [y for y in colors if leads[y]])
    return results


def _solve(system: System, basepoint: int, q: FiniteQuandle) -> list[tuple[int, ...]]:
    """Every solution of the system with its pinned end arcs colored ``basepoint``, sorted.

    When ``q._symmetry(basepoint)`` holds the powers of R_q, level 1 tries
    only the least member of each cycle of R_q.  That is exact.  Level 0
    derives only from q, and q op q = q, so level 1 sees only q, and R_q,
    which fixes q, maps its colors (the orbit, or {y : q op y = q}) onto
    themselves.  R_q respects ``*`` and ``*bar`` on the orbit, which holds
    every color, so R_q^k maps the colorings whose level-1 arc is r one to
    one onto those where it is R_q^k(r).  Each found coloring is carried over
    by R_q^k for 0 < k < the cycle length of its level-1 color, and no row
    is made twice.
    """
    levels = _plan(system)
    assign: list[int | None] = [None] * sum(system.arcs)
    for arc in system.ends:
        assign[arc] = basepoint
    symmetry = q._symmetry(basepoint) if len(levels) > 1 else None
    if symmetry is None:
        return sorted(_search(levels, assign, basepoint, q))
    powers, lengths = symmetry
    found = _search(levels, assign, basepoint, q, lengths)
    rows, arc = list(found), levels[1][0]
    for row in found:  # two levels color two arcs, so itemgetter returns a tuple
        rows += map(operator.itemgetter(*row), powers[1:lengths[row[arc]]])
    return sorted(rows)


def _colorings(d: Diagram, q: FiniteQuandle, basepoint: int) -> tuple[Coloring, ...]:
    """Colorings with ``basepoint`` on both end arcs of every strand of a tangle, or on arc 1."""
    _check_index(basepoint, len(q), "basepoint")
    system = _compile(d)
    rows = _solve(system, basepoint, q)
    if len(system.arcs) == 1:  # the row is the strand's colors; slicing it would cost per coloring
        return tuple(Coloring(d, (row,)) for row in rows)
    bounds = list(itertools.pairwise((0, *itertools.accumulate(system.arcs))))  # [lo, hi) per strand
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
