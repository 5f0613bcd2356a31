"""Quandle coloring enumeration for long, closed, and tangle diagrams.

Each crossing contributes the relation ``color(out) = color(in) op color(over)``
with ``op`` being ``*`` for sign +1 and ``*bar`` for sign -1.  The search
propagates forced colors in both directions along under-arcs (Q2 makes the
relation solvable for the incoming arc too), guesses an over-arc color only
when stuck, and rejects on conflict.  Branching is therefore bounded by
|Q|^(number of genuinely free over-arcs), which stays small on knot-shaped
relation systems.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
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


def _propagate(assign: list[int | None], relations: list[Relation], star, barstar) -> bool:
    """Apply forced deductions until a fixed point; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for out, inn, over, sign in relations:
            cv = assign[over]
            if cv is None:
                continue
            iv, ov = assign[inn], assign[out]
            if iv is not None:
                val = star[iv][cv] if sign > 0 else barstar[iv][cv]
                if ov is None:
                    assign[out] = val
                    changed = True
                elif ov != val:
                    return False
            elif ov is not None:
                # Q2: in = out op^{-sign} over
                assign[inn] = barstar[ov][cv] if sign > 0 else star[ov][cv]
                changed = True
    return True


def _pick_guess_arc(assign: list[int | None], relations: list[Relation]) -> int | None:
    for out, inn, over, _ in relations:
        if assign[over] is None and (assign[inn] is not None or assign[out] is not None):
            return over
    for arc, value in enumerate(assign):
        if value is None:
            return arc
    return None


def _search(assign: list[int | None], relations: list[Relation], star, barstar,
            first_guesses: range | None = None) -> list[tuple[int, ...]]:
    m = len(star)
    results: list[tuple[int, ...]] = []
    stack = [(assign, first_guesses)]
    while stack:
        state, pending = stack.pop()
        if not _propagate(state, relations, star, barstar):
            continue
        arc = _pick_guess_arc(state, relations)
        if arc is None:
            results.append(tuple(state))  # type: ignore[arg-type]
            continue
        guesses = pending if pending is not None else range(m)
        for g in guesses:
            branch = list(state)
            branch[arc] = g
            stack.append((branch, None))
    return results


_WORKER_CTX: dict = {}


def _init_worker(relations, star, barstar):
    _WORKER_CTX["args"] = (relations, star, barstar)


def _run_chunk(payload):
    assign, chunk = payload
    relations, star, barstar = _WORKER_CTX["args"]
    return _search(list(assign), relations, star, barstar, first_guesses=chunk)


def _solve(num_arcs: int, relations: list[Relation], preset: dict[int, int],
           q: FiniteQuandle, jobs: int = 1) -> list[tuple[int, ...]]:
    assign: list[int | None] = [preset.get(arc) for arc in range(num_arcs)]
    star, barstar = q.star, q.barstar

    if jobs > 1 and hasattr(os, "fork"):
        if not _propagate(assign, relations, star, barstar):
            return []
        if _pick_guess_arc(assign, relations) is not None:
            m = len(q)
            step = max(1, (m + jobs - 1) // jobs)
            chunks = [range(lo, min(lo + step, m)) for lo in range(0, m, step)]
            workers = min(jobs, len(chunks), os.cpu_count() or 1)
            if workers > 1:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(workers, initializer=_init_worker,
                              initargs=(relations, star, barstar)) as pool:
                    partials = pool.map(_run_chunk, [(tuple(assign), c) for c in chunks])
                return sorted(row for part in partials for row in part)

    return sorted(_search(assign, relations, star, barstar))


def _compile(d: Diagram) -> tuple[tuple[int, ...], list[Relation], tuple]:
    """A diagram as one relation system over 0-based arcs numbered strand after strand.

    Returns each strand's arc count, one ``Relation`` per crossing (strand after
    strand) and each strand's longitude letters ``(arc, barred)``.  Crossing k
    of a strand joins its arcs k and k + 1 (cyclically when closed); its letters
    are the under-arc, barred for sign +1, then the over-arc, barred for -1.
    """
    if isinstance(d, TangleDiagram):
        strands = [[(c.over_strand - 1, c.over_arc - 1, c.sign) for c in s] for s in d.strands]
    elif isinstance(d, (LongDiagram, ClosedDiagram)):
        strands = [[(0, a - 1, s) for a, s in zip(d.over_arc, d.sign)]]
    else:
        raise TypeError(f"not a diagram: {d!r}")
    arcs = tuple(len(s) + (not isinstance(d, ClosedDiagram)) for s in strands)
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


def _colorings(d: Diagram, q: FiniteQuandle, basepoint: int, jobs: int,
               every_end: bool = False) -> tuple[Coloring, ...]:
    """Colorings with arc 1, or both end arcs of every strand, colored ``basepoint``."""
    if not 0 <= basepoint < len(q):
        raise ValueError(f"basepoint index {basepoint} out of range")
    arcs, relations, _ = _compile(d)
    bounds = list(itertools.pairwise((0, *itertools.accumulate(arcs))))  # [lo, hi) per strand
    ends = [arc for lo, hi in bounds for arc in (lo, hi - 1)] if every_end else [0]
    rows = _solve(bounds[-1][1], relations, dict.fromkeys(ends, basepoint), q, jobs)
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
    return _colorings(d, q, basepoint, jobs)


def colorings_closed(d: ClosedDiagram, q: FiniteQuandle, basepoint: int,
                     jobs: int = 1) -> tuple[Coloring, ...]:
    """All colorings of a closed diagram with arc 1 colored ``basepoint``."""
    return _colorings(d, q, basepoint, jobs)


def colorings_tangle_boundary_mono(d: TangleDiagram, q: FiniteQuandle, basepoint: int,
                                   jobs: int = 1) -> tuple[Coloring, ...]:
    """Boundary-monochromatic colorings: all four boundary arcs get ``basepoint``.

    The end-arc constraints are installed up front, so the search simply
    rejects any branch that would violate them.
    """
    return _colorings(d, q, basepoint, jobs, every_end=True)


def verify_coloring(c: Coloring, q: FiniteQuandle) -> bool:
    """Re-check every crossing relation, independent of the search; False for a wrong shape."""
    arcs, relations, _ = _compile(c.diagram)
    colors = [x for strand in c.strands for x in strand]
    if tuple(map(len, c.strands)) != arcs or not all(0 <= x < len(q) for x in colors):
        return False
    return all(colors[out] == q.op(colors[inn], colors[over], barred=sign < 0)
               for out, inn, over, sign in relations)
