"""Quandle longitudes, colored longitudes, invariant families, and formal sums.

The longitude of an n-crossing long diagram is the 2n-letter word that lists,
for crossing i, the under-arc entering it and then its over-arc.  The under
letter is barred exactly when the crossing sign is +1, the over letter when it
is -1; evaluating the word in a coloring and folding left-normed translations
yields a quandle automorphism.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .coloring import Coloring, InvariantQuery, _colors, _compile, colorings_long, colorings_tangle_boundary_mono
from .diagram import LongDiagram, TangleDiagram
from .quandle import Automorphism, FiniteQuandle, QuandleWord, eval_word


@dataclass(frozen=True)
class SymbolicLongitude:
    """The longitude as (arc, barred) letters over arc generators x1..x(n+1)."""

    letters: tuple[tuple[int, bool], ...]

    def render(self) -> str:
        body = ", ".join(("x̄" if barred else "x") + str(arc) for arc, barred in self.letters)
        return "{" + body + "}"


def symbolic_longitude(d: LongDiagram) -> SymbolicLongitude:
    _, _, (letters,) = _compile(d)
    return SymbolicLongitude(tuple((arc + 1, barred) for arc, barred in letters))


def _colored_parts(letters, colors) -> list[QuandleWord]:
    """Each strand's longitude letters with every arc replaced by its color."""
    return [tuple([(colors[arc], barred) for arc, barred in part]) for part in letters]


def _images(q: FiniteQuandle, letters, rows: np.ndarray) -> np.ndarray:
    """Row c, column x: x folded through the letters ``(arc, barred)`` colored by row c.

    One gather per letter over all colorings at once, from the flattened right
    translations, where ``x op j`` sits at ``(barred * m + j) * m + x``.
    """
    m = len(q)
    table = q._translations.ravel()
    arcs = [arc for arc, _ in letters]
    barred = np.array([b for _, b in letters], dtype=np.intp)
    offsets = ((barred * m + rows[:, arcs]) * m).T[:, :, None]  # letter, coloring, 1
    acc = np.broadcast_to(np.arange(m), (len(rows), m))
    for offset in offsets:
        acc = table.take(offset + acc)
    return acc


def colored_longitude(d: LongDiagram, q: FiniteQuandle, coloring: Coloring) -> Automorphism:
    """Evaluate the longitude word in a coloring, as a quandle automorphism."""
    if coloring.diagram != d:
        raise ValueError("coloring does not belong to this diagram")
    arcs, _, (letters,) = _compile(d)
    images = _images(q, letters, np.array([_colors(coloring, arcs, len(q))], dtype=np.intp))
    return Automorphism(q, tuple(images[0].tolist()))


@dataclass(frozen=True)
class AutomorphismFamily:
    """A multiset of automorphisms in canonical order (sorted image tuples)."""

    quandle: FiniteQuandle
    members: tuple[Automorphism, ...]

    def __len__(self) -> int:
        return len(self.members)


def longitude_family(d: LongDiagram, q: FiniteQuandle, basepoint: int,
                     jobs: int = 1) -> AutomorphismFamily:
    """All colored longitudes over the colorings with the given basepoint."""
    arcs, _, (letters,) = _compile(d)
    colorings = colorings_long(d, q, basepoint, jobs)
    rows = np.array([c.strands[0] for c in colorings], dtype=np.intp).reshape(-1, arcs[0])
    images = sorted(map(tuple, _images(q, letters, rows).tolist()))
    return AutomorphismFamily(q, tuple(Automorphism(q, img) for img in images))


@dataclass(frozen=True)
class FormalSum:
    """Nonnegative integer combination of quandle elements; zero terms omitted."""

    quandle: FiniteQuandle
    terms: tuple[tuple[int, int], ...]  # (element index, coefficient), sorted by element

    @classmethod
    def from_elements(cls, q: FiniteQuandle, elements: Iterable[int]) -> "FormalSum":
        counts = Counter(elements)
        return cls(q, tuple(sorted(counts.items())))

    def coefficient(self, element: int) -> int:
        return dict(self.terms).get(element, 0)

    def mass(self) -> int:
        return sum(c for _, c in self.terms)


def sum_equal(a: FormalSum, b: FormalSum) -> bool:
    return a.terms == b.terms


def sum_included(a: FormalSum, b: FormalSum) -> bool:
    """Coefficientwise a <= b."""
    other = dict(b.terms)
    return all(coeff <= other.get(elem, 0) for elem, coeff in a.terms)


def sum_render(a: FormalSum) -> str:
    """Text like ``6 · (1,2,4)(3,5) + (1,2,3)(4,5)``; descending coefficients."""
    if not a.terms:
        return "0"
    ordered = sorted(a.terms, key=lambda t: (-t[1], a.quandle.labels[t[0]]))
    parts = []
    for elem, coeff in ordered:
        label = a.quandle.labels[elem]
        parts.append(label if coeff == 1 else f"{coeff} · {label}")
    return " + ".join(parts)


def sum_to_json(a: FormalSum) -> str:
    return json.dumps({a.quandle.labels[e]: c for e, c in a.terms}, sort_keys=True)


def formal_sum(d: LongDiagram, q: FiniteQuandle, query: InvariantQuery,
               jobs: int = 1) -> FormalSum:
    """Sum of phi(x) over all colored longitudes phi with basepoint q."""
    _, _, letters = _compile(d)
    images = [eval_word(q, query.act_on, _colored_parts(letters, c.strands[0])[0])
              for c in colorings_long(d, q, query.basepoint, jobs)]
    return FormalSum.from_elements(q, images)


# --- tangle longitude parts -------------------------------------------------

def tangle_longitude_parts(t: TangleDiagram, coloring: Coloring) -> tuple[QuandleWord, QuandleWord]:
    """Per-strand colored longitude words, letters exactly as in the long case; colors must be indices."""
    if coloring.diagram != t:
        raise ValueError("coloring does not belong to this tangle")
    arcs, _, letters = _compile(t)
    return tuple(_colored_parts(letters, _colors(coloring, arcs, None)))


def tangle_sums(t: TangleDiagram, q: FiniteQuandle, query: InvariantQuery,
                jobs: int = 1) -> tuple[FormalSum, FormalSum]:
    """S1 and S2: both concatenation orders of the longitude parts, summed over
    all boundary-monochromatic colorings with the query's basepoint."""
    _, _, letters = _compile(t)
    first, second = [], []
    for c in colorings_tangle_boundary_mono(t, q, query.basepoint, jobs):
        w1, w2 = _colored_parts(letters, sum(c.strands, ()))
        first.append(eval_word(q, query.act_on, w1 + w2))
        second.append(eval_word(q, query.act_on, w2 + w1))
    return FormalSum.from_elements(q, first), FormalSum.from_elements(q, second)
