"""Quandle longitudes, colored longitudes, invariant families, and formal sums.

The longitude of an n-crossing long diagram is the 2n-letter word that lists,
for crossing i, the under-arc entering it and then its over-arc.  The under
letter is barred exactly when the crossing sign is +1, the over letter when it
is -1; evaluating the word in a coloring and folding left-normed translations
yields a quandle automorphism.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring, InvariantQuery, _colors, _compile, colorings_long, colorings_tangle_boundary_mono
from .diagram import ClosedDiagram, LongDiagram, TangleDiagram, _require, break_at
from .quandle import Automorphism, FiniteQuandle, QuandleWord, eval_word


@dataclass(frozen=True)
class SymbolicLongitude:
    """The longitude as (arc, barred) letters over arc generators x1..x(n+1)."""

    letters: tuple[tuple[int, bool], ...]

    def render(self) -> str:
        body = ", ".join(("x̄" if barred else "x") + str(arc) for arc, barred in self.letters)
        return "{" + body + "}"


def symbolic_longitude(d: LongDiagram) -> SymbolicLongitude:
    _require(d, "symbolic_longitude", LongDiagram)
    _, _, (letters,) = _compile(d)
    return SymbolicLongitude(tuple((arc + 1, barred) for arc, barred in letters))


def _images(q: FiniteQuandle, letters, rows):
    """Row c, column x: x folded through the letters ``(arc, barred)`` colored by row c, as a numpy array.

    One gather per letter over all colorings at once, from the flattened right
    translations, where ``x op j`` sits at ``(barred * m + j) * m + x``.
    """
    import numpy as np
    rows = np.asarray(rows, dtype=np.intp)
    m = len(q)
    table = q._translations.ravel()
    arcs = [arc for arc, _ in letters]
    barred = np.array([b for _, b in letters], dtype=np.intp)
    offsets = ((barred * m + rows[:, arcs]) * m).T[:, :, None]  # letter, coloring, 1
    acc = np.broadcast_to(np.arange(m), (len(rows), m))
    for offset in offsets:
        acc = table.take(offset + acc)
    return acc


def colored_longitude(coloring: Coloring, q: FiniteQuandle) -> Automorphism:
    """The longitude word of the coloring's long diagram, evaluated in it, as a quandle automorphism."""
    _require(coloring.diagram, "colored_longitude", LongDiagram)
    arcs, _, (letters,) = _compile(coloring.diagram)
    images = _images(q, letters, [_colors(coloring, arcs, len(q))])
    return Automorphism(q, tuple(images[0].tolist()))


@dataclass(frozen=True)
class AutomorphismFamily:
    """A multiset of automorphisms in canonical order (sorted image tuples)."""

    quandle: FiniteQuandle
    members: tuple[Automorphism, ...]

    def __len__(self) -> int:
        return len(self.members)


def longitude_family(d: LongDiagram, q: FiniteQuandle, basepoint: int) -> AutomorphismFamily:
    """All colored longitudes of a long diagram over the colorings with the given basepoint."""
    _require(d, "longitude_family", LongDiagram)
    _, _, (letters,) = _compile(d)
    rows = [c.strands[0] for c in colorings_long(d, q, basepoint)]  # never empty: one is constant
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

    def by_label(self) -> dict[str, int]:
        """Coefficient per element label, as the JSON outputs give it."""
        return {self.quandle.labels[e]: c for e, c in self.terms}


def _same_quandle(a: FormalSum, b: FormalSum) -> None:
    if a.quandle is not b.quandle and a.quandle != b.quandle:
        raise ValueError("formal sums over different quandles")


def sum_equal(a: FormalSum, b: FormalSum) -> bool:
    """Equal coefficients; ValueError for sums over different quandles."""
    _same_quandle(a, b)
    return a.terms == b.terms


def sum_included(a: FormalSum, b: FormalSum) -> bool:
    """Coefficientwise a <= b; ValueError for sums over different quandles."""
    _same_quandle(a, b)
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


def _sums(query: InvariantQuery, words, colorings: Iterable[Coloring]) -> tuple[FormalSum, ...]:
    """Per word of letters ``(arc, barred)``, arcs numbered strand after strand: the sum over
    the colorings of the query's element folded through the word, each arc replaced by its color."""
    q, x = query.quandle, query.act_on
    rows = [sum(c.strands, ()) for c in colorings]
    return tuple(FormalSum.from_elements(q, [eval_word(q, x, [(row[arc], barred) for arc, barred in word])
                                             for row in rows]) for word in words)


def formal_sum(d: LongDiagram | ClosedDiagram, query: InvariantQuery) -> FormalSum:
    """Sum of phi(x) over all colored longitudes phi of d, for the query's quandle, basepoint q and x;
    a closed d is broken at arc 1 first, as ``break_at(d, 1)``.  Tangles go to ``tangle_sums``."""
    _require(d, "formal_sum", LongDiagram, ClosedDiagram)
    d = break_at(d, 1) if d.closed else d
    return _sums(query, _compile(d)[2], colorings_long(d, query.quandle, query.basepoint))[0]


# --- tangle longitude parts -------------------------------------------------

def tangle_longitude_parts(coloring: Coloring) -> tuple[QuandleWord, QuandleWord]:
    """The coloring's per-strand longitude words, letters as in the long case; colors must be indices."""
    _require(coloring.diagram, "tangle_longitude_parts", TangleDiagram)
    arcs, _, letters = _compile(coloring.diagram)
    colors = _colors(coloring, arcs, None)
    return tuple(tuple([(colors[arc], barred) for arc, barred in part]) for part in letters)


def tangle_sums(t: TangleDiagram, query: InvariantQuery) -> tuple[FormalSum, FormalSum]:
    """S1 and S2: both concatenation orders of the longitude parts, summed over
    all boundary-monochromatic colorings with the query's basepoint."""
    _require(t, "tangle_sums", TangleDiagram)
    _, _, (w1, w2) = _compile(t)
    return _sums(query, (w1 + w2, w2 + w1),
                 colorings_tangle_boundary_mono(t, query.quandle, query.basepoint))
