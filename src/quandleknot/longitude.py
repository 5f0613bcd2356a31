"""Queries, colored longitudes, invariant families, and formal sums.

The longitude of an n-crossing long diagram is the 2n-letter word that lists,
for crossing i, the under-arc entering it and then its over-arc.  The under
letter is barred exactly when the crossing sign is +1, the over letter when it
is -1; evaluating the word in a coloring and folding left-normed translations
yields a quandle automorphism.  Every fold of a colored word is here (``_fold``,
``_images``).  A family is kept as {longitude images: number of colorings}, and
its formal sum S^x is the family pushed forward by phi -> phi(x) (``_sum_at``).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, repeat

from ._value import Value
from .coloring import Coloring, _colors, colorings_long, colorings_tangle_boundary_mono
from .diagram import ClosedDiagram, LongDiagram, TangleDiagram, _compile, _require, break_at
from .quandle import Automorphism, FiniteQuandle, _check_index, _pick

QuandleWord = tuple[tuple[int, bool], ...]
"""A left-normed word: (element index, barred) letters folded left to right."""


class InvariantQuery(Value):
    """A quandle together with the basepoint color q and the element x acted on."""

    _fields = ("quandle", "basepoint", "act_on")

    def __init__(self, quandle: FiniteQuandle, basepoint: int, act_on: int):
        _check_index(basepoint, len(quandle), "basepoint")
        _check_index(act_on, len(quandle), "act-on")
        self.__dict__.update(quandle=quandle, basepoint=basepoint, act_on=act_on)


def _fold(q: FiniteQuandle, start: int, word: Iterable[tuple[int, bool]], colors: Sequence[int]) -> int:
    """Left-normed fold, unchecked: acc <- acc * colors[i] (or *bar) for each letter ``(i, barred)``."""
    acc, tables = start, (q.star, q.barstar)
    for i, barred in word:
        acc = tables[barred][acc][colors[i]]
    return acc


class SymbolicLongitude(Value):
    """The longitude as (arc, barred) letters over arc generators x1..x(n+1)."""

    _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[int, bool], ...]):
        self.__dict__["letters"] = letters

    def render(self) -> str:
        body = ", ".join(("x̄" if barred else "x") + str(arc) for arc, barred in self.letters)
        return "{" + body + "}"


def symbolic_longitude(d: LongDiagram) -> SymbolicLongitude:
    _require(d, "symbolic_longitude", LongDiagram)
    (letters,) = _compile(d).letters
    return SymbolicLongitude(tuple((arc + 1, barred) for arc, barred in letters))


def _images(q: FiniteQuandle, letters, row) -> tuple[int, ...]:
    """Every element, in order, folded through the letters ``(arc, barred)``, each arc colored by row:
    one pick from the right translation by the letter's color per letter."""
    translations, acc = q._translations, range(len(q))
    for arc, barred in letters:
        acc = _pick(translations[barred][row[arc]], acc)
    return tuple(acc)


def colored_longitude(coloring: Coloring, q: FiniteQuandle) -> Automorphism:
    """The longitude word of the coloring's long diagram, evaluated in it, as a quandle automorphism."""
    _require(coloring.diagram, "colored_longitude", LongDiagram)
    (letters,) = _compile(coloring.diagram).letters
    return Automorphism(q, _images(q, letters, _colors(coloring, len(q))))


class AutomorphismFamily(Value):
    """A multiset of automorphisms in canonical order (sorted image tuples)."""

    _fields = ("quandle", "members")

    def __init__(self, quandle: FiniteQuandle, members: tuple[Automorphism, ...]):
        self.__dict__.update(quandle=quandle, members=members)

    def __len__(self) -> int:
        return len(self.members)


def _longitudes(codes: Sequence[LongDiagram], q: FiniteQuandle, basepoint: int,
                memo: dict) -> dict[tuple[int, ...], int]:
    """{longitude images: number of colorings} over the colorings of the codes' ``concat``
    at the basepoint.

    The codes are split into the pieces each is the connected sum of.  Each
    piece's crossings touch only its own arcs, so such a coloring is one
    coloring per piece, each starting at the color on which the one before
    it ends, and its longitude is theirs composed, first piece first.  By Q1 a
    longitude maps the color it starts at to the color it ends at, so the
    next piece starts at ``phi(basepoint)`` and the images are the whole state.
    Each distinct state is composed once with each distinct longitude of the
    next piece, the counts multiply, and states that compose alike merge.
    ``memo`` keeps, per piece and start color, the counted longitudes of the piece under q.
    """
    found = {None: 1}
    for piece in chain.from_iterable(d._pieces for d in codes):
        known, step = memo.setdefault(piece, {}), {}
        for acc, count in found.items():
            start = basepoint if acc is None else acc[basepoint]
            if start not in known:
                (letters,) = _compile(piece).letters
                known[start] = Counter(_images(q, letters, c.strands[0]) for c in colorings_long(piece, q, start))
            for image, n in known[start].items():
                key = image if acc is None else _pick(image, acc)
                step[key] = step.get(key, 0) + count * n
        found = step
    return found


def longitude_family(d: LongDiagram, q: FiniteQuandle, basepoint: int) -> AutomorphismFamily:
    """All colored longitudes of a long diagram over the colorings with the given basepoint, one per
    coloring in sorted order, composed from those of the codes it is a connected sum of (``_longitudes``).
    Equal members are one ``Automorphism``."""
    _require(d, "longitude_family", LongDiagram)
    counts = sorted(_longitudes((d,), q, basepoint, {}).items())
    return AutomorphismFamily(q, tuple(chain.from_iterable(repeat(Automorphism(q, image), n)
                                                           for image, n in counts)))


class FormalSum(Value):
    """Nonnegative integer combination of quandle elements; zero terms omitted.
    ``terms`` are (element index, coefficient) pairs, sorted by element."""

    _fields = ("quandle", "terms")

    def __init__(self, quandle: FiniteQuandle, terms: tuple[tuple[int, int], ...]):
        self.__dict__.update(quandle=quandle, terms=terms)

    @classmethod
    def from_elements(cls, q: FiniteQuandle, elements: Iterable[int]) -> "FormalSum":
        return cls.from_counts(q, Counter(elements))

    @classmethod
    def from_counts(cls, q: FiniteQuandle, counts: Mapping[int, int]) -> "FormalSum":
        """The sum with coefficient ``counts[e]`` at each element e.  ValueError unless every
        count is a positive int and every e an element index of q."""
        for e, n in counts.items():
            if type(n) is not int or n < 1:
                raise ValueError(f"formal sum count must be a positive int, got {n!r}")
            _check_index(e, len(q), "formal sum element")
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
    return tuple(FormalSum.from_elements(q, [_fold(q, x, word, row) for row in rows]) for word in words)


def _sum_at(family: Mapping[tuple[int, ...], int], query: InvariantQuery) -> FormalSum:
    """The formal sum of a counted family (``_longitudes``) at the query's act-on element:
    each longitude's image of it, as many times as it has colorings."""
    x, at_x = query.act_on, Counter()
    for images, n in family.items():
        at_x[images[x]] += n
    return FormalSum.from_counts(query.quandle, at_x)


def formal_sum(d: LongDiagram | ClosedDiagram, query: InvariantQuery) -> FormalSum:
    """Sum of phi(x) over all colored longitudes phi of d, for the query's quandle, basepoint q and x;
    a closed d is broken at arc 1 first, as ``break_at(d, 1)``.  Tangles go to ``tangle_sums``."""
    _require(d, "formal_sum", LongDiagram, ClosedDiagram)
    d = break_at(d, 1) if d.closed else d
    return _sums(query, _compile(d).letters, colorings_long(d, query.quandle, query.basepoint))[0]


# --- tangle longitude parts -------------------------------------------------

def tangle_longitude_parts(coloring: Coloring) -> tuple[QuandleWord, QuandleWord]:
    """The coloring's per-strand longitude words, letters as in the long case; colors must be indices."""
    _require(coloring.diagram, "tangle_longitude_parts", TangleDiagram)
    colors, letters = _colors(coloring, None), _compile(coloring.diagram).letters
    return tuple(tuple([(colors[arc], barred) for arc, barred in part]) for part in letters)


def tangle_sums(t: TangleDiagram, query: InvariantQuery) -> tuple[FormalSum, FormalSum]:
    """S1 and S2: both concatenation orders of the longitude parts, summed over
    all boundary-monochromatic colorings with the query's basepoint."""
    _require(t, "tangle_sums", TangleDiagram)
    w1, w2 = _compile(t).letters
    return _sums(query, (w1 + w2, w2 + w1),
                 colorings_tangle_boundary_mono(t, query.quandle, query.basepoint))
