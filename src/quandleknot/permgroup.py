"""Permutations on {1..m}: cycle-notation codec, arithmetic, closure, conjugacy classes.

Composition convention, used everywhere in this package: ``compose(a, b)``
applies ``a`` first, so the product maps ``i`` to ``b(a(i))``.  Written
multiplicatively this makes ``b^-1 a b`` mean "apply b^-1, then a, then b".
"""
from __future__ import annotations

import functools
import re
from collections.abc import Iterable

from ._value import Value

MAX_ELEMENTS = 2896
"""Largest element set (and so quandle) built: m*m <= 2**23 table entries.
A7 (2,520 elements) fits; S7, A8 and S8 are refused while their closure grows."""


def check_size(m: int) -> None:
    """Refuse a quandle, or a set growing into one, outside 1..MAX_ELEMENTS elements."""
    if not 1 <= m <= MAX_ELEMENTS:
        raise ValueError(f"a quandle has 1..{MAX_ELEMENTS} elements; this one has "
                         + ("more" if m > MAX_ELEMENTS else "none"))


def check_degree(degree: int) -> None:
    """Refuse a permutation degree outside 1..MAX_ELEMENTS before any image list is built.
    A quandle's m x degree image array then stays within a table's 2**23 entries."""
    if not 1 <= degree <= MAX_ELEMENTS:
        raise ValueError(f"a permutation degree must be in 1..{MAX_ELEMENTS}")


@functools.total_ordering
class Permutation(Value):
    """A bijection of {1..m}, stored as the tuple (p(1), ..., p(m)); ordered by that tuple."""

    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        m = len(images)
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"images {images} are not a bijection of 1..{m}")
        self.__dict__["images"] = images

    def __lt__(self, other):
        return self.images < other.images if other.__class__ is self.__class__ else NotImplemented

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        """p(point); ValueError unless point is exactly an int in 1..degree."""
        if type(point) is not int:
            raise ValueError(f"point must be an int, got {point!r}")
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} outside 1..{len(self.images)}")
        return self.images[point - 1]

    def __str__(self) -> str:
        return print_cycles(self)


def identity(degree: int) -> Permutation:
    check_degree(degree)
    return Permutation(tuple(range(1, degree + 1)))


# a point is ASCII digits only, not whatever int() reads, such as "1_0", "+1" or other scripts' digits
_CYCLE_RE = re.compile(r"\(([0-9]+(?:,[0-9]+)*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1,2)(3,4,5)``; ``()`` is the identity.

    Points are written in ASCII digits, and unmentioned points are fixed.
    Whitespace is ignored.  Raises ValueError on repeated points, points
    outside 1..degree, or malformed syntax.
    """
    check_degree(degree)
    compact = re.sub(r"\s+", "", text)
    if compact == "()":
        return identity(degree)
    if not compact or _CYCLE_RE.sub("", compact):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(compact):
        points = [int(tok) for tok in body.split(",")]
        if len(points) < 2:
            raise ValueError(f"cycle of length < 2 in {text!r}")
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} outside 1..{degree} in {text!r}")
            if p in seen:
                raise ValueError(f"repeated point {p} in {text!r}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def print_cycles(p: Permutation) -> str:
    """Canonical cycle notation: cycles by least moved point, fixed points omitted."""
    seen = [False] * p.degree
    parts = []
    for start in range(1, p.degree + 1):
        if seen[start - 1] or p.images[start - 1] == start:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = p.images[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = p.images[nxt - 1]
        parts.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The product "a then b": maps i to b(a(i))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(b.images[x - 1] for x in a.images))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.degree
    for i, x in enumerate(a.images, 1):
        inv[x - 1] = i
    return Permutation(tuple(inv))


def conjugate(a: Permutation, b: Permutation) -> Permutation:
    """The group product b^-1 a b under the fixed composition convention."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return compose(compose(inverse(b), a), b)


class ElementSet(Value):
    """A finite set of same-degree permutations in canonical (sorted) order."""

    _fields = ("degree", "members")

    def __init__(self, degree: int, members: tuple[Permutation, ...] = ()):
        for p in members:
            if p.degree != degree:
                raise ValueError(f"degree mismatch: {p} has degree {p.degree}, expected {degree}")
        if list(members) != sorted(set(members)):
            raise ValueError("members must be sorted and duplicate-free")
        self.__dict__.update(degree=degree, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def element_set(perms: Iterable[Permutation]) -> ElementSet:
    """Build an ElementSet from any iterable, sorting and deduplicating."""
    members = sorted(set(perms))
    if not members:
        raise ValueError("empty element set")
    return ElementSet(members[0].degree, tuple(members))


def _orbit(start: Permutation, gens: ElementSet, act) -> ElementSet:
    """Everything reached from start by ``act(f, g)`` with each generator g.

    Inverses need no steps of their own: in a finite group each is a power of
    its element.  Breadth-first, refused once it passes MAX_ELEMENTS.
    """
    known = {start}
    frontier = [start]
    while frontier:
        new = []
        for f in frontier:
            for g in gens.members:
                h = act(f, g)
                if h not in known:
                    known.add(h)
                    check_size(len(known))
                    new.append(h)
        frontier = new
    return element_set(known)


def close_under_generators(gens: ElementSet) -> ElementSet:
    """Smallest set containing gens and the identity, closed under product and inverse."""
    if len(gens) == 0:
        raise ValueError("need at least one generator")
    return _orbit(identity(gens.degree), gens, compose)


def conjugacy_class(g: Permutation, gens: ElementSet) -> ElementSet:
    """Orbit of g under conjugation by the group generated by gens."""
    if g.degree != gens.degree:
        raise ValueError(f"degree mismatch: {g.degree} vs {gens.degree}")
    return _orbit(g, gens, conjugate)


def group_generators(name: str) -> ElementSet:
    """Generators for the named groups S3..S8 and A3..A8.

    S_n: adjacent transpositions.  A_n: consecutive 3-cycles.
    """
    m = re.fullmatch(r"([SA])([0-9]+)", name.strip())
    if not m:
        raise ValueError(f"unknown group name {name!r} (expected S3..S8 or A3..A8)")
    family, n = m.group(1), int(m.group(2))
    if not 3 <= n <= 8:
        raise ValueError(f"group degree {n} out of supported range 3..8")
    if family == "S":
        gens = [parse_cycles(f"({i},{i + 1})", n) for i in range(1, n)]
    else:
        gens = [parse_cycles(f"({i},{i + 1},{i + 2})", n) for i in range(1, n - 1)]
    return element_set(gens)
