"""Finite quandles as labeled operation tables.

A quandle is given by its ``star`` table for ``*``; ``barstar``, for the
inverse operation, is derived from it.  Both are held as tuple rows, built and
checked in plain Python, and every layer reads them or their transposes, the
right translations; the package does not import numpy.  Words over the
tables are folded in ``longitude``.  Elements are identified by position;
labels are display strings, distinct and equal to their own ``strip()``, so a
label written to a quandle file reads back and an element named with padding
is still that element.
Conjugation quandles use ``a * b = b^-1 a b`` and ``a *bar b = b a b^-1`` with
the composition convention from ``permgroup``.
"""
from __future__ import annotations

import functools
import itertools
import json
import re
from collections import deque
from collections.abc import Iterable, Sequence
from operator import itemgetter

from . import permgroup
from ._value import Value
from .permgroup import ElementSet


def _pick(seq, keys: Sequence[int]) -> tuple:
    """``seq[k]`` for each k, as a tuple; with a permutation as ``keys``, the composition "keys, then seq"."""
    return itemgetter(*keys)(seq) if len(keys) != 1 else (seq[keys[0]],)


def _inverse(images: Sequence[int], elements: Iterable[int]) -> list:
    """``inverse[images[x]] = x`` with x taken from ``elements``; None where nothing is sent, so
    the map ``x -> images[x]`` of an m-element set into itself is a bijection iff None is absent."""
    inverse = [None] * len(images)
    deque(map(inverse.__setitem__, images, elements), 0)
    return inverse


class FiniteQuandle(Value):
    """The operation table star[i][j] = i * j, with barstar[i][j] = i *bar j derived from it.

    ``star`` may be given as nested int sequences or as an m x m integer
    array (read through ``tolist``).  The constructor refuses, with a
    ValueError naming the first violation, a table that fails Q1 (``i * i =
    i``) or Q2 (each right translation ``x -> x * j`` is a bijection), so only
    Q3 is left to ``verify_axioms``.  ``barstar`` holds the inverse
    translations, and is ``star`` itself when every translation is an
    involution.  Both are stored as tuple rows that share one int object per
    element.  ``_translations[barred][j][i] = i op j`` transposes them, so
    row j is the right translation by j, or its inverse, and both halves are
    one table when ``barstar`` is ``star``; the longitude fold
    ``longitude._images`` reads it, and it is built on first read.
    ``_orbit(x)`` is the orbit of x under Inn(Q), the group the right
    translations generate: the coloring search guesses an arc only among the
    orbit of a known arc's color.  Each orbit is kept once found, and so is
    ``_symmetry(x)``: the powers of R_x: y -> y * x and its cycles on the
    orbit of x, which let a search at basepoint x skip colorings it can map
    from others, or None where R_x does not respect ``*`` on that orbit.

    ``degree`` is the permutation degree when the quandle was built from
    permutations (it lets cycle-notation labels be re-parsed), 0 otherwise.
    """

    _fields = ("labels", "star", "degree")  # barstar follows from star

    def __init__(self, labels: tuple[str, ...], star, *, degree: int = 0):
        m = len(labels)
        for label in labels:
            if not isinstance(label, str) or label != label.strip():
                raise ValueError(f"labels must be strings without surrounding whitespace, got {label!r}")
        if len(set(labels)) != m:
            raise ValueError("labels must be pairwise distinct")
        if type(degree) is not int or degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
        rows = star.tolist() if hasattr(star, "tolist") else star
        try:
            square = m > 0 and len(rows) == m and all(len(row) == m for row in rows)
        except TypeError:  # not a sequence of sequences
            square = False
        types = set(map(type, itertools.chain.from_iterable(rows))) if square else set()
        if not square or types & {list, tuple}:  # ragged, or nested deeper than a table
            raise ValueError(f"star must be a {m} x {m} table")
        if not types <= {int}:
            raise ValueError("star entries must be integers")
        elements = tuple(range(m))
        shared = dict(zip(elements, elements))
        try:
            star = tuple(_pick(shared, row) for row in rows)
        except KeyError:
            raise ValueError("star entry out of range") from None
        for i in elements:
            if star[i][i] != i:
                raise ValueError(f"star is not a quandle table ({i} * {i} != {i}, Q1)")
        right = list(zip(*star))  # right[j][i] = i * j
        if all(_pick(r, r) == elements for r in right):  # each its own inverse, so a bijection
            barstar = star
        else:
            for j, r in enumerate(right):
                right[j] = _inverse(r, elements)
                if None in right[j]:
                    raise ValueError(f"star is not a quandle table (x -> x * {j} is not a bijection, Q2)")
            barstar = tuple(zip(*right))
        self.__dict__.update(labels=labels, star=star, degree=degree, barstar=barstar)

    @functools.cached_property
    def _translations(self) -> tuple:
        right = tuple(zip(*self.star))
        return right, right if self.barstar is self.star else tuple(zip(*self.barstar))

    @functools.cached_property
    def _orbits(self) -> list:
        return [None] * len(self)

    def _orbit(self, x: int) -> tuple[int, ...]:
        """The orbit of x under all right translations, so under Inn(Q), sorted.

        It is the closure of {x} under ``y -> y * j`` for every j: each
        translation permutes a finite set, so its inverse is one of its powers,
        and Q3 is not needed.  Computed on first request, for all its members.
        """
        orbits = self._orbits
        if orbits[x] is None:
            found, frontier = {x}, [x]
            for y in frontier:  # the list grows while it is read
                new = set(self.star[y]) - found
                found |= new
                frontier += new
            orbit = tuple(sorted(found))
            for y in orbit:
                orbits[y] = orbit
        return orbits[x]

    @functools.cached_property
    def _symmetries(self) -> dict:
        return {}

    def _symmetry(self, x: int) -> tuple[tuple[tuple[int, ...], ...], list[int]] | None:
        """R_x: y -> y * x as an automorphism of the orbit of x: ``(powers, lengths)``, or None.

        ``powers[k]`` is R_x^k as a table of images, for k below the longest
        cycle of R_x on the orbit.  ``lengths[y]`` is the length of the cycle
        of y when y is its least member in the orbit, and 0 for every other
        element.  None when R_x fixes the orbit, or when (i * j) * x != (i *
        x) * (j * x) for some i, j in it (never under Q3).  R_x is a bijection
        by Q2, so when it respects ``*`` on the orbit it respects ``*bar``
        there too.  The check costs |orbit|**2 lookups, once per x.
        """
        cache = self._symmetries
        if x not in cache:
            orbit, col = self._orbit(x), tuple(map(itemgetter(x), self.star))
            cache[x] = None
            if _pick(col, orbit) != orbit and _violation(self.star, col, orbit) is None:
                lengths, seen = [0] * len(self), set()
                for y in orbit:  # ascending, so the first member met of each cycle is its least
                    if y not in seen:
                        z, n = col[y], 1
                        while z != y:
                            seen.add(z)
                            z, n = col[z], n + 1
                        lengths[y] = n
                powers = [tuple(range(len(self)))]
                while len(powers) < max(lengths):
                    powers.append(_pick(col, powers[-1]))
                cache[x] = tuple(powers), lengths
        return cache[x]

    def __len__(self) -> int:
        return len(self.labels)

    def op(self, i: int, j: int, barred: bool = False) -> int:
        return self.barstar[i][j] if barred else self.star[i][j]

    def element_index(self, text: str) -> int:
        """Resolve an element given by label, or by cycle notation when applicable."""
        label = text.strip()
        try:
            return self.labels.index(label)
        except ValueError:
            pass
        if self.degree > 0:
            canonical = permgroup.print_cycles(permgroup.parse_cycles(label, self.degree))
            try:
                return self.labels.index(canonical)
            except ValueError:
                raise ValueError(f"element {text!r} is not in this quandle") from None
        raise ValueError(f"element {text!r} is not in this quandle")


def from_conjugation(elements: ElementSet) -> FiniteQuandle:
    """Conjugation quandle on a mutually-conjugation-closed set of permutations.

    The right translation R_s: x -> x * s = s^-1 x s is looked up directly
    only for a generating set, ascending: each s that the translations found
    so far do not reach.  Every other one follows from R_{j*b} = R_b R_j
    R_b^-1, and stays in the set when R_b and R_j do.  So the set is closed
    iff every translation looked up stays in it, and the first miss is the
    pair (j, i) a scan of all pairs in that order would report first.
    """
    members = elements.members
    m, n = len(members), elements.degree
    permgroup.check_size(m)
    images = [tuple(x - 1 for x in p.images) for p in members]
    index = {p: i for i, p in enumerate(images)}
    right: list = [None] * m  # right[j][i] = i * j
    gens: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (R_b, R_b^-1)
    for s in range(m):
        if right[s] is not None:
            continue
        s_inv = _inverse(images[s], range(n))
        row = [index.get(_pick(images[s], _pick(x, s_inv))) for x in images]
        if None in row:
            i = row.index(None)
            raise ValueError(
                f"set not closed under conjugation: {permgroup.print_cycles(members[i])} * "
                f"{permgroup.print_cycles(members[s])} = "
                f"{permgroup.print_cycles(permgroup.conjugate(members[i], members[s]))} is missing")
        right[s] = tuple(row)
        gens.append((right[s], tuple(_inverse(row, range(m)))))
        frontier = [j for j in range(m) if right[j] is not None]  # none moved by R_s yet
        while frontier:
            reached = []
            for j in frontier:
                for r_b, r_b_inv in gens:
                    if right[r_b[j]] is None:
                        right[r_b[j]] = _pick(r_b, _pick(right[j], r_b_inv))
                        reached.append(r_b[j])
            frontier = reached
    star = tuple(zip(*right))
    del right  # its rows, before the constructor builds its own
    return FiniteQuandle(tuple(permgroup.print_cycles(p) for p in members), star, degree=n)


def dihedral(n: int) -> FiniteQuandle:
    """The involutory quandle on {0..n-1} with i * j = 2j - i mod n."""
    permgroup.check_size(n)
    repeated = tuple(range(n)) * 3  # row i is every second entry from n - i
    return FiniteQuandle(tuple(map(str, range(n))), tuple(repeated[n - i:3 * n - i:2] for i in range(n)))


def trivial(n: int) -> FiniteQuandle:
    """The quandle with x * y = x for all x, y."""
    permgroup.check_size(n)
    return FiniteQuandle(tuple(map(str, range(n))), tuple((i,) * n for i in range(n)))


class AxiomReport(Value):
    """Outcome of checking Q3, the one axiom a ``FiniteQuandle`` may fail; a
    violation is data, not an exception.  Q1 and Q2 hold by construction.
    ``q3_checked`` counts the triples the Q3 verdict covers: all m**3."""

    _fields = ("q3_violation", "q3_checked")

    def __init__(self, q3_violation: tuple[int, ...] | None, q3_checked: int):
        self.__dict__.update(q3_violation=q3_violation, q3_checked=q3_checked)

    @property
    def all_ok(self) -> bool:
        return self.q3_violation is None

    def summary(self) -> str:
        lines = [
            "Q1 (idempotence): ok",
            "Q2 (invertibility): ok",
            f"Q3 (distributivity, exhaustive, {self.q3_checked} triples): "
            + ("ok" if self.q3_violation is None else f"violated at {self.q3_violation}"),
        ]
        return "\n".join(lines)


_Q3_TRIPLES_MAX = 720 ** 3
"""Most triples one Q3 check may test: as many as a scan of a 720-element table."""


def _generators(star) -> dict[tuple[int, ...], int]:
    """A generating set chosen in ascending order, as its least member per distinct
    right translation, keyed by that translation's column ``(x * k)_x``.

    s is a generator exactly when the smaller generators' translations do not
    carry any of them to s.  What they reach lies in the subquandle they
    generate (and is all of it when Q3 holds), so every element is reached.
    """
    reached: set[int] = set()
    first: dict[tuple[int, ...], int] = {}
    for s in range(len(star)):
        if s in reached:
            continue
        col = tuple(map(itemgetter(s), star))
        # s, and all reached so far if R_s is a translation not met before; then anything new under each
        new = {s} if col in first else {s, *map(col.__getitem__, reached)}
        first.setdefault(col, s)
        gens = list(first.values())
        while new := new - reached:
            reached |= new
            new = set(itertools.chain.from_iterable(_pick(star[y], gens) for y in new))
    return first


def _violation(star, col: Sequence[int], domain: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j) in ``domain``, ascending, with (i * j) * k != (i * k) * (j * k),
    where ``col[x] = x * k``; None when R_k respects ``*`` on ``domain``.

    ``domain`` is ascending and closed under ``*`` and R_k: every element, or
    an orbit.  Row i compares j -> (i * j) * k with j -> (i * k) * (j * k) as
    two tuples picked from the rows of ``star``, so the first unequal row and
    its first differing entry are the first violation in (i, j) order.
    """
    whole = len(domain) == len(star)  # then domain is range(m): pick the rows whole
    cols = col if whole else _pick(col, domain)
    for i in domain:
        lhs = _pick(col, star[i] if whole else _pick(star[i], domain))
        rhs = _pick(star[col[i]], cols)
        if lhs != rhs:
            return i, next(j for j, a, b in zip(domain, lhs, rhs) if a != b)
    return None


def verify_axioms(q: FiniteQuandle) -> AxiomReport:
    """Check Q3 over all (i, j, k), exactly; Q1 and Q2 hold by construction.

    Q3 says each R_k: x -> x * k is a homomorphism.  Under Q2, R_{a*b} =
    R_b R_a R_b^-1, so the k that pass are closed under * and *bar: Q3 holds
    iff it holds on a generating set, whose least element failing it is the
    least k failing it.  So only ``_generators`` are checked, in ascending
    order and once per distinct translation, by ``_violation`` over every
    (i, j): the first violation in (k, i, j) order is the one a scan of all
    triples would report.  Raises ValueError when the translations checked
    times m**2 exceed ``_Q3_TRIPLES_MAX``.
    """
    m, star = len(q), q.star
    first = _generators(star)
    if len(first) * m * m > _Q3_TRIPLES_MAX:
        raise ValueError(f"Q3 check refused: {len(first)} distinct generator translations on "
                         f"{m} elements would test more than {_Q3_TRIPLES_MAX} triples")
    for col, k in first.items():
        if (found := _violation(star, col, range(m))) is not None:
            return AxiomReport((*found, k), m ** 3)
    return AxiomReport(None, m ** 3)


class Automorphism(Value):
    """A bijective self-map of a quandle, stored as full image sequence."""

    _fields = ("quandle", "images")

    def __init__(self, quandle: FiniteQuandle, images: tuple[int, ...]):
        self.__dict__.update(quandle=quandle, images=images)

    def __call__(self, i: int) -> int:
        return self.images[i]


# --- quandle spec strings and JSON files ---------------------------------

_DIHEDRAL_RE = re.compile(r"dihedral:([0-9]+)$")
_TRIVIAL_RE = re.compile(r"trivial:([0-9]+)$")


def _parse_generators(text: str) -> ElementSet:
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty generator list")
    points = [int(tok) for p in parts for tok in re.findall(r"[0-9]+", p)]
    if not points:
        raise ValueError(f"generator list {text!r} names no point")
    degree = max(points)
    return permgroup.element_set(permgroup.parse_cycles(p, degree) for p in parts)


def _group_from_spec(text: str) -> ElementSet:
    if text.startswith("gens:"):
        return _parse_generators(text[len("gens:"):])
    return permgroup.group_generators(text)


def parse_quandle_spec(spec: str) -> FiniteQuandle:
    """Build a quandle from a spec string.

    Forms: ``conjclass:<group>:<element>``, ``conjgroup:<group>``,
    ``dihedral:<n>``, ``trivial:<n>``, where ``<group>`` is S3..S8, A3..A8,
    or ``gens:<perm>;<perm>;...`` and elements are in cycle notation.
    """
    spec = spec.strip()
    if m := _DIHEDRAL_RE.fullmatch(spec):
        return dihedral(int(m.group(1)))
    if m := _TRIVIAL_RE.fullmatch(spec):
        return trivial(int(m.group(1)))
    if spec.startswith("conjclass:"):
        rest = spec[len("conjclass:"):]
        group_part, sep, element_part = rest.rpartition(":")
        if not sep or not group_part:
            raise ValueError(f"malformed conjclass spec {spec!r}")
        gens = _group_from_spec(group_part)
        g = permgroup.parse_cycles(element_part, gens.degree)
        return from_conjugation(permgroup.conjugacy_class(g, gens))
    if spec.startswith("conjgroup:"):
        gens = _group_from_spec(spec[len("conjgroup:"):])
        return from_conjugation(permgroup.close_under_generators(gens))
    raise ValueError(f"unknown quandle spec {spec!r}")


def quandle_to_json(q: FiniteQuandle) -> str:
    obj = {
        "degree": q.degree,
        "labels": list(q.labels),
        "star": [list(row) for row in q.star],
    }
    return json.dumps(obj)


def quandle_from_json(text: str) -> FiniteQuandle:
    """A quandle file ``{degree, labels, star}``.  A ``barstar`` table, which
    older files hold, is refused unless it is the one derived from ``star``."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed quandle JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("malformed quandle JSON: expected an object")
    degree = obj.get("degree", 0)
    if type(degree) is not int:
        raise ValueError("malformed quandle JSON: degree must be an integer")
    if degree:
        permgroup.check_degree(degree)
    try:
        labels = obj["labels"]
        if not isinstance(labels, list):  # the constructor checks each label
            raise ValueError("malformed quandle JSON: labels must be a list of strings")
        permgroup.check_size(len(labels))
        star, barstar = obj["star"], obj.get("barstar")
    except KeyError as exc:
        raise ValueError(f"malformed quandle JSON: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed quandle JSON: {exc}") from None
    try:
        q = FiniteQuandle(tuple(labels), star, degree=degree)
    except ValueError as exc:
        raise ValueError(f"malformed quandle JSON: {exc}") from None
    try:
        same = barstar is None or (set(map(type, itertools.chain.from_iterable(barstar))) <= {int}
                                   and tuple(map(tuple, barstar)) == q.barstar)
    except TypeError:  # not a sequence of sequences
        same = False
    if not same:
        raise ValueError("malformed quandle JSON: barstar does not invert the right translations of star")
    return q
