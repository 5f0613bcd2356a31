"""Finite quandles as labeled operation tables.

A quandle is given by its ``star`` table for ``*``; ``barstar``, for the
inverse operation, is derived from it.  Both are held as one numpy array and,
for the scalar loops, as tuple rows.  Elements are identified by position;
labels are display strings only.  Conjugation quandles use ``a * b = b^-1 a
b`` and ``a *bar b = b a b^-1`` with the composition convention from
``permgroup``.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import permgroup
from .permgroup import ElementSet

QuandleWord = tuple[tuple[int, bool], ...]
"""A left-normed word: (element index, barred) letters folded left to right."""


@dataclass(frozen=True)
class FiniteQuandle:
    """The operation table star[i][j] = i * j, with barstar[i][j] = i *bar j derived from it.

    ``star`` may be given as an m x m integer array or as nested int
    sequences.  The constructor refuses, with a ValueError naming the first
    violation, a table that fails Q1 (``i * i = i``) or Q2 (each right
    translation ``x -> x * j`` is a bijection), so only Q3 is left to
    ``verify_axioms``.  ``barstar`` holds the inverse translations.  Both are
    kept as one int32 array, ``_translations[barred, j, i] = i op j``, whose
    row j is the right translation by j; the vectorized readers use it.
    ``star`` and ``barstar`` are then stored as tuple rows derived from that
    array, sharing one int object per element, for the scalar loops.

    ``degree`` is the permutation degree when the quandle was built from
    permutations (it lets cycle-notation labels be re-parsed), 0 otherwise.
    """

    labels: tuple[str, ...]
    star: tuple[tuple[int, ...], ...]
    degree: int = field(default=0, kw_only=True)
    barstar: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.labels)
        if len(set(self.labels)) != m:
            raise ValueError("labels must be pairwise distinct")
        if type(self.degree) is not int or self.degree < 0:
            raise ValueError(f"degree must be a non-negative integer, got {self.degree!r}")
        try:
            table = np.asarray(self.star)
        except ValueError:  # ragged rows
            table = None
        if table is None or table.shape != (m, m):
            raise ValueError(f"star must be a {m} x {m} table")
        if table.dtype.kind not in "iu":
            raise ValueError("star entries must be integers")
        if not (table.min() >= 0 and table.max() < m):
            raise ValueError("star entry out of range")
        translations = np.empty((2, m, m), dtype=np.int32)
        right, right_bar = translations  # [j, i] = i * j, i *bar j
        right[:] = table.T
        del table  # the copy made of a nested-sequence table
        elements = np.arange(m)
        fixed = np.diagonal(right) == elements
        if not fixed.all():
            i = int(np.argmin(fixed))
            raise ValueError(f"star is not a quandle table ({i} * {i} != {i}, Q1)")
        right_bar[elements[:, None], right] = elements
        # a row that is not a bijection sends two elements to one, and only one of them comes back
        inverted = (np.take_along_axis(right_bar, right, 1) == elements).all(axis=1)
        if not inverted.all():
            j = int(np.argmin(inverted))
            raise ValueError(f"star is not a quandle table (x -> x * {j} is not a bijection, Q2)")
        object.__setattr__(self, "_translations", translations)
        star, barstar = _as_tuples(translations)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "barstar", barstar)

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


def _as_tuples(translations: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """Both tables of ``FiniteQuandle._translations`` as tuple rows, ``[barred][i][j] = i op j``.

    The rows share one int object per element: ``table.tolist()`` would keep
    m*m fresh ints alive, and converting a whole table at once would hold m*m
    temporary references; one row at a time does neither.  Equal tables (an
    involutory quandle) share their rows as well.
    """
    shared = np.arange(translations.shape[-1]).astype(object)
    star = tuple(tuple(shared[row].tolist()) for row in translations[0].T)
    if np.array_equal(translations[0], translations[1]):
        return [star, star]
    return [star, tuple(tuple(shared[row].tolist()) for row in translations[1].T)]


def _row_keys(images: np.ndarray) -> np.ndarray:
    """Keys of 0-based image rows that order like the rows themselves:
    each row as one big-endian byte string."""
    n = images.shape[-1]
    return np.ascontiguousarray(images.astype(">u4")).view(f"V{4 * n}")[..., 0]


def from_conjugation(elements: ElementSet) -> FiniteQuandle:
    """Conjugation quandle on a mutually-conjugation-closed set of permutations."""
    members = elements.members
    m, n = len(members), elements.degree
    permgroup.check_size(m)
    images = np.array([p.images for p in members], dtype=np.int64).reshape(m, n) - 1
    inverses = np.empty_like(images)
    inverses[np.arange(m)[:, None], images] = np.arange(n)
    keys = _row_keys(images)  # ascending, because members are sorted
    right = np.empty((m, m), dtype=np.int32)  # [j, i] = i * j
    for j in range(m):
        conj = images[j][images[:, inverses[j]]]  # row i: members[j]^-1 members[i] members[j]
        conj_keys = _row_keys(conj)
        found = np.minimum(np.searchsorted(keys, conj_keys), m - 1)
        missing = np.nonzero(keys[found] != conj_keys)[0]
        if missing.size:
            i = int(missing[0])
            c = permgroup.Permutation(tuple(int(x) + 1 for x in conj[i]))
            raise ValueError(
                f"set not closed under conjugation: {permgroup.print_cycles(members[i])} * "
                f"{permgroup.print_cycles(members[j])} = {permgroup.print_cycles(c)} is missing"
            )
        right[j] = found
    labels = tuple(permgroup.print_cycles(p) for p in members)
    return FiniteQuandle(labels, right.T, degree=elements.degree)


def dihedral(n: int) -> FiniteQuandle:
    """The involutory quandle on {0..n-1} with i * j = 2j - i mod n."""
    permgroup.check_size(n)
    elements = np.arange(n, dtype=np.int32)
    table = 2 * elements - elements[:, None]
    table %= n
    return FiniteQuandle(tuple(str(i) for i in range(n)), table)


def trivial(n: int) -> FiniteQuandle:
    """The quandle with x * y = x for all x, y."""
    permgroup.check_size(n)
    table = np.broadcast_to(np.arange(n, dtype=np.int32)[:, None], (n, n))
    return FiniteQuandle(tuple(str(i) for i in range(n)), table)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking Q3, the one axiom a ``FiniteQuandle`` may fail; a
    violation is data, not an exception.  Q1 and Q2 hold by construction."""

    q3_violation: tuple[int, ...] | None
    q3_checked: int  # triples the Q3 verdict covers: all m**3

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


def _generators(right: np.ndarray) -> list[int]:
    """A generating set chosen in ascending order, ``right[k, x] = x * k``.

    s is a generator exactly when the smaller generators' translations do not
    carry any of them to s.  What they reach lies in the subquandle they
    generate (and is all of it when Q3 holds), so every element is reached.
    """
    reached = np.zeros(len(right), dtype=bool)
    gens: list[int] = []
    for s in range(len(right)):
        if reached[s]:
            continue
        gens.append(s)
        reached[s] = True
        # all reached so far under the new translation, then anything new under every generator
        new = np.concatenate((right[s, reached], right[gens, s]))
        while new.size:
            new = np.flatnonzero((np.bincount(new, minlength=len(right)) > 0) & ~reached)
            reached[new] = True
            new = right[np.ix_(gens, new)].ravel()
    return gens


def verify_axioms(q: FiniteQuandle) -> AxiomReport:
    """Check Q3 over all (i, j, k), exactly; Q1 and Q2 hold by construction.

    Q3 says each R_k: x -> x * k is a homomorphism.  Under Q2, R_{a*b} =
    R_b R_a R_b^-1, so the k that pass are closed under * and *bar: Q3 holds
    iff it holds on a generating set, whose least element failing it is the
    least k failing it.  So only ``_generators`` are checked, in ascending
    order and once per distinct translation, and a violation is the first in
    (k, i, j) order, as a scan of all triples would report it.  Raises
    ValueError when the translations checked times m**2 exceed
    ``_Q3_TRIPLES_MAX``.
    """
    m = len(q)
    right = q._translations[0]  # [k, x] = x * k
    gens = _generators(right)
    first: dict[bytes, int] = {}  # the smallest generator per distinct translation
    for k, key in zip(gens, _row_keys(right[gens]).tolist()):
        first.setdefault(key, k)
    checked = list(first.values())
    if len(checked) * m * m > _Q3_TRIPLES_MAX:
        raise ValueError(f"Q3 check refused: {len(checked)} distinct generator translations on "
                         f"{m} elements would test more than {_Q3_TRIPLES_MAX} triples")
    q3_violation = None
    for k in checked:
        col = right[k]
        differ = col[right] != right[np.ix_(col, col)]  # [j, i]: (i*j)*k against (i*k)*(j*k)
        if differ.any():
            i, j = np.argwhere(differ.T)[0]
            q3_violation = (int(i), int(j), k)
            break
    return AxiomReport(q3_violation, m ** 3)


@dataclass(frozen=True)
class Automorphism:
    """A bijective self-map of a quandle, stored as full image sequence."""

    quandle: FiniteQuandle
    images: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.images[i]


def identity_automorphism(q: FiniteQuandle) -> Automorphism:
    return Automorphism(q, tuple(range(len(q))))


def translation(q: FiniteQuandle, by: int, barred: bool = False) -> Automorphism:
    """The map x -> x * by (or x *bar by); an automorphism by Q2/Q3."""
    if not 0 <= by < len(q):
        raise ValueError(f"element index {by} out of range")
    return Automorphism(q, tuple(q._translations[int(barred), by].tolist()))


def compose_automorphisms(f: Automorphism, g: Automorphism) -> Automorphism:
    """Apply f first, then g, matching word concatenation order."""
    if f.quandle is not g.quandle and f.quandle != g.quandle:
        raise ValueError("automorphisms act on different quandles")
    return Automorphism(f.quandle, tuple(g.images[x] for x in f.images))


def is_automorphism(q: FiniteQuandle, images: Sequence[int]) -> bool:
    """Exhaustive bijectivity plus homomorphism check, vectorized."""
    m = len(q)
    img = np.asarray(images, dtype=np.int64)
    if img.shape != (m,) or not np.array_equal(np.sort(img), np.arange(m)):
        return False
    right = q._translations[0]  # [j, i] = i * j
    return bool(np.array_equal(img[right], right[np.ix_(img, img)]))


def eval_word(q: FiniteQuandle, start: int, word: Iterable[tuple[int, bool]]) -> int:
    """Left-normed fold: acc <- acc * letter (or *bar letter) for each letter."""
    m = len(q)
    if not 0 <= start < m:
        raise ValueError(f"element index {start} out of range")
    acc = start
    for elem, barred in word:
        if not 0 <= elem < m:
            raise ValueError(f"element index {elem} out of range")
        acc = q.barstar[acc][elem] if barred else q.star[acc][elem]
    return acc


# --- quandle spec strings and JSON files ---------------------------------

_DIHEDRAL_RE = re.compile(r"dihedral:(\d+)$")
_TRIVIAL_RE = re.compile(r"trivial:(\d+)$")


def _parse_generators(text: str) -> ElementSet:
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty generator list")
    points = [int(tok) for p in parts for tok in re.findall(r"\d+", p)]
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


def _json_table(rows, name: str) -> np.ndarray:
    """A parsed JSON table as an int32 array; ``FiniteQuandle`` checks its shape and range.

    Only ints are accepted: a JSON true would pass as the integer 1 in an array.
    """
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        raise ValueError(f"malformed quandle JSON: {name} entries must be integers")
    try:
        return np.array(rows, dtype=np.int32)
    except ValueError:
        raise ValueError(f"malformed quandle JSON: {name} rows differ in length") from None


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
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ValueError("malformed quandle JSON: labels must be a list of strings")
        permgroup.check_size(len(labels))
        # popped, so each parsed list of m*m ints is freed as soon as its array exists
        star = _json_table(obj.pop("star"), "star")
        barstar = _json_table(obj.pop("barstar"), "barstar") if "barstar" in obj else None
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed quandle JSON: {exc}") from None
    try:
        q = FiniteQuandle(tuple(labels), star, degree=degree)
    except ValueError as exc:
        raise ValueError(f"malformed quandle JSON: {exc}") from None
    if barstar is not None and not np.array_equal(barstar, q._translations[1].T):
        raise ValueError("malformed quandle JSON: barstar does not invert the right translations of star")
    return q
