"""Independent oracles: brute-force coloring enumeration, coloring counts of
Alexander quandles by linear algebra, coloring counts of braid closures as
fixed points of the braid's action on Q^n, the propagating coloring search the
planned one replaced, the composed-translation route to colored longitudes
(with the translation and automorphism helpers it needs, and a pairwise
automorphism check), a left-normed word folded one ``FiniteQuandle.op`` at a
time, longitude families evaluated one element at a time through it,
conjugation tables built one entry at a time, the axioms by a triple loop,
orbits grown by every generator and its inverse, the orbit of a color under
the right translations, and the cycle type of a permutation.

These deliberately avoid the package's search machinery so that agreement is
meaningful.  Brute force filters every assignment of |Q|^arcs and is only
usable when that count is small; the Alexander count works at any size, and
the fixed-point count at any number of crossings.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

import quandleknot as qk
from quandleknot import permgroup as pg

BRUTE_LIMIT = 10 ** 6


def _op(q: qk.FiniteQuandle, a: int, b: int, sign: int) -> int:
    return q.star[a][b] if sign > 0 else q.barstar[a][b]


def brute_colorings_long(d: qk.LongDiagram, q: qk.FiniteQuandle, basepoint: int):
    m = len(q)
    assert m ** d.n <= BRUTE_LIMIT, "instance too large for brute force"
    out = []
    for rest in itertools.product(range(m), repeat=d.n):
        colors = (basepoint,) + rest
        if all(colors[i + 1] == _op(q, colors[i], colors[d.over_arc[i] - 1], d.sign[i])
               for i in range(d.n)):
            out.append(colors)
    return sorted(out)


def brute_colorings_closed(d: qk.ClosedDiagram, q: qk.FiniteQuandle, basepoint: int):
    m = len(q)
    n = d.n
    assert m ** (n - 1) <= BRUTE_LIMIT, "instance too large for brute force"
    out = []
    for rest in itertools.product(range(m), repeat=n - 1):
        colors = (basepoint,) + rest
        if all(colors[(i + 1) % n] == _op(q, colors[i], colors[d.over_arc[i] - 1], d.sign[i])
               for i in range(n)):
            out.append(colors)
    return sorted(out)


def brute_rows(num_arcs: int, relations, preset: dict, q: qk.FiniteQuandle):
    """Sorted solutions of a compiled relation system ``(out, in, over, sign)``
    with ``preset`` arcs fixed: every assignment filtered."""
    m = len(q)
    assert m ** (num_arcs - len(preset)) <= BRUTE_LIMIT, "instance too large for brute force"
    free = [arc for arc in range(num_arcs) if arc not in preset]
    out = []
    for rest in itertools.product(range(m), repeat=len(free)):
        colors = [preset.get(arc) for arc in range(num_arcs)]
        for arc, color in zip(free, rest):
            colors[arc] = color
        if all(colors[o] == _op(q, colors[i], colors[v], sign) for o, i, v, sign in relations):
            out.append(tuple(colors))
    return sorted(out)


def brute_colorings_tangle_mono(t: qk.TangleDiagram, q: qk.FiniteQuandle, basepoint: int):
    m = len(q)
    n1, n2 = len(t.strands[0]), len(t.strands[1])
    free = max(0, n1 - 1) + max(0, n2 - 1)
    assert m ** free <= BRUTE_LIMIT, "instance too large for brute force"
    out = []
    for inner in itertools.product(range(m), repeat=free):
        s1 = (basepoint,) + inner[:max(0, n1 - 1)] + ((basepoint,) if n1 else ())
        s2 = (basepoint,) + inner[max(0, n1 - 1):] + ((basepoint,) if n2 else ())
        strands = (s1, s2)
        ok = True
        for s in (1, 2):
            for k, c in enumerate(t.strands[s - 1]):
                over = strands[c.over_strand - 1][c.over_arc - 1]
                if strands[s - 1][k + 1] != _op(q, strands[s - 1][k], over, c.sign):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(strands)
    return sorted(out)


def alexander_quandle(p: int, t: int) -> qk.FiniteQuandle:
    """The Alexander quandle ``x * y = t·x + (1 - t)·y mod p`` (p prime, t a
    unit); ``x *bar y`` uses t^-1.  ``dihedral(p)`` is t = -1."""
    star = tuple(tuple((t * x + (1 - t) * y) % p for y in range(p)) for x in range(p))
    return qk.FiniteQuandle(tuple(map(str, range(p))), star)


def _rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over Z_p of sparse rows ``{column: coefficient}``: each row is
    reduced by the pivot rows of its highest columns until it is zero or
    gives a new pivot."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {col: v % p for col, v in row.items() if v % p}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inverse = pow(row[col], -1, p)
                pivots[col] = {c: v * inverse % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                reduced = (row.get(c, 0) - factor * v) % p
                if reduced:
                    row[c] = reduced
                else:
                    del row[c]
    return len(pivots)


def _alexander_equations(d: qk.LongDiagram | qk.ClosedDiagram, p: int, t: int):
    """The arc count, and each crossing's equation ``out = s·in + (1 - s)·over``
    with s = t^sign as a sparse row over the 0-based arcs, arc 1's column dropped."""
    arcs = d.n + (not d.closed)
    equations = []
    for i, (over, sign) in enumerate(zip(d.over_arc, d.sign)):
        s = t if sign > 0 else pow(t, -1, p)
        row: dict[int, int] = {}
        for arc, coefficient in (((i + 1) % arcs, 1), (i, -s), (over - 1, s - 1)):
            if arc:  # arc 1 is fixed
                row[arc] = row.get(arc, 0) + coefficient
        equations.append(row)
    return arcs, equations


def alexander_count(d: qk.LongDiagram | qk.ClosedDiagram, p: int, t: int) -> int:
    """The number of colorings by ``alexander_quandle(p, t)`` with arc 1 fixed.

    The colorings with arc 1 fixed form an affine space over Z_p, never empty
    because the constant coloring lies in it, so there are p^nullity of them,
    where the nullity is that of the crossings' equations with arc 1's column
    dropped (``_alexander_equations``).
    """
    arcs, equations = _alexander_equations(d, p, t)
    return p ** (arcs - 1 - _rank_mod_p(equations, p))


def alexander_sum(d: qk.LongDiagram, p: int, t: int, x: int) -> dict[int, int]:
    """The formal sum S^x of a long diagram by ``alexander_quandle(p, t)``, as
    ``{element: coefficient}``, at any basepoint, by linear algebra alone.

    A longitude letter (arc, barred) sends y to s·y + (1 - s)·a, with a the
    arc's color and s = t^-1 when barred, else t.  Each crossing gives one
    barred and one unbarred letter, so the s multiply to 1 and every colored
    longitude is y -> y + c, where c = sum over letters k of (1 - s_k)·a_k
    times the s of the letters after k: linear in the colors.  The colorings
    are the constant one, whose longitude is the identity, plus each vector of
    the kernel K0 of the equations with arc 1 set to 0.  So S^x is |K0|·x when
    c vanishes on K0, that is when c's row (arc 1's column dropped) lies in
    the equations' row space; otherwise c takes each value |K0|/p times.
    """
    arcs, equations = _alexander_equations(d, p, t)
    letters = [letter for i, (over, sign) in enumerate(zip(d.over_arc, d.sign))
               for letter in ((i, sign > 0), (over - 1, sign < 0))]
    c: dict[int, int] = {}
    after = 1  # the product of the s of the letters already passed, from the end
    for arc, barred in reversed(letters):
        s = pow(t, -1, p) if barred else t
        c[arc] = (c.get(arc, 0) + (1 - s) * after) % p
        after = after * s % p
    c.pop(0, None)  # arc 1 is fixed
    rank = _rank_mod_p(equations, p)
    kernel = p ** (arcs - 1 - rank)
    if _rank_mod_p(equations + [c], p) == rank:
        return {x: kernel}
    return dict.fromkeys(range(p), kernel // p)


def alexander_count_tangle_mono(t: qk.TangleDiagram, p: int, unit: int) -> int:
    """The number of boundary-monochromatic colorings of a two-strand tangle by
    ``alexander_quandle(p, unit)``, all four end arcs one color.

    Strand s has its crossings' count plus one arcs, numbered strand after
    strand.  Each crossing is an equation as in ``alexander_count``.  The
    colorings with the end arcs fixed form an affine space over Z_p that holds
    the constant coloring, so there are p^nullity of them, where the nullity
    is that of the equations with the end arcs' columns dropped.
    """
    sizes = [len(strand) + 1 for strand in t.strands]
    starts = (0, sizes[0])
    ends = {starts[s] + k for s in range(2) for k in (0, sizes[s] - 1)}
    equations = []
    for s, strand in enumerate(t.strands):
        for k, c in enumerate(strand):
            u = unit if c.sign > 0 else pow(unit, -1, p)
            over = starts[c.over_strand - 1] + c.over_arc - 1
            row: dict[int, int] = {}
            for arc, coefficient in ((starts[s] + k + 1, 1), (starts[s] + k, -u), (over, u - 1)):
                if arc not in ends:
                    row[arc] = row.get(arc, 0) + coefficient
            equations.append(row)
    return p ** (sum(sizes) - len(ends) - _rank_mod_p(equations, p))


def braid_fixed_points(word: list[int], strands: int, q: qk.FiniteQuandle, first: int | None = None) -> int:
    """The number of x in Q^strands with β·x = x, which is the number of colorings
    of the closure of the braid β = ``word`` summed over the color of arc 1; with
    ``first``, only those with x[0] = ``first``.  Arc 1 of ``fixtures.braid_closure``
    passes the top of position 1, so that is the number with arc 1 colored ``first``.

    Letter +j sends the colors (a, b) at positions (j, j+1) to (b * a, a), -j
    sends them to (b, a *bar b), and the virtual letter "vj" to (b, a): one
    gather per letter over all m^strands vectors, without compiling the
    closure's diagram."""
    star, barstar = np.array(q.star), np.array(q.barstar)
    x = np.indices((len(q),) * strands).reshape(strands, -1)  # [position, vector]
    y = x.copy()
    for letter in word:
        j = (int(letter[1:]) if isinstance(letter, str) else abs(letter)) - 1
        a, b = y[j].copy(), y[j + 1].copy()
        if isinstance(letter, str):
            y[j], y[j + 1] = b, a
        else:
            y[j], y[j + 1] = (star[b, a], a) if letter > 0 else (b, barstar[a, b])
    fixed = (y == x).all(axis=0)
    return int((fixed if first is None else fixed & (x[0] == first)).sum())


def _propagate(assign, relations, star, barstar) -> bool:
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


def _pick_guess_arc(assign, relations):
    for out, inn, over, _ in relations:
        if assign[over] is None and (assign[inn] is not None or assign[out] is not None):
            return over
    for arc, value in enumerate(assign):
        if value is None:
            return arc
    return None


def propagating_rows(num_arcs: int, relations, preset: dict, q: qk.FiniteQuandle):
    """Sorted solutions of a compiled relation system: every branch re-propagates
    to a fixed point and picks its own guess arc."""
    star, barstar = q.star, q.barstar
    results = []
    stack = [[preset.get(arc) for arc in range(num_arcs)]]
    while stack:
        state = stack.pop()
        if not _propagate(state, relations, star, barstar):
            continue
        arc = _pick_guess_arc(state, relations)
        if arc is None:
            results.append(tuple(state))
            continue
        for g in range(len(q)):
            branch = list(state)
            branch[arc] = g
            stack.append(branch)
    return sorted(results)


def identity_automorphism(q: qk.FiniteQuandle) -> qk.Automorphism:
    return qk.Automorphism(q, tuple(range(len(q))))


def translation(q: qk.FiniteQuandle, by: int, barred: bool = False) -> qk.Automorphism:
    """The map x -> x * by (or x *bar by); an automorphism by Q2/Q3."""
    if not 0 <= by < len(q):
        raise ValueError(f"element index {by} out of range")
    return qk.Automorphism(q, tuple(row[by] for row in (q.barstar if barred else q.star)))


def compose_automorphisms(f: qk.Automorphism, g: qk.Automorphism) -> qk.Automorphism:
    """Apply f first, then g, matching word concatenation order."""
    if f.quandle is not g.quandle and f.quandle != g.quandle:
        raise ValueError("automorphisms act on different quandles")
    return qk.Automorphism(f.quandle, tuple(g.images[x] for x in f.images))


def is_automorphism(q: qk.FiniteQuandle, images) -> bool:
    """A bijection f of the elements with f(i * j) = f(i) * f(j) for every pair."""
    star, f = np.array(q.star), np.array(images)
    if sorted(images) != list(range(len(q))):
        return False
    return bool(np.array_equal(f[star], star[np.ix_(f, f)]))


def sum_to_json(a) -> str:
    return json.dumps(a.by_label(), sort_keys=True)


def longitude_by_composed_translations(d: qk.LongDiagram, q: qk.FiniteQuandle,
                                       coloring: qk.Coloring) -> qk.Automorphism:
    """Build the colored longitude by composing translation automorphisms,
    rather than evaluating the word pointwise."""
    acc = identity_automorphism(q)
    colors = coloring.colors
    for arc, barred in qk.symbolic_longitude(d).letters:
        acc = compose_automorphisms(acc, translation(q, colors[arc - 1], barred))
    return acc


def eval_word(q: qk.FiniteQuandle, start: int, word) -> int:
    """Left-normed fold: acc <- acc * letter (or *bar letter) for each ``(element, barred)``
    letter, one table read per letter; ValueError for an element index out of range."""
    m, word = len(q), tuple(word)
    for elem in (start, *(elem for elem, _ in word)):
        if not 0 <= elem < m:
            raise ValueError(f"element index {elem} out of range")
    star, barstar, acc = q.star, q.barstar, start  # read directly: every index is in range, checked above
    for elem, barred in word:
        acc = (barstar if barred else star)[acc][elem]
    return acc


def _images_by_eval_word(q: qk.FiniteQuandle, word) -> tuple[int, ...]:
    return tuple(eval_word(q, x, word) for x in range(len(q)))


def longitude_family_images(d: qk.LongDiagram, q: qk.FiniteQuandle, basepoint: int):
    """The sorted image tuples of every colored longitude: one ``eval_word`` per
    coloring and element, on words spelled out from the code."""
    out = []
    for c in qk.colorings_long(d, q, basepoint):
        colors = c.colors
        word = tuple(letter for i in range(d.n) for letter in (
            (colors[i], d.sign[i] > 0), (colors[d.over_arc[i] - 1], d.sign[i] < 0)))
        out.append(_images_by_eval_word(q, word))
    return sorted(out)


def tangle_order_images(t: qk.TangleDiagram, q: qk.FiniteQuandle, basepoint: int):
    """Per boundary-monochromatic coloring, in search order, the image tuples of
    both concatenation orders of the tangle's longitude parts."""
    first, second = [], []
    for c in qk.colorings_tangle_boundary_mono(t, q, basepoint):
        w1, w2 = qk.tangle_longitude_parts(c)
        first.append(_images_by_eval_word(q, w1 + w2))
        second.append(_images_by_eval_word(q, w2 + w1))
    return first, second


def brute_axioms(star):
    """The first violation of Q1 (by i), Q2 (by j, a right translation x -> x * j
    that is not a bijection) and Q3 (by (k, i, j), reported as (i, j, k)), or
    None, from loops over a star table given as nested sequences."""
    m = len(star)
    q1 = next(((i,) for i in range(m) if star[i][i] != i), None)
    q2 = next(((j,) for j in range(m) if len({star[i][j] for i in range(m)}) != m), None)
    q3 = next(((i, j, k) for k, i, j in itertools.product(range(m), repeat=3)
               if star[star[i][j]][k] != star[star[i][k]][star[j][k]]), None)
    return q1, q2, q3


def conjugation_tables(elements: pg.ElementSet):
    """(labels, star, barstar) of the conjugation quandle, one ``Permutation``
    product per entry: ``b^-1 a b`` for ``*`` and ``b a b^-1`` for ``*bar``."""
    members = elements.members
    index = {p: i for i, p in enumerate(members)}
    m = len(members)
    star = [[0] * m for _ in range(m)]
    barstar = [[0] * m for _ in range(m)]
    for j, b in enumerate(members):
        binv = pg.inverse(b)
        for i, a in enumerate(members):
            c = pg.compose(pg.compose(binv, a), b)
            if c not in index:
                raise ValueError(
                    f"set not closed under conjugation: {pg.print_cycles(a)} * "
                    f"{pg.print_cycles(b)} = {pg.print_cycles(c)} is missing"
                )
            star[i][j] = index[c]
    # a * b permutes the finite set for each b, so b a b^-1 is in it once every a * b is
    for j, b in enumerate(members):
        binv = pg.inverse(b)
        for i, a in enumerate(members):
            barstar[i][j] = index[pg.compose(pg.compose(b, a), binv)]
    labels = tuple(pg.print_cycles(p) for p in members)
    return labels, tuple(map(tuple, star)), tuple(map(tuple, barstar))


def orbit_with_inverses(start: pg.Permutation, gens, act) -> set[pg.Permutation]:
    """Everything reached from start by ``act(f, g)`` with each generator g and
    each inverse, by breadth-first growth."""
    step = list(gens) + [pg.inverse(g) for g in gens]
    known, frontier = {start}, [start]
    while frontier:
        frontier = [h for h in {act(f, g) for f in frontier for g in step} if h not in known]
        known.update(frontier)
    return known


def color_orbit(q: qk.FiniteQuandle, x: int) -> set[int]:
    """The closure of {x} under ``y -> y * j`` for every j, by whole sweeps of the
    table until one adds nothing."""
    found = {x}
    while True:
        grown = found | {q.star[y][j] for y in found for j in range(len(q))}
        if grown == found:
            return found
        found = grown


def cycle_type(p: pg.Permutation) -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included."""
    seen = [False] * p.degree
    lengths = []
    for start in range(1, p.degree + 1):
        if seen[start - 1]:
            continue
        n, cur = 0, start
        while not seen[cur - 1]:
            seen[cur - 1] = True
            n += 1
            cur = p.images[cur - 1]
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))
