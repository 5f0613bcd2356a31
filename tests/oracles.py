"""Independent oracles: brute-force coloring enumeration, the propagating
coloring search the planned one replaced, the composed-translation route to
colored longitudes, longitude families evaluated one element at a time,
conjugation tables built one entry at a time, and the axioms by a triple loop.

These deliberately avoid the package's search machinery so that agreement is
meaningful.  Brute force filters every assignment of |Q|^arcs and is only
usable when that count is small.
"""
from __future__ import annotations

import itertools

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


def longitude_by_composed_translations(d: qk.LongDiagram, q: qk.FiniteQuandle,
                                       coloring: qk.Coloring) -> qk.Automorphism:
    """Build the colored longitude by composing translation automorphisms,
    rather than evaluating the word pointwise."""
    acc = qk.identity_automorphism(q)
    colors = coloring.arc_colors
    for arc, barred in qk.symbolic_longitude(d).letters:
        acc = qk.compose_automorphisms(acc, qk.translation(q, colors[arc - 1], barred))
    return acc


def _images_by_eval_word(q: qk.FiniteQuandle, word) -> tuple[int, ...]:
    return tuple(qk.eval_word(q, x, word) for x in range(len(q)))


def longitude_family_images(d: qk.LongDiagram, q: qk.FiniteQuandle, basepoint: int):
    """The sorted image tuples of every colored longitude: one ``eval_word`` per
    coloring and element, on words spelled out from the code."""
    out = []
    for c in qk.colorings_long(d, q, basepoint):
        colors = c.arc_colors
        word = tuple(letter for i in range(d.n) for letter in (
            (colors[i], d.sign[i] > 0), (colors[d.over_arc[i] - 1], d.sign[i] < 0)))
        out.append(_images_by_eval_word(q, word))
    return sorted(out)


def tangle_order_images(t: qk.TangleDiagram, q: qk.FiniteQuandle, basepoint: int):
    """Per boundary-monochromatic coloring, in search order, the image tuples of
    both concatenation orders of the tangle's longitude parts."""
    first, second = [], []
    for c in qk.colorings_tangle_boundary_mono(t, q, basepoint):
        w1, w2 = qk.tangle_longitude_parts(t, c)
        first.append(_images_by_eval_word(q, w1 + w2))
        second.append(_images_by_eval_word(q, w2 + w1))
    return first, second


def brute_axioms(q: qk.FiniteQuandle):
    """The first violation of Q1 (by i), Q2 (by (i, j)) and Q3 (by (k, i, j),
    reported as (i, j, k)), or None, from one triple loop over the tables."""
    m, star, barstar = len(q), q.star, q.barstar
    q1 = next(((i,) for i in range(m) if star[i][i] != i), None)
    q2 = next(((i, j) for i, j in itertools.product(range(m), repeat=2)
               if barstar[star[i][j]][j] != i or star[barstar[i][j]][j] != i), None)
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
