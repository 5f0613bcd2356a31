"""Metamorphic tests: braid moves, curls and R2 moves change the diagram but never the answers.

Each move turns a braid word into another word whose closure
(``fixtures.braid_closure``) is the same knot, so the planner gets a different
relation system that must give the same colorings, sums and verdicts.  A curl
(Reidemeister I) added to a long diagram gives relations whose over-arc
repeats their in- or out-arc.  An R2 move written on a long, closed or tangle
Gauss code applies to virtual codes too, since a finger may be detoured across
virtual crossings.
"""
from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import quandleknot as qk
import fixtures as fx

QUANDLES = (qk.dihedral(3), qk.dihedral(5),
            *(qk.parse_quandle_spec(f"conjclass:S4:{g}") for g in ("(1,2)", "(1,2,3)", "(1,2,3,4)", "(1,2)(3,4)")),
            qk.parse_quandle_spec("conjgroup:A4"), fx.s5_class_quandle())
SIGNS = st.sampled_from((1, -1))


def _medial(q: qk.FiniteQuandle) -> bool:
    """(x * y) * (z * w) = (x * z) * (y * w) for all x, y, z, w: the abelian quandles."""
    s = q.star
    return all(s[s[x][y]][s[z][w]] == s[s[x][z]][s[y][w]] for x, y, z, w in itertools.product(range(len(q)), repeat=4))


NON_ABELIAN = tuple(q for q in QUANDLES if not _medial(q)) + (fx.a5_quandle(),)
AMPHICHIRAL = ([1, -2, 1, -2], [1, 1, -2, 1, -2, -2])  # 4_1 and 6_3, 3-braids


def _insert(draw, word: list[int], letters: list[int]) -> list[int]:
    at = draw(st.integers(0, len(word)))
    return word[:at] + letters + word[at:]


def _move(draw, word: list[int], strands: int) -> tuple[list[int], int]:
    """One braid move, or a Markov stabilisation, drawn among those that apply."""
    far = [k for k in range(len(word) - 1) if abs(abs(word[k]) - abs(word[k + 1])) >= 2]
    moves = ["cancel", "conjugate", "stabilise"] + ["braid"] * (strands >= 3) + ["commute"] * bool(far)
    move = draw(st.sampled_from(moves))
    if move == "cancel":  # insert s_i s_i^-1 (or s_i^-1 s_i)
        i = draw(st.integers(1, strands - 1)) * draw(SIGNS)
        return _insert(draw, word, [i, -i]), strands
    if move == "braid":  # insert s_i s_i+1 s_i (s_i+1 s_i s_i+1)^-1, or the same with i and i + 1 swapped
        i = draw(st.integers(1, strands - 2))
        a, b = draw(st.permutations((i, i + 1)))
        return _insert(draw, word, [a, b, a, -b, -a, -b]), strands
    if move == "commute":  # s_i s_j = s_j s_i for |i - j| >= 2
        k = draw(st.sampled_from(far))
        return word[:k] + [word[k + 1], word[k]] + word[k + 2:], strands
    if move == "conjugate":  # a cyclic rotation of the word
        r = draw(st.integers(1, max(1, len(word) - 1)))
        return word[r:] + word[:r], strands
    return word + [strands * draw(SIGNS)], strands + 1  # Markov stabilisation


def _knot_word(draw) -> tuple[list[int], int]:
    """A random 2-4-strand braid word whose closure is a knot, and its strand count."""
    strands = draw(st.integers(2, 4))
    letters = st.tuples(st.integers(1, strands - 1), SIGNS).map(lambda pair: pair[0] * pair[1])
    return fx.knot_word(draw(st.lists(letters, max_size=8)), strands), strands


@st.composite
def moved_pairs(draw, words=None):
    """A knot's braid word (random, or one of ``words``) and 1-3 moves later."""
    if words is None:
        word, strands = _knot_word(draw)
    else:
        word, strands = draw(st.sampled_from(words)), 3
    moved, moved_strands = word, strands
    for _ in range(draw(st.integers(1, 3))):
        moved, moved_strands = _move(draw, moved, moved_strands)
    return fx.braid_closure(word, strands), fx.braid_closure(moved, moved_strands)


def _curl(d: qk.LongDiagram, a: int, over: int, sign: int) -> qk.LongDiagram:
    """``d`` with a curl at the end of arc ``a``: new crossing ``a``, whose
    over-arc ``over`` is ``a`` or the new arc ``a + 1``; later arcs shift by one."""
    shifted = tuple(b + (b > a) for b in d.over_arc)
    return qk.LongDiagram(shifted[:a - 1] + (over,) + shifted[a - 1:], d.sign[:a - 1] + (sign,) + d.sign[a - 1:])


@st.composite
def curled_pairs(draw):
    """A braid closure broken into a long knot, and the same with 1-3 curls added."""
    closed = fx.braid_closure(*_knot_word(draw))
    long = curled = qk.break_at(closed, draw(st.integers(1, closed.n)))
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(1, curled.n + 1))
        curled = _curl(curled, a, a + draw(st.integers(0, 1)), draw(SIGNS))
    return long, curled


def _r2(d, a: int, over: int, sign: int):
    """Long or closed ``d`` with two new crossings just before crossing ``a`` (at the end
    of the last arc when a = n + 1), signs ``sign`` and ``-sign``, both passing under the
    new diagram's arc ``over``; later arcs shift by 2, and over-passages hosted on arc ``a``
    stay on it."""
    shifted = tuple(b + 2 * (b > a) for b in d.over_arc)
    return type(d)(shifted[:a - 1] + (over, over) + shifted[a - 1:],
                   d.sign[:a - 1] + (sign, -sign) + d.sign[a - 1:])


@st.composite
def r2_pairs(draw):
    """A random long code with any over-arcs, so virtual codes are included, and the same after 1-3 R2 moves."""
    n = draw(st.integers(0, 6))
    long = moved = qk.LongDiagram(tuple(draw(st.integers(1, n + 1)) for _ in range(n)),
                                  tuple(draw(SIGNS) for _ in range(n)))
    for _ in range(draw(st.integers(1, 3))):
        moved = _r2(moved, draw(st.integers(1, moved.n + 1)), draw(st.integers(1, moved.n + 3)), draw(SIGNS))
    return long, moved


@st.composite
def closed_r2_pairs(draw):
    """A random closed code with any over-arcs, and the same after 1-3 R2 moves that leave arc 1
    whole (a >= 2), so breaking both at arc 1 gives long codes one R2 move apart."""
    n = draw(st.integers(2, 6))
    closed = moved = qk.ClosedDiagram(tuple(draw(st.integers(1, n)) for _ in range(n)),
                                      tuple(draw(SIGNS) for _ in range(n)))
    for _ in range(draw(st.integers(1, 3))):
        moved = _r2(moved, draw(st.integers(2, moved.n)), draw(st.integers(1, moved.n + 2)), draw(SIGNS))
    return closed, moved


def _r2_tangle(t: qk.TangleDiagram, s: int, a: int, o: int, over: int, sign: int) -> qk.TangleDiagram:
    """``t`` with two new crossings on strand ``s`` just before its crossing ``a``, signs ``sign``
    and ``-sign``, both passing under arc ``over`` of strand ``o`` in the new numbering; strand
    ``s``'s later arcs shift by 2, on whichever strand their over-passages lie."""
    def shifted(c: qk.TangleCrossing) -> qk.TangleCrossing:
        return qk.TangleCrossing(c.over_strand, c.over_arc + 2 * (c.over_strand == s and c.over_arc > a), c.sign)
    strands = [[shifted(c) for c in strand] for strand in t.strands]
    strands[s - 1][a - 1:a - 1] = [qk.TangleCrossing(o, over, sign), qk.TangleCrossing(o, over, -sign)]
    return qk.TangleDiagram(tuple(map(tuple, strands)))


@st.composite
def tangle_r2_pairs(draw):
    """A two-strand tangle, and the same after 1-3 R2 moves, each on either strand with its
    over-arc on either strand.  Strand 1 is a knot's braid closure broken into a long code,
    so that colorings with all four ends at the basepoint are not all constant; strand 2 has
    0-2 crossings under any arcs."""
    closed = fx.braid_closure(*_knot_word(draw))
    long = qk.break_at(closed, draw(st.integers(1, closed.n)))
    sizes = (long.n, draw(st.integers(0, 2)))
    second = tuple(qk.TangleCrossing(o, draw(st.integers(1, sizes[o - 1] + 1)), draw(SIGNS))
                   for o in (draw(st.integers(1, 2)) for _ in range(sizes[1])))
    tangle = moved = qk.TangleDiagram((tuple(map(qk.TangleCrossing, (1,) * long.n, long.over_arc, long.sign)),
                                       second))
    for _ in range(draw(st.integers(1, 3))):
        s, o = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        lengths = [len(strand) for strand in moved.strands]
        moved = _r2_tangle(moved, s, draw(st.integers(1, lengths[s - 1] + 1)), o,
                           draw(st.integers(1, lengths[o - 1] + 1 + 2 * (o == s))), draw(SIGNS))
    return tangle, moved


def _query(q, data):
    return qk.InvariantQuery(q, data.draw(st.integers(0, len(q) - 1)), data.draw(st.integers(0, len(q) - 1)))


class TestBraidMoves:
    @settings(max_examples=100, deadline=None)
    @given(moved_pairs(), st.data())
    def test_formal_sums_and_counts_do_not_change(self, pair, data):
        before, after = (qk.break_at(d, 1) for d in pair)
        for q in QUANDLES:
            query = _query(q, data)
            # equal sums have equal mass, the number of colorings
            assert qk.formal_sum(before, query) == qk.formal_sum(after, query)

    @settings(max_examples=40, deadline=None)
    @given(curled_pairs(), st.data())
    def test_curls_do_not_change_formal_sums(self, pair, data):
        before, after = pair
        for q in QUANDLES:
            query = _query(q, data)
            assert qk.formal_sum(before, query) == qk.formal_sum(after, query)

    @settings(max_examples=100, deadline=None)
    @given(r2_pairs(), st.data())
    def test_r2_on_long_codes_changes_no_answer(self, pair, data):
        # the four new longitude letters fold to the identity by Q2 and Q3, whatever the over-arc's color
        before, after = pair
        for q in NON_ABELIAN:
            query = _query(q, data)
            families = [qk.longitude_family(d, q, query.basepoint) for d in pair]
            assert len(families[0]) == len(families[1])  # the coloring count
            assert families[0] == families[1]  # sorted images
            assert qk.formal_sum(before, query) == qk.formal_sum(after, query)

    @settings(max_examples=100, deadline=None)
    @given(closed_r2_pairs(), st.data())
    def test_r2_on_closed_codes_changes_no_answer(self, pair, data):
        # formal_sum breaks both codes at arc 1, which no move split
        before, after = pair
        for q in NON_ABELIAN:
            query = _query(q, data)
            assert len(qk.colorings_closed(before, q, query.basepoint)) == \
                len(qk.colorings_closed(after, q, query.basepoint))
            assert qk.formal_sum(before, query) == qk.formal_sum(after, query)

    @settings(max_examples=100, deadline=None)
    @given(tangle_r2_pairs(), st.data())
    def test_r2_on_tangles_changes_no_answer(self, pair, data):
        # the four new letters fold to the identity inside either strand's part of S1 and S2
        before, after = pair
        for q in NON_ABELIAN:
            query = _query(q, data)
            assert len(qk.colorings_tangle_boundary_mono(before, q, query.basepoint)) == \
                len(qk.colorings_tangle_boundary_mono(after, q, query.basepoint))
            assert qk.tangle_sums(before, query) == qk.tangle_sums(after, query)

    @settings(max_examples=60, deadline=None)
    @given(moved_pairs(AMPHICHIRAL), st.sampled_from(QUANDLES), st.data())
    def test_amphichiral_verdicts_stay_inconclusive(self, pair, q, data):
        query = _query(q, data)
        for d in pair:
            long = qk.break_at(d, 1)
            assert qk.mirror(qk.mirror(d)) == d and qk.mirror(qk.mirror(long)) == long
            assert qk.chirality_test(d, query).kind == "inconclusive"
            # a classical knot's basepoint spectrum is constant
            assert qk.nonclassical_by_basepoints(d, query).kind == "inconclusive"
