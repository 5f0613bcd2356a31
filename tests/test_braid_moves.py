"""Metamorphic tests: braid moves and curls change the diagram but never the answers.

Each move turns a braid word into another word whose closure
(``fixtures.braid_closure``) is the same knot, so the planner gets a different
relation system that must give the same colorings, sums and verdicts.  A curl
(Reidemeister I) added to a long diagram gives relations whose over-arc
repeats their in- or out-arc.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import quandleknot as qk
import fixtures as fx

QUANDLES = (qk.dihedral(3), qk.dihedral(5),
            *(qk.parse_quandle_spec(f"conjclass:S4:{g}") for g in ("(1,2)", "(1,2,3)", "(1,2,3,4)", "(1,2)(3,4)")),
            qk.parse_quandle_spec("conjgroup:A4"), fx.s5_class_quandle())
SIGNS = st.sampled_from((1, -1))
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
            assert qk.formal_sum(before, q, query) == qk.formal_sum(after, q, query)

    @settings(max_examples=40, deadline=None)
    @given(curled_pairs(), st.data())
    def test_curls_do_not_change_formal_sums(self, pair, data):
        before, after = pair
        for q in QUANDLES:
            query = _query(q, data)
            assert qk.formal_sum(before, q, query) == qk.formal_sum(after, q, query)

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
