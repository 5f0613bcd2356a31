from __future__ import annotations

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quandleknot as qk
from quandleknot import coloring, diagram
import fixtures as fx
import oracles


class TestLongColorings:
    def test_unknot_single_coloring(self):
        d3 = qk.dihedral(3)
        cols = qk.colorings_long(fx.UNKNOT_LONG, d3, 2)
        assert len(cols) == 1 and cols[0].arc_colors == (2,)

    def test_5_2_has_seven(self, s5_class):
        q = fx.query_5_2()
        cols = qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint)
        assert len(cols) == 7

    def test_long_trefoil_matches_brute_force(self):
        d3 = qk.dihedral(3)
        long_trefoil = qk.break_at(fx.TREFOIL_CLOSED, 1)
        got = [c.arc_colors for c in qk.colorings_long(long_trefoil, d3, 0)]
        assert got == oracles.brute_colorings_long(long_trefoil, d3, 0)

    def test_every_coloring_verifies(self, s5_class):
        q = fx.query_5_2()
        for c in qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint):
            assert qk.verify_coloring(c, s5_class)

    def test_output_sorted(self, s5_class):
        q = fx.query_5_2()
        cols = [c.arc_colors for c in qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint)]
        assert cols == sorted(cols)

    def test_classical_fixtures_close_up(self, s5_class, a5, a6):
        # final arc color equals the basepoint on classical codes
        cases = [
            (fx.KNOT_5_2_LONG, s5_class, fx.query_5_2().basepoint),
            (qk.break_at(fx.TREFOIL_CLOSED, 1), qk.dihedral(3), 0),
            (qk.break_at(fx.KNOT_6_3_CLOSED, 1), a6, fx.query_t62().basepoint),
            (qk.break_at(fx.KNOT_9_42_CLOSED, 1), a5, fx.query_9_42().basepoint),
        ]
        for d, quandle, basepoint in cases:
            cols = qk.colorings_long(d, quandle, basepoint)
            assert cols and all(c.arc_colors[-1] == basepoint for c in cols)

    def test_basepoint_validation(self):
        # a basepoint that is not exactly an int would be copied into the colorings,
        # which verify_coloring then refuses
        cases = [(5, "basepoint index 5 out of range"), (-1, "basepoint index -1 out of range"),
                 (True, "basepoint index must be an int, got True"),
                 (np.int64(1), "basepoint index must be an int, got np.int64(1)"),
                 (1.0, "basepoint index must be an int, got 1.0")]
        for find, d in ((qk.colorings_long, qk.LongDiagram((3, 1, 2), (1, 1, 1))),
                        (qk.colorings_closed, fx.TREFOIL_CLOSED),
                        (qk.colorings_tangle_boundary_mono, fx.tangle_t62())):
            for basepoint, message in cases:
                with pytest.raises(ValueError, match=re.escape(message)):
                    find(d, qk.dihedral(3), basepoint)


class TestClosedColorings:
    def test_monochromatic_always_present(self):
        d5 = qk.dihedral(5)
        for code in (fx.TREFOIL_CLOSED, fx.KNOT_6_3_CLOSED, fx.VIRTUAL_WITNESS_CODE):
            cols = qk.colorings_closed(code, d5, 3)
            assert (3,) * code.n in [c.arc_colors for c in cols]

    def test_closed_trefoil_three_colorings(self):
        d3 = qk.dihedral(3)
        got = [c.arc_colors for c in qk.colorings_closed(fx.TREFOIL_CLOSED, d3, 0)]
        assert len(got) == 3
        assert got == oracles.brute_colorings_closed(fx.TREFOIL_CLOSED, d3, 0)

    def test_closed_5_2_every_arc_gives_seven(self, s5_class):
        q = fx.query_5_2()
        c = fx.KNOT_5_2_CLOSED
        for r in range(1, c.n + 1):
            rotated = qk.close_long(qk.break_at(c, r))
            closed_count = len(qk.colorings_closed(rotated, s5_class, q.basepoint))
            long_count = len(qk.colorings_long(qk.break_at(c, r), s5_class, q.basepoint))
            assert closed_count == long_count == 7

    def test_same_knot_different_codes_same_count(self, s5_class):
        q = fx.query_5_2()
        a = len(qk.colorings_closed(fx.KNOT_5_2_CLOSED, s5_class, q.basepoint))
        b = len(qk.colorings_closed(fx.KNOT_5_2_CLOSED_ALT, s5_class, q.basepoint))
        assert a == b == 7


class TestTangleColorings:
    def test_crossingless_tangle(self):
        d3 = qk.dihedral(3)
        cols = qk.colorings_tangle_boundary_mono(fx.crossingless_tangle(), d3, 1)
        assert len(cols) == 1 and cols[0].strands == ((1,), (1,))

    def test_t62_has_nine(self, a6):
        q = fx.query_t62()
        cols = qk.colorings_tangle_boundary_mono(fx.tangle_t62(), a6, q.basepoint)
        assert len(cols) == 9
        for c in cols:
            assert qk.verify_coloring(c, a6)
            assert c.strands[0][0] == c.strands[0][-1] == q.basepoint
            assert c.strands[1][0] == c.strands[1][-1] == q.basepoint

    def test_interleaved_variant_has_nine_too(self, a6):
        q = fx.query_t62()
        cols = qk.colorings_tangle_boundary_mono(fx.tangle_t62_interleaved(), a6, q.basepoint)
        assert len(cols) == 9

    def test_monochromatic_lower_bound(self):
        d3 = qk.dihedral(3)
        for t in (fx.tangle_t62(), fx.tangle_t62_interleaved(), fx.crossingless_tangle()):
            assert len(qk.colorings_tangle_boundary_mono(t, d3, 0)) >= 1

    def test_matches_brute_force(self):
        d3 = qk.dihedral(3)
        for t in (fx.tangle_t62(), fx.tangle_t62_interleaved()):
            got = [c.strands for c in qk.colorings_tangle_boundary_mono(t, d3, 1)]
            assert got == oracles.brute_colorings_tangle_mono(t, d3, 1)


class TestOracleAgreementSmall:
    @pytest.mark.parametrize("d", [
        fx.UNKNOT_LONG,
        fx.SINGLE_NEGATIVE_KINK,
        fx.SINGLE_POSITIVE_KINK,
        qk.break_at(fx.TREFOIL_CLOSED, 2),
        qk.LongDiagram((4, 3, 1, 2), (1, -1, 1, -1)),
    ])
    def test_long_matches_brute(self, d):
        for q in (qk.dihedral(3), qk.dihedral(4), qk.trivial(3)):
            for basepoint in range(len(q)):
                got = [c.arc_colors for c in qk.colorings_long(d, q, basepoint)]
                assert got == oracles.brute_colorings_long(d, q, basepoint)

    @pytest.mark.parametrize("code", [
        fx.TREFOIL_CLOSED,
        fx.VIRTUAL_WITNESS_CODE,
        qk.ClosedDiagram((2, 1), (1, -1)),
    ])
    def test_closed_matches_brute(self, code):
        for q in (qk.dihedral(3), qk.dihedral(5)):
            got = [c.arc_colors for c in qk.colorings_closed(code, q, 0)]
            assert got == oracles.brute_colorings_closed(code, q, 0)


DIFFERENTIAL_QUANDLES = (qk.dihedral(3), qk.dihedral(4), qk.dihedral(5), qk.trivial(3),
                         qk.parse_quandle_spec("conjclass:S4:(1,2)"))


def _assert_matches_oracles(d, q, basepoint):
    """``_solve`` against the propagating search it replaced and, where feasible,
    brute force, with every pinned end arc colored ``basepoint`` as the library does."""
    system = diagram._compile(d)
    n, preset = sum(system.arcs), dict.fromkeys(system.ends, basepoint)
    rows = coloring._solve(system, basepoint, q)
    assert rows == oracles.propagating_rows(n, system.relations, preset, q)
    if len(q) ** (n - len(preset)) > oracles.BRUTE_LIMIT:
        return
    if isinstance(d, qk.TangleDiagram):
        starts = (0, *itertools.accumulate(system.arcs))
        strands = [tuple(row[lo:hi] for lo, hi in itertools.pairwise(starts)) for row in rows]
        assert strands == oracles.brute_colorings_tangle_mono(d, q, basepoint)
    elif isinstance(d, qk.LongDiagram):
        assert rows == oracles.brute_colorings_long(d, q, basepoint)
    else:
        assert rows == oracles.brute_colorings_closed(d, q, basepoint)


class TestPlannedSearch:
    @settings(max_examples=200, deadline=None)
    @given(fx.codes(), st.sampled_from(DIFFERENTIAL_QUANDLES), st.data())
    def test_matches_propagating_search_and_brute_force(self, d, q, data):
        _assert_matches_oracles(d, q, data.draw(st.integers(0, len(q) - 1)))

    @pytest.mark.parametrize("d, basepoint", [
        (qk.LongDiagram((6, 7, 1, 1, 6, 2), (-1, 1, -1, 1, -1, -1)), 1),
        (qk.LongDiagram((6, 7, 3, 6, 1, 6), (1, 1, 1, 1, -1, -1)), 1),
        (qk.LongDiagram((5, 4, 1, 1), (1, 1, -1, 1)), 0),
        (qk.LongDiagram((5, 4, 1, 2), (-1, -1, 1, -1)), 0),
    ])
    def test_true_solution_set_without_q2(self, d, basepoint):
        # codes whose answer a backward deduction by Q2 once got wrong on a star table
        # paired with a barstar that did not invert it: the first two in the order an
        # old sweep made them (the first lost two of three solutions), the last two
        # where an in-arc solve was run as one (losing two of three, and inventing
        # two). Such a pair can no longer be built, and on every quandle these codes
        # must get their true solution set
        for q in DIFFERENTIAL_QUANDLES:
            _assert_matches_oracles(d, q, basepoint)

    @pytest.mark.parametrize("star, violation", [(fx.NOT_Q2, "x -> x * 0 is not a bijection, Q2"),
                                                 (fx.NOT_Q1, "0 * 0 != 0, Q1")], ids=["not_q2", "not_q1"])
    def test_refuses_tables_failing_q1_or_q2(self, star, violation):
        # the plan relies on both axioms, so a table failing one is refused where it
        # is made, naming the first violation, and no coloring can be asked of it
        with pytest.raises(ValueError, match=re.escape(f"star is not a quandle table ({violation})")):
            qk.FiniteQuandle(("a", "b", "c"), star)

    @settings(max_examples=400, deadline=None)
    @given(fx.q1_q2_tables(4), fx.codes(), st.data())
    def test_any_table_and_relations_match_brute_force(self, q, d, data):
        # tables that satisfy Q1 and Q2 but mostly not Q3, on codes whose relations may
        # repeat arcs, so every forward, backward and repeated-arc step is exercised
        basepoint = data.draw(st.integers(0, len(q) - 1))
        system = diagram._compile(d)
        preset = dict.fromkeys(system.ends, basepoint)
        assert coloring._solve(system, basepoint, q) == oracles.brute_rows(sum(system.arcs), system.relations,
                                                                            preset, q)

    def test_braid_closures_plan_solve_levels_and_match_the_propagating_search(self):
        # random codes of 0-7 crossings seldom leave a relation whose one unknown arc is its
        # over-arc; about one in twelve of these closures and breaks plans a solve level
        solves = []

        @settings(max_examples=150, deadline=None)
        @given(braid_words((3, 4), st.integers(10, 30)), st.sampled_from(DIFFERENTIAL_QUANDLES), st.data())
        def check(braid, q, data):
            c = fx.braid_closure(*braid)
            basepoint = data.draw(st.integers(0, len(q) - 1))
            for d in (c, qk.break_at(c, data.draw(st.integers(1, c.n)))):
                system = diagram._compile(d)
                solves.append(sum(solve is not None for _, _, solve in coloring._plan(system)))
                assert coloring._solve(system, basepoint, q) == oracles.propagating_rows(
                    sum(system.arcs), system.relations, dict.fromkeys(system.ends, basepoint), q)

        check()
        assert sum(solves) > 0

    def test_not_q2_quandle_is_not_a_quandle(self):
        # each refused fixture fails the one axiom it is named after, by brute force
        assert oracles.brute_axioms(fx.NOT_Q2)[:2] == (None, (0,))
        assert oracles.brute_axioms(fx.NOT_Q1)[:2] == ((0,), None)

    def test_deep_chain_is_walked_without_recursion(self):
        # the arc leaving each crossing passes over it: one level per crossing, 2,000 levels deep
        n = 2000
        d = qk.LongDiagram(tuple(range(2, n + 2)), (1,) * n)
        assert len(qk.colorings_long(d, qk.dihedral(3), 0)) == 1

    def test_deep_chain_is_planned_in_near_linear_time(self):
        # the same chain at 20,000 crossings, planned and walked in well under a
        # second; a planner that rescanned every relation at each level would take minutes
        n = 20000
        d = qk.LongDiagram(tuple(range(2, n + 2)), (1,) * n)
        start = time.perf_counter()
        assert len(qk.colorings_long(d, qk.dihedral(3), 0)) == 1
        assert time.perf_counter() - start < 3


# quandles with several orbits under Inn(Q), and one connected quandle whose orbit
# needs more than one row of its table: (1,2) reaches (3,4) only through (1,3)
ORBIT_QUANDLES = tuple(map(qk.parse_quandle_spec, ("dihedral:4", "dihedral:6", "trivial:3", "conjgroup:S4",
                                                   "conjgroup:A4", "conjclass:S4:(1,2)")))
COLORINGS = {qk.LongDiagram: qk.colorings_long, qk.ClosedDiagram: qk.colorings_closed,
             qk.TangleDiagram: qk.colorings_tangle_boundary_mono}


class TestBasepointOrbit:
    def test_orbits_match_the_oracle(self):
        for q in ORBIT_QUANDLES:
            assert [q._orbit(x) for x in range(len(q))] == [tuple(sorted(oracles.color_orbit(q, x)))
                                                             for x in range(len(q))]

    @settings(max_examples=200, deadline=None)
    @given(fx.codes(), st.sampled_from(ORBIT_QUANDLES), st.data())
    def test_colors_stay_in_the_basepoint_orbit(self, d, q, data):
        # every arc is joined to a pinned end arc through in- and out-arcs, so every
        # color lies in the basepoint's orbit; guessing only there loses no coloring
        basepoint = data.draw(st.integers(0, len(q) - 1))
        found = COLORINGS[type(d)](d, q, basepoint)
        orbit = oracles.color_orbit(q, basepoint)
        assert all(x in orbit for c in found for strand in c.strands for x in strand)
        arcs, relations, _, ends = diagram._compile(d)
        assert [sum(c.strands, ()) for c in found] == oracles.propagating_rows(
            sum(arcs), relations, dict.fromkeys(ends, basepoint), q)

    def test_braid_closure_answers_at_once(self, a6):
        # the 29-crossing closure of this 4-braid word, broken at arc 1, plans 3 guesses;
        # trying all 360 colors at each took 39-41 s a basepoint (2-CPU host, Python
        # 3.11), while the orbits of () and (1,2,3) hold 1 and 40 colors
        word = [-1, -1, -2, -3, 1, 2, 3, 2, 3, 2, 1, 3, 2, 2, 3, -2, 3, 2, 3, -2, -1, 3, -1, -1, -3, -2,
                -3, -3, 2]
        d = qk.break_at(fx.braid_closure(word, 4), 1)
        for label in ("()", "(1,2,3)"):
            start = time.perf_counter()
            assert len(qk.colorings_long(d, a6, a6.element_index(label))) == 1
            assert time.perf_counter() - start < 1


def _strands(d, q, basepoint):
    return [c.strands for c in COLORINGS[type(d)](d, q, basepoint)]


def _pushed(f, found):
    """The strands of every coloring with f applied to each color, sorted."""
    return sorted(tuple(tuple(f[x] for x in strand) for strand in strands) for strands in found)


class TestSymmetries:
    """Colorings compared across basepoints and tables that no other test relates: an
    automorphism or a relabeling moves every coloring, so a lost or extra one shows."""

    @settings(max_examples=300, deadline=None)
    @given(fx.codes(), st.sampled_from(ORBIT_QUANDLES + (fx.a5_quandle(),)), st.data())
    def test_colorings_are_equivariant_under_inner_automorphisms(self, d, q, data):
        # alpha = R_y or its inverse is an automorphism under Q3: alpha c colors d at alpha(b)
        # exactly when c colors it at b
        basepoint, y = (data.draw(st.integers(0, len(q) - 1)) for _ in range(2))
        barred = data.draw(st.booleans())
        alpha = tuple(q.op(x, y, barred) for x in range(len(q)))
        assert _strands(d, q, alpha[basepoint]) == _pushed(alpha, _strands(d, q, basepoint))

    @settings(max_examples=300, deadline=None)
    @given(fx.codes(), fx.q1_q2_tables(5), st.data())
    def test_colorings_follow_a_relabeling(self, d, q, data):
        # the indices permuted by sigma, and the table with them, move every coloring by
        # sigma; this needs no Q3
        basepoint = data.draw(st.integers(0, len(q) - 1))
        sigma = data.draw(st.permutations(range(len(q))))
        assert _strands(d, fx.relabeled(q, sigma), sigma[basepoint]) == _pushed(sigma, _strands(d, q, basepoint))


# Q1/Q2 tables that fail Q3, with R_0 = (1 2) moving the orbit {0, 1, 2} of 0.  In the
# first, 0, 1 and 2 form dihedral:3 and act on 3 trivially, and 3 fixes itself and swaps
# 0 and 1: R_0 respects * on the orbit, but not on the table, as (0 * 3) * 0 = 2 and
# (0 * 0) * (3 * 0) = 1.  In the second, R_0 fails on the orbit: (0 * 1) * 0 = 0 and
# (0 * 0) * (1 * 0) = 1
ORBIT_AUTOMORPHISM = qk.FiniteQuandle(tuple("0123"), ((0, 2, 1, 1), (2, 1, 0, 0), (1, 0, 2, 2), (3, 3, 3, 3)))
ORBIT_VIOLATION = qk.FiniteQuandle(tuple("012"), ((0, 0, 1), (2, 1, 0), (1, 2, 2)))


def _r_powers(q, x):
    """R_x^k: y -> y * x applied k times, as image tables, for k below the longest cycle
    of R_x on the orbit of x; and the cycles there, each as its sorted members."""
    orbit = oracles.color_orbit(q, x)
    r = [row[x] for row in q.star]
    cycles = set()
    for y in orbit:
        cycle = [y]
        while r[cycle[-1]] != y:
            cycle.append(r[cycle[-1]])
        cycles.add(tuple(sorted(cycle)))
    powers = [tuple(range(len(q)))]
    while len(powers) < max(map(len, cycles)):
        powers.append(tuple(r[z] for z in powers[-1]))
    return tuple(powers), cycles


class TestLevelOneSymmetry:
    """The search tries one level-1 color per cycle of R_q and carries the rest over by
    R_q; ``FiniteQuandle._symmetry`` decides where that is exact."""

    def test_the_check_is_made_on_the_orbit(self):
        powers, lengths = ORBIT_AUTOMORPHISM._symmetry(0)
        assert powers == ((0, 1, 2, 3), (0, 2, 1, 3)) and lengths == [1, 2, 0, 0]
        assert not oracles.is_automorphism(ORBIT_AUTOMORPHISM, powers[1])
        assert ORBIT_VIOLATION._orbit(0) == (0, 1, 2) and ORBIT_VIOLATION.star[1][0] == 2
        assert ORBIT_VIOLATION._symmetry(0) is None

    @settings(max_examples=200, deadline=None)
    @given(fx.codes(), st.sampled_from((ORBIT_AUTOMORPHISM, ORBIT_VIOLATION)))
    def test_tables_failing_q3_match_brute_force(self, d, q):
        # at 0, the symmetry is used on the first table and refused on the second
        arcs, relations, _, ends = diagram._compile(d)
        assert [sum(c.strands, ()) for c in COLORINGS[type(d)](d, q, 0)] == oracles.brute_rows(
            sum(arcs), relations, dict.fromkeys(ends, 0), q)

    @pytest.mark.parametrize("spec, basepoint", [("conjgroup:A6", "(1,2,3,4)(5,6)"),
                                                 ("psl27", "(1,2,3,4,5,6,7)"),
                                                 ("conjclass:S5:(1,2)(3,4,5)", "(1,2)(3,4,5)")])
    def test_large_orbits_match_the_propagating_search(self, spec, basepoint, a6, s5_class):
        # orbits of 90, 24 and 20 colors, whose R_q has 24, 4 and 5 cycles there; the oracle
        # tries every color at each guess, so A6 draws only codes with one branching level
        q = {"conjgroup:A6": a6, "psl27": fx.PSL27_CLASS}.get(spec, s5_class)
        basepoint = q.element_index(basepoint)
        assert q._symmetry(basepoint) is not None

        @settings(max_examples=100, deadline=None)
        @given(fx.codes())
        def check(d):
            system = diagram._compile(d)
            assume(1 < len(coloring._plan(system)) <= (2 if len(q) > 100 else 4))
            rows = coloring._solve(system, basepoint, q)
            assert len(set(rows)) == len(rows)
            assert rows == oracles.propagating_rows(sum(system.arcs), system.relations,
                                                    dict.fromkeys(system.ends, basepoint), q)

        check()

    @pytest.mark.parametrize("spec, refused", [
        ("conjgroup:A5", {"()"}),
        # the double transpositions commute, so each R_q is the identity on its class
        ("conjgroup:S4", {"()", "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}),
        ("conjclass:S5:(1,2)(3,4,5)", set()),
        ("conjgroup:A6", {"()"}),
        ("trivial:3", {"0", "1", "2"}),
    ])
    def test_spec_quandles_get_the_symmetry(self, spec, refused, a6):
        # a wrong refusal changes no answer, only the speed, so no other test would see it
        q = a6 if spec == "conjgroup:A6" else qk.parse_quandle_spec(spec)
        assert {q.labels[x] for x in range(len(q)) if q._symmetry(x) is None} == refused
        for x in range(len(q)):
            if q.labels[x] not in refused:
                powers, cycles = _r_powers(q, x)
                lengths = [0] * len(q)
                for c in cycles:
                    lengths[c[0]] = len(c)
                assert q._symmetry(x) == (powers, lengths)


@st.composite
def braid_words(draw, strands, lengths, virtual=False):
    """A random braid word on one of ``strands`` strands whose closure is a knot,
    its length drawn from ``lengths`` before letters are added to make it one;
    with ``virtual``, a third of the drawn letters are virtual ("vj")."""
    strands = draw(st.sampled_from(strands))
    length = draw(lengths)
    return fx.knot_word(draw(st.lists(fx.braid_letters(strands, virtual), min_size=length, max_size=length)),
                        strands), strands


def braid_knots():
    """Closures of random 3- and 4-braids with 30-500 crossings."""
    return braid_words((3, 4), st.integers(30, 500)).map(lambda pair: fx.braid_closure(*pair))


@st.composite
def two_strand_tangles(draw, crossings):
    """Two-strand tangles with 0 to ``crossings`` crossings per strand and any
    over-arcs, so virtual ones are included."""
    return fx.draw_tangle(draw, [draw(st.integers(0, crossings)) for _ in range(2)])


# (p, t): the dihedral quandles (t = -1) and some that are not involutory
ALEXANDER = ((3, 2), (5, 4), (7, 6), (5, 2), (7, 3), (7, 5))


class TestAlexanderCounts:
    def test_oracle_gives_determinant_counts(self):
        # dihedral:p colorings with one arc fixed number p^k, k > 0 iff p divides the determinant
        for d, p, count in ((fx.TREFOIL_CLOSED, 3, 3), (fx.TREFOIL_CLOSED, 5, 1), (fx.KNOT_5_2_CLOSED, 7, 7),
                            (fx.KNOT_9_42_CLOSED, 7, 7), (fx.KNOT_6_3_CLOSED, 7, 1)):
            assert oracles.alexander_count(d, p, -1) == count
            assert oracles.alexander_count(qk.break_at(d, 1), p, -1) == count

    @settings(max_examples=30, deadline=None)
    @given(braid_knots(), st.sampled_from(ALEXANDER), st.data())
    def test_large_braid_closures_match_linear_algebra(self, d, pt, data):
        p, t = pt
        q = oracles.alexander_quandle(p, t)
        basepoint = data.draw(st.integers(0, p - 1))
        assert len(qk.colorings_closed(d, q, basepoint)) == oracles.alexander_count(d, p, t)
        long = qk.break_at(d, data.draw(st.integers(1, d.n)))
        assert len(qk.colorings_long(long, q, basepoint)) == oracles.alexander_count(long, p, t)

    @settings(max_examples=150, deadline=None)
    @given(two_strand_tangles(6), st.sampled_from(((3, 2), (5, 2), (7, 3))), st.data())
    def test_tangle_boundary_mono_counts_match_linear_algebra(self, t, pt, data):
        p, unit = pt
        q = oracles.alexander_quandle(p, unit)
        basepoint = data.draw(st.integers(0, p - 1))
        count = len(qk.colorings_tangle_boundary_mono(t, q, basepoint))
        assert count == oracles.alexander_count_tangle_mono(t, p, unit)


FIXED_POINT_QUANDLES = (qk.parse_quandle_spec("conjgroup:S3"), qk.parse_quandle_spec("conjclass:S4:(1,2)"),
                        qk.parse_quandle_spec("conjgroup:A4"))


class TestBraidFixedPoints:
    @settings(max_examples=40, deadline=None)
    @given(braid_words((2, 3, 4), st.integers(13, 60)), st.sampled_from(FIXED_POINT_QUANDLES))
    def test_closure_counts_match_fixed_points(self, braid, q):
        # non-abelian quandles, where the Alexander count does not reach
        d = fx.braid_closure(*braid)
        total = sum(len(qk.colorings_closed(d, q, basepoint)) for basepoint in range(len(q)))
        assert total == oracles.braid_fixed_points(*braid, q)

    @settings(max_examples=40, deadline=None)
    @given(braid_words((2, 3, 4), st.integers(13, 60), virtual=True), st.sampled_from(FIXED_POINT_QUANDLES))
    def test_virtual_closure_counts_match_fixed_points(self, braid, q):
        # a virtual letter swaps two colors and adds no crossing to fixtures.braid_closure's code
        assume(any(isinstance(letter, int) for letter in braid[0]))  # a closed code has a crossing
        d = fx.braid_closure(*braid)
        total = sum(len(qk.colorings_closed(d, q, basepoint)) for basepoint in range(len(q)))
        assert total == oracles.braid_fixed_points(*braid, q)

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(lambda virtual: braid_words((2, 3, 4), st.integers(13, 60), virtual=virtual)),
           st.sampled_from(FIXED_POINT_QUANDLES))
    def test_counts_per_basepoint_match_fixed_points(self, braid, q):
        # classical and virtual words, each basepoint on its own
        assume(any(isinstance(letter, int) for letter in braid[0]))
        d = fx.braid_closure(*braid)
        for basepoint in range(len(q)):
            assert len(qk.colorings_closed(d, q, basepoint)) == oracles.braid_fixed_points(*braid, q, basepoint)


def _mono(shape):
    return tuple((0,) * n for n in shape)


class TestVerifyColoringShapes:
    T62_SHAPE = tuple(len(s) + 1 for s in fx.tangle_t62().strands)

    @pytest.mark.parametrize("d, shape, wrong", [
        (qk.LongDiagram((1,), (1,)), (2,), [(2, 1), (1,), (3,), ()]),
        (fx.TREFOIL_CLOSED, (3,), [(3, 1), (2,), (4,), ()]),
        (fx.tangle_t62(), T62_SHAPE, [
            T62_SHAPE[:1],                                # one strand
            T62_SHAPE + (1,),                             # three strands
            (T62_SHAPE[0] + 1, T62_SHAPE[1] - 1),         # same total, wrong split
            (T62_SHAPE[0], T62_SHAPE[1] + 1),
        ]),
    ], ids=["long", "closed", "tangle"])
    def test_wrong_strand_or_arc_count_is_false(self, d, shape, wrong):
        d3 = qk.dihedral(3)
        assert qk.verify_coloring(qk.Coloring(d, _mono(shape)), d3)
        for bad in wrong:
            assert qk.verify_coloring(qk.Coloring(d, _mono(bad)), d3) is False

    @pytest.mark.parametrize("color", [-1, 3, True, 1.0])
    def test_color_out_of_range_is_false(self, color):
        c = qk.Coloring(qk.LongDiagram((2,), (1,)), ((color, color),))
        assert qk.verify_coloring(c, qk.dihedral(3)) is False

    # the trefoil's coloring (0, 1, 2, 0) with a strand that is no sequence, a color that is
    # no int, and the same colors as floats or bools
    @pytest.mark.parametrize("strands", [(0, 1, 2, 0), ((0, 1, 2, "a"),), ((0.0, 1.0, 2.0, 0.0),),
                                         ((False, True, 2, False),), ((0, 1, 2, 0), 5)])
    def test_malformed_strands_or_colors_are_false(self, strands):
        d, d3 = qk.LongDiagram((3, 1, 2), (1, 1, 1)), qk.dihedral(3)
        assert qk.verify_coloring(qk.Coloring(d, ((0, 1, 2, 0),)), d3)
        assert qk.verify_coloring(qk.Coloring(d, strands), d3) is False
