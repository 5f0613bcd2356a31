from __future__ import annotations

import collections
import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quandleknot as qk
from quandleknot import diagram, longitude
import fixtures as fx
import oracles

SIGNS = st.sampled_from((1, -1))
CLASSICAL_LONG = [fx.UNKNOT_LONG, fx.SINGLE_POSITIVE_KINK, fx.SINGLE_NEGATIVE_KINK, fx.KNOT_5_2_LONG,
                  qk.break_at(fx.TREFOIL_CLOSED, 1), qk.break_at(fx.KNOT_5_2_CLOSED_ALT, 1),
                  qk.break_at(fx.KNOT_6_2_CLOSED, 1), qk.break_at(fx.KNOT_6_3_CLOSED, 2),
                  fx.t62_closure_long()]
CLASSICAL_LONG += [qk.mirror(d) for d in CLASSICAL_LONG]


@st.composite
def random_long_codes(draw):
    """Long codes with 0-7 crossings and any over-arcs, so virtual codes are included."""
    n = draw(st.integers(0, 7))
    return qk.LongDiagram(tuple(draw(st.integers(1, n + 1)) for _ in range(n)),
                          tuple(draw(SIGNS) for _ in range(n)))


@st.composite
def random_closed_codes(draw, crossings):
    """Closed codes with any over-arcs, so virtual codes are included."""
    n = draw(crossings)
    return qk.ClosedDiagram(tuple(draw(st.integers(1, n)) for _ in range(n)),
                            tuple(draw(SIGNS) for _ in range(n)))


LONG_CODES = st.one_of(st.sampled_from(CLASSICAL_LONG), random_long_codes())
S4_GROUP = qk.parse_quandle_spec("conjgroup:S4")
FAMILY_QUANDLES = st.sampled_from((qk.dihedral(3), qk.dihedral(5), qk.parse_quandle_spec("conjclass:S4:(1,2)"),
                                   fx.a5_quandle()))


def with_basepoint(quandles):
    """A quandle drawn from ``quandles`` and a basepoint of it."""
    return quandles.flatmap(lambda q: st.tuples(st.just(q), st.integers(0, len(q) - 1)))


class TestSymbolicLongitude:
    def test_unknot_empty(self):
        assert qk.symbolic_longitude(fx.UNKNOT_LONG).letters == ()

    def test_5_2_word(self):
        sym = qk.symbolic_longitude(fx.KNOT_5_2_LONG)
        # all-negative crossings: under letters unbarred, over letters barred
        assert sym.letters == (
            (1, False), (4, True), (2, False), (5, True), (3, False),
            (2, True), (4, False), (1, True), (5, False), (3, True),
        )
        assert sym.render() == "{x1, x̄4, x2, x̄5, x3, x̄2, x4, x̄1, x5, x̄3}"

    def test_single_positive_kink(self):
        sym = qk.symbolic_longitude(fx.SINGLE_POSITIVE_KINK)
        assert sym.letters == ((1, True), (2, False))
        assert sym.render() == "{x̄1, x2}"


class TestColoredLongitude:
    def test_monochromatic_gives_identity(self, s5_class):
        q = fx.query_5_2()
        mono = qk.Coloring(fx.KNOT_5_2_LONG, ((q.basepoint,) * 6,))
        assert qk.colored_longitude(mono, s5_class) == oracles.identity_automorphism(s5_class)

    def test_unknot_identity(self):
        d3 = qk.dihedral(3)
        mono = qk.Coloring(fx.UNKNOT_LONG, ((1,),))
        assert qk.colored_longitude(mono, d3) == oracles.identity_automorphism(d3)

    @settings(max_examples=200, deadline=None)
    @given(random_long_codes(), with_basepoint(st.one_of(fx.SPEC_QUANDLES, fx.q1_q2_tables(5))))
    @example(fx.KNOT_5_2_LONG, (fx.s5_class_quandle(), fx.query_5_2().basepoint))
    def test_maps_basepoint_to_final_color(self, d, q_and_basepoint):
        # Q1 in both tables: the basepoint folded through each crossing's letters is the next arc's
        # color, virtual codes and tables without Q3 included; _longitudes reads the last color so
        q, basepoint = q_and_basepoint
        for c in qk.colorings_long(d, q, basepoint):
            phi = qk.colored_longitude(c, q)
            assert phi(c.arc_colors[0]) == c.arc_colors[-1]

    def test_composed_translations_agree(self, s5_class):
        # two routes: pointwise word evaluation vs composed translation maps
        q = fx.query_5_2()
        for c in qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint):
            via_word = qk.colored_longitude(c, s5_class)
            via_translations = oracles.longitude_by_composed_translations(
                fx.KNOT_5_2_LONG, s5_class, c)
            assert via_word == via_translations

    def test_all_longitudes_are_automorphisms(self, s5_class):
        q = fx.query_5_2()
        for c in qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint):
            phi = qk.colored_longitude(c, s5_class)
            assert oracles.is_automorphism(s5_class, phi.images)

    # strands of a 4-arc long trefoil: a color past the end, a negative color,
    # a negative color on a second strand, a strand one arc short, colors that are
    # floats, bools or no number, and a strand that is no sequence
    @pytest.mark.parametrize("colors", [((0, 3, 0, 0),), ((0, -1, 0, 0),), ((0, 1), (-1, 0)), ((0, 1, 0),),
                                        ((0.0, 1.0, 2.0, 0.0),), ((False, True, 2, False),), ((0, 1, 2, "a"),),
                                        (0, 1, 2, 0)])
    def test_color_outside_quandle(self, colors):
        d = qk.break_at(fx.TREFOIL_CLOSED, 1)
        with pytest.raises(ValueError, match="outside the quandle|arcs|sequences"):
            qk.colored_longitude(qk.Coloring(d, colors), qk.dihedral(3))

    @pytest.mark.parametrize("colors", [((0, 0, 0, 0), (0, -1, 0, 0)), ((0, 0, 0, 0), (0, 0, 0)),
                                        ((0, 0, 0, 0), (0, 0, 0, 1.0)), ((0, 0, 0, 0), 0)])
    def test_tangle_parts_refuse_a_misshapen_coloring(self, colors):
        t = fx.tangle_t62()  # strands of 4 and 4 arcs
        with pytest.raises(ValueError, match="outside the quandle|arcs|sequences"):
            qk.tangle_longitude_parts(qk.Coloring(t, colors))

    def test_refuses_another_kind_of_diagram(self):
        d3 = qk.dihedral(3)
        tangle = qk.colorings_tangle_boundary_mono(fx.tangle_t62(), d3, 0)[0]
        closed = qk.colorings_closed(fx.TREFOIL_CLOSED, d3, 0)[0]
        for c in (tangle, closed):
            with pytest.raises(ValueError, match="colored_longitude needs a long diagram"):
                qk.colored_longitude(c, d3)
        long = qk.colorings_long(fx.KNOT_5_2_LONG, d3, 0)[0]
        for c in (long, closed):
            with pytest.raises(ValueError, match="tangle_longitude_parts needs a tangle diagram"):
                qk.tangle_longitude_parts(c)
        with pytest.raises(ValueError, match="formal_sum needs a long or closed diagram"):
            qk.formal_sum(fx.tangle_t62(), qk.InvariantQuery(d3, 0, 0))

    def test_trivial_pair_insertion_is_neutral(self, s5_class):
        # inserting (q, q-bar) anywhere leaves the evaluation unchanged
        q = fx.query_5_2()
        letters = qk.symbolic_longitude(fx.KNOT_5_2_LONG).letters
        for c in qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, q.basepoint):
            word = tuple((c.arc_colors[arc - 1], barred) for arc, barred in letters)
            base = oracles.eval_word(s5_class, q.act_on, word)
            for cut in (0, 3, len(word)):
                padded = word[:cut] + ((q.basepoint, False), (q.basepoint, True)) + word[cut:]
                assert oracles.eval_word(s5_class, q.act_on, padded) == base


class TestFamiliesAndSums:
    def test_family_size_is_coloring_count(self, s5_class):
        q = fx.query_5_2()
        fam = qk.longitude_family(fx.KNOT_5_2_LONG, s5_class, q.basepoint)
        assert len(fam) == 7

    def test_5_2_formal_sum(self, s5_class):
        q = fx.query_5_2()
        s = qk.formal_sum(fx.KNOT_5_2_LONG, q)
        assert s == fx.sum_of(s5_class, {"(1,2,4)(3,5)": 6, "(1,2,3)(4,5)": 1})
        assert qk.sum_render(s) == "6 · (1,2,4)(3,5) + (1,2,3)(4,5)"

    def test_5_2_mirror_sum(self, s5_class):
        q = fx.query_5_2()
        s = qk.formal_sum(qk.mirror(fx.KNOT_5_2_LONG), q)
        assert s == fx.sum_of(s5_class, {"(1,2,5)(3,4)": 6, "(1,2,3)(4,5)": 1})

    def test_trivial_quandle_sum(self):
        t5 = qk.trivial(5)
        query = qk.InvariantQuery(t5, 0, 2)
        s = qk.formal_sum(fx.KNOT_5_2_LONG, query)
        assert s.terms == ((2, 1),)
        assert qk.sum_render(s) == "2"

    def test_sum_agrees_across_codes_of_same_knot(self, s5_class):
        q = fx.query_5_2()
        from_primary_code = qk.formal_sum(qk.break_at(fx.KNOT_5_2_CLOSED, 1), q)
        from_braid_code = qk.formal_sum(qk.break_at(fx.KNOT_5_2_CLOSED_ALT, 1), q)
        assert qk.sum_equal(from_primary_code, from_braid_code)

    def test_mass_and_basepoint_coefficient(self, s5_class, a5):
        cases = [
            (fx.KNOT_5_2_LONG, s5_class, fx.query_5_2(), 7),
            (qk.break_at(fx.KNOT_9_42_CLOSED, 1), a5, fx.query_9_42(), 13),
        ]
        for d, quandle, query, count in cases:
            s = qk.formal_sum(d, query)
            assert s.mass() == count == len(qk.colorings_long(d, quandle, query.basepoint))
            assert s.coefficient(query.act_on) >= 1


class TestFormalSumOfClosedCodes:
    """``formal_sum`` breaks a closed diagram at arc 1, as the CLI's ``invariant`` does."""

    def test_virtual_code_sums_its_break_at_arc_1(self):
        # summed over its closed colorings instead of its break, this virtual code gives 0 alone
        c = qk.ClosedDiagram((3, 1, 3), (1, -1, 1))
        query = qk.InvariantQuery(qk.dihedral(3), 0, 0)
        s = qk.formal_sum(c, query)
        assert s == qk.formal_sum(qk.break_at(c, 1), query)
        assert qk.sum_render(s) == "0 + 1 + 2"

    @settings(max_examples=200, deadline=None)
    @given(random_closed_codes(st.integers(2, 6)), st.data())
    def test_equals_the_sum_of_the_break_at_arc_1(self, c, data):
        q = S4_GROUP
        query = qk.InvariantQuery(q, data.draw(st.integers(0, len(q) - 1)), data.draw(st.integers(0, len(q) - 1)))
        assert qk.formal_sum(c, query) == qk.formal_sum(qk.break_at(c, 1), query)


class TestAlexanderSums:
    @settings(max_examples=200, deadline=None)
    @given(LONG_CODES, st.sampled_from(((3, 2), (5, 2), (5, 3), (7, 3), (7, 5))), st.data())
    def test_sum_is_the_point_or_the_uniform_sum_linear_algebra_predicts(self, d, pt, data):
        p, t = pt
        q = oracles.alexander_quandle(p, t)
        basepoint, x = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
        s = qk.formal_sum(d, qk.InvariantQuery(q, basepoint, x))
        assert dict(s.terms) == oracles.alexander_sum(d, p, t, x)


class TestBatchedEvaluation:
    """The fold of every element at once against ``eval_word`` run once per coloring and element."""

    @settings(max_examples=200, deadline=None)
    @given(LONG_CODES, FAMILY_QUANDLES, st.data())
    def test_family_matches_elementwise_evaluation(self, d, q, data):
        basepoint = data.draw(st.integers(0, len(q) - 1))
        family = qk.longitude_family(d, q, basepoint)
        assert [a.images for a in family.members] == oracles.longitude_family_images(d, q, basepoint)
        act_on = data.draw(st.integers(0, len(q) - 1))
        images = [a.images[act_on] for a in family.members]
        assert qk.formal_sum(d, qk.InvariantQuery(q, basepoint, act_on)) == qk.FormalSum.from_elements(q, images)

    @pytest.mark.parametrize("q", [qk.dihedral(3), fx.a5_quandle(), fx.s5_class_quandle()])
    def test_empty_word_gives_identity(self, q):
        family = qk.longitude_family(fx.UNKNOT_LONG, q, 1)
        assert family.members == (oracles.identity_automorphism(q),)

    @pytest.mark.parametrize("t, k, query", [
        (fx.tangle_t62(), fx.KNOT_6_3_CLOSED, fx.query_t62),
        (fx.tangle_t62(), fx.t62_closure_long(), fx.query_t62),
        (fx.tangle_t62(), fx.KNOT_6_3_CLOSED, fx.query_5_2),
        (fx.tangle_t62_interleaved(), fx.KNOT_5_2_LONG, fx.query_5_2),
        (fx.tangle_t62_interleaved(), fx.KNOT_6_3_CLOSED, fx.query_t62),
    ])
    def test_tangle_families_match_elementwise_evaluation(self, t, k, query):
        query = query()
        q = query.quandle
        _, _, (w1, w2), _ = diagram._compile(t)
        rows = [sum(c.strands, ()) for c in qk.colorings_tangle_boundary_mono(t, q, query.basepoint)]
        batched = [[longitude._images(q, word, row) for row in rows] for word in (w1 + w2, w2 + w1)]
        assert batched == list(oracles.tangle_order_images(t, q, query.basepoint))
        # S1 and S2 are the act-on column of the two orders' images
        sums = qk.tangle_sums(t, query)
        assert sums == tuple(qk.FormalSum.from_elements(q, (img[query.act_on] for img in order))
                             for order in batched)

    @pytest.mark.parametrize("basepoint, act_on, message", [
        (3, 0, "basepoint index 3 out of range"), (-1, 0, "basepoint index -1 out of range"),
        (0, 3, "act-on index 3 out of range"), (0, -1, "act-on index -1 out of range"),
        (True, 0, "basepoint index must be an int, got True"),
        (np.int64(1), 0, "basepoint index must be an int, got np.int64(1)"),
        (0, 1.0, "act-on index must be an int, got 1.0")])
    def test_query_refuses_an_index_outside_its_quandle(self, basepoint, act_on, message):
        # the sums read every index from the query, so this is the one check they need;
        # an index that is not exactly an int would be copied into the colorings
        with pytest.raises(ValueError, match=re.escape(message)):
            qk.InvariantQuery(qk.dihedral(3), basepoint, act_on)


@st.composite
def spliced_over_arcs(draw):
    """Over-arcs of 0-3 random long codes concatenated, then perhaps one entry redrawn
    anywhere in 1..n+1, which may join pieces or leave only one half of a cut's test."""
    over: list[int] = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 4))
        over += [len(over) + draw(st.integers(1, k + 1)) for _ in range(k)]
    if over and draw(st.booleans()):
        over[draw(st.integers(0, len(over) - 1))] = draw(st.integers(1, len(over) + 1))
    return tuple(over)


# a virtual factor whose colorings at 0 under dihedral:5 end on every element
OFF_BASEPOINT = qk.LongDiagram((3, 4, 1), (1, 1, 1))


def record_searches(monkeypatch) -> list[int]:
    """The crossing counts of the diagrams ``longitude`` searches from now on, in order."""
    searched, colorings_long = [], longitude.colorings_long

    def recording(d, q, basepoint):
        searched.append(d.n)
        return colorings_long(d, q, basepoint)

    monkeypatch.setattr(longitude, "colorings_long", recording)
    return searched


class TestConnectedSumFamilies:
    """``longitude_family`` composes the longitudes of the pieces a long code splits into."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(spliced_over_arcs(), random_long_codes().map(lambda d: d.over_arc)), st.data())
    def test_pieces_split_where_a_scan_of_every_p_finds(self, over, data):
        d = qk.LongDiagram(over, tuple(data.draw(SIGNS) for _ in over))
        n = len(over)
        brute = [p for p in range(1, n) if all(a <= p + 1 for a in over[:p]) and all(a >= p + 1 for a in over[p:])]
        assert list(itertools.accumulate(piece.n for piece in d._pieces)) == brute + [n]
        assert functools.reduce(qk.concat, d._pieces) == d

    def test_pieces_of_a_concatenation(self):
        trefoil = qk.break_at(fx.TREFOIL_CLOSED, 1)
        d = qk.concat(qk.concat(trefoil, fx.UNKNOT_LONG), fx.KNOT_5_2_LONG)
        assert d._pieces == (trefoil, fx.KNOT_5_2_LONG)
        assert d._pieces is d._pieces  # kept on the object, like its relation system
        for prime in (fx.UNKNOT_LONG, fx.SINGLE_POSITIVE_KINK, fx.KNOT_5_2_LONG):
            assert prime._pieces[0] is prime and len(prime._pieces) == 1

    def test_family_of_a_concatenation_searches_only_its_pieces(self, monkeypatch):
        searched = record_searches(monkeypatch)
        trefoil, witness = qk.break_at(fx.TREFOIL_CLOSED, 1), qk.break_at(fx.VIRTUAL_WITNESS_CODE, 1)
        for codes, q in (((trefoil, fx.KNOT_5_2_LONG), fx.s5_class_quandle()),
                         ((witness, fx.KNOT_5_2_LONG, trefoil), qk.dihedral(5)),
                         ((OFF_BASEPOINT, witness, OFF_BASEPOINT), qk.dihedral(5))):
            searched.clear()
            qk.longitude_family(functools.reduce(qk.concat, codes), q, 0)
            assert searched and max(searched) <= max(code.n for code in codes)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(random_long_codes(), min_size=1, max_size=3), fx.SPEC_QUANDLES, st.data())
    def test_family_of_a_concatenation_matches_elementwise_evaluation(self, codes, q, data):
        # virtual factors included, so a coloring of a factor may end off the basepoint
        d = functools.reduce(qk.concat, codes)
        basepoint = data.draw(st.integers(0, len(q) - 1))
        family = qk.longitude_family(d, q, basepoint)
        assert [a.images for a in family.members] == oracles.longitude_family_images(d, q, basepoint)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(LONG_CODES, st.lists(random_long_codes(), min_size=2, max_size=3).map(
        lambda codes: functools.reduce(qk.concat, codes))), fx.SPEC_QUANDLES, st.data())
    def test_family_is_equivariant_under_inner_automorphisms(self, d, q, data):
        # alpha = R_y or its inverse is an automorphism under Q3: alpha c colors d at alpha(b),
        # with longitude alpha phi alpha^-1, for each coloring c at b with longitude phi
        basepoint, y = data.draw(st.integers(0, len(q) - 1)), data.draw(st.integers(0, len(q) - 1))
        barred = data.draw(st.booleans())
        alpha = tuple(q.op(x, y, barred) for x in range(len(q)))
        alpha_inv = tuple(q.op(x, y, not barred) for x in range(len(q)))
        conjugated = sorted(tuple(alpha[phi(alpha_inv[x])] for x in range(len(q)))
                            for phi in qk.longitude_family(d, q, basepoint).members)
        moved = qk.longitude_family(d, q, alpha[basepoint])
        assert [a.images for a in moved.members] == conjugated


def factor_codes():
    """A long code that concatenates 1-3 random long codes, virtual ones included."""
    return st.lists(random_long_codes(), min_size=1, max_size=3).map(lambda codes: functools.reduce(qk.concat, codes))


def codes_and_quandle(count, quandles):
    """``count`` factor codes and a quandle drawn from ``quandles``, or ``count`` single random codes
    and the PSL(2,7) class, under which one code can have 64 colorings: concatenations of three
    would leave the brute-force oracles up to 64^3 colorings."""
    return st.one_of(st.tuples(*[factor_codes()] * count, quandles),
                     st.tuples(*[random_long_codes()] * count, st.just(fx.PSL27_CLASS)))


class TestConnectedSumsFromFactors:
    """``connected_sum_commutativity`` composes its factors' longitudes, searching neither concatenation."""

    @staticmethod
    def check_against_the_concatenations(k1, k2, query):
        # a coloring of a#b at b0 is a coloring c of a at b0 and one of b at c's last color,
        # with longitude "a's, then b's"; the last color may differ from b0 for a virtual a
        q, b0 = query.quandle, query.basepoint
        oracle = {}
        for a, b in ((k1, k2), (k2, k1)):
            composed = []
            family_a = longitude._longitudes((a,), q, b0, {})
            ends = collections.Counter()
            for phi_a, n_a in family_a.items():
                ends[phi_a[b0]] += n_a
            assert ends == collections.Counter(c.arc_colors[-1] for c in qk.colorings_long(a, q, b0))
            for phi_a, n_a in family_a.items():
                for phi_b, n_b in longitude._longitudes((b,), q, phi_a[b0], {}).items():
                    composed += [tuple(phi_b[phi_a[x]] for x in range(len(q)))] * (n_a * n_b)
            oracle[a, b] = oracles.longitude_family_images(qk.concat(a, b), q, b0)
            assert sorted(composed) == oracle[a, b]
        verdict = qk.connected_sum_commutativity(k1, k2, query)
        s_ab, s_ba = qk.formal_sum(qk.concat(k1, k2), query), qk.formal_sum(qk.concat(k2, k1), query)
        assert (verdict.sums["K1#K2"], verdict.sums["K2#K1"]) == (s_ab, s_ba)
        differ = s_ab != s_ba or oracle[k1, k2] != oracle[k2, k1]
        assert verdict.kind == ("distinct" if differ else "inconclusive")

    @settings(max_examples=200, deadline=None)
    @given(codes_and_quandle(2, fx.SPEC_QUANDLES), st.data())
    def test_composed_families_and_verdict_match_the_concatenations(self, codes, data):
        k1, k2, q = codes
        basepoint, act_on = (data.draw(st.integers(0, len(q) - 1)) for _ in range(2))
        self.check_against_the_concatenations(k1, k2, qk.InvariantQuery(q, basepoint, act_on))

    @settings(max_examples=200, deadline=None)
    @given(factor_codes(), factor_codes(), fx.q1_q2_tables(5), st.data())
    def test_composition_needs_only_q1_and_q2(self, k1, k2, q, data):
        # without Q3 the family of K2 at another basepoint is not a conjugate of the one at b0,
        # so these tables also tell K2 colored at the first factor's last color from K2 colored at b0
        basepoint, act_on = (data.draw(st.integers(0, len(q) - 1)) for _ in range(2))
        self.check_against_the_concatenations(k1, k2, qk.InvariantQuery(q, basepoint, act_on))

    def test_a_first_factor_that_ends_off_the_basepoint(self):
        q = qk.dihedral(5)
        assert {phi[0] for phi in longitude._longitudes((OFF_BASEPOINT,), q, 0, {})} == set(range(5))
        for k2 in (qk.break_at(fx.VIRTUAL_WITNESS_CODE, 1), fx.KNOT_5_2_LONG, OFF_BASEPOINT):
            for act_on in range(5):
                self.check_against_the_concatenations(OFF_BASEPOINT, k2, qk.InvariantQuery(q, 0, act_on))
        # a table without Q3, where coloring the second factor at 0 instead would change the sums
        q = qk.FiniteQuandle(("0", "1", "2"), ((0, 2, 1), (1, 1, 0), (2, 0, 2)))
        k1, k2 = qk.LongDiagram((4, 4, 2), (1, 1, 1)), qk.LongDiagram((3, 1), (1, 1))
        assert {phi[0] for phi in longitude._longitudes((k1,), q, 0, {})} != {0}
        for act_on in range(3):
            self.check_against_the_concatenations(k1, k2, qk.InvariantQuery(q, 0, act_on))

    def test_the_families_decide_where_the_sums_agree(self):
        # a table without Q3 under which K1#K2 and K2#K1 have different families but equal sums at 0
        q = qk.FiniteQuandle(tuple("0123"), ((0, 3, 1, 1), (3, 1, 3, 2), (1, 0, 2, 0), (2, 2, 0, 3)))
        k1, k2 = qk.LongDiagram((4, 2, 1), (-1, 1, -1)), qk.LongDiagram((4, 3, 1), (-1, 1, 1))
        query = qk.InvariantQuery(q, 0, 0)
        verdict = qk.connected_sum_commutativity(k1, k2, query)
        assert verdict.kind == "distinct" and verdict.sums["K1#K2"] == verdict.sums["K2#K1"]
        self.check_against_the_concatenations(k1, k2, query)

    def test_no_concatenation_is_searched(self, monkeypatch):
        searched = record_searches(monkeypatch)
        trefoil, witness = qk.break_at(fx.TREFOIL_CLOSED, 1), qk.break_at(fx.VIRTUAL_WITNESS_CODE, 1)
        for k1, k2, query in ((fx.KNOT_5_2_LONG, trefoil, fx.query_5_2()),
                              (witness, fx.KNOT_5_2_LONG, qk.InvariantQuery(qk.dihedral(5), 0, 1)),
                              (OFF_BASEPOINT, witness, qk.InvariantQuery(qk.dihedral(5), 0, 2))):
            searched.clear()
            qk.connected_sum_commutativity(k1, k2, query)
            assert searched and max(searched) <= max(piece.n for piece in k1._pieces + k2._pieces)

    @settings(max_examples=150, deadline=None)
    @given(factor_codes(), factor_codes(), fx.SPEC_QUANDLES, st.data())
    def test_verdict_is_equivariant_under_inner_automorphisms(self, k1, k2, q, data):
        # alpha = R_y or its inverse is an automorphism under Q3, so the sums at (alpha(b), alpha(x))
        # are alpha pushed forward over those at (b, x); this reads the factors at other basepoints
        basepoint, act_on, y = (data.draw(st.integers(0, len(q) - 1)) for _ in range(3))
        barred = data.draw(st.booleans())
        alpha = tuple(q.op(x, y, barred) for x in range(len(q)))
        verdict = qk.connected_sum_commutativity(k1, k2, qk.InvariantQuery(q, basepoint, act_on))
        moved = qk.connected_sum_commutativity(k1, k2, qk.InvariantQuery(q, alpha[basepoint], alpha[act_on]))
        assert moved.kind == verdict.kind
        for name, s in verdict.sums.items():
            assert dict(moved.sums[name].terms) == {alpha[e]: c for e, c in s.terms}


class TestCountedStates:
    """``_longitudes`` keeps longitude images -> number of colorings; a state's last color is
    its image of the basepoint."""

    @settings(max_examples=200, deadline=None)
    @given(codes_and_quandle(1, st.one_of(fx.SPEC_QUANDLES, fx.q1_q2_tables(5))), st.data())
    def test_counts_match_the_colorings(self, codes, data):
        d, q = codes
        basepoint = data.draw(st.integers(0, len(q) - 1))
        states = longitude._longitudes((d,), q, basepoint, {})
        colorings = qk.colorings_long(d, q, basepoint)
        assert sum(states.values()) == len(colorings)
        expanded = sorted(itertools.chain.from_iterable([image] * n for image, n in states.items()))
        assert expanded == oracles.longitude_family_images(d, q, basepoint)
        ends = collections.Counter()
        for image, n in states.items():
            ends[image[basepoint]] += n
        assert ends == collections.Counter(c.arc_colors[-1] for c in colorings)

    @settings(max_examples=200, deadline=None)
    @given(random_long_codes(), random_long_codes(), with_basepoint(st.one_of(fx.SPEC_QUANDLES, st.just(fx.PSL27_CLASS))))
    @example(fx.PSL27_K1_LONG, fx.PSL27_K2_LONG, (fx.PSL27_CLASS, fx.PSL27_CLASS.element_index("(1,2,3,4,5,6,7)")))
    def test_family_of_a_concatenation_is_the_convolution_of_its_factors(self, a, b, q_and_basepoint):
        # under Q3 a longitude phi_a is an automorphism, so b colored at phi_a(q) is phi_a
        # applied to a coloring of b at q with longitude phi_b, and the composed longitude is
        # phi_a phi_b phi_a^-1 after phi_a: x -> phi_a(phi_b(x)), over the factors' families at q.
        # Random pairs rarely tell this from phi_b(phi_a(x)); the example's pair does
        q, basepoint = q_and_basepoint
        family_a, family_b = (collections.Counter(oracles.longitude_family_images(f, q, basepoint))
                              for f in (a, b))
        convolution = collections.Counter()
        for phi_a, n_a in family_a.items():
            for phi_b, n_b in family_b.items():
                convolution[tuple(phi_a[y] for y in phi_b)] += n_a * n_b
        assert longitude._longitudes((qk.concat(a, b),), q, basepoint, {}) == convolution

    def test_equal_longitudes_are_composed_once(self, monkeypatch):
        # under A5 at (1,2,3) the 7^4 colored longitudes of 3_1#3_1#3_1#3_1 are one automorphism
        q = fx.a5_quandle()
        b = q.element_index("(1,2,3)")
        trefoil = qk.break_at(fx.TREFOIL_CLOSED, 1)
        half = qk.concat(trefoil, trefoil)
        d = qk.concat(half, half)
        picks, pick = [], longitude._pick
        monkeypatch.setattr(longitude, "_pick", lambda seq, keys: picks.append(keys) or pick(seq, keys))
        memo = {}
        states = longitude._longitudes((d,), q, b, memo)
        made = len(picks)
        assert sum(states.values()) == 2401 and len(states) == 1
        # one pick per letter of each piece coloring, then at most one per (distinct state, distinct piece pair)
        folds = sum(2 * piece.n * sum(counted.values()) for piece, known in memo.items() for counted in known.values())
        pairs = sum(len(memo[piece][phi[b]]) for i, piece in enumerate(d._pieces[1:], 1)
                    for phi in longitude._longitudes(d._pieces[:i], q, b, memo))
        assert (folds, pairs) == (42, 3)
        assert made - folds <= pairs
        family = qk.longitude_family(d, q, b)
        assert len(family) == 2401 and len({phi.images for phi in family.members}) == 1
        verdict = qk.connected_sum_commutativity(half, half, qk.InvariantQuery(q, b, b))
        assert [s.mass() for s in verdict.sums.values()] == [2401, 2401]


def _sums(d, query):
    return qk.tangle_sums(d, query) if isinstance(d, qk.TangleDiagram) else (qk.formal_sum(d, query),)


def _pushed(f, sums):
    """Each sum's terms with f applied to every element."""
    return [{f[e]: c for e, c in s.terms} for s in sums]


class TestSumSymmetries:
    """``formal_sum`` and ``tangle_sums`` move with the query under inner automorphisms and
    relabelings, on codes of every kind, virtual ones included."""

    @settings(max_examples=200, deadline=None)
    @given(fx.codes(), fx.SPEC_QUANDLES, st.data())
    def test_sums_are_equivariant_under_inner_automorphisms(self, d, q, data):
        # alpha = R_y or its inverse is an automorphism under Q3, so the sums at
        # (alpha(b), alpha(x)) are alpha pushed forward over those at (b, x)
        basepoint, act_on, y = (data.draw(st.integers(0, len(q) - 1)) for _ in range(3))
        barred = data.draw(st.booleans())
        alpha = tuple(q.op(x, y, barred) for x in range(len(q)))
        moved = _sums(d, qk.InvariantQuery(q, alpha[basepoint], alpha[act_on]))
        assert [dict(s.terms) for s in moved] == _pushed(alpha, _sums(d, qk.InvariantQuery(q, basepoint, act_on)))

    @settings(max_examples=200, deadline=None)
    @given(fx.codes(), fx.q1_q2_tables(5), st.data())
    def test_sums_follow_a_relabeling(self, d, q, data):
        # the indices permuted by sigma, and the table with them, push every sum forward by
        # sigma; this needs no Q3
        basepoint, act_on = (data.draw(st.integers(0, len(q) - 1)) for _ in range(2))
        sigma = data.draw(st.permutations(range(len(q))))
        moved = _sums(d, qk.InvariantQuery(fx.relabeled(q, sigma), sigma[basepoint], sigma[act_on]))
        assert [dict(s.terms) for s in moved] == _pushed(sigma, _sums(d, qk.InvariantQuery(q, basepoint, act_on)))


class TestSumAlgebra:
    def test_inclusion_reflexive_and_empty(self, s5_class):
        s = qk.formal_sum(fx.KNOT_5_2_LONG, fx.query_5_2())
        empty = qk.FormalSum(s5_class, ())
        assert qk.sum_included(s, s)
        assert qk.sum_included(empty, s)
        assert not qk.sum_included(s, empty)

    def test_inclusion_fails_across_elements(self, a6):
        x = fx.query_t62().act_on
        other = a6.element_index("(1,2,5,3,4)")
        a = qk.FormalSum(a6, tuple(sorted([(other, 8), (x, 1)])))
        b = qk.FormalSum(a6, ((x, 33),))
        assert not qk.sum_included(a, b)
        assert qk.sum_included(qk.FormalSum(a6, ((x, 9),)), b)

    def test_comparisons_refuse_sums_over_different_quandles(self):
        # the element indices of one quandle mean nothing in another
        a, b = (qk.formal_sum(fx.UNKNOT_LONG, qk.InvariantQuery(qk.dihedral(p), 0, 0)) for p in (3, 5))
        assert a.terms == b.terms and a != b
        for compare in (qk.sum_equal, qk.sum_included):
            with pytest.raises(ValueError, match="different quandles"):
                compare(a, b)
        # an equal quandle built apart is the same quandle
        assert qk.sum_equal(a, qk.formal_sum(fx.UNKNOT_LONG, qk.InvariantQuery(qk.dihedral(3), 0, 0)))

    def test_render_orders_by_coefficient(self, s5_class):
        s = qk.FormalSum(s5_class, tuple(sorted([(0, 1), (3, 5)])))
        rendered = qk.sum_render(s)
        assert rendered.startswith("5 · ") and " + " in rendered

    def test_render_empty(self, s5_class):
        assert qk.sum_render(qk.FormalSum(s5_class, ())) == "0"

    @pytest.mark.parametrize("counts, message", [
        ({0: 0, 1: 2}, "count must be a positive int, got 0"),
        ({1: -1}, "count must be a positive int, got -1"),
        ({1: 2.0}, "count must be a positive int, got 2.0"),
        ({1: True}, "count must be a positive int, got True"),
        ({3: 1}, "element index 3 out of range"),
        ({-1: 1}, "element index -1 out of range"),
        ({"0": 1}, "element index must be an int, got '0'"),
        ({False: 1}, "element index must be an int, got False"),
    ])
    def test_from_counts_refuses_what_is_not_a_term(self, counts, message):
        # a zero count once made a sum that differed from the same sum without it, and rendered as "0 · 0"
        d3 = qk.dihedral(3)
        with pytest.raises(ValueError, match=f"^formal sum {re.escape(message)}$"):
            qk.FormalSum.from_counts(d3, counts)
        assert qk.FormalSum.from_counts(d3, {1: 2, 0: 1}).terms == ((0, 1), (1, 2))

    def test_from_elements_refuses_what_is_not_an_element(self):
        # an out-of-range element once passed here and raised an IndexError later
        with pytest.raises(ValueError, match="^formal sum element index 5 out of range$"):
            qk.FormalSum.from_elements(qk.dihedral(3), [0, 5])

    def test_json_map(self, s5_class):
        s = qk.formal_sum(fx.KNOT_5_2_LONG, fx.query_5_2())
        assert oracles.sum_to_json(s) == '{"(1,2,3)(4,5)": 1, "(1,2,4)(3,5)": 6}'


class TestTangleLongitudes:
    def test_crossingless_parts_empty(self):
        d3 = qk.dihedral(3)
        t = fx.crossingless_tangle()
        c = qk.colorings_tangle_boundary_mono(t, d3, 0)[0]
        assert qk.tangle_longitude_parts(c) == ((), ())

    def test_interleaved_part_structure(self, a6):
        # strand 1 word: own arcs 1,2,3 unbarred, other strand's arcs 3,4,2 barred
        q = fx.query_t62()
        t = fx.tangle_t62_interleaved()
        for c in qk.colorings_tangle_boundary_mono(t, a6, q.basepoint):
            s1, s2 = c.strands
            w1, w2 = qk.tangle_longitude_parts(c)
            assert w1 == ((s1[0], False), (s2[2], True), (s1[1], False),
                          (s2[3], True), (s1[2], False), (s2[1], True))
            assert w2 == ((s2[0], False), (s1[2], True), (s2[1], False),
                          (s1[3], True), (s2[2], False), (s1[1], True))

    def test_uncrossed_second_strand_leaves_the_long_word(self, s5_class):
        # strand 1 carries 5_2's crossings, strand 2 is crossingless and never
        # crossed: strand 1's part must be 5_2's colored longitude word
        d, q = fx.KNOT_5_2_LONG, fx.query_5_2()
        t = qk.TangleDiagram((tuple(qk.TangleCrossing(1, a, s) for a, s in zip(d.over_arc, d.sign)), ()))
        tangle_cols = qk.colorings_tangle_boundary_mono(t, s5_class, q.basepoint)
        long_cols = qk.colorings_long(d, s5_class, q.basepoint)
        assert [c.strands[0] for c in tangle_cols] == [c.arc_colors for c in long_cols]
        for tc, lc in zip(tangle_cols, long_cols):
            colors = lc.arc_colors
            word = tuple(letter for i in range(d.n) for letter in (
                (colors[i], d.sign[i] > 0), (colors[d.over_arc[i] - 1], d.sign[i] < 0)))
            w1, w2 = qk.tangle_longitude_parts(tc)
            assert (w1, w2) == (word, ())
            images = tuple(oracles.eval_word(s5_class, x, w1) for x in range(len(s5_class)))
            assert images == qk.colored_longitude(lc, s5_class).images

    def test_t62_sums(self, a6):
        q = fx.query_t62()
        s1, s2 = qk.tangle_sums(fx.tangle_t62(), q)
        expected = fx.sum_of(a6, {"(1,2,5,3,4)": 8, "(1,2,3,4,5)": 1})
        assert s1 == expected and s2 == expected
        assert s1.mass() == 9

    def test_crossingless_sums(self):
        d3 = qk.dihedral(3)
        query = qk.InvariantQuery(d3, 0, 2)
        s1, s2 = qk.tangle_sums(fx.crossingless_tangle(), query)
        assert s1.terms == s2.terms == ((2, 1),)

    def test_part_concatenation_evaluates_like_closure(self, a6):
        # closing the tangle with trivial arcs turns word1+word2 into the
        # closure's longitude; the sums must agree
        q = fx.query_t62()
        s1, _ = qk.tangle_sums(fx.tangle_t62(), q)
        closure_sum = qk.formal_sum(fx.t62_closure_long(), q)
        assert qk.sum_included(s1, closure_sum)
