from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import quandleknot as qk
import fixtures as fx

WITNESS_PATH = Path(__file__).parent / "data" / "virtual_witness.json"
FIXTURE_LONG = (fx.UNKNOT_LONG, fx.SINGLE_POSITIVE_KINK, fx.SINGLE_NEGATIVE_KINK, fx.KNOT_5_2_LONG,
                qk.break_at(fx.TREFOIL_CLOSED, 1), fx.t62_closure_long(),
                qk.break_at(fx.VIRTUAL_WITNESS_CODE, 1), qk.break_at(fx.VIRTUAL_WITNESS_CODE, 2))
# every right translation an involution, so barstar is star
INVOLUTORY = tuple(qk.parse_quandle_spec(spec) for spec in (
    "dihedral:3", "dihedral:5", "dihedral:7", "conjclass:S4:(1,2)", "conjclass:S5:(1,2)(3,4)"))


class TestChirality:
    def test_5_2_distinct(self, s5_class):
        verdict = qk.chirality_test(fx.KNOT_5_2_LONG, fx.query_5_2())
        assert verdict.kind == "distinct"
        assert verdict.sums["diagram"] == fx.sum_of(s5_class, {"(1,2,4)(3,5)": 6, "(1,2,3)(4,5)": 1})
        assert verdict.sums["mirror"] == fx.sum_of(s5_class, {"(1,2,5)(3,4)": 6, "(1,2,3)(4,5)": 1})

    def test_closed_input_breaks_at_one(self, s5_class):
        long_verdict = qk.chirality_test(fx.KNOT_5_2_LONG, fx.query_5_2())
        closed_verdict = qk.chirality_test(fx.KNOT_5_2_CLOSED, fx.query_5_2())
        assert closed_verdict.kind == long_verdict.kind == "distinct"
        assert closed_verdict.sums["diagram"] == long_verdict.sums["diagram"]

    def test_9_42_distinct_with_exact_sums(self, a5):
        verdict = qk.chirality_test(fx.KNOT_9_42_CLOSED, fx.query_9_42())
        assert verdict.kind == "distinct"
        assert verdict.sums["diagram"] == fx.sum_of(a5, {"(2,3,4)": 7, "(1,4,3)": 6})
        assert verdict.sums["mirror"] == fx.sum_of(a5, {"(2,3,4)": 7, "(1,2,4)": 6})

    def test_unknot_inconclusive(self):
        d3 = qk.dihedral(3)
        verdict = qk.chirality_test(fx.UNKNOT_LONG, qk.InvariantQuery(d3, 0, 1))
        assert verdict.kind == "inconclusive"

    def test_symmetric_under_mirror(self, s5_class):
        q = fx.query_5_2()
        a = qk.chirality_test(fx.KNOT_5_2_LONG, q)
        b = qk.chirality_test(qk.mirror(fx.KNOT_5_2_LONG), q)
        assert a.kind == b.kind == "distinct"
        assert a.sums["diagram"] == b.sums["mirror"]
        assert a.sums["mirror"] == b.sums["diagram"]

    @settings(max_examples=150, deadline=None)
    @given(fx.codes(), st.sampled_from(INVOLUTORY), st.data())
    def test_involutory_quandles_never_certify(self, d, q, data):
        # mirror only flips signs, and with *bar equal to * that changes neither the relations
        # nor the longitude folds; tangles, which chirality_test refuses, keep their sums too
        assert q.barstar is q.star
        query = qk.InvariantQuery(q, data.draw(st.integers(0, len(q) - 1)), data.draw(st.integers(0, len(q) - 1)))
        if isinstance(d, qk.TangleDiagram):
            assert qk.tangle_sums(d, query) == qk.tangle_sums(qk.mirror(d), query)
            return
        verdict = qk.chirality_test(d, query)
        assert verdict.kind == "inconclusive" and verdict.sums["diagram"] == verdict.sums["mirror"]

    def test_witness_reverifies(self, s5_class):
        q = fx.query_5_2()
        verdict = qk.chirality_test(fx.KNOT_5_2_LONG, q)
        recomputed = qk.formal_sum(fx.KNOT_5_2_LONG, q)
        assert qk.sum_equal(verdict.sums["diagram"], recomputed)


class TestTangleObstruction:
    def test_t62_does_not_embed_in_6_3(self, a6):
        q = fx.query_t62()
        verdict = qk.tangle_embedding_obstruction(fx.tangle_t62(), fx.KNOT_6_3_CLOSED, q)
        assert verdict.kind == "obstructed"
        assert verdict.sums["knot"] == fx.sum_of(a6, {"(1,2,3,4,5)": 33})
        expected = fx.sum_of(a6, {"(1,2,5,3,4)": 8, "(1,2,3,4,5)": 1})
        assert verdict.sums["S1"] == expected and verdict.sums["S2"] == expected

    def test_crossingless_tangle_never_obstructed(self):
        d3 = qk.dihedral(3)
        query = qk.InvariantQuery(d3, 0, 1)
        verdict = qk.tangle_embedding_obstruction(
            fx.crossingless_tangle(), fx.TREFOIL_CLOSED, query)
        assert verdict.kind == "inconclusive"

    def test_embedded_tangle_is_inconclusive(self, a6):
        # the tangle trivially embeds into the closure of itself
        q = fx.query_t62()
        verdict = qk.tangle_embedding_obstruction(fx.tangle_t62(), fx.t62_closure_long(), q)
        assert verdict.kind == "inconclusive"

    def test_monotone_safety_small_quandles(self):
        for quandle in (qk.dihedral(3), qk.dihedral(5)):
            query = qk.InvariantQuery(quandle, 0, 1)
            verdict = qk.tangle_embedding_obstruction(fx.tangle_t62(), fx.t62_closure_long(), query)
            assert verdict.kind == "inconclusive"


class TestBasepointSpectrum:
    def test_classical_spectra_constant(self, s5_class):
        grid = [
            (fx.KNOT_5_2_CLOSED, s5_class, fx.query_5_2()),
            (fx.KNOT_5_2_CLOSED, qk.dihedral(3), qk.InvariantQuery(qk.dihedral(3), 0, 1)),
            (fx.TREFOIL_CLOSED, qk.dihedral(3), qk.InvariantQuery(qk.dihedral(3), 0, 1)),
        ]
        for code, quandle, query in grid:
            spectrum = qk.basepoint_spectrum(code, query)
            assert len(spectrum) == code.n
            assert all(qk.sum_equal(spectrum[0], s) for s in spectrum[1:])
            verdict = qk.nonclassical_by_basepoints(code, query)
            assert verdict.kind == "inconclusive"

    def test_committed_witness_reverifies_exactly(self):
        data = json.loads(WITNESS_PATH.read_text())
        assert data["found"]
        code = qk.parse_diagram(json.dumps(data["code"]))
        quandle = qk.parse_quandle_spec(data["quandle"])
        query = qk.InvariantQuery(
            quandle,
            quandle.element_index(data["basepoint"]),
            quandle.element_index(data["act_on"]),
        )
        spectrum = qk.basepoint_spectrum(code, query)
        stored = [s.by_label() for s in spectrum]
        assert stored == data["spectrum"]
        verdict = qk.nonclassical_by_basepoints(code, query)
        assert verdict.kind == "distinct"

    def test_witness_code_matches_fixture_constant(self):
        data = json.loads(WITNESS_PATH.read_text())
        assert qk.parse_diagram(json.dumps(data["code"])) == fx.VIRTUAL_WITNESS_CODE


class TestConnectedSum:
    def test_unknot_is_neutral(self, s5_class):
        q = fx.query_5_2()
        verdict = qk.connected_sum_commutativity(fx.KNOT_5_2_LONG, fx.UNKNOT_LONG, q)
        assert verdict.kind == "inconclusive"
        base = qk.formal_sum(fx.KNOT_5_2_LONG, q)
        assert qk.sum_equal(verdict.sums["K1#K2"], base)
        assert qk.sum_equal(verdict.sums["K2#K1"], base)

    def test_equal_arguments(self, s5_class):
        q = fx.query_5_2()
        verdict = qk.connected_sum_commutativity(fx.KNOT_5_2_LONG, fx.KNOT_5_2_LONG, q)
        assert verdict.kind == "inconclusive"

    def test_classical_grid_commutes(self, s5_class):
        trefoil_long = qk.break_at(fx.TREFOIL_CLOSED, 1)
        queries = [
            fx.query_5_2(),
            qk.InvariantQuery(qk.dihedral(3), 0, 2),
            qk.InvariantQuery(qk.trivial(5), 0, 3),
        ]
        for query in queries:
            verdict = qk.connected_sum_commutativity(fx.KNOT_5_2_LONG, trefoil_long, query)
            assert verdict.kind == "inconclusive"

    def test_psl27_witness_separates_the_orders(self):
        q = fx.PSL27_CLASS
        b = q.element_index("(1,2,3,4,5,6,7)")
        for x in range(len(q)):
            query = qk.InvariantQuery(q, b, x)
            verdict = qk.connected_sum_commutativity(fx.PSL27_K1_LONG, fx.PSL27_K2_LONG, query)
            assert verdict.kind == "distinct"
            assert verdict.sums["K1#K2"] == qk.formal_sum(qk.concat(fx.PSL27_K1_LONG, fx.PSL27_K2_LONG), query)
            assert verdict.sums["K2#K1"] == qk.formal_sum(qk.concat(fx.PSL27_K2_LONG, fx.PSL27_K1_LONG), query)
        # at the basepoint the two sums differ only in which element has coefficient 7
        verdict = qk.connected_sum_commutativity(fx.PSL27_K1_LONG, fx.PSL27_K2_LONG, qk.InvariantQuery(q, b, b))
        s_ab, s_ba = verdict.sums["K1#K2"].by_label(), verdict.sums["K2#K1"].by_label()
        assert {e: c for e, c in s_ab.items() if s_ba.get(e) != c} == {"(1,5,2,6,3,7,4)": 7}
        assert {e: c for e, c in s_ba.items() if s_ab.get(e) != c} == {"(1,3,5,7,2,4,6)": 7}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIXTURE_LONG), st.sampled_from(FIXTURE_LONG),
           st.sampled_from((qk.dihedral(3), qk.parse_quandle_spec("conjclass:S4:(1,2)"), fx.s5_class_quandle())),
           st.data())
    def test_reported_sums_are_formal_sums(self, k1, k2, q, data):
        # the sums are read off the longitude families, without a search of their own
        query = qk.InvariantQuery(q, data.draw(st.integers(0, len(q) - 1)), data.draw(st.integers(0, len(q) - 1)))
        verdict = qk.connected_sum_commutativity(k1, k2, query)
        assert verdict.sums["K1#K2"] == qk.formal_sum(qk.concat(k1, k2), query)
        assert verdict.sums["K2#K1"] == qk.formal_sum(qk.concat(k2, k1), query)


def _verdicts(d, k, query):
    """Every verdict that takes d: the tangle obstruction of a tangle d in the knot k, the
    chirality test of a long or closed d, and the basepoint test of a closed d."""
    if isinstance(d, qk.TangleDiagram):
        return [qk.tangle_embedding_obstruction(d, k, query)]
    if isinstance(d, qk.ClosedDiagram):
        return [qk.chirality_test(d, query), qk.nonclassical_by_basepoints(d, query)]
    return [qk.chirality_test(d, query)]


def _pushed(verdicts, f=None):
    """Each verdict's kind, and each of its sums with f, if given, applied to every element."""
    return [(v.kind, {name: {(e if f is None else f[e]): c for e, c in s.terms} for name, s in v.sums.items()})
            for v in verdicts]


KNOTS = fx.codes().filter(lambda d: not isinstance(d, qk.TangleDiagram))


class TestVerdictSymmetries:
    """Verdicts move with the query under inner automorphisms and relabelings, on codes of
    every kind, virtual ones included: the same kind, and every sum pushed forward."""

    @settings(max_examples=150, deadline=None)
    @given(fx.codes(), KNOTS, fx.SPEC_QUANDLES, st.data())
    def test_verdicts_are_equivariant_under_inner_automorphisms(self, d, k, q, data):
        # alpha = R_y or its inverse is an automorphism under Q3
        basepoint, act_on, y = (data.draw(st.integers(0, len(q) - 1)) for _ in range(3))
        barred = data.draw(st.booleans())
        alpha = tuple(q.op(x, y, barred) for x in range(len(q)))
        moved = _verdicts(d, k, qk.InvariantQuery(q, alpha[basepoint], alpha[act_on]))
        assert _pushed(moved) == _pushed(_verdicts(d, k, qk.InvariantQuery(q, basepoint, act_on)), alpha)

    @settings(max_examples=150, deadline=None)
    @given(fx.codes(), KNOTS, fx.SPEC_QUANDLES, st.data())
    def test_verdicts_follow_a_relabeling(self, d, k, q, data):
        basepoint, act_on = (data.draw(st.integers(0, len(q) - 1)) for _ in range(2))
        sigma = data.draw(st.permutations(range(len(q))))
        moved = _verdicts(d, k, qk.InvariantQuery(fx.relabeled(q, sigma), sigma[basepoint], sigma[act_on]))
        assert _pushed(moved) == _pushed(_verdicts(d, k, qk.InvariantQuery(q, basepoint, act_on)), sigma)


class TestVerdictSerialization:
    def test_json_stable(self, s5_class):
        verdict = qk.chirality_test(fx.KNOT_5_2_LONG, fx.query_5_2())
        a, b = verdict.to_json(), verdict.to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["verdict"] == "distinct"
        assert payload["sums"]["diagram"]["(1,2,4)(3,5)"] == 6

    def test_render_mentions_verdict(self, s5_class):
        verdict = qk.chirality_test(fx.KNOT_5_2_LONG, fx.query_5_2())
        assert "verdict: distinct" in verdict.render()
