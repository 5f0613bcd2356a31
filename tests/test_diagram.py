from __future__ import annotations

import json

import pytest

import quandleknot as qk
from quandleknot import coloring, diagram
import fixtures as fx


class TestJsonCodec:
    @pytest.mark.parametrize("d", [
        fx.UNKNOT_LONG,
        fx.KNOT_5_2_LONG,
        fx.KNOT_5_2_CLOSED,
        fx.KNOT_9_42_CLOSED,
        fx.tangle_t62(),
        fx.tangle_t62_interleaved(),
        fx.crossingless_tangle(),
    ])
    def test_round_trip(self, d):
        text = qk.serialize_diagram(d)
        assert qk.parse_diagram(text) == d
        assert type(qk.parse_diagram(text)) is type(d)
        assert qk.serialize_diagram(qk.parse_diagram(text)) == text

    def test_fig_style_long_json(self):
        d = qk.parse_diagram('{"kind":"long","over_arc":[4,5,2,1,3],"sign":[-1,-1,-1,-1,-1]}')
        assert d == fx.KNOT_5_2_LONG

    def test_unknot_json(self):
        d = qk.parse_diagram('{"kind":"long","over_arc":[],"sign":[]}')
        assert d == fx.UNKNOT_LONG and d.n == 0

    def test_tangle_json_shape(self):
        obj = json.loads(qk.serialize_diagram(fx.tangle_t62()))
        assert obj["kind"] == "tangle"
        assert obj["strands"][1]["crossings"][0] == {"over_strand": 2, "over_arc": 3, "sign": -1}

    @pytest.mark.parametrize("bad", [
        "not json",
        '{"over_arc": []}',
        '{"kind":"weird","over_arc":[],"sign":[]}',
        '{"kind":"long","over_arc":[3],"sign":[-1]}',        # over-arc outside 1..2
        '{"kind":"long","over_arc":[1],"sign":[2]}',
        '{"kind":"closed","over_arc":[],"sign":[]}',          # closed needs n >= 1
        '{"kind":"closed","over_arc":[4,1,2],"sign":[1,1,1]}',
        '{"kind":"tangle","strands":[{"crossings":[{"over_strand":3,"over_arc":1,"sign":1}]},{"crossings":[]}]}',
        '{"kind":"tangle","strands":[{"crossings":[{"over_strand":2,"over_arc":2,"sign":1}]},{"crossings":[]}]}',
    ])
    def test_validation_errors(self, bad):
        with pytest.raises(ValueError):
            qk.parse_diagram(bad)

    @pytest.mark.parametrize("kind, over_arc, sign, message", [
        ("closed", [], [], "^closed diagrams need at least one crossing$"),
        ("long", [4, 1], [1, 1], r"^over-arc reference outside 1\.\.3$"),
        ("closed", [1, 4, 2], [1, 1, 1], r"^over-arc reference outside 1\.\.3$"),
        ("long", [1, 2], [1], "^over_arc and sign must have equal length$"),
        ("closed", [1, 2], [1, 0], r"^signs must be \+1 or -1$"),
    ])
    def test_validation_messages(self, kind, over_arc, sign, message):
        text = json.dumps({"kind": kind, "over_arc": over_arc, "sign": sign})
        with pytest.raises(ValueError, match=message):
            qk.parse_diagram(text)

    @pytest.mark.parametrize("strands, name", [
        ([{"crossings": ""}, {"crossings": []}], "crossings"),
        ([{"crossings": {}}, {"crossings": []}], "crossings"),
        ([{"crossings": [1]}, {"crossings": []}], "crossings"),
        ("ab", "strands"),
        ({"crossings": []}, "strands"),
        ([[], {"crossings": []}], "strands"),
    ])
    def test_tangle_strands_and_crossings_must_be_lists_of_objects(self, strands, name):
        # an empty string or object was once read as a strand without crossings
        text = json.dumps({"kind": "tangle", "strands": strands})
        with pytest.raises(ValueError, match=f"^malformed diagram JSON: {name} must be a list of objects$"):
            qk.parse_diagram(text)

    @pytest.mark.parametrize("make, expected", [
        (lambda: qk.LongDiagram((1.5,), (1,)), ValueError),
        (lambda: qk.LongDiagram((2.0,), (1,)), ValueError),
        (lambda: qk.LongDiagram((True,), (1,)), ValueError),
        (lambda: qk.ClosedDiagram((1,), (1.0,)), ValueError),
        (lambda: qk.TangleDiagram(((qk.TangleCrossing(2, 1.0, 1),), ())), ValueError),
        (lambda: qk.TangleDiagram(((qk.TangleCrossing(2.0, 1, 1),), ())), ValueError),
        (lambda: qk.TangleDiagram(((qk.TangleCrossing(1, 1, -1.0),), ())), ValueError),
        (lambda: qk.concat(qk.LongDiagram([2], [1]), qk.LongDiagram([1], [-1])), qk.LongDiagram((2, 2), (1, -1))),
        (lambda: qk.connected_sum_commutativity(qk.LongDiagram([2], [1]), qk.LongDiagram([1, 3], [1, -1]),
                                                qk.InvariantQuery(qk.dihedral(3), 0, 1)).kind, "inconclusive"),
        (lambda: qk.TangleDiagram([[qk.TangleCrossing(2, 1, 1)], []]).strands, ((qk.TangleCrossing(2, 1, 1),), ())),
    ], ids=["long-1.5", "long-2.0", "long-True", "closed-sign-1.0", "tangle-arc-1.0", "tangle-strand-2.0",
            "tangle-sign--1.0", "concat-lists", "connected-sum-lists", "tangle-lists"])
    def test_codes_hold_tuples_of_ints(self, make, expected):
        # a float or bool index or sign once passed validation, and a float then broke the search;
        # codes given as lists broke concat and hashing
        if expected is ValueError:
            with pytest.raises(ValueError):
                make()
        else:
            assert make() == expected

    def test_kinds_with_equal_fields_differ(self):
        long, closed = qk.LongDiagram((1, 2), (1, -1)), qk.ClosedDiagram((1, 2), (1, -1))
        assert long != closed and closed != long
        assert (long.num_arcs, closed.num_arcs) == (3, 2)
        assert repr(long) == "LongDiagram(over_arc=(1, 2), sign=(1, -1))"
        assert repr(closed) == "ClosedDiagram(over_arc=(1, 2), sign=(1, -1))"


class TestMirror:
    @pytest.mark.parametrize("d", [fx.KNOT_5_2_LONG, fx.KNOT_6_3_CLOSED, fx.tangle_t62(), fx.UNKNOT_LONG])
    def test_involution(self, d):
        assert qk.mirror(qk.mirror(d)) == d
        assert type(qk.mirror(d)) is type(d)

    def test_mirror_of_5_2(self):
        m = qk.mirror(fx.KNOT_5_2_LONG)
        assert m.over_arc == (4, 5, 2, 1, 3)
        assert m.sign == (1, 1, 1, 1, 1)

    def test_unknot_fixed(self):
        assert qk.mirror(fx.UNKNOT_LONG) == fx.UNKNOT_LONG


class TestBreakAndClose:
    def test_close_then_break_at_one(self):
        c = fx.KNOT_5_2_CLOSED
        assert qk.close_long(qk.break_at(c, 1)) == c

    def test_break_close_is_rotation(self):
        c = fx.KNOT_6_3_CLOSED
        n = c.n
        for r in range(1, n + 1):
            rotated = qk.close_long(qk.break_at(c, r))
            expected_over = tuple((c.over_arc[(r - 1 + k) % n] - r) % n + 1 for k in range(n))
            expected_sign = tuple(c.sign[(r - 1 + k) % n] for k in range(n))
            assert rotated == qk.ClosedDiagram(expected_over, expected_sign)

    def test_break_counts(self):
        c = fx.KNOT_9_42_CLOSED
        for r in range(1, c.n + 1):
            for broken in (qk.break_at(c, r), qk.break_before_underpass(c, r)):
                assert broken.n == c.n and broken.num_arcs == c.n + 1

    def test_break_conventions_differ_on_hosted_overpasses(self):
        # arc 1 of the witness code hosts two over-passages
        c = fx.VIRTUAL_WITNESS_CODE
        start = qk.break_at(c, 1)
        end = qk.break_before_underpass(c, 1)
        assert 1 in start.over_arc and c.n + 1 not in start.over_arc
        assert c.n + 1 in end.over_arc and 1 not in end.over_arc

    def test_close_unknot_rejected(self):
        with pytest.raises(ValueError):
            qk.close_long(fx.UNKNOT_LONG)

    def test_break_range(self):
        with pytest.raises(ValueError):
            qk.break_at(fx.TREFOIL_CLOSED, 4)

    def test_close_rewrites_final_arc(self):
        closed = qk.close_long(fx.KNOT_5_2_LONG)
        assert closed.over_arc == fx.KNOT_5_2_LONG.over_arc  # no reference to arc 6 here
        kink = qk.close_long(fx.SINGLE_NEGATIVE_KINK)
        assert kink == qk.ClosedDiagram((1,), (-1,))


class TestConcat:
    def test_unknot_identity(self):
        d = fx.KNOT_5_2_LONG
        assert qk.concat(d, fx.UNKNOT_LONG) == d
        assert qk.concat(fx.UNKNOT_LONG, d) == d

    def test_counts_add(self):
        d = qk.concat(fx.KNOT_5_2_LONG, fx.KNOT_5_2_LONG)
        assert d.n == 10 and d.num_arcs == 11
        assert d.over_arc[5:] == tuple(a + 5 for a in fx.KNOT_5_2_LONG.over_arc)

    def test_associative(self):
        a, b, c = fx.KNOT_5_2_LONG, fx.SINGLE_POSITIVE_KINK, qk.break_at(fx.TREFOIL_CLOSED, 2)
        left = qk.concat(qk.concat(a, b), c)
        right = qk.concat(a, qk.concat(b, c))
        assert left == right
        assert qk.serialize_diagram(left) == qk.serialize_diagram(right)


class TestSignedGauss:
    def test_single_negative_kink(self):
        d = qk.from_signed_gauss("long: U1- O1-")
        assert d == fx.SINGLE_NEGATIVE_KINK

    def test_empty_long_is_unknot(self):
        assert qk.from_signed_gauss("long:") == fx.UNKNOT_LONG

    def test_empty_closed_rejected(self):
        with pytest.raises(ValueError, match="^closed diagrams need at least one crossing$"):
            qk.from_signed_gauss("")

    @pytest.mark.parametrize("bad", [
        "O1+ O1+ U1+ U1+",      # label twice as O
        "O1+ U1-",              # sign mismatch
        "O1+ U2+",              # unpaired labels
        "O1* U1*",              # malformed token
    ])
    def test_errors(self, bad):
        with pytest.raises(ValueError):
            qk.from_signed_gauss(bad)

    @pytest.mark.parametrize("d", [
        fx.TREFOIL_CLOSED,
        fx.KNOT_6_3_CLOSED,
        fx.KNOT_9_42_CLOSED,
        fx.KNOT_5_2_LONG,
        fx.SINGLE_NEGATIVE_KINK,
        fx.UNKNOT_LONG,
    ])
    def test_round_trip_identity_on_diagrams(self, d):
        assert qk.from_signed_gauss(qk.to_signed_gauss(d)) == d

    def test_canonical_text_round_trip(self):
        text = qk.to_signed_gauss(fx.KNOT_6_3_CLOSED)
        assert qk.to_signed_gauss(qk.from_signed_gauss(text)) == text

    def test_relabeling_is_canonicalized(self):
        # same trefoil with scrambled labels and a rotated starting point
        scrambled = qk.from_signed_gauss("O7+ U9+ O9+ U4+ O4+ U7+")
        assert scrambled == qk.from_signed_gauss(qk.to_signed_gauss(scrambled))
        assert scrambled.n == 3


class TestBraidProvenance:
    """The committed fixture codes must equal their braid-word derivations."""

    def test_fixture_codes_match_braids(self):
        assert fx.TREFOIL_CLOSED == qk.ClosedDiagram((3, 1, 2), (1, 1, 1))
        assert fx.KNOT_6_2_CLOSED == qk.ClosedDiagram((4, 6, 1, 2, 3, 5), (1, -1, 1, 1, -1, 1))
        assert fx.KNOT_6_3_CLOSED == qk.ClosedDiagram((4, 5, 1, 6, 3, 2), (1, -1, 1, -1, -1, 1))
        assert fx.KNOT_9_42_CLOSED == qk.ClosedDiagram(
            (8, 4, 6, 1, 7, 3, 1, 2, 4), (1, -1, 1, -1, -1, 1, 1, 1, -1))

    def test_braid_closure_rejects_links(self):
        with pytest.raises(ValueError):
            fx.braid_closure([1, 1], 2)  # two components

    def test_determinant_signature_of_fixtures(self):
        # dihedral(p) coloring counts pin |det|: nontrivial iff p divides det
        cases = [
            (fx.TREFOIL_CLOSED, {3: 3, 5: 1, 7: 1, 11: 1, 13: 1}),
            (fx.KNOT_5_2_CLOSED, {3: 1, 5: 1, 7: 7, 11: 1, 13: 1}),
            (fx.KNOT_5_2_CLOSED_ALT, {3: 1, 5: 1, 7: 7, 11: 1, 13: 1}),
            (fx.KNOT_6_2_CLOSED, {3: 1, 5: 1, 7: 1, 11: 11, 13: 1}),
            (fx.KNOT_6_3_CLOSED, {3: 1, 5: 1, 7: 1, 11: 1, 13: 13}),
            (fx.KNOT_9_42_CLOSED, {3: 1, 5: 1, 7: 7, 11: 1, 13: 1}),
        ]
        for code, profile in cases:
            for p, expected in profile.items():
                got = len(qk.colorings_closed(code, qk.dihedral(p), 0))
                assert got == expected, f"dihedral({p}) on {code}: {got} != {expected}"


def _fresh(d):
    """An equal long or closed diagram object that has built nothing yet."""
    return type(d)(d.over_arc, d.sign)


class TestRelationSystem:
    """Every layer reads a diagram's relation system from one build kept on the diagram object."""

    @pytest.mark.parametrize("call, objects", [
        (lambda query: qk.formal_sum(_fresh(fx.KNOT_5_2_LONG), query), 1),
        (lambda query: qk.formal_sum(_fresh(fx.KNOT_6_3_CLOSED), query), 1),  # the code broken at arc 1
        (lambda query: qk.longitude_family(_fresh(fx.KNOT_5_2_LONG), query.quandle, query.basepoint), 1),
        (lambda query: qk.tangle_sums(fx.tangle_t62(), query), 1),
        (lambda query: qk.chirality_test(_fresh(fx.KNOT_5_2_CLOSED), query), 2),  # it and its mirror, broken
        (lambda query: qk.basepoint_spectrum(_fresh(fx.KNOT_9_42_CLOSED), query), 9),  # one break per arc
    ], ids=["formal_sum-long", "formal_sum-closed", "longitude_family", "tangle_sums", "chirality_test",
            "basepoint_spectrum"])
    def test_each_diagram_object_builds_once(self, monkeypatch, call, objects):
        built, found = [], []  # kept alive, so distinct objects keep distinct ids
        build, colorings = diagram._build, coloring._colorings

        def counted_build(d):
            built.append(d)
            return build(d)

        def recorded_colorings(*args):
            result = colorings(*args)
            found.extend(result)
            return result

        monkeypatch.setattr(diagram, "_build", counted_build)
        monkeypatch.setattr(coloring, "_colorings", recorded_colorings)
        query = fx.query_5_2()
        call(query)
        assert found and all(qk.verify_coloring(c, query.quandle) for c in found)
        assert len(built) == objects
        assert len(set(map(id, built))) == objects
