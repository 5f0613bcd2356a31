"""Acceptance suite: each test covers one numbered criterion at its stated
tolerance (exact values throughout) and prints a pass/fail line."""
from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import quandleknot as qk
import fixtures as fx
import oracles

WITNESS_PATH = Path(__file__).parent / "data" / "virtual_witness.json"


def _report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok


def test_criterion_1_chirality_of_5_2(s5_class):
    started = time.perf_counter()
    query = fx.query_5_2()
    assert len(s5_class) == 20
    colorings = qk.colorings_long(fx.KNOT_5_2_LONG, s5_class, query.basepoint)
    direct = qk.formal_sum(fx.KNOT_5_2_LONG, s5_class, query)
    mirrored = qk.formal_sum(qk.mirror(fx.KNOT_5_2_LONG), s5_class, query)
    verdict = qk.chirality_test(fx.KNOT_5_2_LONG, query)
    elapsed = time.perf_counter() - started
    ok = (
        len(colorings) == 7
        and direct == fx.sum_of(s5_class, {"(1,2,4)(3,5)": 6, "(1,2,3)(4,5)": 1})
        and mirrored == fx.sum_of(s5_class, {"(1,2,5)(3,4)": 6, "(1,2,3)(4,5)": 1})
        and verdict.kind == "distinct"
        and elapsed < 1.0
    )
    _report(f"criterion 1: 5_2 chirality ({elapsed:.2f}s)", ok)


def test_criterion_2_chirality_of_9_42(a5):
    started = time.perf_counter()
    query = fx.query_9_42()
    assert len(a5) == 60
    long_942 = qk.break_at(fx.KNOT_9_42_CLOSED, 1)
    colorings = qk.colorings_long(long_942, a5, query.basepoint)
    direct = qk.formal_sum(long_942, a5, query)
    mirrored = qk.formal_sum(qk.mirror(long_942), a5, query)
    verdict = qk.chirality_test(fx.KNOT_9_42_CLOSED, query)
    elapsed = time.perf_counter() - started
    ok = (
        len(colorings) == 13
        and direct == fx.sum_of(a5, {"(2,3,4)": 7, "(1,4,3)": 6})
        and mirrored == fx.sum_of(a5, {"(2,3,4)": 7, "(1,2,4)": 6})
        and verdict.kind == "distinct"
        and elapsed < 10.0
    )
    _report(f"criterion 2: 9_42 chirality ({elapsed:.2f}s)", ok)


def test_criterion_3_tangle_obstruction(a6):
    started = time.perf_counter()
    query = fx.query_t62()
    assert len(a6) == 360
    tangle = fx.tangle_t62()
    colorings = qk.colorings_tangle_boundary_mono(tangle, a6, query.basepoint)
    s1, s2 = qk.tangle_sums(tangle, a6, query)
    knot_colorings = qk.colorings_long(qk.break_at(fx.KNOT_6_3_CLOSED, 1), a6, query.basepoint)
    verdict = qk.tangle_embedding_obstruction(tangle, fx.KNOT_6_3_CLOSED, query)
    elapsed = time.perf_counter() - started
    expected_tangle_sum = fx.sum_of(a6, {"(1,2,5,3,4)": 8, "(1,2,3,4,5)": 1})
    ok = (
        len(colorings) == 9
        and s1 == expected_tangle_sum
        and s2 == expected_tangle_sum
        and len(knot_colorings) == 33
        and verdict.sums["knot"] == fx.sum_of(a6, {"(1,2,3,4,5)": 33})
        and verdict.kind == "obstructed"
        and elapsed < 120.0
    )
    _report(f"criterion 3: tangle obstruction vs 6_3 ({elapsed:.2f}s)", ok)


def test_criterion_4_basepoint_independence(s5_class):
    d3 = qk.dihedral(3)
    t5 = qk.trivial(5)
    grid = [
        (d3, qk.InvariantQuery(d3, 0, 1)),
        (s5_class, fx.query_5_2()),
        (t5, qk.InvariantQuery(t5, 0, 2)),
    ]
    ok = True
    for code in (fx.KNOT_5_2_CLOSED, fx.TREFOIL_CLOSED):
        for _, query in grid:
            spectrum = qk.basepoint_spectrum(code, query)
            ok = ok and all(qk.sum_equal(spectrum[0], s) for s in spectrum[1:])
    _report("criterion 4: basepoint independence on classical codes", ok)


def test_criterion_5_oracle_equivalence(s5_class):
    ok = True
    # enumerator vs brute force on every small instance
    small_longs = [
        fx.UNKNOT_LONG,
        fx.SINGLE_NEGATIVE_KINK,
        fx.SINGLE_POSITIVE_KINK,
        qk.break_at(fx.TREFOIL_CLOSED, 1),
    ]
    for d in small_longs:
        for quandle in (qk.dihedral(3), qk.dihedral(5), qk.trivial(4)):
            for basepoint in range(len(quandle)):
                got = [c.arc_colors for c in qk.colorings_long(d, quandle, basepoint)]
                ok = ok and got == oracles.brute_colorings_long(d, quandle, basepoint)
    got = [c.arc_colors for c in qk.colorings_closed(fx.TREFOIL_CLOSED, qk.dihedral(3), 0)]
    ok = ok and got == oracles.brute_colorings_closed(fx.TREFOIL_CLOSED, qk.dihedral(3), 0)

    # colored longitudes: composed translations against pointwise word evaluation
    route_checks = [
        (fx.KNOT_5_2_LONG, s5_class, fx.query_5_2().basepoint),
        (qk.break_at(fx.TREFOIL_CLOSED, 1), qk.dihedral(3), 0),
    ]
    for d, quandle, basepoint in route_checks:
        for c in qk.colorings_long(d, quandle, basepoint):
            via_word = qk.colored_longitude(d, quandle, c)
            via_translations = oracles.longitude_by_composed_translations(d, quandle, c)
            ok = ok and via_word == via_translations
    _report("criterion 5: oracle equivalence", ok)


def test_criterion_6_structural_properties(s5_class, a5, a6):
    ok = True
    # axioms: exact on every triple, A_6 included
    for quandle in (qk.trivial(5), qk.dihedral(3), qk.dihedral(6), s5_class, a5,
                    qk.parse_quandle_spec("conjgroup:S3")):
        ok = ok and qk.verify_axioms(quandle).all_ok and len(quandle) <= 60
    report = qk.verify_axioms(a6)
    ok = ok and report.all_ok and report.q3_checked == 360 ** 3

    # every colored longitude is an automorphism; maps q to the final arc color
    fixture_runs = [
        (fx.KNOT_5_2_LONG, s5_class, fx.query_5_2()),
        (qk.break_at(fx.KNOT_9_42_CLOSED, 1), a5, fx.query_9_42()),
        (qk.break_at(fx.KNOT_6_3_CLOSED, 1), a6, fx.query_t62()),
    ]
    for d, quandle, query in fixture_runs:
        colorings = qk.colorings_long(d, quandle, query.basepoint)
        for c in colorings:
            phi = qk.colored_longitude(d, quandle, c)
            ok = ok and qk.is_automorphism(quandle, phi.images)
            ok = ok and phi(query.basepoint) == c.arc_colors[-1]
        s = qk.formal_sum(d, quandle, query)
        ok = ok and s.coefficient(query.act_on) >= 1
        ok = ok and s.mass() == len(colorings)
    _report("criterion 6: structural properties", ok)


@pytest.mark.slow
def test_criterion_6_slow_a6_exhaustive(a6):
    report = qk.verify_axioms(a6)
    ok = report.all_ok and "exhaustive, 46656000 triples): ok" in report.summary()
    _report("criterion 6 (slow tier): A_6 axioms exhaustive", ok)


def test_criterion_7_virtual_witness():
    data = json.loads(WITNESS_PATH.read_text())
    ok = data["found"] is True
    code = qk.parse_diagram(json.dumps(data["code"]))
    quandle = qk.parse_quandle_spec(data["quandle"])
    ok = ok and code.n <= 4 and len(quandle) <= 24
    query = qk.InvariantQuery(quandle, quandle.element_index(data["basepoint"]),
                              quandle.element_index(data["act_on"]))

    # exact re-verification of the committed spectrum
    spectrum = qk.basepoint_spectrum(code, query)
    stored = [{quandle.labels[e]: c for e, c in s.terms} for s in spectrum]
    ok = ok and stored == data["spectrum"]
    ok = ok and any(not qk.sum_equal(spectrum[0], s) for s in spectrum[1:])
    ok = ok and qk.nonclassical_by_basepoints(code, query).kind == "distinct"

    # the structural properties of criterion 6 hold on the witness too
    ok = ok and qk.verify_axioms(quandle).all_ok
    for i in range(1, code.n + 1):
        broken = qk.break_before_underpass(code, i)
        colorings = qk.colorings_long(broken, quandle, query.basepoint)
        s = qk.formal_sum(broken, quandle, query)
        ok = ok and s.mass() == len(colorings)
        for c in colorings:
            phi = qk.colored_longitude(broken, quandle, c)
            ok = ok and qk.is_automorphism(quandle, phi.images)
            ok = ok and phi(query.basepoint) == c.arc_colors[-1]
    _report("criterion 7: recorded virtual witness", ok)


def test_criterion_8_connected_sum_sanity(s5_class):
    d3 = qk.dihedral(3)
    t5 = qk.trivial(5)
    trefoil_long = qk.break_at(fx.TREFOIL_CLOSED, 1)
    queries = [
        (s5_class, fx.query_5_2()),
        (d3, qk.InvariantQuery(d3, 0, 1)),
        (t5, qk.InvariantQuery(t5, 0, 2)),
    ]
    ok = True
    for quandle, query in queries:
        for k1, k2 in [(fx.KNOT_5_2_LONG, trefoil_long),
                       (trefoil_long, trefoil_long),
                       (fx.KNOT_5_2_LONG, fx.KNOT_5_2_LONG)]:
            ab = qk.formal_sum(qk.concat(k1, k2), quandle, query)
            ba = qk.formal_sum(qk.concat(k2, k1), quandle, query)
            ok = ok and qk.sum_equal(ab, ba)
        base = qk.formal_sum(fx.KNOT_5_2_LONG, quandle, query)
        with_unknot = qk.formal_sum(qk.concat(fx.KNOT_5_2_LONG, fx.UNKNOT_LONG), quandle, query)
        unknot_first = qk.formal_sum(qk.concat(fx.UNKNOT_LONG, fx.KNOT_5_2_LONG), quandle, query)
        ok = ok and qk.sum_equal(base, with_unknot) and qk.sum_equal(base, unknot_first)
    _report("criterion 8: connected-sum sanity", ok)
