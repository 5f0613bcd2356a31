from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quandleknot as qk
from quandleknot import permgroup as pg
import fixtures as fx
import oracles

DATA = Path(__file__).parent / "data"
A4_CLASS = qk.parse_quandle_spec("conjclass:A4:(1,2,3)")  # four elements, not involutory


class TestConstructors:
    def test_single_element_conjugation(self):
        q = qk.from_conjugation(pg.element_set([pg.parse_cycles("(1,2)", 3)]))
        assert len(q) == 1
        assert q.star == ((0,),) and q.barstar == ((0,),)

    def test_s5_class_quandle(self, s5_class):
        assert len(s5_class) == 20
        assert qk.verify_axioms(s5_class).all_ok

    def test_closure_violation_reports_pair(self):
        bad = pg.ElementSet(3, tuple(sorted([pg.parse_cycles("(1,2)", 3),
                                             pg.parse_cycles("(1,3)", 3)])))
        with pytest.raises(ValueError, match=r"\(1,2\)|\(1,3\)"):
            qk.from_conjugation(bad)

    def test_dihedral_basics(self):
        assert len(qk.dihedral(1)) == 1
        d3 = qk.dihedral(3)
        assert d3.star[0][1] == 2
        assert d3.star == d3.barstar
        assert qk.verify_axioms(d3).all_ok
        with pytest.raises(ValueError):
            qk.dihedral(0)

    @pytest.mark.parametrize("i, j, message", [
        (-1, 0, "element index -1 out of range"), (0, 3, "element index 3 out of range"),
        (True, 0, "element index must be an int, got True"), (0, 1.0, "element index must be an int, got 1.0")])
    def test_op_refuses_what_is_not_an_element_index(self, i, j, message):
        # a negative index once wrapped around: dihedral(3).op(-1, 0) read row 2
        for barred in (False, True):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                qk.dihedral(3).op(i, j, barred)

    @pytest.mark.parametrize("i, message", [
        (-1, "element index -1 out of range"), (3, "element index 3 out of range"),
        (False, "element index must be an int, got False")])
    def test_automorphism_refuses_what_is_not_an_element_index(self, i, message):
        f = qk.Automorphism(qk.dihedral(3), (0, 2, 1))
        assert [f(x) for x in range(3)] == [0, 2, 1]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            f(i)

    def test_trivial_basics(self):
        assert len(qk.trivial(1)) == 1
        t4 = qk.trivial(4)
        assert t4.star[2][3] == 2
        assert qk.verify_axioms(t4).all_ok

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            qk.FiniteQuandle(("a", "a"), ((0, 0), (1, 1)))

    @pytest.mark.parametrize("labels, named", [
        ((1, "1"), "1"),  # quandle_to_json would write a file that quandle_from_json refuses
        ((" a", "a"), "' a'"),  # element_index(" a") strips its input and would return 1
        (("a", "b\n"), "'b\\n'"),
        ((["a"], "b"), "['a']"),  # not hashable either
    ])
    def test_labels_must_be_unpadded_strings(self, labels, named):
        with pytest.raises(ValueError, match=re.escape(f"labels must be strings without surrounding whitespace, "
                                                       f"got {named}")):
            qk.FiniteQuandle(labels, ((0, 0), (1, 1)))

    def test_array_tables_equal_tuple_tables(self, s5_class):
        for dtype in (np.int64, np.uint16):
            from_array = qk.FiniteQuandle(s5_class.labels, np.array(s5_class.star, dtype=dtype), degree=5)
            assert from_array == s5_class and from_array.barstar == s5_class.barstar
            assert all(type(row) is tuple for table in (from_array.star, from_array.barstar) for row in table)
        assert qk.FiniteQuandle(s5_class.labels, s5_class.star, degree=5) == s5_class

    def test_three_table_call_refused(self, s5_class):
        # the old (labels, star, barstar) form must not store barstar as the degree
        with pytest.raises(TypeError):
            qk.FiniteQuandle(s5_class.labels, s5_class.star, s5_class.barstar)
        with pytest.raises(TypeError):
            qk.FiniteQuandle(s5_class.labels, s5_class.star, 5)

    @pytest.mark.parametrize("degree", ["5", 5.0, True, -1, None])
    def test_degree_must_be_a_non_negative_int(self, s5_class, degree):
        with pytest.raises(ValueError, match="degree must be a non-negative integer"):
            qk.FiniteQuandle(s5_class.labels, s5_class.star, degree=degree)

    @pytest.mark.parametrize("star, match", [
        (((0.0, 0.0), (1.0, 1.0)), "star entries must be integers"),
        (((False, False), (True, True)), "star entries must be integers"),
        (np.zeros((2, 2)), "star entries must be integers"),
        ((("0", "0"), ("1", "1")), "star entries must be integers"),
        (((0, 0), (1,)), "star must be a 2 x 2 table"),
        (((0, 0), (1, 1), (1, 1)), "star must be a 2 x 2 table"),
        (np.zeros((2, 2, 1), dtype=int), "star must be a 2 x 2 table"),
        (((0, 0), (1, 2)), "star entry out of range"),
        (np.array([[0, -1], [1, 1]]), "star entry out of range"),
    ])
    def test_misshapen_tables_refused(self, star, match):
        with pytest.raises(ValueError, match=match):
            qk.FiniteQuandle(("a", "b"), star)


def _assert_matches_oracle(elements: pg.ElementSet):
    """Same tables, or the same closure error for a set that is not closed."""
    try:
        expected = oracles.conjugation_tables(elements)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            qk.from_conjugation(elements)
        assert str(got.value) == str(exc)
        return
    q = qk.from_conjugation(elements)
    assert (q.labels, q.star, q.barstar) == expected


class TestConjugationBuild:
    """The vectorized table build against the per-entry oracle."""

    @pytest.mark.parametrize("group", ["S3", "S4", "S5", "A3", "A4", "A5"])
    def test_named_groups_match_oracle(self, group):
        _assert_matches_oracle(pg.close_under_generators(pg.group_generators(group)))

    @pytest.mark.parametrize("group, element", [
        ("S5", "(1,2)(3,4,5)"),
        ("S6", "(1,2)(3,4)(5,6)"),
        ("S6", "(1,2,3)(4,5)"),
    ])
    def test_conjugacy_classes_match_oracle(self, group, element):
        gens = pg.group_generators(group)
        _assert_matches_oracle(pg.conjugacy_class(pg.parse_cycles(element, gens.degree), gens))

    def test_gens_spec_matches_oracle(self):
        q = qk.parse_quandle_spec("conjclass:gens:(1,2);(1,2,3,4,5):(1,2)(3,4,5)")
        gens = pg.element_set([pg.parse_cycles("(1,2)", 5), pg.parse_cycles("(1,2,3,4,5)", 5)])
        elements = pg.conjugacy_class(pg.parse_cycles("(1,2)(3,4,5)", 5), gens)
        assert (q.labels, q.star, q.barstar) == oracles.conjugation_tables(elements)

    @pytest.mark.parametrize("n", [15, 16, 17])
    def test_high_degrees_match_oracle(self, n):
        # row keys are 4n-byte strings; degrees past 15 also occur in gens: specs
        rotation = pg.Permutation(tuple(range(2, n + 1)) + (1,))
        reflection = pg.Permutation(tuple(range(n, 0, -1)))
        group = pg.close_under_generators(pg.element_set([rotation, reflection]))
        assert len(group) == 2 * n
        _assert_matches_oracle(group)

    def test_closure_violation_message_matches_oracle(self):
        bad = pg.element_set(pg.parse_cycles(t, 4) for t in ("(1,2)", "(2,3)", "(3,4)"))
        with pytest.raises(ValueError):
            oracles.conjugation_tables(bad)
        _assert_matches_oracle(bad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 5).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3),
        st.permutations(range(1, n + 1)),
        st.booleans())))
    @example(([[1, 3, 4, 2, 5]], [1, 3, 4, 5, 2], False))  # b a b^-1 leaves the set before a * b does
    def test_random_generating_sets_match_oracle(self, drawn):
        # classes under a subgroup need not be closed: then both must raise alike
        images, element, whole_group = drawn
        gens = pg.element_set(pg.Permutation(tuple(t)) for t in images)
        if whole_group:
            elements = pg.close_under_generators(gens)
        else:
            elements = pg.conjugacy_class(pg.Permutation(tuple(element)), gens)
        _assert_matches_oracle(elements)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=8), st.booleans())))
    def test_random_permutation_sets_match_oracle(self, drawn):
        # any set of permutations, or its closure under conjugation by its own members
        images, close = drawn
        members = {pg.Permutation(tuple(p)) for p in images}
        while close and (grown := members | {pg.conjugate(a, b) for a in members for b in members}) != members:
            members = grown
        _assert_matches_oracle(pg.element_set(members))

    @pytest.mark.slow
    def test_a6_matches_oracle(self, a6):
        elements = pg.close_under_generators(pg.group_generators("A6"))
        assert (a6.labels, a6.star, a6.barstar) == oracles.conjugation_tables(elements)

    def test_rows_share_int_objects(self, a6):
        for q in (a6, qk.dihedral(300), qk.trivial(300)):
            ids = {id(v) for table in (q.star, q.barstar) for row in table for v in row}
            assert len(ids) == len(q)


class TestSizeLimit:
    @pytest.mark.parametrize("spec", ["conjgroup:S7", "conjgroup:A8", "conjgroup:S8",
                                      "conjclass:S8:(1,2,3,4,5,6,7,8)",
                                      "conjgroup:gens:(1,2);(1,2,3,4,5,6,7)",
                                      f"dihedral:{pg.MAX_ELEMENTS + 1}",
                                      f"trivial:{pg.MAX_ELEMENTS + 1}"])
    def test_oversized_specs_refused(self, spec):
        with pytest.raises(ValueError, match=str(pg.MAX_ELEMENTS)):
            qk.parse_quandle_spec(spec)

    def test_a7_closure_fits(self):
        assert len(pg.close_under_generators(pg.group_generators("A7"))) == 2520

    def test_large_classes_of_large_groups_fit(self):
        assert len(qk.parse_quandle_spec("conjclass:S8:(1,2)")) == 28

    @pytest.mark.parametrize("spec", ["dihedral:0", "trivial:0"])
    def test_empty_quandles_refused(self, spec):
        with pytest.raises(ValueError, match="this one has none"):
            qk.parse_quandle_spec(spec)


def _from_star(star) -> qk.FiniteQuandle:
    """A table quandle on 0..m-1."""
    return qk.FiniteQuandle(tuple(map(str, range(len(star)))), star)


def _column_swap(star, j: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """``star`` with entries a and b of column j swapped."""
    star = [list(row) for row in star]
    star[a][j], star[b][j] = star[b][j], star[a][j]
    return tuple(map(tuple, star))


REAL_QUANDLES = (qk.dihedral(3), qk.dihedral(4), qk.dihedral(6), qk.trivial(3),
                 qk.parse_quandle_spec("conjclass:S4:(1,2)"), qk.parse_quandle_spec("conjclass:S4:(1,2,3)"),
                 qk.parse_quandle_spec("conjgroup:S3"), qk.parse_quandle_spec("conjclass:S5:(1,2)(3,4,5)"))


@st.composite
def alexander_tables(draw):
    """x * y = t x + (1 - t) y mod p, t a unit."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    t = draw(st.integers(1, p - 1))
    return tuple(tuple((t * x + (1 - t) * y) % p for y in range(p)) for x in range(p))


@st.composite
def column_swaps(draw):
    """A real quandle's table with two entries of one column swapped."""
    q = draw(st.sampled_from(REAL_QUANDLES))
    j, a, b = (draw(st.integers(0, len(q) - 1)) for _ in range(3))
    return _column_swap(q.star, j, a, b)


@st.composite
def disjoint_unions(draw):
    """Two tables side by side, each acting trivially on the other; one may be corrupt."""
    first, second = (draw(st.one_of(st.sampled_from([q.star for q in REAL_QUANDLES]), column_swaps()))
                     for _ in range(2))
    m, n = len(first), len(second)
    return tuple(tuple(first[x][y] if x < m and y < m else
                       second[x - m][y - m] + m if x >= m and y >= m else x
                       for y in range(m + n)) for x in range(m + n))


@st.composite
def random_tables(draw):
    """Random tables whose columns are permutations, so Q2 holds and Q1, Q3
    mostly fail, or whose entries are arbitrary, so Q2 mostly fails too."""
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        columns = [draw(st.permutations(range(m))) for _ in range(m)]
    else:
        columns = [draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)) for _ in range(m)]
    return tuple(tuple(columns[j][i] for j in range(m)) for i in range(m))


@st.composite
def perturbed_tables(draw):
    """A real quandle's table with one entry replaced, which mostly breaks Q1 or Q2."""
    star = [list(row) for row in draw(st.sampled_from(REAL_QUANDLES)).star]
    i, j, v = (draw(st.integers(0, len(star) - 1)) for _ in range(3))
    star[i][j] = v
    return tuple(map(tuple, star))


class TestAxioms:
    def test_corrupted_table_reports_violation(self):
        # a swap in a column keeps Q1 and Q2, which the constructor checks, but breaks Q3
        corrupt = _from_star(_column_swap(qk.dihedral(5).star, 1, 0, 2))
        report = qk.verify_axioms(corrupt)
        assert not report.all_ok and report.q3_violation is not None
        assert "violated" in report.summary()

    def test_exhaustive_matches_brute_force_triple_check(self):
        d3 = qk.dihedral(3)
        ok = all(
            d3.star[d3.star[i][j]][k] == d3.star[d3.star[i][k]][d3.star[j][k]]
            for i, j, k in itertools.product(range(3), repeat=3)
        )
        assert ok == qk.verify_axioms(d3).all_ok

    def test_exact_above_the_old_sampling_size(self):
        report = qk.verify_axioms(qk.dihedral(721))
        assert report.all_ok and report.q3_checked == 721 ** 3
        assert "Q3 (distributivity, exhaustive, 374805361 triples): ok" in report.summary()

    def test_violation_above_the_old_sampling_size(self):
        q = _from_star(_column_swap(qk.dihedral(721).star, 5, 0, 1))
        report = qk.verify_axioms(q)
        i, j, k = report.q3_violation
        assert q.star[q.star[i][j]][k] != q.star[q.star[i][k]][q.star[j][k]]
        assert report.summary().startswith("Q1 (idempotence): ok\nQ2 (invertibility): ok\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(alexander_tables(), column_swaps(), disjoint_unions(), random_tables(), perturbed_tables()))
    def test_matches_brute_force_triple_check(self, star):
        # the constructor refuses a table failing Q1 or Q2 with a message naming the first
        # violation; on the rest, barstar undoes each right translation and verify_axioms
        # reports the first Q3 violation of a triple loop
        q1, q2, q3 = oracles.brute_axioms(star)
        if q1 is not None or q2 is not None:
            with pytest.raises(ValueError) as refused:
                _from_star(star)
            assert str(refused.value) == (f"star is not a quandle table ({q1[0]} * {q1[0]} != {q1[0]}, Q1)"
                                          if q1 is not None else
                                          f"star is not a quandle table (x -> x * {q2[0]} is not a bijection, Q2)")
            return
        q = _from_star(star)
        pairs = list(itertools.product(range(len(star)), repeat=2))
        assert all(q.barstar[star[i][j]][j] == i and star[q.barstar[i][j]][j] == i for i, j in pairs)
        report = qk.verify_axioms(q)
        assert report.q3_violation == q3
        assert report.q3_checked == len(star) ** 3

    def test_refuses_more_work_than_a_720_element_scan(self, monkeypatch):
        # dihedral:5 has two generators, 0 and 1, with distinct translations: 2 * 5**2 triples
        monkeypatch.setattr(qk.quandle, "_Q3_TRIPLES_MAX", 50)
        assert qk.verify_axioms(qk.dihedral(5)).all_ok
        monkeypatch.setattr(qk.quandle, "_Q3_TRIPLES_MAX", 49)
        with pytest.raises(ValueError, match="Q3 check refused: 2 distinct generator translations"):
            qk.verify_axioms(qk.dihedral(5))

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", ["trivial:2896", "dihedral:2896", "conjgroup:A7"])
    def test_largest_quandles_verified_exactly(self, spec):
        q = qk.parse_quandle_spec(spec)
        report = qk.verify_axioms(q)
        assert report.all_ok
        assert f"Q3 (distributivity, exhaustive, {len(q) ** 3} triples): ok" in report.summary()

    @pytest.mark.slow
    def test_largest_dihedral_peak_memory(self):
        # the child's own high-water mark: ru_maxrss would inherit this process's
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to read VmHWM from")
        code = ("import re, quandleknot as qk\n"
                "assert qk.verify_axioms(qk.parse_quandle_spec('dihedral:2896')).all_ok\n"
                "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n")
        src = str(Path(qk.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert int(done.stdout) / 1024 < 400


class TestTranslationsAndWords:
    def test_translation_fixes_its_element(self):
        d5 = qk.dihedral(5)
        for i in range(5):
            assert oracles.translation(d5, i).images[i] == i  # Q1

    def test_trivial_quandle_translations_are_identity(self):
        t3 = qk.trivial(3)
        assert oracles.translation(t3, 1) == oracles.identity_automorphism(t3)

    def test_dihedral3_translation_images(self):
        assert oracles.translation(qk.dihedral(3), 0).images == (0, 2, 1)

    def test_translation_and_inverse_compose_to_identity(self, s5_class):
        for by in (0, 7, 19):
            f = oracles.translation(s5_class, by, barred=False)
            g = oracles.translation(s5_class, by, barred=True)
            assert oracles.compose_automorphisms(f, g) == oracles.identity_automorphism(s5_class)

    def test_translation_index_error(self):
        with pytest.raises(ValueError):
            oracles.translation(qk.dihedral(3), 3)

    def test_every_translation_is_automorphism(self, s5_class):
        for by in range(len(s5_class)):
            for barred in (False, True):
                assert oracles.is_automorphism(s5_class, oracles.translation(s5_class, by, barred).images)

    def test_is_automorphism_rejects_non_bijection_and_non_hom(self):
        d4 = qk.dihedral(4)
        assert not oracles.is_automorphism(d4, (0, 0, 1, 2))        # not a bijection
        assert not oracles.is_automorphism(d4, (1, 0, 2, 3))        # bijective but not affine
        assert oracles.is_automorphism(d4, (1, 2, 3, 0))            # x -> x + 1

    def test_eval_word(self):
        d3 = qk.dihedral(3)
        assert oracles.eval_word(d3, 0, ()) == 0
        assert oracles.eval_word(d3, 1, ((2, False), (2, True))) == 1  # Q2 cancellation
        assert oracles.eval_word(d3, 0, ((1, False), (2, False))) == 2
        for start, word in ((3, ()), (0, ((1, False), (-1, True))), (0, ((3, False),))):
            with pytest.raises(ValueError, match="out of range"):
                oracles.eval_word(d3, start, word)

    def test_compose_with_identity(self, s5_class):
        f = oracles.translation(s5_class, 3)
        ident = oracles.identity_automorphism(s5_class)
        assert oracles.compose_automorphisms(f, ident) == f
        assert oracles.compose_automorphisms(ident, f) == f

    def test_involutory_quandles_share_one_translation_table(self):
        # every translation of dihedral:5 is an involution, so barstar is star and one table serves both
        d5 = qk.dihedral(5)
        assert d5._translations[0] is d5._translations[1]
        assert d5._translations[0] == tuple(oracles.translation(d5, j).images for j in range(5))
        a5 = qk.parse_quandle_spec("conjgroup:A5")
        right, inverse = a5._translations
        assert right is not inverse and right != inverse
        assert inverse == tuple(oracles.translation(a5, j, barred=True).images for j in range(len(a5)))

    def test_eval_word_fold_splits(self):
        d5 = qk.dihedral(5)
        word = ((1, False), (3, True), (2, False), (4, False))
        for cut in range(len(word) + 1):
            mid = oracles.eval_word(d5, 2, word[:cut])
            assert oracles.eval_word(d5, mid, word[cut:]) == oracles.eval_word(d5, 2, word)


class TestSpecStringsAndJson:
    def test_conjclass_spec(self, s5_class):
        assert len(s5_class) == 20
        assert s5_class.degree == 5
        assert "(1,2)(3,4,5)" in s5_class.labels

    def test_named_groups(self):
        assert len(qk.parse_quandle_spec("conjgroup:S3")) == 6
        assert len(qk.parse_quandle_spec("dihedral:7")) == 7
        assert len(qk.parse_quandle_spec("trivial:4")) == 4

    def test_gens_spec(self):
        q = qk.parse_quandle_spec("conjclass:gens:(1,2);(1,2,3,4,5):(1,2)(3,4,5)")
        assert len(q) == 20

    def test_bad_specs(self):
        for bad in ("conjclass:S5", "wibble:3", "dihedral:x", "conjgroup:Q8"):
            with pytest.raises(ValueError):
                qk.parse_quandle_spec(bad)
        with pytest.raises(ValueError, match="names no point"):
            qk.parse_quandle_spec("conjgroup:gens:()")
        with pytest.raises(ValueError, match="^empty generator list$"):
            qk.parse_quandle_spec("conjgroup:gens:;")

    # numbers that int() reads but that are not ASCII digits: fullwidth, Arabic-Indic, an underscore, a sign
    @pytest.mark.parametrize("spec, message", [
        ("dihedral:\uff13", "unknown quandle spec"), ("trivial:\u0663", "unknown quandle spec"),
        ("dihedral:+3", "unknown quandle spec"), ("conjgroup:gens:(1_0,2)", "malformed cycle notation"),
        ("conjgroup:gens:(1,2);(+1,3)", "malformed cycle notation"), ("conjclass:S4:(\uff11,2)", "malformed cycle notation"),
        ("conjgroup:gens:(\uff11,\uff12)", "names no point")])
    def test_numbers_are_ascii_digits(self, spec, message):
        with pytest.raises(ValueError, match=message):
            qk.parse_quandle_spec(spec)

    def test_json_round_trip(self, s5_class):
        text = qk.quandle_to_json(s5_class)
        back = qk.quandle_from_json(text)
        assert back == s5_class
        obj = json.loads(text)
        assert set(obj) == {"degree", "labels", "star"}
        for q in fx.SPEC_QUANDLE_LIST:
            assert qk.quandle_from_json(qk.quandle_to_json(q)) == q

    def test_padded_label_file_refused(self):
        text = (DATA / "quandle_padded_label.json").read_text()
        with pytest.raises(ValueError) as refused:
            qk.quandle_from_json(text)
        assert str(refused.value) == ("malformed quandle JSON: labels must be strings without surrounding "
                                      "whitespace, got ' a'")
        obj = json.loads(text)
        obj["labels"] = [1, "1"]
        with pytest.raises(ValueError, match="^malformed quandle JSON: labels must be strings .*, got 1$"):
            qk.quandle_from_json(json.dumps(obj))

    def test_two_table_file_still_loads(self):
        # a file in the older format, which also stored barstar
        text = (DATA / "quandle_two_tables.json").read_text()
        assert set(json.loads(text)) == {"degree", "labels", "star", "barstar"}
        assert qk.quandle_from_json(text) == qk.parse_quandle_spec("conjclass:S4:(1,2)")

    def test_two_table_file_with_wrong_barstar_refused(self):
        obj = json.loads((DATA / "quandle_two_tables.json").read_text())
        obj["barstar"][1] = obj["barstar"][1][1:] + obj["barstar"][1][:1]
        with pytest.raises(ValueError, match="^malformed quandle JSON: barstar does not invert "
                                             "the right translations of star$"):
            qk.quandle_from_json(json.dumps(obj))
        obj["barstar"] = 5
        with pytest.raises(ValueError, match="^malformed quandle JSON: barstar does not invert "
                                             "the right translations of star$"):
            qk.quandle_from_json(json.dumps(obj))

    def test_json_malformed(self):
        # a missing field is named: the bare KeyError text once made the message "malformed quandle JSON: 'labels'"
        for text, name in (('{"labels": ["a"]}', "star"), ('{"star": [[0]]}', "labels"), ('{"degree": 0}', "labels")):
            with pytest.raises(ValueError, match=f"^malformed quandle JSON: missing field '{name}'$"):
                qk.quandle_from_json(text)
        with pytest.raises(ValueError, match="^malformed quandle JSON: expected an object$"):
            qk.quandle_from_json('[["a"], [[0]]]')

    @settings(max_examples=300, deadline=None)
    @given(fx.with_any_value(json.dumps({**json.loads(qk.quandle_to_json(A4_CLASS)), "barstar": A4_CLASS.barstar})))
    def test_any_value_in_any_field_loads_or_is_refused(self, text):
        # a field of the wrong type must end in a ValueError, which the CLI reports as one line
        try:
            assert isinstance(qk.quandle_from_json(text), qk.FiniteQuandle)
        except ValueError:
            pass

    def test_element_index_resolves_noncanonical_cycles(self, s5_class):
        i = s5_class.element_index("(3,4,5)(1,2)")
        assert s5_class.labels[i] == "(1,2)(3,4,5)"
        with pytest.raises(ValueError):
            s5_class.element_index("(1,2)")
        with pytest.raises(ValueError):
            qk.dihedral(3).element_index("7")
