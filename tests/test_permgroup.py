from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from quandleknot import permgroup as pg
import oracles


def perm(text: str, degree: int = 5) -> pg.Permutation:
    return pg.parse_cycles(text, degree)


def random_perms(degree: int):
    return st.permutations(range(1, degree + 1)).map(lambda t: pg.Permutation(tuple(t)))


class TestCycleCodec:
    def test_identity(self):
        assert pg.parse_cycles("()", 5) == pg.identity(5)
        assert pg.print_cycles(pg.identity(5)) == "()"

    def test_basic_cycles(self):
        assert perm("(1,2)(3,4,5)").images == (2, 1, 4, 5, 3)

    def test_degree_ten_generator_round_trips(self):
        text = "(1,9,6,7,5)(2,10,3,8,4)"
        assert pg.print_cycles(pg.parse_cycles(text, 10)) == text

    def test_print_canonicalizes(self):
        assert pg.print_cycles(pg.Permutation((2, 1, 4, 5, 3))) == "(1,2)(3,4,5)"
        assert pg.print_cycles(pg.Permutation((1, 3, 2, 5, 4))) == "(2,3)(4,5)"

    def test_whitespace_ignored(self):
        assert perm("(1, 2) (3, 4, 5)") == perm("(1,2)(3,4,5)")

    @pytest.mark.parametrize("bad", ["(1,2)(2,3)", "(1,1)", "(1,6)", "(1,2", "1,2", "", "(1)", "()()"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            pg.parse_cycles(bad, 5)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            pg.Permutation((1, 1, 3))

    @given(random_perms(6))
    def test_round_trip(self, p):
        assert pg.parse_cycles(pg.print_cycles(p), 6) == p


class TestArithmetic:
    def test_compose_identity(self):
        p = perm("(1,2,3)")
        assert pg.compose(p, pg.identity(5)) == p
        assert pg.compose(pg.identity(5), p) == p

    def test_compose_inverse(self):
        p = perm("(1,4)(2,3,5)")
        assert pg.compose(p, pg.inverse(p)) == pg.identity(5)
        assert pg.compose(pg.inverse(p), p) == pg.identity(5)

    def test_compose_convention_left_first(self):
        # pointwise: i -> b(a(i)) with a = (1,2), b = (2,3)
        a, b = perm("(1,2)", 3), perm("(2,3)", 3)
        expected = tuple(b.images[a.images[i - 1] - 1] for i in (1, 2, 3))
        got = pg.compose(a, b)
        assert got.images == expected
        assert pg.print_cycles(got) == "(1,3,2)"

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            pg.compose(perm("(1,2)", 3), perm("(1,2)", 4))

    def test_inverse_of_cycle(self):
        assert pg.print_cycles(pg.inverse(perm("(1,2,3)"))) == "(1,3,2)"
        assert pg.inverse(pg.identity(4)) == pg.identity(4)

    def test_conjugate_by_identity_and_self(self):
        a = perm("(1,2)(3,4,5)")
        assert pg.conjugate(a, pg.identity(5)) == a
        assert pg.conjugate(a, a) == a

    def test_conjugate_pointwise(self):
        # b^-1 a b maps i -> b(a(b^-1(i)))
        a, b = perm("(1,2)", 3), perm("(1,2,3)", 3)
        binv = pg.inverse(b)
        expected = tuple(b.images[a.images[binv.images[i - 1] - 1] - 1] for i in (1, 2, 3))
        got = pg.conjugate(a, b)
        assert got.images == expected
        assert pg.print_cycles(got) == "(2,3)"

    @given(random_perms(5), random_perms(5))
    def test_conjugate_preserves_cycle_type(self, a, b):
        assert oracles.cycle_type(pg.conjugate(a, b)) == oracles.cycle_type(a)

    @given(random_perms(5), random_perms(5), random_perms(5))
    def test_compose_associative(self, a, b, c):
        assert pg.compose(pg.compose(a, b), c) == pg.compose(a, pg.compose(b, c))


class TestClosureAndClasses:
    def test_identity_closure(self):
        gens = pg.element_set([pg.identity(4)])
        assert pg.close_under_generators(gens).members == (pg.identity(4),)

    def test_s3_closure_matches_all_bijections(self):
        gens = pg.element_set([perm("(1,2)", 3), perm("(1,2,3)", 3)])
        closure = pg.close_under_generators(gens)
        everything = sorted(pg.Permutation(p) for p in itertools.permutations((1, 2, 3)))
        assert list(closure.members) == everything

    def test_a5_closure_size(self):
        gens = pg.element_set([perm("(1,2,3,4,5)"), perm("(1,2,3)")])
        assert len(pg.close_under_generators(gens)) == 60

    def test_class_of_identity(self):
        gens = pg.group_generators("S4")
        assert pg.conjugacy_class(pg.identity(4), gens).members == (pg.identity(4),)

    def test_s5_class_size_twenty(self):
        cls = pg.conjugacy_class(perm("(1,2)(3,4,5)"), pg.group_generators("S5"))
        assert len(cls) == 20

    def test_a5_three_cycle_class_matches_filter_oracle(self):
        gens = pg.group_generators("A5")
        group = pg.close_under_generators(gens)
        g = perm("(1,2,3)")
        by_orbit = set(pg.conjugacy_class(g, gens).members)
        by_filter = {pg.conjugate(g, h) for h in group}
        assert by_orbit == by_filter

    def test_class_closed_under_group_conjugation(self):
        gens = pg.group_generators("S4")
        cls = pg.conjugacy_class(perm("(1,2)", 4), gens)
        group = pg.close_under_generators(gens)
        members = set(cls.members)
        assert all(pg.conjugate(c, h) in members for c in members for h in group)

    @given(st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.lists(random_perms(n), min_size=1, max_size=3), random_perms(n))))
    def test_generators_alone_reach_what_inverses_reach(self, case):
        perms, g = case
        gens = pg.element_set(perms)
        closure = pg.close_under_generators(gens)
        reference = oracles.orbit_with_inverses(pg.identity(gens.degree), gens, pg.compose)
        assert closure == pg.element_set(reference)
        cls = pg.conjugacy_class(g, gens)
        assert cls == pg.element_set(oracles.orbit_with_inverses(g, gens, pg.conjugate))
        assert cls == pg.element_set(pg.conjugate(g, h) for h in closure)

    def test_group_generators_validation(self):
        with pytest.raises(ValueError):
            pg.group_generators("S9")
        with pytest.raises(ValueError):
            pg.group_generators("B4")
        assert len(pg.close_under_generators(pg.group_generators("A4"))) == 12
        assert len(pg.close_under_generators(pg.group_generators("S3"))) == 6

    def test_element_set_validation(self):
        with pytest.raises(ValueError):
            pg.ElementSet(3, (perm("(1,2)", 3), perm("(1,2)", 4)))
        with pytest.raises(ValueError):
            pg.element_set([])
