"""The package's value classes: built from equal fields they are equal and hash alike, within one
class only and whatever they have cached; their fields cannot be assigned or deleted; they survive
pickle and copy; permutations sort by their images; and their repr text stays fixed."""
from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import quandleknot as qk
from quandleknot import diagram, quandle
import fixtures as fx

# the fields of each public value class, in constructor order
FIELDS = {
    qk.Permutation: ("images",),
    qk.ElementSet: ("degree", "members"),
    qk.FiniteQuandle: ("labels", "star", "degree"),
    quandle.AxiomReport: ("q3_violation", "q3_checked"),
    qk.Automorphism: ("quandle", "images"),
    qk.LongDiagram: ("over_arc", "sign"),
    qk.ClosedDiagram: ("over_arc", "sign"),
    qk.TangleCrossing: ("over_strand", "over_arc", "sign"),
    qk.TangleDiagram: ("strands",),
    qk.Coloring: ("diagram", "strands"),
    qk.InvariantQuery: ("quandle", "basepoint", "act_on"),
    qk.SymbolicLongitude: ("letters",),
    qk.AutomorphismFamily: ("quandle", "members"),
    qk.FormalSum: ("quandle", "terms"),
    qk.Verdict: ("kind", "sums"),
}
COLORINGS = {qk.LongDiagram: qk.colorings_long, qk.ClosedDiagram: qk.colorings_closed,
             qk.TangleDiagram: qk.colorings_tangle_boundary_mono}


def instances(d, q: qk.FiniteQuandle) -> list:
    """Values of every public class, as the package makes them from the code d and the quandle q."""
    query = qk.InvariantQuery(q, 0, len(q) - 1)
    long = {qk.LongDiagram: d, qk.ClosedDiagram: qk.break_at(d, 1) if type(d) is qk.ClosedDiagram else None,
            qk.TangleDiagram: fx.KNOT_5_2_LONG}[type(d)]
    perm = qk.Permutation(tuple(row[0] + 1 for row in q.star))  # the right translation by element 0
    crossings = [c for strand in d.strands for c in strand] if type(d) is qk.TangleDiagram else []
    return [
        perm, qk.element_set([perm, qk.identity(len(q))]),
        q, qk.verify_axioms(q),
        qk.colored_longitude(qk.colorings_long(long, q, 0)[0], q),
        d, fx.KNOT_5_2_LONG, fx.KNOT_5_2_CLOSED, fx.tangle_t62(),
        crossings[0] if crossings else qk.TangleCrossing(1, 1, -1),
        COLORINGS[type(d)](d, q, 0)[0],
        query, qk.symbolic_longitude(long), qk.longitude_family(long, q, 0), qk.formal_sum(long, query),
        qk.chirality_test(long, query),
    ]


def rebuilt(value):
    """A new value of value's class from its fields, passed as keywords."""
    return type(value)(**{name: getattr(value, name) for name in FIELDS[type(value)]})


@settings(max_examples=30, deadline=None)
@given(fx.codes(), fx.SPEC_QUANDLES)
def test_equal_fields_give_equal_values(d, q):
    made = instances(d, q)
    assert set(map(type, made)) == set(FIELDS)
    for a in made:
        fields = [getattr(a, name) for name in FIELDS[type(a)]]
        copies = [rebuilt(a)] + ([] if type(a) is qk.FiniteQuandle else [type(a)(*fields)])
        for b in copies:
            assert b is not a and a == b and not a != b
            if type(a) is qk.Verdict:  # its sums are a dict
                with pytest.raises(TypeError):
                    hash(b)
            else:
                assert hash(a) == hash(b)


@settings(max_examples=30, deadline=None)
@given(fx.codes(), fx.SPEC_QUANDLES)
def test_values_of_different_classes_differ(d, q):
    made = instances(d, q)
    for a, b in itertools.permutations(made, 2):
        if type(a) is not type(b):
            assert a != b and not a == b
    for a in made:
        assert a != tuple(getattr(a, name) for name in FIELDS[type(a)])
    if type(d) is not qk.TangleDiagram and all(x <= d.n for x in d.over_arc) and d.n:
        # the same fields make a valid code of both kinds, which stay unequal
        other = (qk.LongDiagram if d.closed else qk.ClosedDiagram)(d.over_arc, d.sign)
        assert d != other and not d == other


@settings(max_examples=30, deadline=None)
@given(fx.codes(), fx.SPEC_QUANDLES)
def test_cached_entries_are_neither_compared_nor_read(d, q):
    diagram._compile(d)
    fresh = qk.parse_diagram(qk.serialize_diagram(d))
    assert "_system" in d.__dict__ and "_system" not in fresh.__dict__
    if type(d) is qk.LongDiagram:
        d._pieces
    assert d == fresh and fresh == d and hash(d) == hash(fresh)
    assert "_system" not in fresh.__dict__ and "_pieces" not in fresh.__dict__

    q._translations, q._orbit(0), q._symmetry(0)
    other = qk.FiniteQuandle(q.labels, q.star, degree=q.degree)
    assert q == other and other == q and hash(q) == hash(other)
    assert not {"_translations", "_orbits", "_symmetries"} & set(other.__dict__)
    assert qk.FiniteQuandle(q.labels, q.star, degree=q.degree + 1) != q


@settings(max_examples=15, deadline=None)
@given(fx.codes(), fx.SPEC_QUANDLES)
def test_fields_cannot_be_assigned_or_deleted(d, q):
    for a in instances(d, q):
        before = rebuilt(a)
        for name in FIELDS[type(a)] + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(a, name, None))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == before


@settings(max_examples=15, deadline=None)
@given(fx.codes(), fx.SPEC_QUANDLES)
def test_pickle_and_copy_round_trips(d, q):
    for a in instances(d, q):
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(b) is type(a) and b == a
            with pytest.raises(AttributeError):
                setattr(b, FIELDS[type(a)][0], None)


def test_degree_is_keyword_only():
    q = qk.dihedral(3)
    with pytest.raises(TypeError):
        qk.FiniteQuandle(q.labels, q.star, 0)
    assert qk.FiniteQuandle(q.labels, q.star, degree=0) == q


def test_verdict_sums_default_to_a_fresh_dict():
    a, b = qk.Verdict(qk.obstruction.INCONCLUSIVE), qk.Verdict(qk.obstruction.INCONCLUSIVE)
    assert a.sums == {} and a.sums is not b.sums and a == b


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))), max_size=8))
def test_permutations_sort_by_their_images(images):
    perms = [qk.Permutation(tuple(p)) for p in images]
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
    for a, b in itertools.product(perms, repeat=2):
        assert ((a < b), (a <= b), (a > b), (a >= b)) == (
            a.images < b.images, a.images <= b.images, a.images > b.images, a.images >= b.images)


def test_repr_text():
    d3 = qk.parse_quandle_spec("dihedral:3")
    table = "FiniteQuandle(labels=('0', '1', '2'), star=((0, 2, 1), (2, 1, 0), (1, 0, 2)), degree=0)"
    assert repr(qk.Permutation((2, 1, 3))) == "Permutation(images=(2, 1, 3))"
    assert repr(qk.FormalSum.from_counts(d3, {0: 2, 2: 1})) == f"FormalSum(quandle={table}, terms=((0, 2), (2, 1)))"
    assert repr(qk.InvariantQuery(d3, 0, 1)) == f"InvariantQuery(quandle={table}, basepoint=0, act_on=1)"
    assert repr(qk.TangleDiagram(((qk.TangleCrossing(1, 1, 1),), ()))) == (
        "TangleDiagram(strands=((TangleCrossing(over_strand=1, over_arc=1, sign=1),), ()))")
    assert repr(qk.Verdict("inconclusive")) == "Verdict(kind='inconclusive', sums={})"
