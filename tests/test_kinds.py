"""Every public function that takes a diagram accepts its own kinds and refuses
the others with a ValueError that names it."""
from __future__ import annotations

import re

import pytest

import quandleknot as qk
from quandleknot import diagram
import fixtures as fx

D3 = qk.dihedral(3)
QUERY = qk.InvariantQuery(D3, 0, 0)
LONG = fx.KNOT_5_2_LONG
DIAGRAMS = {"long": LONG, "closed": fx.KNOT_5_2_CLOSED, "tangle": fx.tangle_t62()}


def _constant_coloring(d) -> qk.Coloring:
    """Every arc of d colored 0, whatever d's kind."""
    return qk.Coloring(d, (0,) * sum(diagram._compile(d).arcs))


# (test id, function name, the kinds it takes in message order, a call of it on one diagram)
TAKES = [
    ("colorings_long", "colorings_long", ("long",), lambda d: qk.colorings_long(d, D3, 0)),
    ("symbolic_longitude", "symbolic_longitude", ("long",), qk.symbolic_longitude),
    ("colored_longitude", "colored_longitude", ("long",),
     lambda d: qk.colored_longitude(_constant_coloring(d), D3)),
    ("longitude_family", "longitude_family", ("long",), lambda d: qk.longitude_family(d, D3, 0)),
    ("close_long", "close_long", ("long",), qk.close_long),
    ("concat-first", "concat", ("long",), lambda d: qk.concat(d, LONG)),
    ("concat-second", "concat", ("long",), lambda d: qk.concat(LONG, d)),
    ("connected_sum_commutativity-first", "connected_sum_commutativity", ("long",),
     lambda d: qk.connected_sum_commutativity(d, LONG, QUERY)),
    ("connected_sum_commutativity-second", "connected_sum_commutativity", ("long",),
     lambda d: qk.connected_sum_commutativity(LONG, d, QUERY)),
    ("colorings_closed", "colorings_closed", ("closed",), lambda d: qk.colorings_closed(d, D3, 0)),
    ("break_at", "break_at", ("closed",), lambda d: qk.break_at(d, 1)),
    ("break_before_underpass", "break_before_underpass", ("closed",),
     lambda d: qk.break_before_underpass(d, 1)),
    ("basepoint_spectrum", "basepoint_spectrum", ("closed",), lambda d: qk.basepoint_spectrum(d, QUERY)),
    ("nonclassical_by_basepoints", "nonclassical_by_basepoints", ("closed",),
     lambda d: qk.nonclassical_by_basepoints(d, QUERY)),
    ("colorings_tangle_boundary_mono", "colorings_tangle_boundary_mono", ("tangle",),
     lambda d: qk.colorings_tangle_boundary_mono(d, D3, 0)),
    ("tangle_longitude_parts", "tangle_longitude_parts", ("tangle",),
     lambda d: qk.tangle_longitude_parts(_constant_coloring(d))),
    ("tangle_sums", "tangle_sums", ("tangle",), lambda d: qk.tangle_sums(d, QUERY)),
    ("to_signed_gauss", "to_signed_gauss", ("long", "closed"), qk.to_signed_gauss),
    ("formal_sum", "formal_sum", ("long", "closed"), lambda d: qk.formal_sum(d, QUERY)),
]


@pytest.mark.parametrize("name, kinds, call, kind", [
    pytest.param(name, kinds, call, kind, id=f"{label}-{kind}")
    for label, name, kinds, call in TAKES for kind in DIAGRAMS if kind not in kinds
])
def test_refuses_each_other_kind(name, kinds, call, kind):
    message = f"{name} needs a {' or '.join(kinds)} diagram, not a {kind} one"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(DIAGRAMS[kind])


@pytest.mark.parametrize("call, kind", [
    pytest.param(call, kind, id=f"{label}-{kind}")
    for label, _, kinds, call in TAKES for kind in kinds
])
def test_accepts_its_own_kinds(call, kind):
    call(DIAGRAMS[kind])


def test_refuses_what_is_not_a_diagram():
    with pytest.raises(ValueError, match=r"^formal_sum needs a long or closed diagram, not 'O1\+ U1\+'$"):
        qk.formal_sum("O1+ U1+", QUERY)
    # the functions that take any kind refuse the rest with a ValueError too
    for call in (qk.mirror, qk.serialize_diagram, lambda d: qk.verify_coloring(qk.Coloring(d, (0,)), D3)):
        with pytest.raises(ValueError, match=r"^not a diagram: 'O1\+ U1\+'$"):
            call("O1+ U1+")
