"""Shared fixture data: knot codes, tangles, quandles, reference queries, and
hypothesis strategies for random codes and Q1/Q2 tables.

Knot codes come from braid-word closures (derived by ``braid_closure`` below,
which the diagram tests re-run as an audit).  Each code was validated against
independent invariants: dihedral coloring counts pin the knot determinant
(3_1 -> 3, 5_2 -> 7, 6_2 -> 11, 6_3 -> 13, 9_42 -> 7) and the conjugation
quandle values pin the chirality.
"""
from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

import quandleknot as qk

# --- braid machinery --------------------------------------------------------

def braid_closure(word: list[int], strands: int) -> qk.ClosedDiagram:
    """Signed Gauss code of the closure of a braid word (knots only).

    Letter +j crosses the strand in position j over position j+1; -j crosses
    it under.  The closure joins each bottom position to its top position.
    """
    encounters = []
    pos = 1
    passes = 0
    while True:
        for k, letter in enumerate(word):
            j = abs(letter)
            if pos == j or pos == j + 1:
                over = (letter > 0) == (pos == j)
                encounters.append((k + 1, over, "+" if letter > 0 else "-"))
                pos = j + 1 if pos == j else j
        passes += 1
        if pos == 1:
            break
        if passes > strands:
            raise ValueError("closure is not a knot")
    if passes != strands:
        raise ValueError("closure has multiple components")
    tokens = " ".join(f"{'O' if over else 'U'}{cid}{s}" for cid, over, s in encounters)
    d = qk.from_signed_gauss(tokens)
    assert isinstance(d, qk.ClosedDiagram)
    return d


def knot_word(word: list[int], strands: int) -> list[int]:
    """``word`` with letters appended until its closure is a knot: each added
    letter swaps two adjacent positions in different cycles of the braid's
    permutation, which merges those cycles."""
    word, perm = list(word), list(range(strands))
    for letter in word:
        j = abs(letter) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    while True:
        cycle = [-1] * strands
        for start in range(strands):
            pos = start
            while cycle[pos] < 0:
                cycle[pos], pos = start, perm[pos]
        split = next((i for i in range(strands - 1) if cycle[i] != cycle[i + 1]), None)
        if split is None:
            return word
        word.append(split + 1)
        perm[split], perm[split + 1] = perm[split + 1], perm[split]


# --- knot diagram fixtures ---------------------------------------------------

UNKNOT_LONG = qk.LongDiagram((), ())

# long 5_2 with all-negative crossings; its closure is the closed 5_2 fixture
KNOT_5_2_LONG = qk.LongDiagram((4, 5, 2, 1, 3), (-1, -1, -1, -1, -1))
KNOT_5_2_CLOSED = qk.close_long(KNOT_5_2_LONG)

# same knot from a different code: mirror of the braid closure of s1^3 s2 s1^-1 s2
KNOT_5_2_CLOSED_ALT = qk.mirror(braid_closure([1, 1, 1, 2, -1, 2], 3))

TREFOIL_CLOSED = braid_closure([1, 1, 1], 2)            # (3,1,2) / +++
KNOT_6_2_CLOSED = braid_closure([1, 1, 1, -2, 1, -2], 3)
KNOT_6_3_CLOSED = braid_closure([1, 1, -2, 1, -2, -2], 3)
KNOT_9_42_CLOSED = braid_closure([1, 1, 1, -2, -1, -1, 3, -2, 3], 4)

SINGLE_NEGATIVE_KINK = qk.LongDiagram((2,), (-1,))
SINGLE_POSITIVE_KINK = qk.LongDiagram((2,), (1,))

# closed code whose basepoint spectrum is not constant; no classical diagram
# can produce it (see scripts/find_virtual_witness.py for the search grid)
VIRTUAL_WITNESS_CODE = qk.ClosedDiagram((1, 1, 2), (1, 1, 1))


def tangle_t62() -> qk.TangleDiagram:
    """The 6_2 tangle fixture: strand 1 carries three negative curls, strand 2
    a negative trefoil winding.  Reproduces the reference values: 9
    boundary-monochromatic A_6 colorings and both concatenated longitude sums
    equal to 8*(1,2,5,3,4) + (1,2,3,4,5)."""
    curl = lambda a: qk.TangleCrossing(1, a, -1)
    wind = lambda a: qk.TangleCrossing(2, a, -1)
    return qk.TangleDiagram((
        (curl(2), curl(3), curl(4)),
        (wind(3), wind(4), wind(2)),
    ))


def tangle_t62_interleaved() -> qk.TangleDiagram:
    """The fully interleaved 6_2 tangle variant: each strand passes under the
    other three times, over-arcs (3, 4, 2) crosswise, all crossings negative.
    Same coloring count as tangle_t62 but its longitude parts act trivially."""
    return qk.TangleDiagram((
        (qk.TangleCrossing(2, 3, -1), qk.TangleCrossing(2, 4, -1), qk.TangleCrossing(2, 2, -1)),
        (qk.TangleCrossing(1, 3, -1), qk.TangleCrossing(1, 4, -1), qk.TangleCrossing(1, 2, -1)),
    ))


def crossingless_tangle() -> qk.TangleDiagram:
    return qk.TangleDiagram(((), ()))


def t62_closure_long() -> qk.LongDiagram:
    """Long diagram obtained by closing tangle_t62 with crossingless arcs
    (strand 1 then strand 2; strand 2's arc a becomes arc 3 + a)."""
    t = tangle_t62()
    over, sign = [], []
    for c in t.strands[0]:
        over.append(c.over_arc if c.over_strand == 1 else 3 + c.over_arc)
        sign.append(c.sign)
    for c in t.strands[1]:
        over.append(c.over_arc if c.over_strand == 1 else 3 + c.over_arc)
        sign.append(c.sign)
    return qk.LongDiagram(tuple(over), tuple(sign))


# --- quandles and queries ----------------------------------------------------

@lru_cache(maxsize=None)
def s5_class_quandle() -> qk.FiniteQuandle:
    """Conjugacy class of (1,2)(3,4,5) in S_5: 20 elements."""
    return qk.parse_quandle_spec("conjclass:S5:(1,2)(3,4,5)")


@lru_cache(maxsize=None)
def a5_quandle() -> qk.FiniteQuandle:
    """All of A_5 under conjugation: 60 elements."""
    return qk.parse_quandle_spec("conjgroup:A5")


@lru_cache(maxsize=None)
def a6_quandle() -> qk.FiniteQuandle:
    """All of A_6 under conjugation: 360 elements."""
    return qk.parse_quandle_spec("conjgroup:A6")


# built from specs: connected and not, 5 to 60 elements
SPEC_QUANDLES = st.sampled_from(tuple(qk.parse_quandle_spec(spec) for spec in (
    "conjgroup:S4", "conjgroup:A4", "conjgroup:A5", "dihedral:5", "conjclass:S4:(1,2)")))


# star tables that FiniteQuandle refuses. NOT_Q2 satisfies Q1, but x -> x * 0 (and x * 2)
# sends 0 and 1 to 0. NOT_Q1 is a rack: every right translation is the same 3-cycle, so
# Q2 (and Q3) hold but i * i != i
NOT_Q2 = ((0, 0, 0), (0, 1, 0), (2, 2, 2))
NOT_Q1 = tuple(((i + 1) % 3,) * 3 for i in range(3))


def query_5_2() -> qk.InvariantQuery:
    q = s5_class_quandle()
    return qk.InvariantQuery(q, q.element_index("(1,2)(3,4,5)"), q.element_index("(1,2,3)(4,5)"))


def query_9_42() -> qk.InvariantQuery:
    q = a5_quandle()
    return qk.InvariantQuery(q, q.element_index("(1,2,3)"), q.element_index("(2,3,4)"))


def query_t62() -> qk.InvariantQuery:
    q = a6_quandle()
    return qk.InvariantQuery(q, q.element_index("(1,2,3,4)(5,6)"), q.element_index("(1,2,3,4,5)"))


def sum_of(q: qk.FiniteQuandle, terms: dict[str, int]) -> qk.FormalSum:
    """Build a FormalSum from {cycle-notation label: coefficient}."""
    return qk.FormalSum(q, tuple(sorted((q.element_index(k), v) for k, v in terms.items())))


# --- random inputs -----------------------------------------------------------

SIGNS = st.sampled_from((1, -1))


@st.composite
def codes(draw):
    """Long, closed and tangle codes with 0-7 crossings and any over-arcs, so
    virtual codes are included."""
    kind = draw(st.sampled_from((qk.LongDiagram, qk.ClosedDiagram, qk.TangleDiagram)))
    n = draw(st.integers(kind is qk.ClosedDiagram, 7))
    if kind is not qk.TangleDiagram:
        arcs = n + (kind is qk.LongDiagram)
        return kind(tuple(draw(st.integers(1, arcs)) for _ in range(n)),
                    tuple(draw(SIGNS) for _ in range(n)))
    first = draw(st.integers(0, n))
    return draw_tangle(draw, (first, n - first))


def draw_tangle(draw, sizes):
    """A two-strand tangle with ``sizes`` crossings on its strands and any over-arcs."""
    strands = []
    for size in sizes:
        over_strands = [draw(st.integers(1, 2)) for _ in range(size)]
        strands.append(tuple(qk.TangleCrossing(s, draw(st.integers(1, sizes[s - 1] + 1)), draw(SIGNS))
                             for s in over_strands))
    return qk.TangleDiagram(tuple(strands))


@st.composite
def q1_q2_tables(draw, max_elements):
    """Tables of 1 to ``max_elements`` elements that satisfy Q1 and Q2, and mostly not Q3."""
    m = draw(st.integers(1, max_elements))
    columns = []  # [j][i] = i * j: a permutation that fixes j
    for j in range(m):
        column = list(draw(st.permutations([i for i in range(m) if i != j])))
        columns.append(column[:j] + [j] + column[j:])
    return qk.FiniteQuandle(tuple(map(str, range(m))), [[columns[j][i] for j in range(m)] for i in range(m)])


def relabeled(q: qk.FiniteQuandle, sigma) -> qk.FiniteQuandle:
    """The table sigma·star, with sigma(i) * sigma(j) = sigma(i * j), under q's labels."""
    star = [[0] * len(q) for _ in range(len(q))]
    for i, row in enumerate(q.star):
        for j, value in enumerate(row):
            star[sigma[i]][sigma[j]] = sigma[value]
    return qk.FiniteQuandle(q.labels, star)
