"""Finite-quandle knot invariants: colorings, colored longitudes, obstructions."""

from .permgroup import (
    ElementSet,
    Permutation,
    close_under_generators,
    compose,
    conjugacy_class,
    conjugate,
    element_set,
    group_generators,
    identity,
    inverse,
    parse_cycles,
    print_cycles,
)
from .quandle import (
    Automorphism,
    FiniteQuandle,
    compose_automorphisms,
    dihedral,
    eval_word,
    from_conjugation,
    identity_automorphism,
    is_automorphism,
    parse_quandle_spec,
    quandle_from_json,
    quandle_to_json,
    translation,
    trivial,
    verify_axioms,
)
from .diagram import (
    ClosedDiagram,
    LongDiagram,
    TangleCrossing,
    TangleDiagram,
    break_at,
    break_before_underpass,
    close_long,
    concat,
    from_signed_gauss,
    mirror,
    parse_diagram,
    serialize_diagram,
    to_signed_gauss,
)
from .coloring import (
    Coloring,
    InvariantQuery,
    colorings_closed,
    colorings_long,
    colorings_tangle_boundary_mono,
    verify_coloring,
)
from .longitude import (
    AutomorphismFamily,
    FormalSum,
    SymbolicLongitude,
    colored_longitude,
    formal_sum,
    longitude_family,
    sum_equal,
    sum_included,
    sum_render,
    sum_to_json,
    symbolic_longitude,
    tangle_longitude_parts,
    tangle_sums,
)
from .obstruction import (
    Verdict,
    basepoint_spectrum,
    chirality_test,
    connected_sum_commutativity,
    nonclassical_by_basepoints,
    tangle_embedding_obstruction,
)

__version__ = "0.1.0"
