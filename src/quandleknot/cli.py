"""Command-line interface.

Commands: verify-quandle, colorings, invariant, chirality, tangle-obstruction,
nonclassical, connected-sum.  Quandles are given as spec strings
(``conjclass:S5:(1,2)(3,4,5)``, ``conjgroup:A6``, ``dihedral:3``,
``trivial:5``, generators via ``gens:...``) or as a path to a quandle JSON
file; elements are given in cycle notation (or by label for table quandles).
``verify-quandle`` checks Q1-Q3 exactly at every size; every other command
refuses a quandle file that fails an axiom.  Exit status is 1 for
parse/validation failures and when ``verify-quandle`` finds an axiom violated
(its report still goes to stdout); a negative verdict is a result, not an error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import coloring, diagram, longitude, obstruction, quandle

_SPEC_PREFIXES = ("conjclass:", "conjgroup:", "dihedral:", "trivial:")


def _load_quandle(text: str, certify: bool = True) -> quandle.FiniteQuandle:
    """A spec-built quandle, or a file's table; the loader refuses one failing Q1 or Q2, and
    with ``certify``, one failing Q3 is refused too."""
    if text.startswith(_SPEC_PREFIXES):
        return quandle.parse_quandle_spec(text)  # a quandle by construction
    path = Path(text)
    if not path.exists():
        raise ValueError(f"{text!r} is neither a quandle spec nor an existing file")
    q = quandle.quandle_from_json(path.read_text())
    if certify:
        report = quandle.verify_axioms(q)
        if report.q3_violation is not None:
            raise ValueError(f"{text} is not a quandle: Q3 (distributivity, exhaustive, "
                             f"{report.q3_checked} triples): violated at {report.q3_violation}")
    return q


def _load_diagram(path: str) -> diagram.Diagram:
    return diagram.parse_diagram(Path(path).read_text())


def _query(args) -> coloring.InvariantQuery:
    q = _load_quandle(args.quandle)
    basepoint = q.element_index(args.basepoint)
    act_on = q.element_index(args.act_on) if args.act_on is not None else basepoint
    return coloring.InvariantQuery(q, basepoint, act_on)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_verify_quandle(args) -> int:
    q = _load_quandle(args.quandle, certify=False)
    report = quandle.verify_axioms(q)
    payload = {
        "elements": len(q),
        "passed": report.all_ok,
        "q1_ok": True,  # a FiniteQuandle satisfies Q1 and Q2 by construction
        "q2_ok": True,
        "q3_ok": report.q3_violation is None,
        "q3_mode": "exhaustive",
    }
    text = f"{len(q)} elements\n{report.summary()}\n" + ("PASS" if report.all_ok else "FAIL")
    _emit(args, payload, text)
    return 0 if report.all_ok else 1


def cmd_colorings(args) -> int:
    if bool(args.diagram) == bool(args.tangle):
        raise ValueError("give either --diagram or --tangle")
    query = _query(args)
    q = query.quandle
    if args.tangle:
        if not args.boundary_mono:
            raise ValueError("tangle colorings require --boundary-mono")
        d = _load_diagram(args.tangle)
        if not isinstance(d, diagram.TangleDiagram):
            raise ValueError("--tangle file must contain a tangle diagram")
        found = coloring.colorings_tangle_boundary_mono(d, q, query.basepoint)
    else:
        d = _load_diagram(args.diagram)
        if isinstance(d, diagram.LongDiagram):
            found = coloring.colorings_long(d, q, query.basepoint)
        elif isinstance(d, diagram.ClosedDiagram):
            found = coloring.colorings_closed(d, q, query.basepoint)
        else:
            raise ValueError("--diagram expects a long or closed diagram (use --tangle)")
    payload: dict = {"count": len(found)}
    lines = [f"{len(found)} colorings"]
    if args.list:
        rendered = [[ [q.labels[i] for i in strand] for strand in c.strands] for c in found]
        payload["colorings"] = rendered
        for item in rendered:
            lines.append(" | ".join(", ".join(strand) for strand in item))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_invariant(args) -> int:
    query = _query(args)
    d = _load_diagram(args.diagram)
    if isinstance(d, diagram.ClosedDiagram):
        d = diagram.break_at(d, 1)
    if not isinstance(d, diagram.LongDiagram):
        raise ValueError("invariant expects a long or closed diagram")
    s = longitude.formal_sum(d, query.quandle, query)
    _emit(args, {"sum": s.by_label(), "colorings": s.mass()}, longitude.sum_render(s))
    return 0


def _emit_verdict(args, verdict: obstruction.Verdict) -> int:
    _emit(args, verdict.payload(), verdict.render())
    return 0


def cmd_chirality(args) -> int:
    query = _query(args)
    d = _load_diagram(args.diagram)
    if not isinstance(d, (diagram.LongDiagram, diagram.ClosedDiagram)):
        raise ValueError("chirality expects a long or closed diagram")
    return _emit_verdict(args, obstruction.chirality_test(d, query))


def cmd_tangle_obstruction(args) -> int:
    query = _query(args)
    t = _load_diagram(args.tangle)
    k = _load_diagram(args.knot)
    if not isinstance(t, diagram.TangleDiagram):
        raise ValueError("--tangle file must contain a tangle diagram")
    if not isinstance(k, (diagram.LongDiagram, diagram.ClosedDiagram)):
        raise ValueError("--knot file must contain a long or closed diagram")
    return _emit_verdict(args, obstruction.tangle_embedding_obstruction(t, k, query))


def cmd_nonclassical(args) -> int:
    query = _query(args)
    d = _load_diagram(args.diagram)
    if not isinstance(d, diagram.ClosedDiagram):
        raise ValueError("nonclassical expects a closed diagram")
    return _emit_verdict(args, obstruction.nonclassical_by_basepoints(d, query))


def cmd_connected_sum(args) -> int:
    query = _query(args)
    if len(args.diagram) != 2:
        raise ValueError("connected-sum needs exactly two --diagram files")
    k1, k2 = (_load_diagram(p) for p in args.diagram)
    if not isinstance(k1, diagram.LongDiagram) or not isinstance(k2, diagram.LongDiagram):
        raise ValueError("connected-sum expects two long diagrams")
    return _emit_verdict(args, obstruction.connected_sum_commutativity(k1, k2, query))


def _add_query_flags(p: argparse.ArgumentParser, need_act_on: bool = True):
    p.add_argument("--quandle", required=True, help="quandle spec string or JSON file")
    p.add_argument("--basepoint", required=True, help="basepoint color (cycle notation or label)")
    if need_act_on:
        p.add_argument("--act-on", dest="act_on", default=None,
                       help="element the longitudes act on (defaults to the basepoint)")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility, at least 1 (default 1); has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quandleknot",
                                     description="Finite-quandle knot invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-quandle", help="check the quandle axioms exactly, on all triples")
    p.add_argument("--quandle", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify_quandle)

    p = sub.add_parser("colorings", help="count (and list) quandle colorings")
    p.add_argument("--diagram", help="long or closed diagram JSON file")
    p.add_argument("--tangle", help="tangle diagram JSON file")
    p.add_argument("--boundary-mono", action="store_true",
                   help="boundary-monochromatic tangle colorings")
    p.add_argument("--list", action="store_true", help="print each coloring")
    _add_query_flags(p, need_act_on=False)
    p.set_defaults(act_on=None)
    _add_common(p)
    p.set_defaults(func=cmd_colorings)

    p = sub.add_parser("invariant", help="formal sum of colored longitudes acting on x")
    p.add_argument("--diagram", required=True)
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("chirality", help="compare a diagram with its mirror")
    p.add_argument("--diagram", required=True)
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_chirality)

    p = sub.add_parser("tangle-obstruction", help="tangle embedding obstruction")
    p.add_argument("--tangle", required=True)
    p.add_argument("--knot", required=True)
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_tangle_obstruction)

    p = sub.add_parser("nonclassical", help="basepoint-dependence detector for closed codes")
    p.add_argument("--diagram", required=True)
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_nonclassical)

    p = sub.add_parser("connected-sum", help="compare both orders of a connected sum")
    p.add_argument("--diagram", action="append", required=True,
                   help="long diagram JSON file (give twice)")
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_connected_sum)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
