#!/usr/bin/env python3
"""Scripted search for a basepoint-dependence witness on small closed codes.

Grid, traversed deterministically (first hit wins):
  * codes: n = 2..4 crossings; over_arc in {1..n}^n ascending lexicographic;
    signs in {+1,-1}^n with +1 ordered before -1;
  * quandles, in order: dihedral:3 dihedral:4 dihedral:5 dihedral:6
    conjclass:S3:(1,2) conjclass:S4:(1,2,3,4) conjclass:S4:(1,2)
    conjgroup:S3 conjgroup:A4 conjgroup:S4  (all sizes <= 24);
  * basepoints q in element order; probes x in element order.

A hit is a code whose per-basepoint formal sums (breaking before each
under-passage) are not all equal.  Any classical (planar-realizable) code has
basepoint-independent sums, so a hit certifies that the code is not
realizable, i.e. genuinely virtual; no separate planarity check is needed or
wanted.

Writes the witness (or the exhaustive negative result) as JSON to
tests/data/virtual_witness.json, and re-running reproduces the same file.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import quandleknot as qk

QUANDLE_SPECS = [
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "conjclass:S3:(1,2)",
    "conjclass:S4:(1,2,3,4)",
    "conjclass:S4:(1,2)",
    "conjgroup:S3",
    "conjgroup:A4",
    "conjgroup:S4",
]

MAX_CROSSINGS = 4
OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "virtual_witness.json"


def codes():
    for n in range(2, MAX_CROSSINGS + 1):
        for over in itertools.product(range(1, n + 1), repeat=n):
            for sign in itertools.product((1, -1), repeat=n):
                yield qk.ClosedDiagram(over, sign)


def longitude_families(code, quandle, basepoint):
    """Per breaking before each under-passage: its colored longitudes, sorted."""
    return [qk.longitude_family(qk.break_before_underpass(code, i), quandle, basepoint).members
            for i in range(1, code.n + 1)]


def find_witness_in(code, quandle):
    for basepoint in range(len(quandle)):
        per_break = longitude_families(code, quandle, basepoint)
        if all(family == per_break[0] for family in per_break[1:]):
            continue
        for x in range(len(quandle)):
            sums = [qk.FormalSum.from_elements(quandle, (phi(x) for phi in family))
                    for family in per_break]
            if any(not qk.sum_equal(s, sums[0]) for s in sums[1:]):
                return basepoint, x
    return None


def main() -> int:
    for code in codes():
        for spec in QUANDLE_SPECS:
            quandle = qk.parse_quandle_spec(spec)
            hit = find_witness_in(code, quandle)
            if hit is None:
                continue
            basepoint, x = hit
            query = qk.InvariantQuery(quandle, basepoint, x)
            spectrum = qk.basepoint_spectrum(code, query)
            payload = {
                "found": True,
                "code": json.loads(qk.serialize_diagram(code)),
                "quandle": spec,
                "basepoint": quandle.labels[basepoint],
                "act_on": quandle.labels[x],
                "spectrum": [s.by_label() for s in spectrum],
                "grid": {"max_crossings": MAX_CROSSINGS, "quandles": QUANDLE_SPECS},
            }
            OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
            OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"witness: {qk.serialize_diagram(code)} with {spec}, "
                  f"q={quandle.labels[basepoint]}, x={quandle.labels[x]}")
            print(f"wrote {OUT_PATH}")
            return 0
    payload = {
        "found": False,
        "grid": {"max_crossings": MAX_CROSSINGS, "quandles": QUANDLE_SPECS},
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("no witness found on the documented grid; negative result recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
