"""Seeded inputs for the quandleknot benchmark.

Everything here is plain data (tuples, dicts, cycle-notation strings); nothing
imports the package, so the program under test only ever sees the generated
diagrams, specs and element names.

Each in-process workload has a *catalogue* of queries drawn once from the
fixed ``CATALOGUE_SEED``; the run's ``--seed`` shuffles the order in which
they run, so every seed does the same work.  Anything more changes the work:
drawing a fresh braid set per seed moved the median latency by 10-20% and
the tail by 25-30% between seeds, and even rotating a closed code to another
starting arc, or conjugating its basepoint and act-on element (a quandle
automorphism, same answers relabelled), changed single queries' search time
by up to 1.8x and a pass's by 15% (2-vCPU Xeon, Python 3.11), because the
search's order follows the arc and element numbering.

Every result file of run.py stores the generated inputs as ``input_specs``,
so a run can be replayed from it.
"""
from __future__ import annotations

import random

CATALOGUE_SEED = 2006
DEFAULT_SEED = 1

# README / tests/fixtures.py braid words: name -> (strands, word)
FIXTURE_BRAIDS = {
    "3_1": (2, (1, 1, 1)),
    "5_2": (3, (1, 1, 1, 2, -1, 2)),
    "6_2": (3, (1, 1, 1, -2, 1, -2)),
    "6_3": (3, (1, 1, -2, 1, -2, -2)),
    "9_42": (4, (1, 1, 1, -2, -1, -1, 3, -2, 3)),
}

A5 = "conjgroup:A5"
S5_CLASS = "conjclass:S5:(1,2)(3,4,5)"
S4 = "conjgroup:S4"
# non-identity conjugacy-class representatives that basepoints and act-on elements are drawn from
CLASSES = {
    A5: ("(1,2,3)", "(1,2)(3,4)", "(1,2,3,4,5)"),
    S5_CLASS: ("(1,2)(3,4,5)",),
    S4: ("(1,2)", "(1,2)(3,4)", "(1,2,3)", "(1,2,3,4)"),
}


# --- diagrams ---------------------------------------------------------------

def braid_closure(word: tuple[int, ...], strands: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Closed code (over_arc, sign) of a braid closure, or None for a link.

    Letter +j crosses the strand at position j over the one at j+1.  Walking
    the closure from position 1 lists each crossing once as an over- and once
    as an under-passage; under-passages in walking order are crossings 1..n.
    """
    passages = []
    pos, rounds = 1, 0
    while True:
        for c, letter in enumerate(word):
            j = abs(letter)
            if pos in (j, j + 1):
                passages.append((c, (letter > 0) == (pos == j), 1 if letter > 0 else -1))
                pos = j + 1 if pos == j else j
        rounds += 1
        if pos == 1:
            break
    if rounds != strands:
        return None
    crossing = {c: i for i, c in enumerate(c for c, over, _ in passages if not over)}
    n = len(crossing)
    over_arc, sign = [0] * n, [0] * n
    unders_seen = 0
    for c, over, s in passages:
        if over:
            over_arc[crossing[c]] = unders_seen % n + 1
        else:
            sign[crossing[c]] = s
            unders_seen += 1
    return tuple(over_arc), tuple(sign)


def random_braid_knot(rng: random.Random, strands: tuple[int, int], length: tuple[int, int]):
    """(strands, word, closed code) of a random braid whose closure is a knot.

    A knot closure needs the braid permutation to be one k-cycle, whose
    parity forces the word length to have the parity of k-1.  Adjacent
    cancelling letters (cyclically) are not drawn.
    """
    while True:
        k = rng.randint(*strands)
        n = rng.randint(*length)
        if n % 2 != (k - 1) % 2:
            n += 1 if n < length[1] else -1
        word: list[int] = []
        while len(word) < n:
            letter = rng.randint(1, k - 1) * rng.choice((1, -1))
            if not word or word[-1] != -letter:
                word.append(letter)
        if word[0] == -word[-1]:
            continue
        code = braid_closure(tuple(word), k)
        if code is not None:
            return k, tuple(word), code


def random_virtual_code(rng: random.Random, crossings: tuple[int, int]):
    n = rng.randint(*crossings)
    return (tuple(rng.randint(1, n) for _ in range(n)),
            tuple(rng.choice((1, -1)) for _ in range(n)))


def mirror(code):
    over, sign = code
    return over, tuple(-s for s in sign)


def concat(codes):
    """Long diagram of the connected sum; a closed code read from arc 1 is long."""
    over, sign, shift = [], [], 0
    for o, s in codes:
        over.extend(a + shift for a in o)
        sign.extend(s)
        shift += len(o)
    return tuple(over), tuple(sign)


def diagram(kind: str, code) -> dict:
    return {"kind": kind, "over_arc": list(code[0]), "sign": list(code[1])}


def fixture_code(name: str):
    strands, word = FIXTURE_BRAIDS[name]
    return braid_closure(word, strands)


# --- catalogues -------------------------------------------------------------

def spectrum_catalogue() -> list[dict]:
    """Closed codes, each under all three quandles with a fixed basepoint class."""
    rng = random.Random(CATALOGUE_SEED)
    codes = [(name, fixture_code(name), True) for name in ("3_1", "5_2", "6_2", "6_3", "9_42")]
    for i in range(10):
        _, word, code = random_braid_knot(rng, (3, 4), (6, 9))
        codes.append((f"braid{i}", code, True))
    for i in range(10):
        codes.append((f"virtual{i}", random_virtual_code(rng, (5, 8)), False))
    entries = []
    for name, code, classical in codes:
        for spec in (A5, S5_CLASS, S4):
            entries.append({"name": name, "code": code, "classical": classical, "quandle": spec,
                            "basepoint": rng.choice(CLASSES[spec]), "act_on": rng.choice(CLASSES[spec])})
    return entries


def composite_catalogue() -> tuple[list[dict], dict]:
    """Long knots of 2-3 factors; each gives a chirality and a connected-sum query.

    Factors are the fixture trefoil and the two-strand braid closures 5_1 and
    7_1, whose searches stay cheap inside a connected sum, so the longitudes
    dominate.  Three-strand factors (4_1, 5_2, 6_2, 6_3) and 9_42 are left
    out: behind a few prefix colorings the current search re-guesses their
    arcs and outweighs the longitudes, which is the spectrum workload's
    subject.  For the same reason factor order is fixed per catalogue entry
    instead of drawn per run.
    """
    rng = random.Random(CATALOGUE_SEED + 1)
    factors = {"3_1": fixture_code("3_1"), "5_1": braid_closure((1,) * 5, 2),
               "7_1": braid_closure((1,) * 7, 2)}
    names = sorted(factors)
    entries = []
    for _ in range(48):
        picks = [(rng.choice(names), rng.random() < 0.4) for _ in range(rng.randint(2, 3))]
        split = rng.randint(1, len(picks) - 1)
        for spec in (A5, S4):
            entries.append({"factors": picks, "split": split, "quandle": spec,
                            "basepoint": rng.choice(CLASSES[spec]), "act_on": rng.choice(CLASSES[spec])})
    return entries, factors


# --- per-run order ----------------------------------------------------------

def spectrum_inputs(seed: int) -> list[dict]:
    queries = [{
        "name": f"s{i:02d} {entry['name']} {entry['quandle']}",
        "kind": "nonclassical",
        "classical": entry["classical"],
        "diagram": diagram("closed", entry["code"]),
        "quandle": entry["quandle"],
        "basepoint": entry["basepoint"],
        "act_on": entry["act_on"],
    } for i, entry in enumerate(spectrum_catalogue())]
    random.Random(seed).shuffle(queries)
    return queries


def composite_inputs(seed: int) -> list[dict]:
    entries, factors = composite_catalogue()
    queries = []
    for i, entry in enumerate(entries):
        picks, split = entry["factors"], entry["split"]
        codes = [mirror(factors[name]) if mirrored else factors[name] for name, mirrored in picks]
        common = {
            "quandle": entry["quandle"],
            "basepoint": entry["basepoint"],
            "act_on": entry["act_on"],
            "factors": [diagram("long", c) for c in codes],
        }
        label = [name + ("*" if mirrored else "") for name, mirrored in picks]
        queries.append({"name": f"c{i:02d} chirality {'#'.join(label)} {entry['quandle']}",
                        "kind": "chirality", "diagram": diagram("long", concat(codes)), **common})
        queries.append({"name": (f"c{i:02d} connected-sum {'#'.join(label[:split])} | "
                                 f"{'#'.join(label[split:])} {entry['quandle']}"),
                        "kind": "connected-sum",
                        "diagrams": [diagram("long", concat(codes[:split])),
                                     diagram("long", concat(codes[split:]))], **common})
    random.Random(seed).shuffle(queries)
    return queries


# --- CLI workloads: the README commands on the committed fixture codes -------

CLI_FILES = {
    "knot_5_2_long.json": diagram("long", ((4, 5, 2, 1, 3), (-1, -1, -1, -1, -1))),
    "trefoil_long.json": diagram("long", fixture_code("3_1")),
    "knot_6_3_closed.json": diagram("closed", fixture_code("6_3")),
    "knot_9_42_closed.json": diagram("closed", fixture_code("9_42")),
    "virtual_witness_closed.json": diagram("closed", ((1, 1, 2), (1, 1, 1))),
    "tangle_t62.json": {"kind": "tangle", "strands": [
        {"crossings": [{"over_strand": 1, "over_arc": a, "sign": -1} for a in (2, 3, 4)]},
        {"crossings": [{"over_strand": 2, "over_arc": a, "sign": -1} for a in (3, 4, 2)]},
    ]},
}

CLI_QUANDLES = {"s5class": S5_CLASS, "a5": A5, "a6": "conjgroup:A6", "d3": "dihedral:3"}
CLI_QUANDLE_SIZES = {S5_CLASS: 20, A5: 60, "conjgroup:A6": 360, "dihedral:3": 3}

# name -> argv, with {file} and {quandle:<key>} placeholders; expected facts in run.py
CLI_COMMANDS = {
    "colorings-5_2": ["colorings", "--diagram", "{knot_5_2_long.json}", "--quandle", "{s5class}",
                      "--basepoint", "(1,2)(3,4,5)"],
    "chirality-5_2": ["chirality", "--diagram", "{knot_5_2_long.json}", "--quandle", "{s5class}",
                      "--basepoint", "(1,2)(3,4,5)", "--act-on", "(1,2,3)(4,5)"],
    "chirality-9_42": ["chirality", "--diagram", "{knot_9_42_closed.json}", "--quandle", "{a5}",
                       "--basepoint", "(1,2,3)", "--act-on", "(2,3,4)"],
    "tangle-t62-6_3": ["tangle-obstruction", "--tangle", "{tangle_t62.json}", "--knot",
                       "{knot_6_3_closed.json}", "--quandle", "{a6}", "--basepoint", "(1,2,3,4)(5,6)",
                       "--act-on", "(1,2,3,4,5)"],
    "nonclassical-9_42": ["nonclassical", "--diagram", "{knot_9_42_closed.json}", "--quandle", "{a5}",
                          "--basepoint", "(1,2,3)", "--act-on", "(2,3,4)"],
    "nonclassical-witness": ["nonclassical", "--diagram", "{virtual_witness_closed.json}",
                             "--quandle", "{d3}", "--basepoint", "0"],
    "verify-s5class": ["verify-quandle", "--quandle", "{s5class}"],
    "verify-a6": ["verify-quandle", "--quandle", "{a6}"],
    "connected-sum-5_2-3_1": ["connected-sum", "--diagram", "{knot_5_2_long.json}", "--diagram",
                              "{trefoil_long.json}", "--quandle", "{d3}", "--basepoint", "0"],
}


def cli_inputs(seed: int) -> list[dict]:
    """The README commands in a seeded order; arguments are filled in by run.py."""
    names = sorted(CLI_COMMANDS)
    random.Random(seed).shuffle(names)
    return [{"name": name, "argv": CLI_COMMANDS[name]} for name in names]


def make_inputs(workload: str, seed: int) -> list[dict]:
    if workload == "spectrum":
        return spectrum_inputs(seed)
    if workload == "composite":
        return composite_inputs(seed)
    return cli_inputs(seed)

