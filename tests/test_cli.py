from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quandleknot as qk
from quandleknot import cli
from quandleknot.cli import main
import fixtures as fx

FIXTURE_DIR = Path(__file__).parent.parent / "fixtures"
PADDED_LABEL = Path(__file__).parent / "data" / "quandle_padded_label.json"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def fixture(name: str) -> str:
    return str(FIXTURE_DIR / name)


class TestFixtureFiles:
    def test_committed_files_match_fixture_objects(self):
        expected = {
            "unknot_long.json": fx.UNKNOT_LONG,
            "knot_5_2_long.json": fx.KNOT_5_2_LONG,
            "knot_5_2_closed.json": fx.KNOT_5_2_CLOSED,
            "trefoil_closed.json": fx.TREFOIL_CLOSED,
            "trefoil_long.json": qk.break_at(fx.TREFOIL_CLOSED, 1),
            "knot_6_2_closed.json": fx.KNOT_6_2_CLOSED,
            "knot_6_3_closed.json": fx.KNOT_6_3_CLOSED,
            "knot_9_42_closed.json": fx.KNOT_9_42_CLOSED,
            "tangle_t62.json": fx.tangle_t62(),
            "tangle_t62_closure_long.json": fx.t62_closure_long(),
            "virtual_witness_closed.json": fx.VIRTUAL_WITNESS_CODE,
            "psl27_k1_long.json": fx.PSL27_K1_LONG,
            "psl27_k2_long.json": fx.PSL27_K2_LONG,
        }
        for name, obj in expected.items():
            assert qk.parse_diagram((FIXTURE_DIR / name).read_text()) == obj


class TestVerifyQuandle:
    def test_trivial_passes(self, capsys):
        code, out = run(capsys, "verify-quandle", "--quandle", "trivial:4")
        assert code == 0 and "PASS" in out and "4 elements" in out

    def test_dihedral_passes(self, capsys):
        # a spec with leading whitespace was once looked up as a file
        for spec in ("dihedral:3", " dihedral:3", "dihedral:3 ", "\tdihedral:3\n"):
            code, out = run(capsys, "verify-quandle", "--quandle", spec)
            assert code == 0 and "PASS" in out

    def test_s5_class_json(self, capsys):
        code, out = run(capsys, "verify-quandle", "--quandle",
                        "conjclass:S5:(1,2)(3,4,5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["elements"] == 20 and payload["passed"]

    def test_quandle_file_input(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(qk.quandle_to_json(qk.dihedral(5)))
        code, out = run(capsys, "verify-quandle", "--quandle", str(path))
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_failed_axiom_exits_one(self, capsys, tmp_path, json_flag):
        # passes Q1 and Q2, which loading checks, but not Q3
        table = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
        path = tmp_path / "not_q3.json"
        path.write_text(json.dumps({"degree": 0, "labels": ["a", "b", "c"], "star": table, "barstar": table}))
        code = main(["verify-quandle", "--quandle", str(path), *json_flag])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        if json_flag:
            payload = json.loads(captured.out)
            assert payload["q1_ok"] and payload["q2_ok"] and not payload["q3_ok"] and not payload["passed"]
        else:
            assert "Q3 (distributivity, exhaustive, 27 triples): violated at (0, 2, 1)" in captured.out
            assert captured.out.rstrip().endswith("FAIL")


class TestColorings:
    def test_5_2_count(self, capsys):
        code, out = run(capsys, "colorings", "--diagram", fixture("knot_5_2_long.json"),
                        "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                        "--basepoint", "(1,2)(3,4,5)")
        assert code == 0 and out.startswith("7 colorings")

    def test_unknot(self, capsys):
        code, out = run(capsys, "colorings", "--diagram", fixture("unknot_long.json"),
                        "--quandle", "dihedral:3", "--basepoint", "1", "--list")
        assert code == 0
        assert "1 colorings" in out and "1" in out.splitlines()[1]

    def test_tangle_boundary_mono(self, capsys):
        code, out = run(capsys, "colorings", "--diagram", fixture("tangle_t62.json"),
                        "--quandle", "conjgroup:A6",
                        "--basepoint", "(1,2,3,4)(5,6)", "--json")
        assert code == 0 and json.loads(out)["count"] == 9

    def test_closed_diagram(self, capsys):
        code, out = run(capsys, "colorings", "--diagram", fixture("trefoil_closed.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--json")
        assert code == 0 and json.loads(out)["count"] == 3


class TestInvariant:
    def test_5_2_rendered(self, capsys):
        code, out = run(capsys, "invariant", "--diagram", fixture("knot_5_2_long.json"),
                        "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                        "--basepoint", "(1,2)(3,4,5)", "--act-on", "(1,2,3)(4,5)")
        assert code == 0
        assert out.strip() == "6 · (1,2,4)(3,5) + (1,2,3)(4,5)"

    def test_9_42_rendered(self, capsys):
        code, out = run(capsys, "invariant", "--diagram", fixture("knot_9_42_closed.json"),
                        "--quandle", "conjgroup:A5",
                        "--basepoint", "(1,2,3)", "--act-on", "(2,3,4)")
        assert code == 0
        assert out.strip() == "7 · (2,3,4) + 6 · (1,4,3)"

    def test_trivial_quandle_single_term(self, capsys):
        code, out = run(capsys, "invariant", "--diagram", fixture("knot_5_2_long.json"),
                        "--quandle", "trivial:5", "--basepoint", "0", "--act-on", "2")
        assert code == 0 and out.strip() == "2"

    def test_act_on_defaults_to_basepoint(self, capsys):
        code, out = run(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["colorings"] == 3


class TestVerdictCommands:
    def test_chirality_5_2(self, capsys):
        code, out = run(capsys, "chirality", "--diagram", fixture("knot_5_2_long.json"),
                        "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                        "--basepoint", "(1,2)(3,4,5)", "--act-on", "(1,2,3)(4,5)", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "distinct"

    def test_tangle_obstruction(self, capsys):
        code, out = run(capsys, "tangle-obstruction",
                        "--tangle", fixture("tangle_t62.json"),
                        "--knot", fixture("knot_6_3_closed.json"),
                        "--quandle", "conjgroup:A6",
                        "--basepoint", "(1,2,3,4)(5,6)", "--act-on", "(1,2,3,4,5)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "obstructed"
        assert payload["sums"]["knot"] == {"(1,2,3,4,5)": 33}

    def test_nonclassical_witness(self, capsys):
        code, out = run(capsys, "nonclassical",
                        "--diagram", fixture("virtual_witness_closed.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--act-on", "0", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "distinct"

    def test_nonclassical_classical_inconclusive(self, capsys):
        code, out = run(capsys, "nonclassical", "--diagram", fixture("trefoil_closed.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_connected_sum(self, capsys):
        code, out = run(capsys, "connected-sum",
                        "--diagram", fixture("knot_5_2_long.json"),
                        "--diagram", fixture("trefoil_long.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "inconclusive"


class TestDeterminismAndErrors:
    def test_json_output_is_byte_stable(self, capsys):
        argv = ["invariant", "--diagram", fixture("knot_5_2_long.json"),
                "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                "--basepoint", "(1,2)(3,4,5)", "--act-on", "(1,2,3)(4,5)", "--json"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    def test_jobs_flag_keeps_output(self, capsys):
        argv = ["colorings", "--diagram", fixture("knot_5_2_long.json"),
                "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                "--basepoint", "(1,2)(3,4,5)", "--list", "--json"]
        _, serial = run(capsys, *argv)
        _, parallel = run(capsys, *(argv + ["--jobs", "2"]))
        assert serial == parallel

    @pytest.mark.parametrize("argv, status", [
        (["verify-quandle", "--quandle", "nosuch:3"], 1),
        (["colorings", "--diagram", "/nonexistent.json", "--quandle", "dihedral:3", "--basepoint", "0"], 1),
        (["invariant", "--diagram", str(FIXTURE_DIR / "knot_5_2_long.json"),
          "--quandle", "dihedral:3", "--basepoint", "9"], 1),
        (["connected-sum", "--diagram", str(FIXTURE_DIR / "knot_5_2_long.json"),
          "--quandle", "dihedral:3", "--basepoint", "0"], 1),
        # argparse's usage errors: a missing --diagram, and flags colorings does not take
        (["colorings", "--quandle", "dihedral:3", "--basepoint", "0"], 2),
        (["colorings", "--diagram", str(FIXTURE_DIR / "trefoil_long.json"),
          "--tangle", str(FIXTURE_DIR / "tangle_t62.json"), "--boundary-mono",
          "--quandle", "dihedral:3", "--basepoint", "0"], 2),
    ], ids=[f"argv{i}" for i in range(6)])
    def test_validation_failures_exit_nonzero(self, argv, status, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == status

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, jobs, capsys):
        err = run_error(capsys, "colorings", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", "dihedral:3", "--basepoint", "0", "--jobs", jobs)
        assert "--jobs" in err

    def test_malformed_diagram_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["colorings", "--diagram", str(bad),
                     "--quandle", "dihedral:3", "--basepoint", "0"]) == 1


def run_error(capsys, *argv) -> str:
    """Run a command that must fail; return its single stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestRefusedInputs:
    @pytest.mark.parametrize("argv", [
        ["invariant", "--diagram", "tangle_t62.json"],
        ["chirality", "--diagram", "tangle_t62.json"],
        ["tangle-obstruction", "--tangle", "knot_5_2_long.json", "--knot", "knot_6_3_closed.json"],
        ["tangle-obstruction", "--tangle", "tangle_t62.json", "--knot", "tangle_t62.json"],
        ["nonclassical", "--diagram", "knot_5_2_long.json"],
        ["connected-sum", "--diagram", "trefoil_closed.json", "--diagram", "trefoil_long.json"],
    ], ids=lambda argv: " ".join(argv))
    def test_wrong_kind_of_diagram_refused(self, argv, capsys):
        # the library refuses the kind; the command still ends in one error: line
        argv = [fixture(a) if a.endswith(".json") else a for a in argv]
        err = run_error(capsys, *argv, "--quandle", "dihedral:3", "--basepoint", "0")
        assert "diagram" in err

    @pytest.mark.parametrize("argv", [
        ["connected-sum", "--diagram", "knot_5_2_long.json"],
        ["invariant", "--diagram", "no_such_diagram.json"],
    ], ids=lambda argv: " ".join(argv))
    def test_cheap_mistakes_refused_before_the_quandle_is_built(self, argv, capsys, monkeypatch):
        # under conjgroup:A7 building the quandle alone takes about a second
        def build(*args, **kwargs):
            raise AssertionError("the quandle was built")
        monkeypatch.setattr(cli, "_load_quandle", build)
        argv = [fixture(a) if a.endswith(".json") else a for a in argv]
        run_error(capsys, *argv, "--quandle", "conjgroup:A7", "--basepoint", "()")

    def test_padded_label_file_refused(self, capsys):
        # element_index strips its input, so " a" would name the element labelled "a"
        err = run_error(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", str(PADDED_LABEL), "--basepoint", "a")
        assert err == ("error: malformed quandle JSON: labels must be strings without surrounding whitespace, "
                       "got ' a'\n")

    def test_missing_json_field_is_named(self, capsys, tmp_path):
        diagram_file, quandle_file = tmp_path / "d.json", tmp_path / "q.json"
        diagram_file.write_text('{"kind": "long", "sign": []}')
        quandle_file.write_text('{"star": [[0]]}')
        err = run_error(capsys, "invariant", "--diagram", str(diagram_file),
                        "--quandle", "dihedral:3", "--basepoint", "0")
        assert err == "error: malformed diagram JSON: missing field 'over_arc'\n"
        err = run_error(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", str(quandle_file), "--basepoint", "0")
        assert err == "error: malformed quandle JSON: missing field 'labels'\n"

    def test_oversized_group_refused_quickly(self, capsys):
        start = time.perf_counter()
        err = run_error(capsys, "verify-quandle", "--quandle", "conjgroup:S8")
        assert time.perf_counter() - start < 2.0
        assert str(qk.permgroup.MAX_ELEMENTS) in err

    def test_large_quandle_verified_exactly(self, capsys):
        # above 720 elements, where Q3 used to be sampled
        assert main(["verify-quandle", "--quandle", "dihedral:721", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["elements"] == 721 and payload["passed"]
        assert payload["q3_mode"] == "exhaustive"

    def test_q3_failing_file_refused(self, capsys, tmp_path):
        # passes Q1 and Q2, which loading checks, but not Q3
        table = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
        path = tmp_path / "not_q3.json"
        path.write_text(json.dumps({"degree": 0, "labels": ["a", "b", "c"], "star": table, "barstar": table}))
        err = run_error(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", str(path), "--basepoint", "a", "--act-on", "b")
        assert "not a quandle" in err and "Q3" in err and "(0, 2, 1)" in err

    def test_oversized_gens_spec_refused(self, capsys):
        run_error(capsys, "verify-quandle", "--quandle", "conjgroup:gens:(1,2);(1,2,3,4,5,6,7,8)")

    @pytest.mark.parametrize("spec", [
        "conjgroup:gens:(1,99999999999999999999999)",
        "conjclass:gens:(1,2);(1,2897):(1,2)",
    ])
    def test_oversized_degree_spec_refused(self, spec, capsys):
        err = run_error(capsys, "verify-quandle", "--quandle", spec)
        assert str(qk.permgroup.MAX_ELEMENTS) in err

    @pytest.mark.parametrize("degree", [99999999999999999999999, 2897])
    def test_oversized_json_degree_refused(self, degree, capsys, tmp_path):
        obj = json.loads(qk.quandle_to_json(qk.parse_quandle_spec("conjclass:S3:(1,2)")))
        path = tmp_path / "q.json"
        path.write_text(json.dumps(dict(obj, degree=degree)))
        err = run_error(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", str(path), "--basepoint", "(1,2)")
        assert str(qk.permgroup.MAX_ELEMENTS) in err

    def test_largest_degree_accepted(self, capsys, tmp_path):
        spec = "conjclass:gens:(1,2);(1,2896):(1,2)"
        argv = ["invariant", "--diagram", fixture("trefoil_long.json"), "--basepoint", "(1,2)"]
        assert run(capsys, *argv, "--quandle", spec) == (0, "3 · (1,2)\n")
        path = tmp_path / "q.json"
        path.write_text(qk.quandle_to_json(qk.parse_quandle_spec(spec)))
        assert run(capsys, *argv, "--quandle", str(path)) == (0, "3 · (1,2)\n")

    @pytest.mark.parametrize("text", ["[" * 100000, '{"labels": ["0", "1"], "star": [[0, 1], [1,'],
                             ids=["deep", "truncated"])
    @pytest.mark.parametrize("kind", ["diagram", "quandle"])
    def test_unparsable_json_file(self, text, kind, capsys, tmp_path):
        # nested deeper than the json module recurses, or cut short
        path = tmp_path / "bad.json"
        path.write_text(text)
        files = {"diagram": fixture("trefoil_long.json"), "quandle": "dihedral:3", kind: str(path)}
        err = run_error(capsys, "colorings", "--diagram", files["diagram"],
                        "--quandle", files["quandle"], "--basepoint", "0")
        assert f"malformed {kind} JSON" in err

    @pytest.mark.parametrize("obj", [
        {"kind": "long", "over_arc": [1.0], "sign": [1]},
        {"kind": "long", "over_arc": [1], "sign": [True]},
        {"kind": "closed", "over_arc": [1, "2"], "sign": [1, 1]},
        {"kind": "closed", "over_arc": 1, "sign": [1]},
        {"kind": "tangle", "strands": [{"crossings": [{"over_strand": 2, "over_arc": 1.5, "sign": 1}]},
                                       {"crossings": []}]},
        {"kind": "tangle", "strands": [{"crossings": [{"over_strand": True, "over_arc": 1, "sign": 1}]},
                                       {"crossings": []}]},
        {"kind": "tangle", "strands": [{"crossings": [{"over_strand": 2, "over_arc": 1, "sign": -1.0}]},
                                       {"crossings": []}]},
        {"kind": "tangle", "strands": [{"crossings": ""}, {"crossings": []}]},  # once read as an empty strand
    ])
    def test_non_integer_diagram_fields(self, obj, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj))
        argv = ["colorings", "--diagram", str(path), "--quandle", "dihedral:3", "--basepoint", "0"]
        assert "malformed diagram JSON" in run_error(capsys, *argv)

    @pytest.mark.parametrize("corrupt", [
        lambda obj: obj["star"][0].__setitem__(1, 2.0),
        lambda obj: obj["barstar"][2].__setitem__(0, True),
        lambda obj: obj.__setitem__("degree", 0.0),
        lambda obj: obj.__setitem__("barstar", obj["star"][::-1]),
        lambda obj: obj["barstar"][0].reverse(),
        lambda obj: obj["star"][0].append(0),
        lambda obj: obj["star"][1].__setitem__(1, -1),
        lambda obj: obj["barstar"][1].__setitem__(1, 3),
        lambda obj: obj.update(labels=[], star=[], barstar=[]),
        lambda obj: obj.__setitem__("star", 7),
        # a rack, not a quandle: i * j = i + 1 mod 3 satisfies Q2 and Q3 but not Q1
        lambda obj: obj.update(star=[[(i + 1) % 3] * 3 for i in range(3)],
                               barstar=[[(i - 1) % 3] * 3 for i in range(3)]),
        lambda obj: obj.__setitem__("labels", [[0], [1], [2]]),
        lambda obj: obj.__setitem__("labels", "012"),
        # a file without barstar whose x -> x * 0 sends 0 and 1 to 0: not Q2
        lambda obj: obj.update(star=[[0, 0, 0], [0, 1, 0], [2, 2, 2]]) or obj.pop("barstar"),
    ])
    def test_bad_quandle_json(self, corrupt, capsys, tmp_path):
        # the older format, which also holds barstar: dihedral:3 is involutory
        obj = json.loads(qk.quandle_to_json(qk.dihedral(3)))
        obj["barstar"] = [row[:] for row in obj["star"]]
        corrupt(obj)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        err = run_error(capsys, "invariant", "--diagram", fixture("trefoil_long.json"),
                        "--quandle", str(path), "--basepoint", "0")
        assert "quandle" in err


class TestVerdictOutput:
    def test_json_is_the_verdict_payload(self, capsys):
        argv = ["chirality", "--diagram", fixture("knot_5_2_long.json"),
                "--quandle", "conjclass:S5:(1,2)(3,4,5)",
                "--basepoint", "(1,2)(3,4,5)", "--act-on", "(1,2,3)(4,5)"]
        _, out = run(capsys, *argv, "--json")
        q = qk.parse_quandle_spec("conjclass:S5:(1,2)(3,4,5)")
        query = qk.InvariantQuery(q, q.element_index("(1,2)(3,4,5)"), q.element_index("(1,2,3)(4,5)"))
        verdict = qk.chirality_test(fx.KNOT_5_2_LONG, query)
        assert out == verdict.to_json() + "\n"
        _, plain = run(capsys, *argv)
        assert plain == verdict.render() + "\n"


README = FIXTURE_DIR.parent / "README.md"
README_GOLDEN = Path(__file__).parent / "data" / "readme_cli.json"


def readme_commands() -> list[list[str]]:
    """The `quandleknot` commands of README.md's sh blocks, as argument lists."""
    commands, block = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            block = [] if line == "```sh" and block is None else None
            continue
        if block is None or line.lstrip().startswith("#"):
            continue
        block.append(line.strip())
        if not line.endswith("\\"):
            words = shlex.split(" ".join(part.rstrip("\\") for part in block))
            if words and words[0] == "quandleknot":
                commands.append(words[1:])
            block = []
    return commands


def readme_outputs(capsys) -> list[dict]:
    """Exit status and stdout of each README command, plain and with --json."""
    outputs = []
    for argv in readme_commands():
        record = {"argv": argv}
        for key, extra in (("plain", []), ("json", ["--json"])):
            code = main(argv + extra)
            record[key] = {"exit": code, "stdout": capsys.readouterr().out}
        outputs.append(record)
    return outputs


def test_readme_commands_match_golden_output(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    assert readme_outputs(capsys) == json.loads(README_GOLDEN.read_text())


def test_readme_library_block_prints_its_comments(capsys):
    # README's python block, run as written: each print(...) line prints its trailing comment
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    expected = [re.fullmatch(r"print\(.*\)\s+# (.*)", line).group(1)
                for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected


# in a fresh interpreter: each case by cli.main, then whether any of them imported numpy
_WITHOUT_NUMPY = """
import sys
before = set(sys.modules)  # what the interpreter loaded at start, before anything of this script
import contextlib, io, json
import quandleknot.cli as cli

answers = []
for case in json.load(sys.stdin):
    record = {"argv": case["argv"]}
    for key, extra in (("plain", []), ("json", ["--json"])):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(case["argv"] + extra)
        record[key] = {"exit": code, "stdout": stdout.getvalue()}
    answers.append(record)
added = [name for name in ("dataclasses", "inspect", "typing") if name in set(sys.modules) - before]
print(json.dumps({"answers": answers, "numpy": "numpy" in sys.modules, "added": added}))
"""


def test_coloring_commands_run_without_numpy(tmp_path):
    # every README command, and the A5 chirality command again on a quandle file, whose load certifies Q3
    cases = json.loads(README_GOLDEN.read_text())
    assert [case["argv"][0] for case in cases] == ["colorings", "chirality", "chirality", "tangle-obstruction",
                                                  "nonclassical", "verify-quandle", "connected-sum", "connected-sum",
                                                  "connected-sum", "colorings"]
    on_spec = next(case for case in cases if "conjgroup:A5" in case["argv"])
    a5_file = tmp_path / "a5.json"
    a5_file.write_text(qk.quandle_to_json(qk.parse_quandle_spec("conjgroup:A5")))
    cases.append({**on_spec, "argv": [str(a5_file) if arg == "conjgroup:A5" else arg for arg in on_spec["argv"]]})
    src = str(Path(qk.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], input=json.dumps(cases),
                          cwd=README.parent, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert report["answers"] == cases
    assert report["numpy"] is False
    assert report["added"] == []  # each costs start-up time: dataclasses alone pulls in inspect, dis and ast
