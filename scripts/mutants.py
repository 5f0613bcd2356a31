"""Re-run the recorded mutants: each must make every test node id named for it fail.

Usage: python scripts/mutants.py

``scripts/mutants.json`` lists the mutants.  Each names a file, an exact old
text that must occur in it exactly once, its replacement, and the node ids
that must fail.  The checkout, without ``.git`` and ``perfbench/``, is copied
to a temporary directory (the CLI tests read ``README.md`` and
``fixtures/``).  First the named node ids run on the unchanged copy, where
each must pass; then, for each mutant in a fresh copy, the one change is
applied and only its node ids run.  Exit status 1 when a mutant survives (a
named id passes, or does not run while its collection succeeds) or when an old
text no longer matches once.  The run stops with an error when ``quandleknot``
would be imported from anywhere but the copy's ``src``, as an installed package
that shadowed it would let every mutant survive.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
_IGNORED = shutil.ignore_patterns(".git", "perfbench", "__pycache__", ".hypothesis", ".pytest_cache")

# runs pytest in the copy and prints, as JSON, the node ids that ran, those that failed, and
# pytest's exit code: 2 or 4 when collection or a conftest import fails, as a mutant can make it;
# exits nonzero first if the package would not come from the copy
_CHILD = """
import importlib.util, json, os, sys, pytest
spec = importlib.util.find_spec("quandleknot")
if spec is None or not os.path.realpath(spec.origin).startswith(os.path.realpath("src") + os.sep):
    sys.exit(f"quandleknot would be imported from {spec and spec.origin}, not from {os.path.realpath('src')}")
ran, failed = set(), set()
class Recorder:
    def pytest_runtest_logreport(self, report):
        ran.add(report.nodeid)
        if report.failed:
            failed.add(report.nodeid)
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]], plugins=[Recorder()])
print(json.dumps({"ran": sorted(ran), "failed": sorted(failed), "broken": int(code) not in (0, 1)}))
"""


def _run(copy: Path, ids: list[str]) -> tuple[set[str], set[str], bool]:
    """The node ids of ``ids`` that ran, those that failed, and whether pytest stopped before
    running them all (a collection or conftest error), in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", _CHILD, *ids], cwd=copy, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"pytest did not run in {copy}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return set(result["ran"]), set(result["failed"]), bool(result["broken"])


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=_IGNORED)
        ids = sorted({i for m in mutants for i in m["kills"]})
        ran, failed, broken = _run(clean, ids)
        for i in ids:
            if broken or i not in ran or i in failed:
                print(f"UNMUTATED {'fails' if i in ran else 'did not run'}: {i}")
                bad += 1
        for m in mutants:
            copy = Path(tmp) / "mutant"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            path = copy / m["file"]
            text = path.read_text()
            if text.count(m["old"]) != 1:
                print(f"STALE     {m['name']}: the old text occurs {text.count(m['old'])} times in {m['file']}")
                bad += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            start = time.perf_counter()
            ran, failed, broken = _run(copy, m["kills"])
            # an id that did not run because collection broke fails too: each one ran unmutated
            survivors = [i for i in m["kills"] if i not in failed and (i in ran or not broken)]
            status = "killed   " if not survivors else "SURVIVED "
            print(f"{status} {m['name']}: {len(m['kills']) - len(survivors)}/{len(m['kills'])} named ids "
                  f"fail{' (collection broke)' if broken else ''} ({time.perf_counter() - start:.1f} s)")
            for i in survivors:
                print(f"    {'passes' if i in ran else 'did not run'}: {i}")
            bad += bool(survivors)
    print(f"{len(mutants)} mutants, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
