"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py <src dir> <quandle spec or .json file>...

Imports quandleknot from <src dir>, makes each quandle ready (built from its
spec, or loaded from its JSON file) and prints the two phase times as JSON.
"""
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    sys.path.insert(0, argv[0])
    import quandleknot

    imported = time.perf_counter()
    for source in argv[1:]:
        if source.endswith(".json"):
            quandleknot.quandle_from_json(Path(source).read_text())
        else:
            quandleknot.parse_quandle_spec(source)
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "ready_s": ready - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
