"""Fixed reference work that tells how fast the host runs at a given moment.

    python3 perfbench/kernel.py

run.py times ``kernel()`` in process between in-process queries, and this
file as a child process between CLI invocations and set-up probes; the child
starts an interpreter, imports what the CLI imports and runs the kernel, so it
slows down as a CLI invocation does.  Nothing here imports the package, so a
change to the package moves the query times and not the kernel.
"""
from __future__ import annotations

CHILD_ROUNDS = 4000


def kernel(rounds: int) -> int:
    """Interpreter work of the package's kind: tuple indexing, arithmetic, dict stores."""
    rows = [tuple((i * 7 + j * 3) % 60 for j in range(60)) for i in range(8)]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for r in range(rounds):
        row = rows[r % 8]
        for j in range(0, 60, 3):
            acc += row[j]
            seen[row[j], j] = acc
        acc %= 1000003
    return acc + len(seen)


if __name__ == "__main__":
    import argparse  # noqa: F401  the standard modules and numpy that quandleknot.cli imports
    import collections  # noqa: F401
    import dataclasses  # noqa: F401
    import json  # noqa: F401
    import multiprocessing  # noqa: F401
    import re  # noqa: F401

    import numpy  # noqa: F401

    kernel(CHILD_ROUNDS)
