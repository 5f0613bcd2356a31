"""Spans around the calls into each quandleknot module, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules,
wherever a module binds it (its own module, ``from .x import`` bindings in
other modules, and the package namespace), with a wrapper that records a
span: name, start, end and parent span.  Functions called once per table
entry or per letter are counted instead of spanned.  Spans stay in memory;
``summary`` turns them into per-layer numbers and ``dump`` writes them out.

The wrappers of the coloring and longitude entry points also check answers:
every coloring is re-verified with the package's ``verify_coloring`` and each
formal sum's mass must equal the number of colorings found under it.  That
work, and the benchmark's own bookkeeping, is recorded as ``bench`` spans,
which belong to no layer and are taken out of their parent's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("permgroup", "quandle", "diagram", "coloring", "longitude", "obstruction", "cli")

# called once per table entry, element label or word letter: counted, not spanned
COUNTED = {"permgroup.compose", "permgroup.inverse", "permgroup.conjugate",
           "permgroup.print_cycles", "permgroup.cycle_type", "quandle.eval_word"}
COLORING_CALLS = {"coloring.colorings_long", "coloring.colorings_closed",
                  "coloring.colorings_tangle_boundary_mono"}
BUILDS = {"quandle.parse_quandle_spec", "quandle.from_conjugation", "quandle.dihedral",
          "quandle.trivial"}
LOADS = {"quandle.quandle_from_json"}
# names the per-layer metrics are computed from; missing ones are reported as absent
EXPECTED = sorted(COLORING_CALLS | BUILDS | LOADS | {
    "quandle.verify_axioms", "coloring.verify_coloring", "longitude.formal_sum",
    "longitude.longitude_family", "longitude.tangle_sums", "cli.main"})

NAME, START, END, PARENT, CHILD_TIME, FOUND = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.letters = 0
        self.check_failures = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._verify = None

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_TIME] += span[END] - span[START]

    def _span_wrapper(self, fn, name: str):
        after = self._after_hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                bench = self._open("bench")
                try:
                    after(index, args, result)
                finally:
                    self._close(bench)
            return result
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # --- answer checks and work counts ----------------------------------------

    def _after_hooks(self):
        return {
            **{name: self._after_quandle for name in BUILDS | LOADS},
            **{name: self._after_colorings for name in COLORING_CALLS},
            "longitude.formal_sum": self._after_formal_sum,
            "longitude.longitude_family": self._after_family,
            "longitude.tangle_sums": self._after_tangle_sums,
        }

    def _after_quandle(self, index, args, result):
        self.spans[index][FOUND] = len(result)

    def _after_colorings(self, index, args, result):
        self.spans[index][FOUND] = len(result)
        parent = self.spans[index][PARENT]
        if parent >= 0:
            self.spans[parent][FOUND] += len(result)
        q = args[1]
        if self._verify is not None and not all(self._verify(c, q) for c in result):
            self.check_failures += 1

    def _after_formal_sum(self, index, args, result):
        d = args[0]
        if result.mass() != self.spans[index][FOUND]:
            self.check_failures += 1
        self.letters += result.mass() * 2 * d.n

    def _after_family(self, index, args, result):
        d, q = args[0], args[1]
        if len(result) != self.spans[index][FOUND]:
            self.check_failures += 1
        self.letters += len(result) * 2 * d.n * len(q)

    def _after_tangle_sums(self, index, args, result):
        t = args[0]
        found = self.spans[index][FOUND]
        if any(s.mass() != found for s in result):
            self.check_failures += 1
        self.letters += found * 2 * (len(t.strands[0]) + len(t.strands[1])) * 2

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("quandleknot")
        modules = [importlib.import_module(f"quandleknot.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("quandleknot.") or owner not in LAYERS:
                    continue
                name = f"{owner}.{value.__name__}"
                if id(value) not in wrappers:
                    make = self._count_wrapper if name in COUNTED else self._span_wrapper
                    wrappers[id(value)] = make(value, name)
                    if name == "coloring.verify_coloring":
                        self._verify = value
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        found = {f"{v.__module__.rpartition('.')[2]}.{v.__name__}" for _, _, v in self._patches}
        self.absent = [name for name in EXPECTED if name not in found]

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # --- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times and counts over every span recorded."""
        self_time = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        build_s = load_s = axioms_s = bench_s = 0.0
        entries = colorings = 0
        breaks = []
        outer = self._outermost(BUILDS | LOADS)
        for i, (name, start, end, _, child, found) in enumerate(self.spans):
            duration = end - start
            if name == "bench":
                bench_s += duration - child
                continue
            layer = name.partition(".")[0]
            self_time[layer] += duration - child
            calls[layer] += 1
            if name in COLORING_CALLS:
                breaks.append(duration * 1000)
                colorings += found
            if name == "quandle.verify_axioms":
                axioms_s += duration
            if i in outer:
                entries += 2 * found * found
                if name in LOADS:
                    load_s += duration
                else:
                    build_s += duration
        return {
            "self_s": self_time,
            "calls": calls,
            "counted": dict(sorted(self.counts.items())),
            "bench_s": bench_s,
            "quandle.build_s": build_s,
            "quandle.load_s": load_s,
            "quandle.axioms_s": axioms_s,
            "quandle.table_entries": entries,
            "coloring.calls": len(breaks),
            "coloring.colorings": colorings,
            "coloring.break_p50_ms": statistics.median(breaks) if breaks else 0.0,
            "coloring.break_max_ms": max(breaks) if breaks else 0.0,
            "longitude.letters": self.letters,
            "longitude.letters_per_s": (self.letters / self_time["longitude"]
                                        if self_time["longitude"] > 0 else 0.0),
            "spans": len(self.spans),
            "absent": self.absent,
            "check_failures": self.check_failures,
        }

    def _outermost(self, names: set[str]) -> set[int]:
        outer = set()
        for i, span in enumerate(self.spans):
            if span[NAME] not in names:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                outer.add(i)
        return outer

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _, found) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "found": found}) + "\n")
