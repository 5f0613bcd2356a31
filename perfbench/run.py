"""The quandleknot benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run it from a checkout of the repository; it imports the package from
``src/`` and changes nothing outside ``perfbench/results`` and
``perfbench/.work``.  Each workload is a closed loop with one client: the
next query starts when the previous one has returned.  A query is one
decision-procedure call (``spectrum``, ``composite``, in process, ``jobs=1``)
or one CLI invocation in a subprocess (``cli-spec``, ``cli-json``).  The timed
phase runs whole passes over the workload's queries, at least ``MIN_PASSES``,
until ``--seconds`` have passed, so every run measures the same mix.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced pass (see perfbench/README.md).
Every answer is checked; a query that raises, exits nonzero or answers wrong
counts as failed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED_FILE = HERE / "expected.json"
WORKLOADS = ("spectrum", "composite", "cli-spec", "cli-json")
SETUP_PROBES = 3
TAIL_SAMPLES_ABOVE = 10
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import kernel  # noqa: E402
import tracer  # noqa: E402


# --- queries and passes -----------------------------------------------------

class Query:
    """One query: ``run(jobs)`` returns the answer text, ``check(text)`` a failure or None."""

    def __init__(self, name: str, run: Callable[[int], str], check: Callable[[str], str | None],
                 crossings: int):
        self.name, self.run, self.check, self.crossings = name, run, check, crossings


class Ledger:
    """Answers and failures of every query execution in a run."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, query: Query, text: str | None, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            error = query.check(text)
        if error is None and self.first.setdefault(query.name, text) != text:
            error = "answer differs from this query's first answer"
        if error is None and self.expected is not None:
            want = self.expected.get(query.name)
            if want != sha256(text):
                error = "answer digest differs from perfbench/expected.json"
        if error is not None:
            self.failures.append(f"{query.name}: {error}")

    def digests(self, queries: list[Query]) -> dict[str, str]:
        return {q.name: sha256(self.first[q.name]) for q in queries if q.name in self.first}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_query(query: Query, ledger: Ledger, jobs: int = 1) -> float:
    """Run one query and record its answer; returns its latency (s)."""
    t0 = time.perf_counter()
    try:
        text, error = query.run(jobs), None
    except Exception:  # a failing query is a result, not a crash
        text, error = None, " | ".join(traceback.format_exc(limit=-3).strip().splitlines()[-4:])
    latency = time.perf_counter() - t0
    ledger.record(query, text, error)
    return latency


def run_pass(queries: list[Query], ledger: Ledger, jobs: int = 1) -> tuple[list[float], float]:
    """Run every query once, in order; returns per-query latencies (s) and the pass wall time."""
    started = time.perf_counter()
    latencies = [run_query(query, ledger, jobs) for query in queries]
    return latencies, time.perf_counter() - started


# --- host speed ----------------------------------------------------------------
#
# The benchmark runs on shared hosts whose CPUs drift in speed, each on its
# own, by up to 2x within seconds (a fixed pure-Python loop, 2-vCPU Xeon):
# far more than the changes it is meant to show.  So the timed phase and the
# set-up probes run pinned to one CPU, every timed step is bracketed by
# timings of a fixed reference kernel (perfbench/kernel.py), and its wall time
# is scaled by the kernel's reference time over the mean of the kernel times
# just before and just after it.  End-to-end times are therefore given at the
# host speed at which the kernel takes its reference time.  In-process queries
# are bracketed by the kernel in process, CLI invocations and set-up probes
# by the kernel as a child process.  Raw wall-clock figures are kept in every
# result file.

KERNEL_ROUNDS = 120
KERNEL_REF_S = 0.35e-3  # in process, best of KERNEL_REPEATS
KERNEL_REPEATS = 3
CHILD_KERNEL_REF_S = 0.2  # as a child process


def kernel_slowness() -> float:
    """The in-process kernel's best time of KERNEL_REPEATS over its reference time.

    The best of a few filters out interrupts.
    """
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel.kernel(KERNEL_ROUNDS)
        best = min(best, time.perf_counter() - t0)
    return best / KERNEL_REF_S


def child_kernel_slowness() -> float:
    """The kernel's time as a child process, relative to its reference time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "kernel.py")], cwd=ROOT, check=True, timeout=60)
    return (time.perf_counter() - t0) / CHILD_KERNEL_REF_S


def bracketed(steps: list[Callable[[], float]], slowness: Callable[[], float]
              ) -> tuple[list[float], list[float]]:
    """Run each step (a callable returning its wall time) between host-speed readings.

    ``slowness()`` is a kernel time over its reference time.  Returns the raw
    wall times and the times scaled to the reference speed (s).
    """
    raw, scaled = [], []
    before = slowness()
    for step in steps:
        wall = step()
        after = slowness()
        raw.append(wall)
        scaled.append(wall * 2 / (before + after))
        before = after
    return raw, scaled


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Keep this process and the children it starts on one CPU, the one the kernel is timed on."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def timed_phase(queries: list[Query], ledger: Ledger, seconds: float,
                slowness: Callable[[], float]) -> dict:
    raw: list[float] = []
    scaled: list[float] = []
    passes = 0
    started = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        r, s = bracketed([lambda q=q: run_query(q, ledger) for q in queries], slowness)
        raw += r
        scaled += s
        passes += 1
    return {"raw": raw, "scaled": scaled, "passes": passes, "wall_s": time.perf_counter() - started}


def tail_percentile(queries_per_pass: int) -> int:
    """The highest whole percentile with ten samples above it in a run of MIN_PASSES passes.

    Fixing it per workload, rather than per run, keeps the tail on the same
    queries whatever the number of passes a run manages.
    """
    return max(1, int(100 * (1 - TAIL_SAMPLES_ABOVE / (MIN_PASSES * queries_per_pass))))


def percentile(latencies: list[float], p: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


# --- in-process workloads ---------------------------------------------------

def long_diagram(qk, d: dict):
    return qk.LongDiagram(tuple(d["over_arc"]), tuple(d["sign"]))


def build_quandles(qk, specs) -> dict:
    return {spec: qk.parse_quandle_spec(spec) for spec in specs}


def check_axioms(qk, quandles: dict) -> None:
    for spec, q in quandles.items():
        if not qk.verify_axioms(q).all_ok:
            raise RuntimeError(f"{spec} does not satisfy the quandle axioms")


def verdict_masses(payload: dict) -> dict[str, int]:
    return {name: sum(terms.values()) for name, terms in payload["sums"].items()}


def spectrum_queries(qk, quandles: dict, specs: list[dict]) -> list[Query]:
    queries = []
    for spec in specs:
        q = quandles[spec["quandle"]]
        query = qk.InvariantQuery(q, q.element_index(spec["basepoint"]), q.element_index(spec["act_on"]))
        d = qk.ClosedDiagram(tuple(spec["diagram"]["over_arc"]), tuple(spec["diagram"]["sign"]))

        def run(jobs, d=d, query=query):
            return qk.nonclassical_by_basepoints(d, query, jobs).to_json()

        def check(text, n=d.n, classical=spec["classical"]):
            payload = json.loads(text)
            sums = list(payload["sums"].values())
            if len(sums) != n:
                return f"{len(sums)} break sums for {n} crossings"
            if min(verdict_masses(payload).values()) < 1:
                return "a break has no coloring, but the constant coloring always exists"
            differ = any(s != sums[0] for s in sums[1:])
            if payload["verdict"] != ("distinct" if differ else "inconclusive"):
                return f"verdict {payload['verdict']} does not match the break sums"
            if classical and payload["verdict"] != "inconclusive":
                return "a braid closure is classical, so its verdict must be inconclusive"
            return None

        queries.append(Query(spec["name"], run, check, d.n))
    return queries


def factor_key(spec: dict, factor: dict, sign: int) -> tuple:
    """A factor (mirrored when sign is -1) under the query's quandle and basepoint."""
    return (spec["quandle"], spec["basepoint"], tuple(factor["over_arc"]),
            tuple(sign * s for s in factor["sign"]))


def composite_queries(qk, quandles: dict, specs: list[dict], counts: dict) -> list[Query]:
    """``counts[factor_key(...)]`` is the coloring count of one factor, from ``factor_counts``."""
    queries = []
    for spec in specs:
        q = quandles[spec["quandle"]]
        query = qk.InvariantQuery(q, q.element_index(spec["basepoint"]), q.element_index(spec["act_on"]))

        def product(factors, sign=1, spec=spec):
            total = 1
            for f in factors:
                total *= counts[factor_key(spec, f, sign)]
            return total

        expected_mass = product(spec["factors"])
        if spec["kind"] == "chirality":
            d = long_diagram(qk, spec["diagram"])
            mirror_mass = product(spec["factors"], -1)

            def run(jobs, d=d, query=query):
                return qk.chirality_test(d, query, jobs).to_json()

            def check(text, want=(expected_mass, mirror_mass)):
                payload = json.loads(text)
                masses = verdict_masses(payload)
                if (masses["diagram"], masses["mirror"]) != want:
                    return f"sum masses {masses} are not the products of the factor counts {want}"
                differ = payload["sums"]["diagram"] != payload["sums"]["mirror"]
                if payload["verdict"] != ("distinct" if differ else "inconclusive"):
                    return f"verdict {payload['verdict']} does not match the sums"
                return None
            crossings = d.n
        else:
            k1, k2 = (long_diagram(qk, d) for d in spec["diagrams"])

            def run(jobs, k1=k1, k2=k2, query=query):
                return qk.connected_sum_commutativity(k1, k2, query, jobs).to_json()

            def check(text, want=expected_mass):
                payload = json.loads(text)
                masses = verdict_masses(payload)
                if set(masses.values()) != {want}:
                    return f"sum masses {masses} are not the product of the factor counts {want}"
                if payload["verdict"] != "inconclusive":
                    return "connected sums of classical knots commute, so the verdict must be inconclusive"
                return None
            crossings = k1.n + k2.n
        queries.append(Query(spec["name"], run, check, crossings))
    return queries


def factor_counts(qk, quandles: dict, specs: list[dict]) -> dict:
    counts = {}
    for spec in specs:
        q = quandles[spec["quandle"]]
        b = q.element_index(spec["basepoint"])
        for f in spec["factors"]:
            for sign in (1, -1):
                key = factor_key(spec, f, sign)
                if key not in counts:
                    d = qk.LongDiagram(key[2], key[3])
                    counts[key] = len(qk.colorings_long(d, q, b))
    return counts


# --- CLI workloads ------------------------------------------------------------

def _sum_lines(name: str, text: str) -> str:
    return f"  {name} = {text}"


CLI_EXPECTED_LINES = {
    "colorings-5_2": ["7 colorings"],
    "chirality-5_2": ["verdict: distinct",
                      _sum_lines("diagram", "6 · (1,2,4)(3,5) + (1,2,3)(4,5)"),
                      _sum_lines("mirror", "6 · (1,2,5)(3,4) + (1,2,3)(4,5)")],
    "chirality-9_42": ["verdict: distinct", _sum_lines("diagram", "7 · (2,3,4) + 6 · (1,4,3)"),
                       _sum_lines("mirror", "7 · (2,3,4) + 6 · (1,2,4)")],
    "tangle-t62-6_3": ["verdict: obstructed", _sum_lines("S1", "8 · (1,2,5,3,4) + (1,2,3,4,5)"),
                       _sum_lines("S2", "8 · (1,2,5,3,4) + (1,2,3,4,5)"),
                       _sum_lines("knot", "33 · (1,2,3,4,5)")],
    "nonclassical-9_42": ["verdict: inconclusive"] + [
        _sum_lines(f"break_{i}", "7 · (2,3,4) + 6 · (1,4,3)") for i in range(1, 10)],
    "nonclassical-witness": ["verdict: distinct"],
    "verify-s5class": ["20 elements", "PASS"],
    "verify-a6": ["360 elements", "PASS"],
    "connected-sum-5_2-3_1": ["verdict: inconclusive", _sum_lines("K1#K2", "3 · 0"),
                              _sum_lines("K2#K1", "3 · 0")],
}


def cli_check(name: str) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        lines = text.splitlines()
        missing = [line for line in CLI_EXPECTED_LINES[name] if line not in lines]
        return f"missing README value lines {missing}" if missing else None
    return check


def cli_argv(template: list[str], files: dict[str, Path], quandle_args: dict[str, str]) -> list[str]:
    argv = []
    for token in template:
        key = token[1:-1] if token.startswith("{") and token.endswith("}") else None
        if key in files:
            argv.append(str(files[key]))
        elif key in quandle_args:
            argv.append(quandle_args[key])
        else:
            argv.append(token)
    return argv


class Subprocesses:
    """CLI invocations as child processes, with each child's wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.rss_mb: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def run(self, argv: list[str]) -> str:
        with open(self.work / "stderr.txt", "w+b") as err:
            child = subprocess.Popen([sys.executable, "-m", "quandleknot.cli", *argv], cwd=ROOT,
                                     env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                out = child.stdout.read()
            finally:
                child.stdout.close()
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            error = err.read().decode(errors="replace").strip()
        self.rss_mb.append(usage.ru_maxrss / 1024)
        if child.returncode != 0 or error:
            raise RuntimeError(f"exit status {child.returncode}: {error[-300:]}")
        return out.decode()


def in_process_cli(qk_cli, argv: list[str], jobs: int) -> str:
    """``cli.main`` in this process with stdout captured; same contract as a subprocess."""
    out, err = io.StringIO(), io.StringIO()
    extra = ["--jobs", str(jobs)] if jobs != 1 else []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qk_cli.main(argv + extra)
    if code != 0 or err.getvalue():
        raise RuntimeError(f"exit status {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def cli_queries(specs: list[dict], runner: Callable[[list[str], int], str],
                files: dict[str, Path], quandle_args: dict[str, str]) -> list[Query]:
    queries = []
    for spec in specs:
        argv = cli_argv(spec["argv"], files, quandle_args)
        queries.append(Query(spec["name"], lambda jobs, argv=argv: runner(argv, jobs),
                             cli_check(spec["name"]), 0))
    return queries


# --- set-up probes ----------------------------------------------------------------

def setup_probes(sources: list[str]) -> dict:
    """Fresh interpreters that import the package and make the quandles ready."""
    imports, readies = [], []

    def probe() -> float:
        started = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), *sources], cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        report = json.loads(done.stdout.splitlines()[-1])
        imports.append(report["import_s"])
        readies.append(report["ready_s"])
        return wall

    walls, scaled = bracketed([probe] * SETUP_PROBES, child_kernel_slowness)
    return {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(walls),
            "import_s": statistics.median(imports), "ready_s": statistics.median(readies),
            "walls_s": walls}


# --- the run ------------------------------------------------------------------------

def load_expected(workload: str, seed: int) -> dict[str, str] | None:
    """Committed answer digests: default seed for in-process workloads, every seed for the CLI."""
    if not EXPECTED_FILE.exists():
        return None
    expected = json.loads(EXPECTED_FILE.read_text())
    if workload.startswith("cli-"):
        return expected.get("cli")
    if seed == expected.get("seed"):
        return expected.get(workload)
    return None


class Workload:
    """Set-up and queries of one workload; ``queries`` are ready after ``setup``."""

    def __init__(self, name: str, seed: int, work: Path):
        import quandleknot
        import quandleknot.cli
        self.qk, self.cli = quandleknot, quandleknot.cli
        self.name, self.work = name, work
        self.specs = inputs.make_inputs(name, seed)
        self.queries: list[Query] = []
        self.subprocesses = Subprocesses(work)
        self.files: dict[str, Path] = {}
        self.quandle_args: dict[str, str] = {}
        self.sizes: dict[str, int] = dict(inputs.CLI_QUANDLE_SIZES)
        self.counts: dict = {}

    @property
    def in_process(self) -> bool:
        return not self.name.startswith("cli-")

    def quandle_specs(self) -> list[str]:
        if self.in_process:
            return sorted({s["quandle"] for s in self.specs})
        return list(inputs.CLI_QUANDLES.values())

    def probe_sources(self) -> list[str]:
        return list(self.quandle_args.values()) if self.name == "cli-json" else self.quandle_specs()

    def ready_quandles(self) -> dict:
        """Build the quandles; in process also check their axioms, on cli-json write and load them."""
        qk = self.qk
        quandles = build_quandles(qk, self.quandle_specs())
        if self.in_process:
            check_axioms(qk, quandles)
        if self.name == "cli-json":
            for key, spec in inputs.CLI_QUANDLES.items():
                path = self.work / f"quandle_{key}.json"
                path.write_text(qk.quandle_to_json(quandles[spec]))
                qk.quandle_from_json(path.read_text())
                self.quandle_args[key] = str(path)
        self.sizes = {spec: len(q) for spec, q in quandles.items()}
        return quandles

    def setup(self) -> None:
        if self.in_process:
            quandles = self.ready_quandles()
            if self.name == "composite":
                self.counts = factor_counts(self.qk, quandles, self.specs)
            self.queries = self.make_queries(quandles)
            return
        for filename, payload in inputs.CLI_FILES.items():
            self.files[filename] = self.work / filename
            self.files[filename].write_text(json.dumps(payload))
        self.quandle_args = dict(inputs.CLI_QUANDLES)
        if self.name == "cli-json":
            self.ready_quandles()
        self.queries = self.make_cli_queries(lambda argv, jobs: self.subprocesses.run(
            argv + (["--jobs", str(jobs)] if jobs != 1 else [])))

    def make_queries(self, quandles: dict) -> list[Query]:
        if self.name == "spectrum":
            return spectrum_queries(self.qk, quandles, self.specs)
        return composite_queries(self.qk, quandles, self.specs, self.counts)

    def make_cli_queries(self, runner) -> list[Query]:
        return cli_queries(self.specs, runner, self.files, self.quandle_args)

    def in_process_cli_queries(self) -> list[Query]:
        return self.make_cli_queries(lambda argv, jobs: in_process_cli(self.cli, argv, jobs))

    def traced_setup(self) -> list[Query]:
        """The in-process set-up again, returning queries on its quandles.

        The CLI workloads have no set-up in process: ``cli.main`` builds or
        loads the quandles itself, and the JSON files from ``setup`` are reused.
        """
        if self.in_process:
            return self.make_queries(self.ready_quandles())
        return self.in_process_cli_queries()


def peak_rss_mb(workload: Workload, since: int) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return max(workload.subprocesses.rss_mb[since:])


def measure(workload: Workload, ledger: Ledger, seconds: float) -> tuple[dict, dict]:
    with pinned_to_one_cpu():
        probes = setup_probes(workload.probe_sources())
        rss_since = len(workload.subprocesses.rss_mb)
        if workload.in_process:
            run_pass(workload.queries, ledger)  # warm-up: the first pass in a process is ~20% slower
        before = ledger.attempted - len(ledger.failures)
        phase = timed_phase(workload.queries, ledger, seconds,
                            kernel_slowness if workload.in_process else child_kernel_slowness)
    completed = ledger.attempted - len(ledger.failures) - before
    scaled, raw = phase["scaled"], phase["raw"]
    tail_p = tail_percentile(len(workload.queries))
    metrics = {
        "setup_s": (probes["setup_s"], "s"),
        "query_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "query_tail_ms": (percentile(scaled, tail_p) * 1000, "ms"),
        "queries_per_s": (completed / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb(workload, rss_since), "MB"),
    }
    raw_metrics = {"setup_s": probes["raw_setup_s"], "query_p50_ms": statistics.median(raw) * 1000,
                   "query_tail_ms": percentile(raw, tail_p) * 1000,
                   "queries_per_s": completed / phase["wall_s"]}
    info = {"probes": probes, "passes": phase["passes"], "timed_wall_s": phase["wall_s"],
            "completed": completed, "samples": len(raw), "tail_percentile": tail_p,
            "raw_metrics": raw_metrics, "latencies_ms": [x * 1000 for x in raw],
            "scaled_latencies_ms": [x * 1000 for x in scaled]}
    return metrics, info


def checked_by(trace: tracer.Tracer, query: Query) -> Query:
    """The query, failing when the tracer's re-checks fail during it."""
    def run(jobs):
        before = trace.check_failures
        text = query.run(jobs)
        if trace.check_failures > before:
            raise RuntimeError("a coloring failed verify_coloring or a sum's mass differs "
                               "from its coloring count")
        return text
    return Query(query.name, run, query.check, query.crossings)


def measure_traced(workload: Workload, ledger: Ledger, seed: int) -> tuple[dict, dict]:
    """Untraced, jobs=2 and traced passes over the same queries, plus the set-up probes.

    A first untraced pass warms the allocator and caches (the first A6 build
    in a process is the slowest); the untraced baseline pass runs last.  On
    the CLI workloads the passes call ``cli.main`` in this process, after one
    pass of subprocesses that gives ``cli.process_s``.
    """
    probes = setup_probes(workload.probe_sources())
    cli_walls: list[float] = []
    if workload.in_process:
        baseline = workload.queries
    else:
        cli_walls, _ = run_pass(workload.queries, ledger)
        baseline = workload.in_process_cli_queries()
    run_pass(baseline, ledger)
    _, jobs2_wall = run_pass(baseline, ledger, jobs=2)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_queries = [checked_by(trace, q) for q in workload.traced_setup()]
        _, traced_wall = run_pass(traced_queries, ledger)
    finally:
        trace.uninstall()
    untraced, untraced_wall = run_pass(baseline, ledger)
    RESULTS.mkdir(exist_ok=True)
    trace.dump(RESULTS / f"{workload.name}-seed{seed}.spans.jsonl")
    s = trace.summary()
    self_s = s["self_s"]
    metrics = {
        "quandle.ready_s": (s["quandle.build_s"] + s["quandle.load_s"], "s"),
        "quandle.axioms_s": (s["quandle.axioms_s"], "s"),
        "quandle.self_s": (self_s["quandle"], "s"),
        "quandle.table_entries": (s["quandle.table_entries"], "count"),
        "coloring.self_s": (self_s["coloring"], "s"),
        "coloring.calls": (s["coloring.calls"], "count"),
        "coloring.colorings": (s["coloring.colorings"], "count"),
        "coloring.break_p50_ms": (s["coloring.break_p50_ms"], "ms"),
        "coloring.break_max_ms": (s["coloring.break_max_ms"], "ms"),
        "coloring.jobs2_speedup": (untraced_wall / jobs2_wall, "ratio"),
        "longitude.self_s": (self_s["longitude"], "s"),
        "longitude.letters": (s["longitude.letters"], "count"),
        "longitude.letters_per_s": (s["longitude.letters_per_s"], "1/s"),
        "diagram.self_s": (self_s["diagram"], "s"),
        "diagram.calls": (s["calls"]["diagram"], "count"),
        "obstruction.self_s": (self_s["obstruction"], "s"),
        "obstruction.calls": (s["calls"]["obstruction"], "count"),
        "cli.import_s": (probes["import_s"], "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    extra = {"quandle.build_s": (s["quandle.build_s"], "s"), "quandle.load_s": (s["quandle.load_s"], "s"),
             "permgroup.self_s": (self_s["permgroup"], "s")}
    if not workload.in_process:
        extra["cli.main_s"] = (statistics.median(untraced), "s")
        extra["cli.process_s"] = (statistics.median(w - m for w, m in zip(cli_walls, untraced)), "s")
        extra["cli.self_s"] = (self_s["cli"], "s")
    info = {"probes": probes, "untraced_pass_s": untraced_wall, "traced_pass_s": traced_wall,
            "jobs2_pass_s": jobs2_wall, "self_s": self_s, "calls": s["calls"], "counted": s["counted"],
            "bench_s": s["bench_s"], "spans": s["spans"], "absent": s["absent"],
            "largest_self": max(self_s, key=self_s.get)}
    return metrics | extra, info


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    import numpy
    sources = sorted((SRC / "quandleknot").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "commit": commit,
            "src_sha256": digest}


def input_sizes(workload: Workload, ledger: Ledger) -> dict:
    sizes = {"queries_per_pass": len(workload.queries), "quandle_sizes": workload.sizes}
    if not workload.in_process:
        sizes["crossings"] = {name: len(d["over_arc"]) if "over_arc" in d else
                              sum(len(s["crossings"]) for s in d["strands"])
                              for name, d in inputs.CLI_FILES.items()}
    else:
        crossings = [q.crossings for q in workload.queries]
        masses = [sum(verdict_masses(json.loads(text)).values()) for text in ledger.first.values()]
        sizes.update({"crossings_min": min(crossings), "crossings_max": max(crossings),
                      "crossings_total": sum(crossings), "colorings_total": sum(masses),
                      "colorings_max_per_query": max(masses, default=0)})
    return sizes


def run_workload(name: str, seed: int, seconds: float, trace: bool, check_expected: bool = True) -> dict:
    work = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(name, seed, work)
        workload.setup()
        ledger = Ledger(load_expected(name, seed) if check_expected else None)
        if trace:
            metrics, info = measure_traced(workload, ledger, seed)
        else:
            metrics, info = measure(workload, ledger, seconds)
        digests = ledger.digests(workload.queries)
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": ledger.attempted, "failed": len(ledger.failures),
            "failed_ratio": len(ledger.failures) / max(1, ledger.attempted),
            "failures": ledger.failures[:50],
            "digest": sha256("".join(f"{k}\t{v}\n" for k, v in digests.items())),
            "query_digests": digests, "digest_checked": ledger.expected is not None,
            "machine": machine_info(), "inputs": input_sizes(workload, ledger), "info": info,
            "input_specs": workload.specs,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(result: dict, metric_names: list[str]) -> str:
    lines = [f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
             f"attempted {result['attempted']}  failed {result['failed']}  "
             f"failed_ratio {result['failed_ratio']:.4f}"]
    for name, m in result["metrics"].items():
        mark = "" if name in metric_names else "  (report only)"
        lines.append(f"  {name:<26} {m['value']:>14.6g} {m['unit']}{mark}")
    info = result["info"]
    if "tail_percentile" in info:
        lines.append(f"  query_tail_ms is p{info['tail_percentile']} of {info['samples']} samples "
                     f"({info['passes']} passes)")
        lines.append("  times above are at the kernel's reference speed; raw wall clock: " + ", ".join(
            f"{name} {value:.6g}" for name, value in info["raw_metrics"].items()))
    if "largest_self" in info:
        lines.append(f"  largest layer self time: {info['largest_self']}; absent names: {info['absent']}")
    lines += [f"  FAILED {f}" for f in result["failures"][:10]]
    return "\n".join(lines)


def benchmark_metric_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Every workload in its own process; prints each report and a combined last line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        print(done.stdout.rstrip("\n").rpartition("\n")[0] or done.stderr.strip())
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.splitlines()[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(total))
    return 0


def write_expected(seed: int) -> None:
    """Record the answer digests of the default seed (run only after checking the answers)."""
    expected = {"seed": seed}
    for name in ("spectrum", "composite", "cli-spec"):
        result = run_workload(name, seed, 0.0, False, check_expected=False)
        if result["failed"]:
            raise SystemExit(f"{name}: answers fail their checks: {result['failures'][:3]}")
        expected["cli" if name == "cli-spec" else name] = result["query_digests"]
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the default seed's answer digests in perfbench/expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "quandleknot" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'quandleknot'}; run from a quandleknot checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quandleknot
    if Path(quandleknot.__file__).resolve().parent != SRC / "quandleknot":
        print(f"error: imported quandleknot from {quandleknot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_expected:
        write_expected(inputs.DEFAULT_SEED)
        return 0
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    names = benchmark_metric_names(bool(args.trace))
    print(report(result, names))
    print(f"  result file: {RESULTS.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
