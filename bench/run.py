"""Benchmark for haltseries: closed-loop workloads measured end to end and per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it needs nothing but the standard
library and ``src/``. One client runs the workload's operations in order,
each in its own child process, waiting for each to exit and checking its
output before starting the next (a closed loop, one child at a time). A
pass is one round of the workload's operations; passes repeat for about
``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` and ``cpu_s`` of a
pass, each operation at its median over the run's passes (children timed
from spawn to reap, CPU from each child's own rusage), ``peak_rss_mb``
(largest maxrss of any single child), and ``setup_s`` (median spawn-to-exit
time of ``haltseries encode --decode 0``, spawned six times before every
pass). Times are speed-corrected: the benchmark times a fixed reference task
of its own just before and just after every child, and scales the child's
times to the speed at which that task takes ``REFERENCE_S`` (``reference.py``).
The raw times are printed beside them.
``--trace 1`` alternates untraced passes with traced ones, in which
``traced_cli.py`` and ``library_warm.py`` run the program with spans around
its public calls (``tracing.py``), and prints the per-layer metrics plus
the tracing overhead.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts unexpected failures; failures
already known at this commit are listed above it and counted in the
printed ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from reference import Probe, probe, speed_corrected
from workloads import Op, Tally, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Interpreter start is 80-140 ms and noisy. Spawning several before every pass
# spreads the samples over the whole run, and their median is steadier.
SETUP_PER_PASS = 6
# The last pass starts before --seconds have elapsed; no child may run past
# this many seconds after that. A run with --seconds 60 thus ends inside 180 s.
MARGIN_S = 90.0
CLI = ["-c", "from haltseries.cli import app; app()"]

# Per-layer metrics and units. Counts must repeat exactly on the same seed.
LAYER_UNITS = {
    "machine.steps": "count",
    "machine.busy_s": "s",
    "machine.steps_per_s": "1/s",
    "coefficients.reads": "count",
    "coefficients.reads_per_index": "ratio",
    "coefficients.busy_s": "s",
    "coefficients.terms_per_s": "1/s",
    "coefficients.max_operand_bits": "bits",
    "coefficients.peak_alloc_mb": "MB",
    "series.calls": "count",
    "series.busy_s": "s",
    "series.terms_per_s": "1/s",
    "series.max_operand_bits": "bits",
    "reductions.iterations": "count",
    "reductions.busy_s": "s",
    "reductions.restarts": "count",
    "reductions.iterations_per_read": "ratio",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bits", "bytes", "ratio")]


@dataclass
class Child:
    """A finished child. ``wall`` and ``cpu`` are as measured, minus any reference
    timings the child made itself; ``scale`` corrects them to nominal speed."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    scale: float


@dataclass
class Pass:
    """One round of a workload's operations: per-operation times, and layer totals if traced.

    ``walls`` and ``cpus`` are speed-corrected; ``raw_walls`` are as measured.
    """

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    sums: Counter = field(default_factory=Counter)
    maxima: Counter = field(default_factory=Counter)

    @property
    def wall(self) -> float:
        return sum(self.raw_walls)


class Runner:
    """Spawns children one at a time in a temporary directory inside the checkout."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}

    def spawn(self, argv: list[str], probes: bool = False) -> Child:
        """Run one child to completion, timed from spawn to reap, with its own rusage.

        The reference task is timed just before and just after the child; the
        child's ``scale`` comes from those timings. With ``probes``, the child
        timed the reference task itself as it went (``library_warm.py``): those
        timings are used too, and their time is cut out of the child's times.
        """
        before = probe()
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        after = probe()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = (self.work / "stdout").read_text(errors="replace")
        inner = _probes(text) if probes else []
        wall, corrected = speed_corrected(start, end, [before, *inner, after])
        cpu = usage.ru_utime + usage.ru_stime - sum(p.end - p.start for p in inner)
        return Child(wall, cpu, usage.ru_maxrss / 1024, proc.returncode, text, corrected / wall)

    def run_pass(self, workload: Workload, traced: bool, tally: Tally) -> Pass:
        result = Pass()
        summary, spans = self.work / "summary.json", self.work / "spans.bin"
        for op in workload.ops:
            summary.unlink(missing_ok=True)
            child = self.spawn(_launch(op, traced, summary, spans), probes=op.library)
            tally.add(op.check(child.out, child.code))
            result.walls.append(child.wall * child.scale)
            result.cpus.append(child.cpu * child.scale)
            result.raw_walls.append(child.wall)
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            if traced and summary.exists():
                layers = json.loads(summary.read_text())
                result.sums.update(layers["sum"])
                for key, value in layers["max"].items():
                    result.maxima[key] = max(result.maxima[key], value)
        return result


def _probes(text: str) -> list[Probe]:
    """The reference timings a library-warm child printed; none if its output is unreadable."""
    try:
        return [Probe(*p) for p in json.loads(text)["probes"]]
    except (ValueError, KeyError, TypeError):
        return []


def _launch(op: Op, traced: bool, summary: Path, spans: Path) -> list[str]:
    if op.library:
        extra = [str(summary), str(spans)] if traced else []
        return [str(BENCH / "library_warm.py"), *op.argv, *extra]
    if traced:
        return [str(BENCH / "traced_cli.py"), str(summary), str(spans), "--", *op.argv]
    return [*CLI, *op.argv]


def _setup(runner: Runner, tally: Tally, spawns: int) -> list[Child]:
    """Spawns of a trivial command, timed from spawn to exit: interpreter start plus importing the package."""
    children = []
    for _ in range(spawns):
        child = runner.spawn([*CLI, "encode", "--decode", "0"])
        ok = child.code == 0 and child.out == "halt\n"
        tally.add(Tally(1, [] if ok else [f"setup: exit {child.code}, output {child.out[:40]!r}"]))
        children.append(child)
    return children


def layer_metrics(p: Pass) -> dict[str, float]:
    s, m = p.sums, p.maxima

    def ratio(a: str, b: str) -> float:
        return s[a] / s[b] if s[b] else 0.0

    return {
        "machine.steps": s["machine.steps"],
        "machine.busy_s": s["machine.busy_s"],
        "machine.steps_per_s": ratio("machine.steps", "machine.busy_s"),
        "coefficients.reads": s["coefficients.reads"],
        "coefficients.reads_per_index": ratio("coefficients.reads", "coefficients.distinct"),
        "coefficients.busy_s": s["coefficients.busy_s"],
        "coefficients.terms_per_s": ratio("coefficients.at_reads", "coefficients.busy_s"),
        "coefficients.max_operand_bits": m["coefficients.max_operand_bits"],
        "coefficients.peak_alloc_mb": m["coefficients.peak_alloc_mb"],
        "series.calls": s["series.calls"],
        "series.busy_s": s["series.busy_s"],
        "series.terms_per_s": ratio("series.reads", "series.busy_s"),
        "series.max_operand_bits": m["series.max_operand_bits"],
        "reductions.iterations": s["reductions.iterations"],
        "reductions.busy_s": s["reductions.busy_s"],
        "reductions.restarts": s["reductions.restarts"],
        "reductions.iterations_per_read": ratio("reductions.iterations", "reductions.reads"),
        "cli.parse_s": s["cli.parse_s"],
        "cli.render_s": s["cli.render_s"],
        "cli.output_bytes": s["cli.output_bytes"],
    }


def per_op(passes: list[Pass], attr: str, pick=statistics.median) -> float:
    """Each operation's time picked over the passes (median by default), summed over the operations."""
    return sum(map(pick, zip(*(getattr(p, attr) for p in passes))))


def measure(workload: Workload, runner: Runner, seconds: int, trace: bool, tally: Tally):
    """Run passes for ``seconds``; return ``{metric: (value, unit, note)}`` and the pass count.

    A timing is the sum of each operation's median speed-corrected time over
    the run's passes. After the first two, a pass starts only if, judged by
    the last one, it ends by ``seconds``, so a run takes about ``seconds``
    whatever its pass length. Two traced passes let their counts be compared.
    """
    _setup(runner, tally, 1)  # warms the bytecode cache; not timed
    start = time.perf_counter()

    def another(passes: list, took: float) -> bool:
        return len(passes) < 2 or time.perf_counter() - start + took <= seconds

    if not trace:
        setup, passes, took = [], [], 0.0
        while another(passes, took):
            began = time.perf_counter()
            setup += _setup(runner, tally, SETUP_PER_PASS)
            passes.append(runner.run_pass(workload, False, tally))
            took = time.perf_counter() - began
        raw = f"raw: best per operation {per_op(passes, 'raw_walls', min):.4f}, median pass"
        return {
            "wall_s": (per_op(passes, "walls"), "s",
                       f"{raw} {statistics.median(p.wall for p in passes):.4f}"),
            "cpu_s": (per_op(passes, "cpus"), "s", "user+sys"),
            "peak_rss_mb": (max(p.rss_mb for p in passes), "MB", "largest single child"),
            "setup_s": (statistics.median(c.wall * c.scale for c in setup), "s",
                        f"median of {len(setup)} spawns; raw {statistics.median(c.wall for c in setup):.4f}"),
        }, len(passes)

    plain, traced, took = [], [], 0.0
    while another(traced, took):
        began = time.perf_counter()
        plain.append(runner.run_pass(workload, False, tally))
        traced.append(runner.run_pass(workload, True, tally))
        took = time.perf_counter() - began
    per_pass = [layer_metrics(p) for p in traced]
    for other in per_pass[1:]:
        differ = [k for k in COUNTS if other[k] != per_pass[0][k]]
        if differ:
            tally.add(Tally(0, [f"trace counts differ between passes: {', '.join(differ)}"]))
    # Layer times all come from the fastest traced pass, so they describe one pass.
    fastest = min(range(len(traced)), key=lambda i: traced[i].wall)
    metrics = {k: (v, LAYER_UNITS[k], "") for k, v in per_pass[fastest].items()}
    overhead = per_op(traced, "walls") - per_op(plain, "walls")
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced wall_s")
    return metrics, len(traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "haltseries" / "cli.py").is_file():
        print(f"error: no haltseries sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The oracle parses exact values of tens of thousands of digits.
    sys.set_int_max_str_digits(0)
    # On SIGTERM, unwind: the running child is killed and reaped, temporary files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # One core for this process and its children, so that the reference task
    # is timed on the core each child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    started = time.perf_counter()
    workload = workloads.build(ns.workload, ns.seed)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        for name, text in workload.files.items():
            (Path(work) / name).write_text(text)
        runner = Runner(Path(work), started + ns.seconds + MARGIN_S)
        metrics, passes = measure(workload, runner, ns.seconds, bool(ns.trace), tally)

    mode = "traced" if ns.trace else "untraced"
    print(f"workload {ns.workload}  seed {ns.seed}  {passes} {mode} passes of "
          f"{len(workload.ops)} operations, one child at a time")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit:6s} {note}")
    failed, known = len(tally.failures), len(tally.known)
    print(f"  {'error_rate':32s} {(failed + known) / tally.attempted:16.6f} ratio "
          f"({failed} failed + {known} known of {tally.attempted} attempted)")
    for line in sorted(set(tally.known)):
        print(f"  known failure: {line}")
    for line in tally.failures[:10]:
        print(f"  FAILED: {line}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
