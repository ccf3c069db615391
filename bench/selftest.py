"""Tests of the benchmark itself, on small inputs (well under a minute).

Run from the root of a checkout:  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import marshal
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

import reference
import run
import workloads
from reference import Probe
from workloads import Tally, Workload

SMALL_LIBRARY_SPEC = {
    "doubler": workloads.DOUBLER,
    "inputs": [5, 9, 20],
    "semidecide_d": 3,
    "semidecide_budget": 100,
    "ratio_n0": 12,
    "ratio_q": 20,
    "ratio_budget": 120,
    "ratio_repeats": 2,
    "threshold_offset": 10,
    "threshold_terms": 500,
    "near_threshold_k": 20,
    # Large enough that the sum has over 4300 digits: the known render failure.
    "exp_tail_m": 20_000,
}


def small_workload() -> Workload:
    """Every kind of operation the workloads use, at small sizes."""
    return Workload(
        {
            "doubler.machine": workloads.DOUBLER,
            "multiplier.machine": workloads.multiplier(4),
            "spin.machine": workloads.SPIN,
            "ft12.txt": "builtin factorial_tail 12\n",
            "harmonic.txt": "builtin harmonic\n",
            "g23.txt": "builtin geometric 2/3\n",
            "g12.txt": "builtin geometric 1/2\n",
            "library.json": json.dumps(SMALL_LIBRARY_SPEC),
        },
        [
            workloads.forward_halting(40, 3, 200),
            workloads.ratio_probe(12, 20, 100),
            workloads.simulate("doubler.machine", 100, 402),
            workloads.simulate("multiplier.machine", 50, 50 * 19 + 2),
            workloads.forward_spin(1, 300),
            workloads.eval_sum("harmonic.txt", 60, lambda: workloads.oracle.harmonic_sum(1, 61)),
            workloads.eval_sum("g23.txt", 40, lambda: workloads.oracle.geometric_sum(Fraction(2, 3), 40)),
            workloads.modulus_probe(20),
            workloads.window_detect("harmonic.txt", "cauchy", 30, lambda k: k, workloads.harmonic_partial),
            workloads.window_detect("g12.txt", "cauchy-heuristic", 20, lambda k: 1,
                                    lambda n: workloads.oracle.geometric_sum(Fraction(1, 2), n),
                                    ("--tolerance", "1")),
            workloads.library_warm(SMALL_LIBRARY_SPEC),
        ],
    )


class Sandbox(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT)
        self.work = Path(self.tmp.name)
        self.workload = small_workload()
        for name, text in self.workload.files.items():
            (self.work / name).write_text(text)
        self.runner = run.Runner(self.work, time.perf_counter() + 120)

    def tearDown(self):
        self.tmp.cleanup()

    def op(self, name: str):
        return next(op for op in self.workload.ops if op.name == name)

    def traced(self, op) -> tuple[run.Child, dict, list]:
        summary, spans = self.work / "summary.json", self.work / "spans.bin"
        child = self.runner.spawn(run._launch(op, True, summary, spans))
        with open(spans, "rb") as f:
            return child, json.loads(summary.read_text()), marshal.load(f)


class ErrorRateTest(Sandbox):
    def check(self, op, argv: list[str]) -> Tally:
        child = self.runner.spawn(argv)
        return op.check(child.out, child.code)

    def test_every_small_operation_passes_its_oracle(self):
        for op in self.workload.ops:
            child = self.runner.spawn(run._launch(op, False, None, None))
            self.assertEqual(op.check(child.out, child.code).failures, [], op.name)

    def test_wrong_expected_value_is_a_failure(self):
        op = workloads.simulate("doubler.machine", 100, 403)
        self.assertEqual(len(self.check(op, [*run.CLI, *op.argv]).failures), 1)

    def test_wrong_exit_code_is_a_failure(self):
        op = workloads.simulate("doubler.machine", 100, 402)
        tally = self.check(op, ["-c", "print('HALTED at step 402'); raise SystemExit(3)"])
        self.assertEqual(len(tally.failures), 1)

    def test_exception_is_a_failure(self):
        op = workloads.forward_halting(40, 3, 200)
        self.assertEqual(len(self.check(op, ["-c", "raise RuntimeError('boom')"]).failures), 1)
        self.assertEqual(len(op.check("garbled = output\n", 0).failures), 1)

    def test_timeout_is_a_failure(self):
        self.runner.deadline = time.perf_counter()  # every child gets the minimum timeout
        op = workloads.simulate("doubler.machine", 100, 402)
        tally = self.check(op, ["-c", "import time; time.sleep(30)"])
        self.assertEqual(len(tally.failures), 1)

    def test_library_warm_counts_each_call(self):
        op = self.op("library-warm")
        expected = len(SMALL_LIBRARY_SPEC["inputs"]) + SMALL_LIBRARY_SPEC["ratio_repeats"] + 3
        tally = self.check(op, run._launch(op, False, None, None))
        self.assertEqual((tally.attempted, tally.failures, len(tally.known)), (expected, [], 1))
        crashed = op.check("", 1)
        self.assertEqual(len(crashed.failures), expected)
        results = json.loads(self.runner.spawn(run._launch(op, False, None, None)).out)
        results["results"][0]["text"] = results["results"][0]["text"].replace("witness index", "x")
        results["results"][-1]["error"] = "ValueError: something else"
        tally = op.check(json.dumps(results), 0)
        self.assertEqual((len(tally.failures), len(tally.known)), (2, 0))


class TraceTest(Sandbox):
    def test_traced_command_prints_what_the_command_prints(self):
        for op in self.workload.ops:
            if op.library:
                continue
            plain = self.runner.spawn(run._launch(op, False, None, None))
            traced, _, _ = self.traced(op)
            self.assertEqual((traced.out, traced.code), (plain.out, plain.code), op.name)

    def test_spans_follow_the_program_call_path(self):
        _, _, spans = self.traced(self.op("forward"))
        names = [(layer, name) for _, _, layer, name, _, _ in spans]
        semidecide = names.index(("reductions", "semidecide_halting_via_series"))
        probe = names.index(("series", "ratio_test_probe"))
        self.assertEqual(spans[probe][1], semidecide)
        # Reads come from the semidecision's probe and from the command's own preview loop.
        read_parents = {spans[p][2] for _, p, _, name, _, _ in spans if name in ("at", "advance")}
        self.assertEqual(read_parents, {"series", "op"})
        self.assertIn(("cli", "render"), names)
        self.assertIn(("cli", "parse"), names)

    def test_every_exact_resum_is_a_restart(self):
        # Each exact fallback, the certificate and its recheck sum the detector's
        # stream from index 0, and so does each repeat of the ratio probe.
        _, summary, spans = self.traced(self.op("library-warm"))
        resums = sum(name == "partial_sum" and spans[parent][2] == "reductions"
                     for _, parent, _, name, _, _ in spans)
        self.assertGreater(resums, 2)
        repeats = SMALL_LIBRARY_SPEC["ratio_repeats"] - 1
        self.assertEqual(summary["sum"]["reductions.restarts"], resums + repeats)

    def test_child_self_times_fit_inside_the_parent(self):
        for op in (self.op("forward"), self.op("detect-cauchy"), self.op("library-warm")):
            _, summary, spans = self.traced(op)
            for name, value in summary["sum"].items():
                self.assertGreaterEqual(value, 0, name)
            covered = [0.0] * len(spans)
            for _, parent, _, _, start, end in spans:
                self.assertLessEqual(start, end)
                if parent >= 0:
                    self.assertGreaterEqual(start, spans[parent][4])
                    self.assertLessEqual(end, spans[parent][5])
                    covered[parent] += end - start
            for (_, _, _, name, start, end), inside in zip(spans, covered):
                self.assertLessEqual(inside, end - start + 1e-9, name)
            self.assertTrue(any(s[3] == "advance" for s in spans) or op.name != "forward")

    def test_counts_repeat_on_the_same_inputs(self):
        first = run.layer_metrics(self.runner.run_pass(self.workload, True, Tally()))
        second = run.layer_metrics(self.runner.run_pass(self.workload, True, Tally()))
        for name in run.COUNTS:
            self.assertEqual(first[name], second[name], name)
        self.assertGreater(first["reductions.restarts"], 0)
        self.assertGreater(first["machine.steps"], 0)


class SpeedCorrectionTest(Sandbox):
    def test_probes_are_cut_out_and_each_stretch_scales_by_its_two_probes(self):
        nominal = reference.REFERENCE_S
        probes = [Probe(0, 1, nominal), Probe(3, 4, 2 * nominal), Probe(6, 7, 2 * nominal)]
        raw, corrected = reference.speed_corrected(1, 6, probes)
        self.assertAlmostEqual(raw, 4)
        # 1..3 between a nominal and a twice-slow probe, 3..4 cut out, 4..6 twice slow.
        self.assertAlmostEqual(corrected, 2 / math.sqrt(2) + 2 / 2)

    def test_library_child_reports_its_probes(self):
        child = self.runner.spawn(run._launch(self.op("library-warm"), False, None, None), probes=True)
        inner = run._probes(child.out)
        self.assertTrue(inner)
        self.assertTrue(all(a.end <= b.start for a, b in zip(inner, inner[1:])))
        self.assertTrue(0.05 < child.scale < 20)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            a, b, c = (workloads.build(name, seed) for seed in (7, 7, 8))
            self.assertEqual([op.argv for op in a.ops], [op.argv for op in b.ops])
            self.assertEqual(a.files, b.files)
            self.assertNotEqual(([op.argv for op in a.ops], a.files), ([op.argv for op in c.ops], c.files))

    def test_without_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT) as tmp:
            shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "exact-sums", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
