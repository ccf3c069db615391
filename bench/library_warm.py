"""The library-warm workload: one long-lived process using haltseries as a library.

Usage: python3 bench/library_warm.py SPEC.json [SUMMARY.json SPANS.bin]

With the two extra paths the run is traced: ``tracing.instrument`` wraps
the package's public functions before the first call. It prints one JSON
object that holds every rendered result, for the benchmark to check, and
the timings of the benchmark's reference task (``reference.py``), which it
runs between calls at least every ``PROBE_EVERY_S``. The benchmark cuts that
time out and uses the timings to correct for the core's changing speed
during this long child. The reference task touches no haltseries code. Like
any library user it leaves the interpreter's int-to-str digit limit alone and warms no
cache beyond its own calls, so a value over 4300 digits fails to render
here exactly as it would for a user.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import haltseries as hs
from reference import Probe, probe
from tracing import Tracer, instrument

PROBE_EVERY_S = 0.25


class OffsetHarmonic(hs.CoefficientStream):
    """``a_n = 1/(n + offset)``: divergent, with partial sums that grow like log n."""

    def __init__(self, offset: int):
        self.offset = offset

    def at(self, n: int) -> Fraction:
        return Fraction(1, n + self.offset)

    def describe(self) -> str:
        return f"1/(n+{self.offset})"


def near_threshold(k: int) -> hs.ExplicitStream:
    """``0, 2/3, 4/3, 2/3, ...`` so that S_N = N at every even N, then 2 at the even index k.

    The sum first exceeds N at N = k (S_k = k + 2/3). Before that the dyadic
    enclosure straddles N at every even index and the detector re-sums exactly.
    """
    terms = [Fraction(2, 3) if i % 2 else Fraction(4, 3) for i in range(1, k)]
    return hs.ExplicitStream((Fraction(0), *terms, Fraction(2)))


def run(spec: dict, tracer: Tracer, probes: list[Probe]) -> list[dict]:
    results: list[dict] = []

    def attempt(op: str, call) -> None:
        # Each call is one operation: an exception fails it and the next still runs.
        with tracer.operation(op):
            try:
                result = call()
            except Exception as exc:
                result = {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"op": op, **result})
        if not probes or time.perf_counter() - probes[-1].end >= PROBE_EVERY_S:
            probes.append(probe())

    def shown(text: str) -> str:
        tracer.count("cli.output_bytes", len(text.encode()))
        return text

    program = hs.parse_program(spec["doubler"])
    point = hs.EvaluationPoint(Fraction(1, spec["semidecide_d"]))
    for x in spec["inputs"]:

        def semidecide(x=x):
            report = hs.semidecide_halting_via_series(program, x, point, spec["semidecide_budget"])
            return {"x": x, "text": shown(report.to_text())}

        attempt("semidecide", semidecide)

    factorial_tail = hs.builtin_stream("factorial_tail", spec["ratio_n0"])

    def ratio():
        report = hs.ratio_test_probe(
            factorial_tail,
            hs.EvaluationPoint(Fraction(1, spec["ratio_q"])),
            Fraction(2),
            spec["ratio_budget"],
        )
        return {"text": shown(report.to_text())}

    for _ in range(spec["ratio_repeats"]):
        attempt("ratio", ratio)

    def threshold():
        detector = hs.build_threshold_detector(OffsetHarmonic(spec["threshold_offset"]))
        outcome = hs.run_detector(detector, spec["threshold_terms"])
        return {
            "still_running": outcome.budget,
            "bounds": [shown(hs.format_rational(b)) for b in outcome.final_bounds],
            "trace": [[n, shown(hs.format_rational(s))] for n, s in outcome.trace],
        }

    attempt("threshold", threshold)

    def near():
        # The recheck reads the detector's own stream again from index 0: a restart.
        stream = near_threshold(spec["near_threshold_k"])
        outcome = hs.run_detector(hs.build_threshold_detector(stream), 2 * spec["near_threshold_k"])
        recheck = hs.recheck_certificate(stream, outcome)
        return {"iteration": outcome.iteration, "recheck": recheck,
                "sum": shown(hs.format_rational(outcome.certificate.partial_sum))}

    attempt("near_threshold", near)

    def exp_tail():
        value, terms = hs.effective_partial_sum(
            hs.builtin_stream("reciprocal_factorial"), hs.EvaluationPoint(Fraction(1)),
            spec["exp_tail_m"], hs.ExpTailRate(),
        )
        # Hex is not subject to the digit limit, so the value is checked even when
        # its decimal rendering fails.
        result = {"terms": terms, "num": hex(value.numerator), "den": hex(value.denominator)}
        try:
            result["text"] = shown(hs.format_rational(value))
        except ValueError as exc:
            result["error"] = f"ValueError: {exc}"
        return result

    attempt("exp_tail", exp_tail)
    return results


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    tracer = Tracer(len(argv) == 3)
    if tracer.enabled:
        instrument(tracer)
    probes: list[Probe] = []
    results = run(spec, tracer, probes)
    print(json.dumps({"results": results, "probes": probes}))
    if tracer.enabled:
        tracer.write(argv[1], argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
