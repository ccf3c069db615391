"""Spans and counters recorded around calls into haltseries, from outside.

Only the benchmark's traced children (``traced_cli.py`` and
``library_warm.py``) import this module. ``instrument`` replaces the public
functions named in ``LAYERS`` with wrappers that record a span around each
call, in the package namespace and in every module that calls them. It also
wraps the ``at`` method of every ``CoefficientStream`` class, so each
coefficient read is a child span of the call that made it. The program's
own code runs unchanged: the CLI commands, the semidecision and the
detectors reach one another through these names, so what is measured is
their real call path.

A span is ``[operation id, parent index, layer, name, start, end]``; spans
stay in memory until ``write`` saves them when the child ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import marshal
import resource
from collections import Counter
from fractions import Fraction
from time import perf_counter

import haltseries as hs

# Public functions that get a span, by (layer, span name); a name of None
# keeps the function's own name.
LAYERS = {
    ("machine", None): ("run_bounded",),
    ("series", None): ("partial_sum", "prefix_sums", "effective_partial_sum",
                       "ratio_test_probe", "check_modulus", "check_effective_criterion",
                       "root_estimate"),
    ("reductions", None): ("forward_reduce", "semidecide_halting_via_series",
                           "build_threshold_detector", "build_cauchy_window_detector",
                           "build_cauchy_window_heuristic", "run_detector",
                           "recheck_certificate"),
    ("cli", "parse"): ("parse_program", "parse_series_spec", "parse_rational",
                       "parse_rate_spec"),
    ("cli", "render"): ("format_rational", "approx_decimal"),
}
# Where those names are looked up: the package, for library users, and each
# module that calls into another layer.
MODULES = ("haltseries", "haltseries.cli", "haltseries.reductions", "haltseries.series")


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def exact_values(result) -> list[Fraction]:
    """The exact values a series call returned: a sum, a list of sums, or a probe report."""
    if isinstance(result, Fraction):
        return [result]
    if isinstance(result, (tuple, list)):
        return [v for v in result if isinstance(v, Fraction)]
    if isinstance(result, hs.SeriesProbeReport):
        values = [s for _, s in result.trace]
        if result.witness is not None:
            values.append(result.witness[1])
        detail = getattr(result.verdict, "detail", None) or {}
        return values + [v for v in detail.values() if isinstance(v, Fraction)]
    return []


class Tracer:
    """Records spans and counts; with ``enabled`` false, operations record nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        # Per span: time the tracer itself spent inside it, outside any child span.
        self.untimed: Counter = Counter()
        # Per stream object: the indices read so far (the object is kept so its id stays unique).
        self.read: dict[int, tuple[object, set[int]]] = {}

    @contextlib.contextmanager
    def operation(self, name: str):
        """The root span of one operation; its descendants share its operation id."""
        if not self.enabled:
            yield
            return
        self.op += 1
        record = [self.op, -1, "op", name, perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[5] = perf_counter()
            self.stack.pop()

    def wrap(self, layer: str, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(result)`` then records counts."""
        spans, stack, untimed = self.spans, self.stack, self.untimed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = perf_counter()
            parent = stack[-1] if stack else -1
            record = [self.op, parent, layer, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            if parent >= 0:
                # The bookkeeping around the call is tracing overhead, not the caller's work.
                untimed[parent] += perf_counter() - entry - (record[5] - record[4])
            return result

        return traced

    def wrap_read(self, at, halting: bool):
        """A stream class's ``at`` that records each read as a span.

        On a halting-encoded stream, a read that resumes the run is a
        ``machine`` span named ``advance`` (it carries the steps it
        simulated); any other read is a ``coefficients`` span named ``at``.
        A read of index 0 from a stream that was read at 0 before counts as
        a restart. The rise of the process's peak RSS during reads is the
        coefficient layer's allocation.
        """
        spans, stack, counts, maxima = self.spans, self.stack, self.counts, self.maxima
        untimed, read, getrusage, SELF = self.untimed, self.read, resource.getrusage, resource.RUSAGE_SELF

        @functools.wraps(at)
        def traced_at(stream, n):
            entry = perf_counter()
            steps = stream.simulated_steps if halting else 0
            rss = getrusage(SELF).ru_maxrss
            start = perf_counter()
            value = at(stream, n)
            end = perf_counter()
            counts["coefficients.alloc_kb"] += getrusage(SELF).ru_maxrss - rss
            advanced = stream.simulated_steps - steps if halting else 0
            seen = read.get(id(stream))
            if seen is None:
                seen = read[id(stream)] = (stream, set())
            if n in seen[1]:
                counts["reductions.restarts"] += n == 0
            else:
                seen[1].add(n)
                counts["coefficients.distinct"] += 1
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > maxima["coefficients.max_operand_bits"]:
                maxima["coefficients.max_operand_bits"] = bits
            parent = stack[-1] if stack else -1
            if advanced:
                counts["machine.steps"] += advanced
                spans.append((self.op, parent, "machine", "advance", start, end))
            else:
                spans.append((self.op, parent, "coefficients", "at", start, end))
            if parent >= 0:
                untimed[parent] += perf_counter() - entry - (end - start)
            return value

        return traced_at

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def note(self, key: str, values) -> None:
        """Track the largest bit length among exact ``values`` returned by a layer."""
        self.maxima[key] = max([self.maxima[key], *map(_bits, values)])

    def summary(self) -> dict:
        """Per-layer self times and counts; ratios are derived once all children are in."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, parent, _, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_reductions = [False] * len(spans)
        sums = Counter(self.counts)
        for i, (_, parent, layer, name, start, end) in enumerate(spans):
            self_time = end - start - covered[i] - self.untimed[i]
            in_reductions[i] = layer == "reductions" or (parent >= 0 and in_reductions[parent])
            if layer == "cli":
                sums[f"cli.{name}_s"] += self_time
            elif layer != "op":
                sums[f"{layer}.busy_s"] += self_time
            if name in ("at", "advance"):
                sums["coefficients.reads"] += 1
                sums["coefficients.at_reads"] += name == "at"
                sums["series.reads"] += parent >= 0 and spans[parent][2] == "series"
                sums["reductions.reads"] += in_reductions[i]
            elif layer == "series":
                sums["series.calls"] += 1
        maxima = dict(self.maxima)
        maxima["coefficients.peak_alloc_mb"] = sums.pop("coefficients.alloc_kb", 0) / 1024
        return {"sum": dict(sums), "max": maxima}

    def write(self, summary_path: str, spans_path: str) -> None:
        with open(spans_path, "wb") as f:
            marshal.dump([list(s) for s in self.spans], f)
        with open(summary_path, "w") as f:
            json.dump(self.summary(), f)


def instrument(tracer: Tracer) -> None:
    """Put ``tracer``'s wrappers in place of the package's public functions and reads."""
    modules = [importlib.import_module(name) for name in MODULES]
    cli = modules[1]
    counts = tracer.counts

    def steps(outcome):
        counts["machine.steps"] += outcome.steps if outcome.halted else outcome.budget

    def iterations(outcome):
        counts["reductions.iterations"] += outcome.iteration if outcome.halted else outcome.budget

    def budget_used(report):
        counts["reductions.iterations"] += report.budget_used

    def operands(result):
        tracer.note("series.max_operand_bits", exact_values(result))

    after = {"run_bounded": steps, "run_detector": iterations,
             "semidecide_halting_via_series": budget_used}
    for (layer, span), names in LAYERS.items():
        for name in names:
            original = getattr(hs, name)
            hook = after.get(name, operands if layer == "series" else None)
            wrapped = tracer.wrap(layer, span or name, original, hook)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)

    report = hs.SeriesProbeReport
    report.to_text = tracer.wrap("cli", "render", report.to_text)
    report.to_kv = tracer.wrap("cli", "render", report.to_kv)

    # Argument parsing: the parser the CLI builds gets a timed parse_args.
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli", "parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser

    classes, pending = [], [hs.CoefficientStream]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if cls is not hs.CoefficientStream and "at" in vars(cls):
            classes.append(cls)
    for cls in classes:
        cls.at = tracer.wrap_read(cls.at, issubclass(cls, hs.HaltingEncoded))
