"""The outcome renderers print what the per-class renderers they replaced printed.

``SeriesProbeReport``, ``DetectorHalted`` and ``StillRunning`` each give
``report_lines(kv)`` and render through one base, ``series._Report``.
Before that each class had its own ``to_text``/``to_kv`` pair; those
bodies are kept below, unchanged apart from taking the outcome as an
argument, as the reference. Hypothesis draws outcomes the CLI never
prints (every verdict kind with negative witness values, window
certificates with several failures, enclosures, witness logs, empty
traces, integers past the interpreter's int-digit limit) and real
probe and detector runs, some of them cancelled, and the two renderings
must agree byte for byte, also under the 640-digit limit.
"""

import itertools
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from haltseries import (
    CauchyWindowCertificate,
    ConsistentUpToBudget,
    DetectorHalted,
    EvaluationPoint,
    LinearRate,
    SeriesProbeReport,
    StillRunning,
    ThresholdCertificate,
    WindowFailure,
    WitnessedBoundViolation,
    WitnessedDivergence,
    build_cauchy_window_detector,
    build_cauchy_window_heuristic,
    build_threshold_detector,
    builtin_stream,
    check_effective_criterion,
    check_modulus,
    format_rational,
    ratio_test_probe,
    run_detector,
    semidecide_halting_via_series,
)
from haltseries.coefficients import approx_decimal

import corpus


# ---------------------------------------------------------------------------
# The reference: the per-class renderers as they were
# ---------------------------------------------------------------------------


def exact_line(label, value):
    return f"{label}: {format_rational(value)} (approx {approx_decimal(value)})"


def trace_lines(trace, kv):
    if kv:
        return [f"trace.{format_rational(n)}={format_rational(s)}" for n, s in trace]
    if not trace:
        return []
    lines = [f"  S_{format_rational(n)} = {format_rational(s)}" for n, s in trace]
    return [f"trace (first {len(trace)}):"] + lines


def _verdict_detail(verdict):
    if isinstance(verdict, WitnessedDivergence):
        return {"ratio": verdict.ratio, "threshold": verdict.threshold}
    if isinstance(verdict, WitnessedBoundViolation):
        return dict(verdict.detail)
    return {}


def probe_text(self):
    lines = [f"verdict: {self.verdict.kind}", f"budget: {format_rational(self.budget_used)}"]
    if self.witness is not None:
        index, value = self.witness
        lines.append(f"witness index: {format_rational(index)}")
        lines.append(exact_line("witness value", value))
    for key, value in sorted(_verdict_detail(self.verdict).items()):
        lines.append(f"{key}: {format_rational(value)}")
    return "\n".join(lines + trace_lines(self.trace, kv=False)) + "\n"


def probe_kv(self):
    lines = [f"verdict={self.verdict.kind}", f"budget={format_rational(self.budget_used)}"]
    if self.witness is not None:
        index, value = self.witness
        lines.append(f"witness_index={format_rational(index)}")
        lines.append(f"witness_value={format_rational(value)}")
    for key, value in sorted(_verdict_detail(self.verdict).items()):
        lines.append(f"{key}={format_rational(value)}")
    return "\n".join(lines + trace_lines(self.trace, kv=True)) + "\n"


# The certificates' ``report_lines`` are not part of this change; both
# renderings call them.
def halted_text(self):
    lines = [f"verdict: HALTED at iteration {format_rational(self.iteration)}"]
    return "\n".join(lines + self.certificate.report_lines(kv=False)) + "\n"


def halted_kv(self):
    lines = ["verdict=HALTED", f"iteration={format_rational(self.iteration)}"]
    return "\n".join(lines + self.certificate.report_lines(kv=True)) + "\n"


def still_text(self):
    lines = [f"verdict: STILL_RUNNING after {format_rational(self.budget)} iterations"]
    if self.final_bounds is not None:
        lo, hi = self.final_bounds
        lines.append(
            f"final sum enclosure: [{format_rational(lo)}, {format_rational(hi)}]"
        )
    if self.witness_log:
        first, last = (" -> ".join(map(format_rational, self.witness_log[i])) for i in (0, -1))
        lines.append(
            f"window witnesses: start {first}, ..., start {last} "
            f"({len(self.witness_log)} recorded)"
        )
    return "\n".join(lines + trace_lines(self.trace, kv=False)) + "\n"


def still_kv(self):
    lines = ["verdict=STILL_RUNNING", f"iterations={format_rational(self.budget)}"]
    if self.final_bounds is not None:
        lo, hi = self.final_bounds
        lines.append(f"final_sum_lower={format_rational(lo)}")
        lines.append(f"final_sum_upper={format_rational(hi)}")
    return "\n".join(lines + trace_lines(self.trace, kv=True)) + "\n"


REFERENCE = {
    SeriesProbeReport: (probe_text, probe_kv),
    DetectorHalted: (halted_text, halted_kv),
    StillRunning: (still_text, still_kv),
}


def assert_renders_as_the_reference(outcome):
    text, kv = REFERENCE[type(outcome)]
    for limit in (sys.get_int_max_str_digits(), 640):
        with corpus.int_digit_limit(limit):
            assert outcome.to_text() == text(outcome)
            assert outcome.to_kv() == kv(outcome)


# ---------------------------------------------------------------------------
# Drawn outcomes
# ---------------------------------------------------------------------------

#: Small and negative values, and integers past the default 4300-digit limit.
huge = st.integers(4300, 5000).flatmap(lambda d: st.sampled_from((10 ** d - 1, -(10 ** d) + 7)))
integers = st.one_of(st.integers(-10 ** 6, 10 ** 6), huge)
rationals = st.one_of(
    st.fractions(max_denominator=10 ** 9),
    st.builds(Fraction, integers, st.integers(1, 10 ** 30)),
)
indices = st.one_of(st.integers(0, 10 ** 6), st.just(10 ** 4400))
traces = st.lists(st.tuples(indices, rationals), max_size=4).map(tuple)

verdicts_and_witnesses = st.one_of(
    st.tuples(st.builds(ConsistentUpToBudget, indices), st.none()),
    st.tuples(st.builds(WitnessedDivergence, indices, rationals, rationals),
              st.tuples(indices, rationals)),
    st.tuples(st.builds(WitnessedBoundViolation,
                        st.dictionaries(st.text(min_size=1, max_size=6), rationals, max_size=5)),
              st.tuples(indices, rationals)),
)


@st.composite
def probe_reports(draw):
    verdict, witness = draw(verdicts_and_witnesses)
    return SeriesProbeReport(verdict, witness, draw(traces), draw(indices))


certificates = st.one_of(
    st.builds(ThresholdCertificate, indices, rationals),
    st.builds(
        CauchyWindowCertificate,
        indices,
        rationals,
        st.lists(st.builds(WindowFailure, indices, indices, indices, rationals),
                 max_size=5).map(tuple),
    ),
)

still_running = st.builds(
    StillRunning,
    indices,
    traces,
    st.one_of(st.none(), st.tuples(rationals, rationals)),
    st.lists(st.tuples(indices, indices), max_size=4).map(tuple),
)

outcomes = st.one_of(probe_reports(), st.builds(DetectorHalted, indices, certificates),
                     still_running)


@settings(deadline=None)
@given(outcomes)
def test_drawn_outcomes_render_as_the_reference(outcome):
    assert_renders_as_the_reference(outcome)


# ---------------------------------------------------------------------------
# Outcomes of real runs, some of them cancelled
# ---------------------------------------------------------------------------

point_rationals = st.fractions(0, 3, max_denominator=6)
signed_rationals = st.fractions(-3, 3, max_denominator=6)


@settings(deadline=None, max_examples=60)
@given(corpus.builtin_streams(), point_rationals, st.integers(1, 40), signed_rationals)
def test_probe_runs_render_as_the_reference(stream, r, budget, limit):
    point = EvaluationPoint(r)
    for report in (
        ratio_test_probe(stream, point, Fraction(3, 2) + r, budget),
        check_effective_criterion(stream, LinearRate(1, 1), Fraction(1, 2) + r, 4, budget),
        check_modulus(stream, point, limit, LinearRate(1, 1), budget),
    ):
        assert_renders_as_the_reference(report)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(corpus.halting_programs()), st.integers(1, 40))
def test_semidecisions_render_as_the_reference(case, budget):
    _, program = case
    for r in (Fraction(1, 8), Fraction(1), Fraction(3)):
        report = semidecide_halting_via_series(program, 0, EvaluationPoint(r), budget)
        assert_renders_as_the_reference(report)


@settings(deadline=None, max_examples=60)
@given(corpus.builtin_streams(), st.integers(1, 30), st.none() | st.integers(0, 30))
def test_detector_runs_render_as_the_reference(stream, budget, cancel_at):
    for build in (build_threshold_detector, build_cauchy_window_detector,
                  build_cauchy_window_heuristic):
        ticks = itertools.count()
        cancel = None if cancel_at is None else (lambda: next(ticks) >= cancel_at)
        assert_renders_as_the_reference(run_detector(build(stream), budget, cancel))


def test_a_cancelled_run_with_no_iterations_renders_as_the_reference():
    for build in (build_threshold_detector, build_cauchy_window_detector,
                  build_cauchy_window_heuristic):
        outcome = run_detector(build(builtin_stream("harmonic")), 10 ** 6, cancel=lambda: True)
        assert outcome.budget == 0 and outcome.trace == ()
        assert_renders_as_the_reference(outcome)
