import math
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from haltseries import (
    CauchyWindowCertificate,
    CauchyWindowKnobs,
    ConsistentUpToBudget,
    DetectorHalted,
    DetectorProgram,
    EvaluationPoint,
    ExplicitStream,
    HaltedAt,
    RunningAfter,
    StillRunning,
    ThresholdCertificate,
    WindowFailure,
    WitnessedDivergence,
    build_cauchy_window_detector,
    build_cauchy_window_heuristic,
    build_threshold_detector,
    builtin_stream,
    forward_reduce,
    halted_by,
    parse_program,
    partial_sum,
    prefix_sums,
    ratio_test_probe,
    recheck_certificate,
    run_bounded,
    run_detector,
    semidecide_halting_via_series,
)
import haltseries
from haltseries import reductions
from haltseries.coefficients import CoefficientStream
from haltseries.series import TRACE_POINTS

import corpus

UNIT = EvaluationPoint(Fraction(1))


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, as ``copy.replace`` makes on 3.13+."""
    return record.__replace__(**changes)


class SlowDivergent(CoefficientStream):
    """Divergent at z = 1 with logarithmic partial sums: a_n = 1/(n+10).

    The partial sums grow without bound but stay far below the iteration
    count (about 11.6 after a million terms), so the threshold detector
    never halts on it. This pins the real gap in the threshold
    construction: slow divergence is invisible to a linear threshold.
    """

    def at(self, n):
        return Fraction(1, n + 10)


def near_threshold(k):
    """``0, 2/3, 4/3, 2/3, ..., 2``: S_N = N at every even N below k, and
    S_k = k + 2/3 is the first sum past N."""
    terms = [Fraction(2, 3) if i % 2 else Fraction(4, 3) for i in range(1, k)]
    return ExplicitStream((Fraction(0), *terms, Fraction(2)))


# ---------------------------------------------------------------------------
# forward reduction and the halting semidecision
# ---------------------------------------------------------------------------


def test_forward_reduce_packages_the_run_lazily():
    program = parse_program("loop: decjz 1 loop")
    stream = forward_reduce(program, 0)
    assert stream.simulated_steps == 0  # nothing simulated eagerly
    assert all(stream.at(n) == 0 for n in range(50))


def test_forward_reduce_three_step_program():
    program = parse_program("inc 0\ninc 0\nhalt")
    stream = forward_reduce(program, 0)
    first_nonzero = next(n for n in range(100) if stream.at(n) != 0)
    assert first_nonzero == 3
    assert stream.at(3) == 6


# Runs in a child under a 512 MB address-space cap, so that a regression to
# memory growing with the budget fails fast instead of exhausting the host.
_FLAT_MEMORY_CHILD = """
from fractions import Fraction
from haltseries import (
    EvaluationPoint, builtin_stream, parse_program, ratio_test_probe,
    semidecide_halting_via_series,
)
doubler = parse_program("loop: decjz 0 done\\ninc 1\\ninc 1\\ndecjz 2 loop\\ndone: halt")
reports = [
    semidecide_halting_via_series(doubler, 20000, EvaluationPoint(Fraction(1, 2)), 10 ** 5),
    ratio_test_probe(
        builtin_stream("factorial_tail", 0), EvaluationPoint(Fraction(1, 3)), Fraction(2), 10 ** 5
    ),
]
for report in reports:
    print(*report.witness)
# This process's own peak RSS in kilobytes. Linux's ru_maxrss also counts
# the forking parent's RSS, carried across exec, so read VmHWM where there
# is a /proc; ru_maxrss is in bytes on macOS.
try:
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
except OSError:
    import resource, sys
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(maxrss // 1024 if sys.platform == "darwin" else maxrss)
"""


def test_semidecision_memory_is_flat_at_budget_1e5():
    resource = pytest.importorskip("resource")
    cap = 512 * 2 ** 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _FLAT_MEMORY_CHILD],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    *witnesses, peak_kb = proc.stdout.splitlines()
    assert witnesses == ["80002 80003/2", "5 2"]
    assert int(peak_kb) / 2 ** 10 < 64


def test_semidecision_witness_at_x_1e12_costs_o1_beyond_the_run():
    # The doubler halts at step 4x + 2 after O(1) loop exits, and the ratio
    # probe finds the witness of the shaped stream in closed form, so a
    # budget of 10^13 finishes at once. The child's timeout fails the test.
    code = (
        "from fractions import Fraction\n"
        "from haltseries import EvaluationPoint, parse_program, semidecide_halting_via_series\n"
        "doubler = parse_program('loop: decjz 0 done\\ninc 1\\ninc 1\\ndecjz 2 loop\\ndone: halt')\n"
        "point = EvaluationPoint(Fraction(1, 2))\n"
        "print(*semidecide_halting_via_series(doubler, 10 ** 12, point, 10 ** 13).witness)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    h = 4 * 10 ** 12 + 2
    assert proc.stdout.split() == [str(h), f"{h + 1}/2"]


def test_forward_reduce_then_ratio_probe_witnesses_divergence():
    program = parse_program("inc 0\ninc 0\nhalt")
    stream = forward_reduce(program, 0)
    report = ratio_test_probe(stream, EvaluationPoint(Fraction(1, 2)), Fraction(2), 100)
    assert isinstance(report.verdict, WitnessedDivergence)


def test_semidecide_halting_three_step():
    program = parse_program("inc 0\ninc 0\nhalt")
    report = semidecide_halting_via_series(program, 0, UNIT, 100)
    assert isinstance(report.verdict, WitnessedDivergence)
    assert report.verdict.index >= 3


def test_semidecide_self_loop_stays_consistent():
    program = parse_program("loop: decjz 1 loop")
    report = semidecide_halting_via_series(program, 0, UNIT, 10 ** 5)
    assert report.verdict == ConsistentUpToBudget(10 ** 5)


def test_semidecide_small_point_only_delays_the_witness():
    program = parse_program("halt")
    report = semidecide_halting_via_series(
        program, 0, EvaluationPoint(Fraction(1, 1000)), 10 ** 4
    )
    assert isinstance(report.verdict, WitnessedDivergence)
    # ratios are (n+1)/1000, first persistent crossing of 2 at n = 1999
    assert report.verdict.index == 1999


DOUBLER = parse_program("loop: decjz 0 done\ninc 1\ninc 1\ndecjz 2 loop\ndone: halt")


@given(
    st.one_of(
        st.integers(0, 40).map(lambda x: (DOUBLER, x)),  # halts at step 4x + 2
        st.tuples(corpus.programs(), st.integers(0, 5)),
    ),
    st.fractions(min_value=Fraction(1, 200), max_value=3, max_denominator=200),
    st.integers(1, 400),
)
@settings(deadline=None)
@example((DOUBLER, 1), Fraction(1, 1000), 100)  # halted at step 6, yet no witness
def test_semidecision_witnesses_exactly_when_halted_and_budget_reaches_2_over_r(case, r, budget):
    # a_{n+1} / a_n = n + 1 from the halt step h on, so (n + 1) * r first
    # reaches 2 at n = ceil(2/r) - 1, and the witness sits at the later of the two.
    program, input_value = case
    outcome = run_bounded(program, input_value, budget)
    report = semidecide_halting_via_series(program, input_value, EvaluationPoint(r), budget)
    first = math.ceil(2 / r) - 1
    if outcome.halted and budget >= first:
        index = max(outcome.steps, first)
        assert report.witness == (index, (index + 1) * r)
        assert report.verdict.index == index
    else:
        assert report.witness is None
        assert report.verdict == ConsistentUpToBudget(budget)


@pytest.mark.parametrize(
    "outcome, halted, text",
    [
        (HaltedAt(3), True, "HaltedAt(steps=3)"),
        (RunningAfter(5), False, "RunningAfter(budget=5)"),
        (
            DetectorHalted(1, ThresholdCertificate(1, Fraction(2))),
            True,
            "DetectorHalted(iteration=1, certificate=ThresholdCertificate(index=1,"
            " partial_sum=Fraction(2, 1)))",
        ),
        (StillRunning(7), False, "StillRunning(budget=7, trace=(), final_bounds=None,"
                                 " witness_log=())"),
    ],
)
def test_halted_is_a_class_constant_outside_the_fields(outcome, halted, text):
    assert outcome.halted is halted and type(outcome).halted is halted
    assert "halted" not in type(outcome).__match_args__
    assert repr(outcome) == text
    again = replace(outcome)
    assert again == outcome and again.halted is halted


def test_semidecide_validates_inputs():
    program = parse_program("halt")
    with pytest.raises(ValueError):
        semidecide_halting_via_series(program, 0, EvaluationPoint(Fraction(0)), 10)
    with pytest.raises(ValueError):
        semidecide_halting_via_series(program, 0, UNIT, 0)


def test_semidecide_never_lies_on_sampled_machines():
    rng = random.Random(424242)
    budget = 300
    for _ in range(60):
        program = corpus.random_program(rng)
        input_value = rng.randint(0, 5)
        report = semidecide_halting_via_series(program, input_value, UNIT, budget)
        confirmed = run_bounded(program, input_value, budget)
        if isinstance(report.verdict, WitnessedDivergence):
            assert confirmed.halted
            assert halted_by(program, input_value, report.verdict.index)
        else:
            assert not confirmed.halted


# ---------------------------------------------------------------------------
# threshold detector
# ---------------------------------------------------------------------------


def test_threshold_detector_halts_on_flat_ones():
    outcome = run_detector(build_threshold_detector(builtin_stream("one")), 10)
    assert outcome == DetectorHalted(1, ThresholdCertificate(1, Fraction(2)))


def test_threshold_detector_never_halts_on_zero():
    outcome = run_detector(build_threshold_detector(builtin_stream("zero")), 10 ** 4)
    assert isinstance(outcome, StillRunning)
    assert outcome.budget == 10 ** 4
    lo, hi = outcome.final_bounds
    assert lo == hi == 0


def test_threshold_detector_trips_degenerately_at_one():
    # any stream with |a_0 + a_1| > 1 halts on the very first check,
    # convergent or not: the linear threshold is 1 at N = 1
    geometric = run_detector(
        build_threshold_detector(builtin_stream("geometric", Fraction(1, 2))), 100
    )
    assert geometric == DetectorHalted(1, ThresholdCertificate(1, Fraction(3, 2)))
    harmonic = run_detector(build_threshold_detector(builtin_stream("harmonic")), 100)
    assert harmonic == DetectorHalted(1, ThresholdCertificate(1, Fraction(3, 2)))


def test_threshold_detector_misses_slow_divergence():
    # divergent at z = 1, yet the partial sums trail the iteration count
    # forever: the detector cannot see logarithmic growth
    outcome = run_detector(build_threshold_detector(SlowDivergent()), 10 ** 6)
    assert isinstance(outcome, StillRunning)
    assert outcome.budget == 10 ** 6
    lo, hi = outcome.final_bounds
    assert lo <= hi
    assert hi < 12  # far below the million iterations run


def test_threshold_detector_negative_sums_trip_too():
    outcome = run_detector(
        build_threshold_detector(ExplicitStream((Fraction(-3),), Fraction(0))), 10
    )
    assert outcome == DetectorHalted(1, ThresholdCertificate(1, Fraction(-3)))


def test_threshold_detector_on_explicit_delayed_spike():
    stream = ExplicitStream((Fraction(0), Fraction(0), Fraction(5)), Fraction(0))
    outcome = run_detector(build_threshold_detector(stream), 10)
    assert outcome == DetectorHalted(2, ThresholdCertificate(2, Fraction(5)))


def test_threshold_detector_alternating_never_halts():
    outcome = run_detector(build_threshold_detector(builtin_stream("alternating")), 2000)
    assert isinstance(outcome, StillRunning)


def test_threshold_certificate_rechecks():
    outcome = run_detector(build_threshold_detector(builtin_stream("one")), 10)
    assert recheck_certificate(builtin_stream("one"), outcome)


def test_threshold_halt_index_is_stable_under_bigger_budgets():
    stream = ExplicitStream((Fraction(0), Fraction(0), Fraction(5)), Fraction(0))
    first = run_detector(build_threshold_detector(stream), 2)
    for budget in (2, 3, 10, 1000):
        again = run_detector(build_threshold_detector(stream), budget)
        assert again == first


def _reference_threshold_run(stream, budget):
    """Independent oracle: plain exact summation, no enclosures."""
    total = stream.at(0)
    for n in range(1, budget + 1):
        total += stream.at(n)
        if abs(total) > n:
            return ("halted", n, total)
    return ("running", budget)


def _assert_matches_reference(stream, budget):
    outcome = run_detector(build_threshold_detector(stream), budget)
    expected = _reference_threshold_run(stream, budget)
    if expected[0] == "halted":
        assert isinstance(outcome, DetectorHalted)
        assert outcome.iteration == expected[1]
        assert outcome.certificate.partial_sum == expected[2]
    else:
        assert isinstance(outcome, StillRunning), stream
        lo, hi = outcome.final_bounds
        exact = partial_sum(stream, UNIT, budget)
        assert lo <= exact <= hi


def test_threshold_runner_matches_exact_reference():
    streams = [
        builtin_stream("one"),
        builtin_stream("zero"),
        builtin_stream("harmonic"),
        builtin_stream("alternating"),
        builtin_stream("geometric", Fraction(1, 2)),
        builtin_stream("factorial_tail", 3),
        SlowDivergent(),
        ExplicitStream((Fraction(0), Fraction(1)), Fraction(1)),  # S_N = N exactly
        ExplicitStream((Fraction(1, 3), Fraction(2, 3)), Fraction(1)),  # forces enclosure straddle
        ExplicitStream((Fraction(-1, 3), Fraction(-2, 3)), Fraction(-1)),  # negative straddle
        ExplicitStream((Fraction(-1, 7),), Fraction(-2)),
    ]
    for stream in streams:
        for budget in (1, 5, 50, 128):
            _assert_matches_reference(stream, budget)


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=9), min_size=0, max_size=8
    ),
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
    st.integers(1, 40),
)
@settings(deadline=None, max_examples=150)
def test_threshold_runner_matches_exact_reference_randomized(prefix, tail, budget):
    _assert_matches_reference(ExplicitStream(tuple(prefix), tail), budget)


def _from_zero_threshold_run(stream, budget):
    """Reference threshold runner: the same enclosure as ``run_detector``,
    but every exact fallback sums from index 0 through ``partial_sum``."""
    shift = reductions._SHIFT

    def bounds(value):
        scaled = value.numerator << shift
        return scaled // value.denominator, -((-scaled) // value.denominator)

    exact = stream.at(0)
    lo, hi = bounds(exact)
    trace = []
    for n in range(1, budget + 1):
        a = stream.at(n)
        t_lo, t_hi = bounds(a)
        lo += t_lo
        hi += t_hi
        if n <= TRACE_POINTS:
            exact += a
            trace.append((n, exact))
        if hi > n << shift or lo < -(n << shift):
            value = partial_sum(stream, UNIT, n)
            if abs(value) > n:
                return DetectorHalted(n, ThresholdCertificate(index=n, partial_sum=value))
            lo, hi = bounds(value)
    return StillRunning(
        budget=budget,
        trace=tuple(trace),
        final_bounds=(Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)),
    )


@given(
    st.integers(-(2**300), 2**300),
    st.one_of(st.integers(0, 200).map(lambda e: 2**e), st.integers(1, 2**200)),
)
@example(1, 2**200)  # tiny and positive: [0, 1]
@example(-1, 2**200)  # tiny and negative: [-1, 0]
@example(-(2**1000) - 1, 3)  # huge
@example(-3, 2**64)  # an exact multiple of 2^-64
@settings(deadline=None, max_examples=300)
def test_scaled_bounds_floor_and_ceil_the_scaled_value(num, den):
    x = Fraction(num, den)
    assert reductions._scaled_bounds(x) == (math.floor(x * 2**64), math.ceil(x * 2**64))


@st.composite
def hovering_streams(draw):
    """Unshaped streams with ``S_N = ±(N + e_N)`` for drawn non-dyadic
    ``e_N``: the enclosure straddles N wherever ``e_N`` is 0 or tiny, and
    the detector halts at the first positive ``e_N``."""
    offsets = draw(
        st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.fractions(-1, 0, max_denominator=9),
                st.fractions(-1, 1, max_denominator=10 ** 6),
            ),
            max_size=60,
        )
    )
    sign = draw(st.sampled_from([1, -1]))
    tail = draw(st.sampled_from([Fraction(1), Fraction(0), Fraction(4, 3)]))
    terms = [b - a + (n > 0) for n, (a, b) in enumerate(zip([0] + offsets, offsets))]
    return ExplicitStream(tuple(sign * t for t in terms), sign * tail)


@given(
    st.one_of(
        hovering_streams(),
        corpus.builtin_streams(),
        st.tuples(corpus.programs(), st.integers(0, 5)).map(lambda args: forward_reduce(*args)),
    ),
    st.integers(1, 80),
)
@example(near_threshold(30), 60)
@example(near_threshold(30), 29)
@settings(deadline=None, max_examples=300)
def test_threshold_runner_matches_the_from_zero_runner(stream, budget):
    assert run_detector(build_threshold_detector(stream), budget) == _from_zero_threshold_run(
        stream, budget
    )


def test_threshold_fallbacks_read_each_coefficient_at_most_twice():
    # S_N = N at every even N below 200, so the enclosure of these thirds
    # straddles N a hundred times; a from-zero re-sum at each would read
    # about 10^4 coefficients.
    stream = corpus.Counting(near_threshold(200))
    outcome = run_detector(build_threshold_detector(stream), 400)
    assert outcome == DetectorHalted(200, ThresholdCertificate(200, Fraction(602, 3)))
    assert stream.reads <= 2 * 200 + 2
    short = corpus.Counting(near_threshold(200))
    assert not run_detector(build_threshold_detector(short), 199).halted
    assert short.reads <= 2 * 199 + 2


def test_threshold_trace_holds_first_exact_sums():
    outcome = run_detector(build_threshold_detector(builtin_stream("zero")), 100)
    assert len(outcome.trace) == 20
    assert all(value == 0 for _, value in outcome.trace)
    slow = run_detector(build_threshold_detector(SlowDivergent()), 30)
    for n, value in slow.trace:
        assert value == partial_sum(SlowDivergent(), UNIT, n)


def test_detector_cancellation_at_iteration_boundaries():
    calls = iter(range(100))
    outcome = run_detector(
        build_threshold_detector(builtin_stream("zero")),
        10 ** 6,
        cancel=lambda: next(calls) >= 3,
    )
    assert isinstance(outcome, StillRunning)
    assert outcome.budget == 3
    window = run_detector(
        build_cauchy_window_detector(builtin_stream("zero")),
        10 ** 6,
        cancel=lambda: True,
    )
    assert window.budget == 0
    ticks = iter(range(100))
    window = run_detector(
        build_cauchy_window_detector(builtin_stream("one")),
        10 ** 6,
        cancel=lambda: next(ticks) >= 2,
    )
    assert window.budget == 2
    assert window.witness_log == ((1, 1), (2, 2))
    assert window.trace == ((1, 2), (2, 3))
    ticks = iter(range(100))
    heuristic = run_detector(
        build_cauchy_window_heuristic(builtin_stream("zero")),
        10 ** 6,
        cancel=lambda: next(ticks) >= 2,
    )
    assert isinstance(heuristic, StillRunning)
    assert heuristic.budget == 2
    assert heuristic.witness_log == ((1, 1), (2, 1))
    assert heuristic.trace == ((1, 0), (2, 0))


# ---------------------------------------------------------------------------
# Cauchy-window detector
# ---------------------------------------------------------------------------


def test_window_detector_is_vacuous_on_everything():
    budget = 10 ** 5
    for name, *params in (("zero",), ("one",), ("alternating",), ("harmonic",),
                          ("factorial_tail", 0)):
        stream = corpus.Counting(builtin_stream(name, *params))
        outcome = run_detector(build_cauchy_window_detector(stream), budget)
        assert isinstance(outcome, StillRunning), name
        # the single-point window start N = k satisfies every horizon
        assert outcome.witness_log == tuple((k, k) for k in range(1, budget + 1))
        # so no coefficient past the trace's is needed, at any budget
        assert stream.reads <= TRACE_POINTS + 1
        sums = prefix_sums(builtin_stream(name, *params), UNIT, TRACE_POINTS)
        assert outcome.trace == tuple(zip(range(1, TRACE_POINTS + 1), sums[1:]))


def test_window_heuristic_catches_flat_ones():
    outcome = run_detector(build_cauchy_window_heuristic(builtin_stream("one")), 50)
    assert isinstance(outcome, DetectorHalted)
    assert outcome.iteration == 1
    cert = outcome.certificate
    assert cert.horizon == 1
    assert cert.tolerance == Fraction(1, 2)
    assert len(cert.failures) == 1
    failure = cert.failures[0]
    # |S_2 - S_1| = 1 over window [1, 2]
    assert failure.gap == 1


def test_window_heuristic_lets_zero_run():
    outcome = run_detector(build_cauchy_window_heuristic(builtin_stream("zero")), 200)
    assert isinstance(outcome, StillRunning)
    assert all(witness == 1 for _, witness in outcome.witness_log)


def test_window_heuristic_shrinking_tolerance_outpaces_geometric():
    # with tolerance 2^-k but window starts capped at k/2 the geometric
    # tail is never flat enough; the heuristic falsely calls divergence
    outcome = run_detector(
        build_cauchy_window_heuristic(builtin_stream("geometric", Fraction(1, 2))), 50
    )
    assert isinstance(outcome, DetectorHalted)
    assert outcome.iteration == 2


def test_window_heuristic_fixed_tolerance_lets_geometric_run():
    # window gaps from start 1 stay at 1/2 - 2^-horizon, strictly below 1/2
    detector = build_cauchy_window_heuristic(
        builtin_stream("geometric", Fraction(1, 2)), fixed_tolerance=Fraction(1, 2)
    )
    outcome = run_detector(detector, 100)
    assert isinstance(outcome, StillRunning)


def test_window_heuristic_certificate_rechecks():
    detector = build_cauchy_window_heuristic(builtin_stream("one"))
    outcome = run_detector(detector, 10)
    assert recheck_certificate(builtin_stream("one"), outcome, detector.knobs)


def test_recheck_rejects_tampered_certificates():
    stream = builtin_stream("one")
    detector = build_cauchy_window_heuristic(stream, window_cap=Fraction(1))
    outcome = run_detector(detector, 10)
    cert = outcome.certificate
    assert recheck_certificate(stream, outcome, detector.knobs)
    (failure,) = cert.failures
    tampered = [
        replace(cert, failures=()),
        replace(cert, failures=(replace(failure, lo_index=failure.window_start - 1),)),
        replace(cert, failures=(replace(failure, hi_index=2 * cert.horizon + 1),)),
        replace(cert, failures=(replace(failure, gap=failure.gap + 1),)),
    ]
    for bad in tampered:
        assert not recheck_certificate(stream, replace(outcome, certificate=bad), detector.knobs)
    halt = run_detector(build_threshold_detector(stream), 10)
    assert recheck_certificate(stream, halt)
    moved = replace(halt.certificate, partial_sum=halt.certificate.partial_sum + 1)
    assert not recheck_certificate(stream, replace(halt, certificate=moved))


def test_recheck_holds_the_iteration_to_the_certificate():
    stream = builtin_stream("one")
    for detector in (build_threshold_detector(stream), build_cauchy_window_heuristic(stream)):
        outcome = run_detector(detector, 10)
        assert recheck_certificate(stream, outcome, detector.knobs)
        moved = replace(outcome, iteration=99)
        assert "HALTED at iteration 99" in moved.to_text()
        assert not recheck_certificate(stream, moved, detector.knobs)


@pytest.mark.parametrize("index, value", [(-1, Fraction(0)), (0, Fraction(1))])
def test_recheck_rejects_a_threshold_index_below_one(index, value):
    # The runner first tests N = 1; |S_0| = 1 > 0 on ``one`` is true but
    # is no halt the runner makes, and a negative index has no sum at all.
    forged = DetectorHalted(index, ThresholdCertificate(index, value))
    assert not recheck_certificate(builtin_stream("one"), forged)


@pytest.mark.parametrize("index", [2, 10 ** 6, 10 ** 12])
def test_threshold_recheck_refuses_a_later_index_where_the_runner_halts_first(index):
    # S_n = n + 1 > n on ``one`` at every n, but the runner halts at N = 1,
    # so the recheck's own run refuses there instead of summing to n.
    forged = DetectorHalted(index, ThresholdCertificate(index, Fraction(index + 1)))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        assert recheck_certificate(builtin_stream("one"), forged) is False
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


_HALTING_STREAMS = [forward_reduce(program, case.input_value) for case, program in corpus.halting_programs()]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(corpus.builtin_streams(), st.sampled_from(_HALTING_STREAMS)),
    st.integers(1, 40),
    st.integers(1, 30),
)
def test_threshold_recheck_holds_certificates_to_the_first_n_rule(stream, budget, later):
    outcome = run_detector(build_threshold_detector(stream), budget)
    if not outcome.halted:
        return
    assert recheck_certificate(stream, outcome)
    # Every later index past its threshold cites a true sum, yet the runner
    # never halts there.
    sums = prefix_sums(stream, UNIT, outcome.iteration + later)
    for n in range(outcome.iteration + 1, len(sums)):
        if abs(sums[n]) > n:
            assert not recheck_certificate(stream, DetectorHalted(n, ThresholdCertificate(n, sums[n])))


def _zero_gap_forgery(horizon, cap):
    """A halt at ``horizon`` whose failures cite gaps of 0 at tolerance 0."""
    failures = tuple(WindowFailure(n, n, n, Fraction(0)) for n in range(1, cap + 1))
    return DetectorHalted(horizon, CauchyWindowCertificate(horizon, Fraction(0), failures))


def _geometric_forgery():
    """A horizon-10 halt at tolerance 10^-6 that cites the true gaps
    ``S_20 - S_n`` of ``geometric 1/2``, where the rule's tolerance is 1."""
    sums = [partial_sum(builtin_stream("geometric", Fraction(1, 2)), UNIT, n) for n in range(21)]
    failures = tuple(WindowFailure(n, n, 20, sums[20] - sums[n]) for n in range(1, 6))
    return DetectorHalted(10, CauchyWindowCertificate(10, Fraction(1, 10 ** 6), failures))


@pytest.mark.parametrize(
    "detector, forged",
    [
        (build_cauchy_window_heuristic(builtin_stream("zero")), _zero_gap_forgery(10, 5)),
        (
            build_cauchy_window_heuristic(
                builtin_stream("geometric", Fraction(1, 2)), fixed_tolerance=Fraction(1)
            ),
            _geometric_forgery(),
        ),
        (build_cauchy_window_detector(builtin_stream("zero")), _zero_gap_forgery(3, 3)),
    ],
    ids=["zero-heuristic", "geometric-fixed-tolerance", "zero-literal"],
)
def test_recheck_rejects_halts_the_runner_never_makes(detector, forged):
    # Each forgery cites only genuine sums, but at a tolerance other than
    # the rule's; the runner itself never halts on these streams.
    assert not run_detector(detector, 50).halted
    assert not recheck_certificate(detector.stream, forged, detector.knobs)


def _reference_window_heuristic(stream, knobs, budget):
    """Independent oracle: for each horizon k, scan ``S_s..S_H`` for its
    maximum and minimum (the later index wins a tie) and take the first
    start whose gap is below the tolerance."""
    sums = [stream.at(0)]
    trace, witness_log = [], []
    for k in range(1, budget + 1):
        horizon = knobs.horizon_scale * k
        while len(sums) <= horizon:
            sums.append(sums[-1] + stream.at(len(sums)))
        if k <= 20:
            trace.append((k, sums[k]))
        tolerance = knobs.fixed_tolerance
        if tolerance is None:
            tolerance = Fraction(1, 2 ** k)
        failures = []
        for start in range(1, max(1, int(knobs.window_cap * k)) + 1):
            window = range(start, horizon + 1)
            hi_at = max(window, key=lambda i: (sums[i], i))
            lo_at = min(window, key=lambda i: (sums[i], -i))
            gap = sums[hi_at] - sums[lo_at]
            if gap < tolerance:
                witness_log.append((k, start))
                break
            failures.append(WindowFailure(start, lo_at, hi_at, gap))
        else:
            return DetectorHalted(k, CauchyWindowCertificate(k, tolerance, tuple(failures)))
    return StillRunning(budget=budget, trace=tuple(trace), witness_log=tuple(witness_log))


_small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_explicit_streams = st.builds(
    ExplicitStream,
    st.lists(st.one_of(st.just(Fraction(0)), _small_fractions), max_size=10).map(tuple),
    st.one_of(st.just(Fraction(0)), _small_fractions),
)


@given(
    stream=st.one_of(_explicit_streams, corpus.builtin_streams()),
    horizon_scale=st.integers(1, 3),
    window_cap=st.fractions(min_value=0, max_value=1, max_denominator=6).filter(bool),
    fixed_tolerance=st.one_of(
        st.none(), st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8)
    ),
    budget=st.integers(1, 40),
)
@example(  # falling partial sums: the suffix maximum moves left
    stream=ExplicitStream((Fraction(2), Fraction(-1, 2), Fraction(-1, 4)), Fraction(-1, 8)),
    horizon_scale=2,
    window_cap=Fraction(1),
    fixed_tolerance=Fraction(1),
    budget=6,
)
@example(  # partial sums 0, 0, 0, 1, 0, 1 from S_1: ties, adjacent or not, go to the
    # later index, so the halt cites S_6 - S_5
    stream=ExplicitStream((0, 0, 0, 0, 1, -1, 1)),
    horizon_scale=3,
    window_cap=Fraction(1, 3),
    fixed_tolerance=Fraction(1),
    budget=5,
)
@settings(deadline=None, max_examples=300)
def test_window_heuristic_matches_brute_force_reference(
    stream, horizon_scale, window_cap, fixed_tolerance, budget
):
    detector = build_cauchy_window_heuristic(stream, horizon_scale, window_cap, fixed_tolerance)
    outcome = run_detector(detector, budget)
    expected = _reference_window_heuristic(stream, detector.knobs, budget)
    assert outcome.to_text() == expected.to_text()
    assert outcome.to_kv() == expected.to_kv()
    assert getattr(outcome, "witness_log", ()) == getattr(expected, "witness_log", ())
    if outcome.halted:
        assert recheck_certificate(stream, outcome, detector.knobs)


def _reference_recheck(stream, outcome, knobs=None):
    """The window recheck as it was written first: two from-zero
    ``partial_sum`` calls per failure, bookkeeping the starts seen. The
    tolerance must be the fixed one, or ``2^-horizon``, and the iteration
    the horizon."""
    cert = outcome.certificate
    horizon = knobs.horizon_scale * cert.horizon if knobs else cert.horizon
    cap = max(1, int(knobs.window_cap * cert.horizon)) if knobs else cert.horizon
    fixed = knobs.fixed_tolerance if knobs else None
    if cert.tolerance != (Fraction(1, 2 ** cert.horizon) if fixed is None else fixed):
        return False
    if outcome.iteration != cert.horizon:
        return False
    starts_needed = set(range(1, cap + 1))
    seen = set()
    for failure in cert.failures:
        seen.add(failure.window_start)
        if not (failure.window_start <= failure.lo_index <= horizon):
            return False
        if not (failure.window_start <= failure.hi_index <= horizon):
            return False
        gap = abs(
            partial_sum(stream, UNIT, failure.hi_index)
            - partial_sum(stream, UNIT, failure.lo_index)
        )
        if gap != failure.gap or gap < cert.tolerance:
            return False
    return seen == starts_needed


def _edit_failure(cert, i, **changes):
    failures = list(cert.failures)
    failures[i] = replace(failures[i], **changes)
    return replace(cert, failures=tuple(failures))


# Each takes a certificate and the position ``i`` of one of its failures.
_TAMPERINGS = {
    "gap + 1": lambda c, i: _edit_failure(c, i, gap=c.failures[i].gap + 1),
    "negated gap": lambda c, i: _edit_failure(c, i, gap=-c.failures[i].gap),
    "lo - 1": lambda c, i: _edit_failure(c, i, lo_index=c.failures[i].lo_index - 1),
    "hi + 1": lambda c, i: _edit_failure(c, i, hi_index=c.failures[i].hi_index + 1),
    "start + 1": lambda c, i: _edit_failure(c, i, window_start=c.failures[i].window_start + 1),
    "lo and hi swapped": lambda c, i: _edit_failure(
        c, i, lo_index=c.failures[i].hi_index, hi_index=c.failures[i].lo_index
    ),
    "tolerance x 1000": lambda c, i: replace(c, tolerance=c.tolerance * 1000),
    "tolerance below the rule": lambda c, i: replace(c, tolerance=c.tolerance / 2),
    "duplicated failure": lambda c, i: replace(c, failures=c.failures + (c.failures[i],)),
}

# Edits that keep every cited gap genuine, so only the start set or the
# tolerance can reject them.
_EDITS = {
    None: lambda c, i: c,
    "duplicate replaces another start": lambda c, i: replace(
        c, failures=tuple(c.failures[i] for _ in c.failures)
    ),
    "extra start above cap": lambda c, i: replace(
        c,
        failures=c.failures
        + (replace(c.failures[i], window_start=len(c.failures) + 1),),
    ),
    "tolerance above every gap": lambda c, i: replace(
        c, tolerance=max(f.gap for f in c.failures) + 1
    ),
}


@given(
    stream=st.one_of(_explicit_streams, corpus.builtin_streams()),
    horizon_scale=st.integers(1, 3),
    window_cap=st.fractions(min_value=0, max_value=1, max_denominator=6).filter(bool),
    fixed_tolerance=st.one_of(
        st.none(), st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8)
    ),
    budget=st.integers(1, 40),
    pick=st.integers(0, 100),
    edit=st.sampled_from(list(_EDITS)),
)
@example(  # S_n = n + 1 halts at k = 5 with cap 2; both failures become start 2's
    stream=builtin_stream("one"),
    horizon_scale=2,
    window_cap=Fraction(1, 2),
    fixed_tolerance=Fraction(8),
    budget=20,
    pick=1,
    edit="duplicate replaces another start",
)
@example(  # halts at k = 5 with cap 2; start 2 cites (4, 10), in range for a start of 3
    stream=ExplicitStream((1, 0, 0, 0, 0), Fraction(1)),
    horizon_scale=2,
    window_cap=Fraction(1, 2),
    fixed_tolerance=Fraction(6),
    budget=20,
    pick=1,
    edit="extra start above cap",
)
@example(  # halts at k = 2 with one failure, start 1 citing (1, 4) with gap 47/60
    stream=builtin_stream("harmonic"),
    horizon_scale=2,
    window_cap=Fraction(1, 2),
    fixed_tolerance=Fraction(1, 2),
    budget=20,
    pick=0,
    edit="tolerance above every gap",
)
@example(  # halts at k = 2 with tolerance 1/4 and gaps of 864: a tolerance x 1000
    # still clears every gap, so only the rule rejects it
    stream=builtin_stream("factorial_tail", 4),
    horizon_scale=3,
    window_cap=Fraction(1),
    fixed_tolerance=None,
    budget=2,
    pick=0,
    edit=None,
)
@settings(deadline=None, max_examples=200)
def test_window_recheck_matches_reference_on_genuine_and_tampered_certificates(
    stream, horizon_scale, window_cap, fixed_tolerance, budget, pick, edit
):
    detector = build_cauchy_window_heuristic(stream, horizon_scale, window_cap, fixed_tolerance)
    outcome = run_detector(detector, budget)
    assume(outcome.halted)
    knobs = detector.knobs
    cert = outcome.certificate
    i = pick % len(cert.failures)
    edited = _EDITS[edit](cert, i)
    candidates = [edited] + [tamper(edited, i) for tamper in _TAMPERINGS.values()]
    for bad in candidates:
        changed = replace(outcome, certificate=bad)
        assert recheck_certificate(stream, changed, knobs) == _reference_recheck(
            stream, changed, knobs
        )
    assert recheck_certificate(stream, outcome, knobs)
    if edited != cert:
        assert not recheck_certificate(stream, replace(outcome, certificate=edited), knobs)


def test_window_recheck_reads_each_coefficient_once():
    stream = ExplicitStream((), Fraction(1))
    detector = build_cauchy_window_heuristic(stream, fixed_tolerance=Fraction(60))
    outcome = run_detector(detector, 100)
    cert = outcome.certificate
    horizon = detector.knobs.horizon_scale * cert.horizon
    assert len(cert.failures) > 10
    counting = corpus.Counting(stream)
    assert recheck_certificate(counting, outcome, detector.knobs)
    assert counting.reads <= horizon + 1


def _recheck_under_a_512_mb_cap(certificate: str, knobs: str) -> str:
    """Print ``recheck_certificate`` on ``builtin one`` in a child whose
    address space is capped at 512 MB; a child that runs a minute fails."""
    resource = pytest.importorskip("resource")
    cap = 512 * 2 ** 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    code = (
        "from fractions import Fraction\n"
        "from haltseries import (CauchyWindowCertificate, CauchyWindowKnobs, WindowFailure,\n"
        "    builtin_stream, recheck_certificate)\n"
        "from haltseries.reductions import DetectorHalted\n"
        "h = 10 ** 12\n"
        f"cert = {certificate}\n"
        f"print(recheck_certificate(builtin_stream('one'), DetectorHalted(h, cert), {knobs}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          preexec_fn=limit_address_space, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_window_recheck_refuses_a_forged_horizon_in_bounded_memory():
    # One failure claimed at horizon 10^12, whose rule asks for 5 * 10^11
    # starts: the recheck must refuse it without building that many.
    certificate = "CauchyWindowCertificate(h, Fraction(1, 8), (WindowFailure(1, 1, 2, Fraction(1)),))"
    knobs = "CauchyWindowKnobs(fixed_tolerance=Fraction(1, 8))"
    assert _recheck_under_a_512_mb_cap(certificate, knobs) == "False\n"


def test_window_recheck_of_a_far_horizon_reads_only_the_cited_sums():
    # A genuine halt: the rule gives horizon 2 * 10^12 and cap 1, and
    # |S_2 - S_1| = 1 meets the tolerance 1. Only S_1 and S_2 are summed.
    certificate = "CauchyWindowCertificate(h, 1, (WindowFailure(1, 1, 2, 1),))"
    knobs = "CauchyWindowKnobs(2, Fraction(1, h), 1)"
    assert _recheck_under_a_512_mb_cap(certificate, knobs) == "True\n"


def _as(kind, field):
    """An edit of a halt that retypes one of its indices with ``kind``."""
    if field == "iteration":
        return lambda halt: replace(halt, iteration=kind(halt.iteration))
    if field in ("index", "horizon"):
        cert = lambda halt: replace(halt.certificate, **{field: kind(getattr(halt.certificate, field))})
    else:
        cert = lambda halt: _edit_failure(
            halt.certificate, 0, **{field: kind(getattr(halt.certificate.failures[0], field))}
        )
    return lambda halt: replace(halt, certificate=cert(halt))


@pytest.mark.parametrize("stream", [builtin_stream("one"), ExplicitStream((Fraction(1),), Fraction(1))],
                         ids=["one", "explicit"])
@pytest.mark.parametrize(
    "build, edit",
    [
        (build_threshold_detector, _as(Fraction, "index")),
        (build_threshold_detector, _as(float, "index")),
        (build_threshold_detector, _as(Fraction, "iteration")),
        (build_cauchy_window_heuristic, _as(Fraction, "iteration")),
        (build_cauchy_window_heuristic, _as(float, "horizon")),
        (build_cauchy_window_heuristic, _as(Fraction, "lo_index")),
        (build_cauchy_window_heuristic, _as(float, "hi_index")),
        (build_cauchy_window_heuristic, _as(float, "window_start")),
        (build_cauchy_window_heuristic, _as(bool, "window_start")),
    ],
    ids=["threshold-index-fraction", "threshold-index-float", "threshold-iteration-fraction",
         "window-iteration-fraction", "window-horizon-float", "window-lo-fraction",
         "window-hi-float", "window-start-float", "window-start-bool"],
)
def test_recheck_refuses_indices_that_are_not_ints(stream, build, edit):
    detector = build(stream)
    outcome = run_detector(detector, 10)
    assert recheck_certificate(stream, outcome, detector.knobs)
    retyped = edit(outcome)
    assert retyped == outcome  # each index still equals the genuine one
    assert recheck_certificate(stream, retyped, detector.knobs) is False


def test_window_heuristic_comparisons_grow_linearly_in_budget(monkeypatch):
    """Each horizon costs a few exact comparisons, not a rescan of its windows."""
    count = 0
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):

        def counted(self, other, compare=getattr(Fraction, name)):
            nonlocal count
            count += 1
            return compare(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    budget = 500
    detector = build_cauchy_window_heuristic(
        builtin_stream("geometric", Fraction(1, 2)), fixed_tolerance=Fraction(1)
    )
    outcome = run_detector(detector, budget)
    assert isinstance(outcome, StillRunning) and outcome.budget == budget
    assert count <= 20 * budget


def test_window_heuristic_certificate_covers_every_window_start():
    detector = build_cauchy_window_heuristic(
        builtin_stream("factorial_tail", 0), window_cap=Fraction(1)
    )
    outcome = run_detector(detector, 20)
    assert isinstance(outcome, DetectorHalted)
    cert = outcome.certificate
    starts = sorted(f.window_start for f in cert.failures)
    assert starts == list(range(1, max(1, cert.horizon) + 1))


def test_detector_program_validation_and_description():
    stream = builtin_stream("one")
    with pytest.raises(ValueError):
        DetectorProgram(stream, CauchyWindowKnobs(), True)
    for scale in (0, 1.5, Fraction(3, 2)):
        with pytest.raises(ValueError):
            CauchyWindowKnobs(horizon_scale=scale)
    with pytest.raises(ValueError):
        CauchyWindowKnobs(window_cap=Fraction(3, 2))
    with pytest.raises(ValueError):
        CauchyWindowKnobs(fixed_tolerance=Fraction(0))
    assert "|S_N| > N" in build_threshold_detector(stream).describe()
    assert "never halts" in build_cauchy_window_detector(stream).describe()
    assert "heuristic" in build_cauchy_window_heuristic(stream).describe()
    assert not build_cauchy_window_detector(stream).heuristic
    assert build_cauchy_window_heuristic(stream).heuristic


def test_a_heuristic_with_the_literal_rule_is_still_the_heuristic():
    # The variant is named by ``threshold`` and by whether knobs are given,
    # never by the knobs' values: knobs equal to the literal rule still search.
    stream = builtin_stream("zero")
    variants = [build_threshold_detector(stream), build_cauchy_window_detector(stream),
                build_cauchy_window_heuristic(stream, 1, 1)]
    assert len(set(variants)) == 3
    literal, heuristic = (run_detector(detector, 5) for detector in variants[1:])
    assert literal.witness_log == tuple((k, k) for k in range(1, 6))
    assert heuristic.witness_log == tuple((k, 1) for k in range(1, 6))
    assert variants[2].describe().startswith("heuristic variant (no correctness claim):")


def test_run_detector_validates_budget():
    with pytest.raises(ValueError):
        run_detector(build_threshold_detector(builtin_stream("one")), 0)


def test_window_detector_over_forward_reduced_streams():
    halting = forward_reduce(parse_program("inc 0\ninc 0\nhalt"), 0)
    looping = forward_reduce(parse_program("loop: decjz 1 loop"), 0)
    for stream in (halting, looping):
        outcome = run_detector(build_cauchy_window_detector(stream), 100)
        assert isinstance(outcome, StillRunning)
        assert outcome.witness_log == tuple((k, k) for k in range(1, 101))


def test_parallel_probes_over_one_shared_stream_agree_with_sequential():
    # disjoint budgeted probes may run concurrently over the same memoized
    # stream; results must match fresh sequential evaluation
    program = parse_program("inc 0\ninc 0\nhalt")
    shared = forward_reduce(program, 0)
    budgets = [10, 25, 40, 55, 70]

    def probe(budget):
        return ratio_test_probe(shared, UNIT, Fraction(2), budget).verdict

    with ThreadPoolExecutor(max_workers=5) as pool:
        parallel = list(pool.map(probe, budgets))
    for budget, verdict in zip(budgets, parallel):
        fresh = forward_reduce(program, 0)
        assert ratio_test_probe(fresh, UNIT, Fraction(2), budget).verdict == verdict
