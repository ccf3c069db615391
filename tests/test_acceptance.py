"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Expected values come from independent oracles computed inside each test:
hand-simulated halt steps from the corpus, a separate bounded run for
halt detection, ``math.factorial`` for coefficient values, and oversized
exact partial sums for series limits.

Criterion 3 is asserted as agreed and is expected to FAIL on two of its
four clauses: the literal threshold detector halts at N = 1 on both
geometric(1/2) and harmonic input because S_1 = 3/2 > 1, so the demanded
"still running" outcomes are unattainable for this detector. The
detector is not bent to force the assertions green; see the README's
known-red note, and tests/test_reductions.py for the pinned true
behavior.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from haltseries import (
    ConsistentUpToBudget,
    DetectorHalted,
    EvaluationPoint,
    ExpTailRate,
    GodelDecodeError,
    StillRunning,
    WitnessedBoundViolation,
    WitnessedDivergence,
    build_cauchy_window_detector,
    build_threshold_detector,
    builtin_stream,
    check_effective_criterion,
    check_modulus,
    decode_godel,
    effective_partial_sum,
    encode_godel,
    forward_reduce,
    halted_by,
    HaltingEncoded,
    LinearRate,
    partial_sum,
    prefix_sums,
    ratio_test_probe,
    root_estimate,
    run_bounded,
    run_detector,
    semidecide_halting_via_series,
)

import corpus

UNIT = EvaluationPoint(Fraction(1))
TEST_POINTS = (
    EvaluationPoint(Fraction(1, 10)),
    EvaluationPoint(Fraction(1, 2)),
    EvaluationPoint(Fraction(1)),
)


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    started = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - started
        status = "FAIL" if failed else "PASS"
        print(f"\nACCEPTANCE {number} {label}: {status} ({elapsed:.1f}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_halting_dichotomy():
    with criterion(1, "halting-dichotomy-on-corpus", 10.0):
        halting = corpus.halting_programs()
        non_halting = corpus.non_halting_programs()
        assert len(halting) >= 5 and len(non_halting) >= 5
        assert len(halting) + len(non_halting) >= 10
        for case, program in halting:
            assert 1 <= case.halt_step <= 50
            stream = HaltingEncoded(program, case.input_value)
            # independent oracle: fresh bounded run plus direct factorials
            outcome = run_bounded(program, case.input_value, 200)
            assert outcome.halted and outcome.steps == case.halt_step
            for n in range(201):
                expected = (
                    Fraction(math.factorial(n)) if n >= outcome.steps else Fraction(0)
                )
                assert stream.at(n) == expected, (case.name, n)
            for point in TEST_POINTS:
                report = ratio_test_probe(stream, point, Fraction(2), 100)
                assert isinstance(report.verdict, WitnessedDivergence), (
                    case.name,
                    point.r,
                )
                assert report.verdict.index >= case.halt_step
        for case, program in non_halting:
            stream = HaltingEncoded(program, case.input_value)
            assert all(stream.at(n) == 0 for n in range(10 ** 4 + 1)), case.name
            report = ratio_test_probe(stream, UNIT, Fraction(2), 10 ** 4)
            assert report.verdict == ConsistentUpToBudget(10 ** 4), case.name


def test_criterion_2_rate_driven_accuracy():
    with criterion(2, "rate-driven-evaluation-accuracy", 5.0):
        stream = builtin_stream("reciprocal_factorial")
        rate = ExpTailRate()
        for point in (EvaluationPoint(Fraction(0)), EvaluationPoint(Fraction(1, 2)), UNIT):
            max_terms = rate.terms_for(20, point.r)
            oracle_sums = prefix_sums(stream, point, max_terms + 500)
            for m in range(1, 21):
                value, terms = effective_partial_sum(stream, point, m, rate)
                oracle = oracle_sums[terms + 500]
                assert abs(value - oracle) < Fraction(1, 2 ** m), (m, point.r)


def test_criterion_3_threshold_detector_behavior():
    with criterion(3, "threshold-detector-behavior", 30.0):
        failures = []

        one = run_detector(build_threshold_detector(builtin_stream("one")), 10)
        if not (
            isinstance(one, DetectorHalted)
            and one.iteration == 1
            and one.certificate.partial_sum == 2
        ):
            failures.append(f"one: expected halt at 1 with sum 2, got {one}")

        zero = run_detector(build_threshold_detector(builtin_stream("zero")), 10 ** 4)
        if not isinstance(zero, StillRunning):
            failures.append(f"zero: expected still running at 10^4, got {zero}")

        geometric = run_detector(
            build_threshold_detector(builtin_stream("geometric", Fraction(1, 2))), 10 ** 4
        )
        if not isinstance(geometric, StillRunning):
            failures.append(
                f"geometric(1/2): expected still running at 10^4, got {geometric}"
            )

        harmonic = run_detector(build_threshold_detector(builtin_stream("harmonic")), 10 ** 6)
        if not isinstance(harmonic, StillRunning):
            failures.append(
                f"harmonic: expected still running at 10^6, got {harmonic}"
            )

        assert not failures, "; ".join(failures)


def test_criterion_4_window_detector_vacuity():
    with criterion(4, "cauchy-window-vacuity", 60.0):
        streams = [
            builtin_stream("zero"),
            builtin_stream("one"),
            builtin_stream("harmonic"),
            builtin_stream("alternating"),
            builtin_stream("geometric", Fraction(1, 2)),
            forward_reduce(corpus.halting_programs()[1][1], 0),
            forward_reduce(corpus.non_halting_programs()[0][1], 0),
        ]
        expected_log = tuple((k, k) for k in range(1, 10 ** 3 + 1))
        for stream in streams:
            outcome = run_detector(build_cauchy_window_detector(stream), 10 ** 3)
            assert isinstance(outcome, StillRunning)
            assert outcome.witness_log == expected_log


def test_criterion_5_encoding_round_trip():
    with criterion(5, "program-encoding-round-trip", 5.0):
        programs = corpus.all_programs()
        rng = random.Random(90125)
        programs += [corpus.random_program(rng) for _ in range(1000)]
        codes = set()
        for program in programs:
            code = encode_godel(program)
            assert decode_godel(code) == program
            codes.add(code)
        assert len(codes) == len(set(map(encode_godel, programs)))
        # invalid codes carry positioned diagnostics; built by hand pairing
        bad_register = corpus.cantor_pair(0, corpus.cantor_pair(0, 8))
        with pytest.raises(GodelDecodeError) as err:
            decode_godel(bad_register)
        assert err.value.position == 0
        bad_target = corpus.cantor_pair(0, corpus.cantor_pair(0, 31))
        with pytest.raises(GodelDecodeError) as err:
            decode_godel(bad_target)
        assert err.value.position == 0


def test_criterion_6_semidecision_soundness():
    with criterion(6, "halting-semidecision-soundness", 60.0):
        rng = random.Random(20260809)
        budget = 10 ** 3
        false_witnesses = 0
        for _ in range(200):
            program = corpus.random_program(rng)
            input_value = rng.randint(0, 5)
            report = semidecide_halting_via_series(program, input_value, UNIT, budget)
            confirmed = run_bounded(program, input_value, budget)
            if isinstance(report.verdict, WitnessedDivergence):
                if not confirmed.halted:
                    false_witnesses += 1
                # the certificate index itself proves halting by that step
                assert halted_by(program, input_value, report.verdict.index)
            else:
                assert report.verdict == ConsistentUpToBudget(budget)
                assert not confirmed.halted
        assert false_witnesses == 0


def test_criterion_7_series_invariant_suite():
    with criterion(7, "series-invariant-suite", 60.0):
        rng = random.Random(5)

        # partial-sum recurrence
        streams = [
            builtin_stream("harmonic"),
            builtin_stream("alternating"),
            builtin_stream("geometric", Fraction(2, 3)),
            builtin_stream("factorial_tail", 4),
        ]
        for stream in streams:
            for point in TEST_POINTS:
                for _ in range(4):
                    n = rng.randint(1, 80)
                    assert partial_sum(stream, point, n) == partial_sum(
                        stream, point, n - 1
                    ) + stream.at(n) * point.r ** n

        # witness re-checkability: divergence ratios
        stream = builtin_stream("factorial_tail", 5)
        point = EvaluationPoint(Fraction(1, 10))
        report = ratio_test_probe(stream, point, Fraction(2), 100)
        index = report.verdict.index
        assert abs(stream.at(index + 1)) * point.r / abs(stream.at(index)) == report.verdict.ratio
        for n in range(index, 101):
            a, b = stream.at(n), stream.at(n + 1)
            if a != 0 and b != 0:
                assert abs(b) * point.r / abs(a) >= Fraction(2)

        # witness re-checkability: violated rate promise
        geo = builtin_stream("geometric", Fraction(1, 2))
        violation = check_modulus(geo, UNIT, Fraction(2), LinearRate(0, 0), 5)
        detail = violation.verdict.detail
        assert isinstance(violation.verdict, WitnessedBoundViolation)
        assert abs(partial_sum(geo, UNIT, detail["terms"]) - 2) == detail["distance"]
        assert detail["distance"] >= detail["tolerance"]

        # witness re-checkability: violated growth bound
        growth = check_effective_criterion(
            builtin_stream("factorial_tail", 0), LinearRate(0, 1), Fraction(1), 5, 100
        )
        gdetail = growth.verdict.detail
        assert isinstance(growth.verdict, WitnessedBoundViolation)
        assert gdetail["coefficient_abs"] == abs(
            builtin_stream("factorial_tail", 0).at(gdetail["n"])
        )
        assert gdetail["coefficient_abs"] >= gdetail["bound"] ** gdetail["n"]

        # root-estimate soundness on geometric streams
        for ratio in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            estimates = root_estimate(builtin_stream("geometric", ratio), 200).estimates
            for n, est in estimates:
                assert abs(est - float(ratio)) <= 1e-9 * float(ratio)

        # monotone halting and upward-closed support on the corpus
        for case, program in corpus.halting_programs() + corpus.non_halting_programs():
            stream = HaltingEncoded(program, case.input_value)
            samples = sorted(rng.sample(range(10 ** 4), 30))
            for lo, hi in zip(samples, samples[1:]):
                if halted_by(program, case.input_value, lo):
                    assert halted_by(program, case.input_value, hi)
                if stream.at(lo) != 0:
                    assert stream.at(hi) != 0
