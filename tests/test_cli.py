import ast
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import haltseries
from haltseries import (
    CauchyWindowKnobs,
    HaltingEncoded,
    build_cauchy_window_detector,
    build_cauchy_window_heuristic,
    build_threshold_detector,
    decode_godel,
    encode_godel,
    format_rational,
    parse_program,
    parse_series_spec,
    run_detector,
)
from haltseries.cli import _Parser, main

import corpus


@pytest.fixture
def halt_file(tmp_path):
    path = tmp_path / "halt.machine"
    path.write_text("halt\n")
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.machine"
    path.write_text("loop: decjz 1 loop\n")
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.machine"
    path.write_text("inc 0\ninc 0\nhalt\n")
    return str(path)


def series_file(tmp_path, body, name="series.txt"):
    path = tmp_path / name
    path.write_text(body + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_halting(halt_file, capsys):
    code = main(["simulate", halt_file, "--input", "0", "--budget", "10"])
    assert code == 0
    assert capsys.readouterr().out == "HALTED at step 1\n"


def test_simulate_running(loop_file, capsys):
    code = main(["simulate", loop_file, "--input", "0", "--budget", "1000"])
    assert code == 2
    assert capsys.readouterr().out == "RUNNING after 1000\n"


def test_simulate_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.machine"
    bad.write_text("inc\n")
    code = main(["simulate", str(bad), "--input", "0", "--budget", "10"])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_simulate_missing_file_exits_one(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope"), "--input", "0", "--budget", "1"])
    assert code == 1


def test_missing_required_flag_exits_one(halt_file):
    with pytest.raises(SystemExit) as err:
        main(["simulate", halt_file, "--input", "0"])
    assert err.value.code == 1


def test_usage_errors_quote_the_choices_on_every_python(capsys):
    # Python 3.13's argparse lists the choices bare, 3.10-3.12 quote each one.
    bare = "argument --kind: invalid choice: 'nope' (choose from threshold, cauchy, cauchy-heuristic)"
    with pytest.raises(SystemExit) as err:
        _Parser(prog="haltseries detect").error(bare)
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(
        "haltseries detect: error: argument --kind: invalid choice: 'nope' "
        "(choose from 'threshold', 'cauchy', 'cauchy-heuristic')\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--input", "-1", "--budget", "10"], "argument --input: must be non-negative"),
        (["--input", "0", "--budget", "0"], "argument --budget: must be at least 1"),
    ],
)
def test_negative_input_and_zero_budget_exit_one(halt_file, flags, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", halt_file, *flags])
    assert err.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--input", "x", "--budget", "10"], "argument --input: must be a natural number, got 'x'"),
        (["--input", "0", "--budget", "abc"], "argument --budget: must be a positive integer, got 'abc'"),
    ],
    ids=["input", "budget"],
)
def test_non_integer_flags_exit_one_with_a_plain_message(halt_file, argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", halt_file, *argv])
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_non_integer_code_to_decode_exits_one_with_a_plain_message(capsys):
    with pytest.raises(SystemExit) as err:
        main(["encode", "--decode", "x"])
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --decode: must be a natural number, got 'x'\n"
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_halting_witness(three_file, capsys):
    code = main(["forward", three_file, "--input", "0", "--r", "1", "--budget", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coefficients (first nonzero): a_3=6 a_4=24" in out
    assert "verdict: WITNESSED_DIVERGENCE" in out
    assert "witness index: 3" in out


def test_forward_non_halting_consistent(loop_file, capsys):
    code = main(["forward", loop_file, "--input", "0", "--r", "1/2", "--budget", "500"])
    out = capsys.readouterr().out
    assert code == 2
    assert "coefficients: all zero up to index 500" in out
    assert "verdict: CONSISTENT_UP_TO_BUDGET" in out


def test_forward_preview_stops_at_the_budget(three_file, capsys):
    code = main(["forward", three_file, "--input", "0", "--r", "1", "--budget", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "coefficients (first nonzero): a_3=6 a_4=24"


def test_forward_budget_below_halt_step_is_all_zero(three_file, capsys):
    code = main(["forward", three_file, "--input", "0", "--r", "1", "--budget", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[0] == "coefficients: all zero up to index 2"


def test_forward_preview_reads_no_coefficient_and_builds_no_factorial(tmp_path, capsys,
                                                                      monkeypatch):
    # The doubler halts at step 4x + 2, so at x = 1200 the preview shows
    # n! from n = 4802 on. It prints them from the halt step alone: the only
    # coefficients read are the semidecision's trace, a_0 .. a_19, once each.
    program = tmp_path / "doubler.m"
    program.write_text("loop: decjz 0 done\ninc 1\ninc 1\ndecjz 2 loop\ndone: halt\n")
    halt = 4802
    with corpus.int_digit_limit(0):
        expected = [str(math.factorial(n)) for n in range(halt, halt + 10)]
    reads, at = [], HaltingEncoded.at
    monkeypatch.setattr(HaltingEncoded, "at", lambda self, n: reads.append(n) or at(self, n))

    def no_factorial(n):
        raise AssertionError(f"math.factorial({n}) called")

    monkeypatch.setattr(math, "factorial", no_factorial)
    for budget, shown in ((halt + 20, 10), (halt, 1), (halt + 3, 4)):
        reads.clear()
        argv = ["forward", str(program), "--input", "1200", "--r", "1", "--budget", str(budget)]
        assert main(argv) == 0
        head, preview = capsys.readouterr().out.splitlines()[0].split(": ", 1)
        assert head == "coefficients (first nonzero)"
        labels, texts = zip(*(item.split("=") for item in preview.split(" ")))
        assert labels == tuple(f"a_{n}" for n in range(halt, halt + shown))
        assert list(texts) == expected[:shown]
        assert reads == list(range(20)), budget


def test_forward_preview_holds_one_value_text_at_a_time(tmp_path, monkeypatch):
    # At x = 30000 the doubler halts at step 120002, and the preview's ten
    # values are about 5.6 MB of text; holding one at a time peaks near 3 MB.
    program = tmp_path / "doubler.m"
    program.write_text("loop: decjz 0 done\ninc 1\ninc 1\ndecjz 2 loop\ndone: halt\n")
    argv = ["forward", str(program), "--input", "30000", "--r", "1/2", "--budget", "130000"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5_000_000


def test_forward_nonpositive_point_exits_one(three_file, capsys):
    code = main(["forward", three_file, "--input", "0", "--r", "0", "--budget", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: evaluation point must be positive for the semidecision\n"


def test_main_restores_the_int_digit_limit(three_file, capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        main(["forward", three_file, "--input", "0", "--r", "1", "--budget", "4"])
        assert sys.get_int_max_str_digits() == 4321
        with pytest.raises(SystemExit):
            main(["forward", three_file])
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def test_detect_threshold_halts(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(["detect", spec, "--kind", "threshold", "--budget", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: HALTED at iteration 1" in out
    assert "S_N: 2 (approx 2.000000000000)" in out
    assert "inequality: |S_N| > 1" in out


def test_detect_threshold_still_running(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    code = main(["detect", spec, "--kind", "threshold", "--budget", "50"])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: STILL_RUNNING after 50 iterations" in out
    assert "final sum enclosure: [0, 0]" in out


def test_detect_cauchy_records_vacuous_witnesses(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin alternating")
    code = main(["detect", spec, "--kind", "cauchy", "--budget", "30"])
    out = capsys.readouterr().out
    assert code == 2
    assert "window witnesses: start 1 -> 1, ..., start 30 -> 30 (30 recorded)" in out


def test_detect_heuristic_halts_with_certificate(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(["detect", spec, "--kind", "cauchy-heuristic", "--budget", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: HALTED at iteration 1" in out
    assert "window start 1: |S_2 - S_1| = 1" in out


def test_detect_show_program(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    main(["detect", spec, "--kind", "threshold", "--budget", "5", "--show-program"])
    out = capsys.readouterr().out
    assert "for N = 1, 2, 3, ...:" in out


def test_detect_halting_series_spec(tmp_path, capsys):
    (tmp_path / "prog.machine").write_text("inc 0\ninc 0\nhalt\n")
    spec = series_file(tmp_path, "halting prog.machine 0")
    code = main(["detect", spec, "--kind", "threshold", "--budget", "10"])
    out = capsys.readouterr().out
    assert code == 0
    # S_2 = 0 <= 2, S_3 = 6 > 3: halts at iteration 3
    assert "verdict: HALTED at iteration 3" in out


def test_detect_kv_output(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(["detect", spec, "--kind", "threshold", "--budget", "10", "--kv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict=HALTED" in out
    assert "iteration=1" in out
    assert "certificate_sum=2" in out


def test_probe_bad_rate_spec_exits_one(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(
        ["probe", spec, "--kind", "modulus", "--r", "1", "--limit", "0",
         "--rate", "table:1,1/0,5", "--n-max", "3"]
    )
    assert code == 1


@pytest.mark.parametrize("body", ["builtin one", "builtin geometric 1/2"])
def test_detect_heuristic_knob_defaults_come_from_the_knobs(tmp_path, capsys, body):
    spec = series_file(tmp_path, body)
    defaults = ["--horizon-scale", format_rational(CauchyWindowKnobs.horizon_scale),
                "--window-cap", format_rational(CauchyWindowKnobs.window_cap)]
    runs = []
    for flags in ([], defaults):
        for kv in ([], ["--kv"]):
            code = main(["detect", spec, "--kind", "cauchy-heuristic", "--budget", "12",
                         "--show-program", *flags, *kv])
            runs.append((code, capsys.readouterr().out))
    assert runs[:2] == runs[2:]


def test_detect_budget_is_mandatory(tmp_path):
    spec = series_file(tmp_path, "builtin one")
    with pytest.raises(SystemExit) as err:
        main(["detect", spec, "--kind", "threshold"])
    assert err.value.code == 1


def test_detect_output_golden(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    main(["detect", spec, "--kind", "threshold", "--budget", "5"])
    assert capsys.readouterr().out == (
        "verdict: STILL_RUNNING after 5 iterations\n"
        "final sum enclosure: [0, 0]\n"
        "trace (first 5):\n"
        "  S_1 = 0\n"
        "  S_2 = 0\n"
        "  S_3 = 0\n"
        "  S_4 = 0\n"
        "  S_5 = 0\n"
    )


def test_detect_handles_huge_certificate_values(tmp_path, capsys):
    # a coefficient jump far past the digit limit of default int printing
    spec = series_file(tmp_path, "builtin factorial_tail 3000")
    code = main(["detect", spec, "--kind", "threshold", "--budget", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "HALTED at iteration 3000" in out


def detect_output(tmp_path, capsys, body, *args):
    code = main(["detect", series_file(tmp_path, body), *args])
    return code, capsys.readouterr().out


def test_detect_kv_heuristic_certificate(tmp_path, capsys):
    assert detect_output(
        tmp_path, capsys, "builtin one", "--kind", "cauchy-heuristic", "--budget", "10",
        "--window-cap", "1", "--tolerance", "5/2", "--kv",
    ) == (0, (
        "verdict=HALTED\n"
        "iteration=3\n"
        "certificate_horizon=3\n"
        "certificate_tolerance=5/2\n"
        "failure.1=1,6,5\n"
        "failure.2=2,6,4\n"
        "failure.3=3,6,3\n"
    ))


def test_detect_kv_threshold_still_running(tmp_path, capsys):
    assert detect_output(
        tmp_path, capsys, "explicit 1/1000 | tail 1/1000", "--kind", "threshold",
        "--budget", "3", "--kv",
    ) == (2, (
        "verdict=STILL_RUNNING\n"
        "iterations=3\n"
        "final_sum_lower=18446744073709551/4611686018427387904\n"
        "final_sum_upper=1152921504606847/288230376151711744\n"
        "trace.1=1/500\n"
        "trace.2=3/1000\n"
        "trace.3=1/250\n"
    ))


def test_detect_kv_literal_cauchy_has_no_witness_line(tmp_path, capsys):
    assert detect_output(
        tmp_path, capsys, "builtin alternating", "--kind", "cauchy", "--budget", "4", "--kv"
    ) == (2, "verdict=STILL_RUNNING\niterations=4\ntrace.1=0\ntrace.2=1\ntrace.3=0\ntrace.4=1\n")


@pytest.mark.parametrize(
    "body, build, budget, flags",
    [
        ("builtin one", build_threshold_detector, 3, ["--kind", "threshold"]),
        (
            "builtin one",
            lambda s: build_cauchy_window_heuristic(
                s, window_cap=Fraction(1), fixed_tolerance=Fraction(5, 2)
            ),
            10,
            ["--kind", "cauchy-heuristic", "--window-cap", "1", "--tolerance", "5/2"],
        ),
        ("explicit 1/1000 | tail 1/1000", build_threshold_detector, 3, ["--kind", "threshold"]),
        ("builtin alternating", build_cauchy_window_detector, 4, ["--kind", "cauchy"]),
        (
            "builtin geometric 1/2",
            lambda s: build_cauchy_window_heuristic(s, fixed_tolerance=Fraction(1, 2)),
            6,
            ["--kind", "cauchy-heuristic", "--tolerance", "1/2"],
        ),
    ],
    ids=["threshold-halt", "heuristic-halt", "threshold-running", "cauchy", "heuristic-running"],
)
def test_library_outcome_renders_what_detect_prints(tmp_path, capsys, body, build, budget, flags):
    outcome = run_detector(build(parse_series_spec(body)), budget)
    argv = ["detect", series_file(tmp_path, body), "--budget", str(budget), *flags]
    main(argv)
    assert outcome.to_text() == capsys.readouterr().out
    main([*argv, "--kv"])
    assert outcome.to_kv() == capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_exp_series(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin reciprocal_factorial")
    code = main(["eval", spec, "--r", "1", "-m", "10", "--rate", "exp_tail"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "terms used: 6\n"
        "value: 1957/720 (approx 2.718055555556)\n"
    )


def test_eval_terms_used_is_the_last_index_summed(tmp_path, capsys):
    # constant:4 sums a_0..a_4, five terms of 1
    spec = series_file(tmp_path, "builtin one")
    code = main(["eval", spec, "--r", "1", "-m", "0", "--rate", "constant:4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "terms used: 4\nvalue: 5 (approx 5.000000000000)\n"


def test_eval_rate_domain_error_exits_one(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin reciprocal_factorial")
    code = main(["eval", spec, "--r", "2", "-m", "5", "--rate", "exp_tail"])
    assert code == 1
    assert "rate undefined" in capsys.readouterr().err


def test_eval_tabulated_rate(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    code = main(["eval", spec, "--r", "1", "-m", "3", "--rate", "table:5,1,10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terms used: 10" in out
    assert "value: 0 (approx 0.000000000000)" in out


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_ratio_witness(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin factorial_tail 5")
    code = main(
        ["probe", spec, "--kind", "ratio", "--r", "1/10", "--threshold", "2", "--budget", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: WITNESSED_DIVERGENCE" in out
    assert "witness index: 19" in out
    assert "witness value: 2 (approx 2.000000000000)" in out


def test_probe_ratio_kv_output_is_byte_identical_across_runs(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin factorial_tail 5")
    argv = ["probe", spec, "--kind", "ratio", "--r", "1/10", "--threshold", "2", "--budget", "100", "--kv"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "verdict=WITNESSED_DIVERGENCE" in first
    assert "witness_index=19" in first
    assert "threshold=2" in first


def ratio_probe_output(tmp_path, capsys, body, r, budget, *extra):
    spec = series_file(tmp_path, body)
    argv = ["probe", spec, "--kind", "ratio", "--r", r, "--threshold", "2", "--budget", budget]
    code = main([*argv, *extra])
    return code, capsys.readouterr().out


ZERO_TRACE = "trace (first 20):\n" + "".join(f"  S_{n} = 0\n" for n in range(20))


@pytest.mark.parametrize(
    "budget, code, head",
    [
        # factorial_tail 20 is nonzero from index 20 on: start = budget + 1, budget, budget - 1
        ("19", 2, "verdict: CONSISTENT_UP_TO_BUDGET\nbudget: 19\n"),
        (
            "20",
            0,
            "verdict: WITNESSED_DIVERGENCE\nbudget: 20\nwitness index: 20\n"
            "witness value: 21/10 (approx 2.100000000000)\nratio: 21/10\nthreshold: 2\n",
        ),
        (
            "21",
            0,
            "verdict: WITNESSED_DIVERGENCE\nbudget: 21\nwitness index: 20\n"
            "witness value: 21/10 (approx 2.100000000000)\nratio: 21/10\nthreshold: 2\n",
        ),
    ],
)
def test_probe_ratio_at_the_start_of_a_factorial_tail(tmp_path, capsys, budget, code, head):
    result = ratio_probe_output(tmp_path, capsys, "builtin factorial_tail 20", "1/10", budget)
    assert result == (code, head + ZERO_TRACE)


def test_probe_ratio_kv_at_the_start_of_a_factorial_tail(tmp_path, capsys):
    result = ratio_probe_output(
        tmp_path, capsys, "builtin factorial_tail 20", "1/10", "21", "--kv"
    )
    assert result == (
        0,
        "verdict=WITNESSED_DIVERGENCE\nbudget=21\nwitness_index=20\nwitness_value=21/10\n"
        "ratio=21/10\nthreshold=2\n" + "".join(f"trace.{n}=0\n" for n in range(20)),
    )


def test_probe_ratio_on_geometric_zero(tmp_path, capsys):
    # Only a_0 is nonzero, so no ratio is ever sampled.
    result = ratio_probe_output(tmp_path, capsys, "builtin geometric 0", "3", "30")
    trace = "".join(f"  S_{n} = 1\n" for n in range(20))
    assert result == (
        2,
        "verdict: CONSISTENT_UP_TO_BUDGET\nbudget: 30\ntrace (first 20):\n" + trace,
    )


def test_probe_ratio_on_alternating_uses_the_absolute_ratio(tmp_path, capsys):
    result = ratio_probe_output(tmp_path, capsys, "builtin alternating", "5/2", "3", "--kv")
    assert result == (
        0,
        "verdict=WITNESSED_DIVERGENCE\nbudget=3\nwitness_index=0\nwitness_value=5/2\n"
        "ratio=5/2\nthreshold=2\ntrace.0=1\ntrace.1=-3/2\ntrace.2=19/4\ntrace.3=-87/8\n",
    )


def test_probe_ratio_on_explicit_stream_skips_zero_terms(tmp_path, capsys):
    result = ratio_probe_output(tmp_path, capsys, "explicit 1 3 0 | tail 2", "3", "10")
    sums = [1, 10, 10, 64, 226, 712, 2170, 6544, 19666, 59032, 177130]
    assert result == (
        0,
        "verdict: WITNESSED_DIVERGENCE\nbudget: 10\nwitness index: 0\n"
        "witness value: 9 (approx 9.000000000000)\nratio: 9\nthreshold: 2\n"
        "trace (first 11):\n" + "".join(f"  S_{n} = {s}\n" for n, s in enumerate(sums)),
    )


def test_probe_root(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin geometric 1/2")
    code = main(["probe", spec, "--kind", "root", "--n-max", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "limsup proxy: 5.000000000e-01" in out
    assert "implied radius: 2.000000000e+00" in out


def test_probe_root_zero_stream_infinite_radius(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    main(["probe", spec, "--kind", "root", "--n-max", "10"])
    out = capsys.readouterr().out
    assert "implied radius: inf" in out


def test_probe_effective(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin factorial_tail 0")
    code = main(
        [
            "probe", spec, "--kind", "effective",
            "--rate", "constant:1", "--radius", "1", "--k-max", "5", "--n-budget", "100",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: WITNESSED_BOUND_VIOLATION" in out
    assert "coefficient_abs: 24" in out


def test_probe_root_saturates_past_the_float_range(tmp_path, capsys):
    spec = series_file(tmp_path, "explicit 0 1e400")
    code = main(["probe", spec, "--kind", "root", "--n-max", "2"])
    assert code == 0
    assert capsys.readouterr().out == (
        "limsup proxy: 0.000000000e+00\nimplied radius: inf\n"
        "  |a_1|^(1/1) ~ inf\n  |a_2|^(1/2) ~ 0.000000000e+00\n"
    )


@pytest.mark.parametrize("body, code", [("builtin one", 2), ("explicit 0 1e500", 0)])
def test_probe_effective_bound_past_the_float_range(tmp_path, capsys, body, code):
    # The bound 10**400 + 1 has no float; the screen keeps every candidate
    # and the exact comparison decides.
    spec = series_file(tmp_path, body)
    argv = ["probe", spec, "--kind", "effective", "--rate", "constant:1",
            "--radius", "1e-400", "--k-max", "1", "--n-budget", "3"]
    assert main(argv) == code
    out = capsys.readouterr().out
    if code == 0:
        assert "verdict: WITNESSED_BOUND_VIOLATION" in out
        assert f"coefficient_abs: 1{'0' * 500}\n" in out
    else:
        assert out == "verdict: CONSISTENT_UP_TO_BUDGET\nbudget: 3\n"


def test_probe_effective_confirms_a_tie_below_the_normal_float_range(tmp_path, capsys):
    # 1/R = 4099 * 2^-1075 lies between two subnormal floats, and
    # a_1 = 1/R + 2^-1200 ties the bound at k = 1200: only the exact comparison sees it.
    spec = series_file(tmp_path, f"explicit 0 {4099 * 2 ** 125 + 1}/{2 ** 1200}")
    argv = ["probe", spec, "--kind", "effective", "--rate", "constant:1",
            "--radius", f"{2 ** 1075}/4099", "--k-max", "1205", "--n-budget", "1", "--kv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "verdict=WITNESSED_BOUND_VIOLATION\n" in out
    assert "\nk=1200\n" in out and "\nn=1\n" in out


def test_probe_modulus_consistent(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin geometric 1/2")
    code = main(
        [
            "probe", spec, "--kind", "modulus",
            "--r", "1", "--limit", "2", "--rate", "linear:1:1", "--n-max", "20",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: CONSISTENT_UP_TO_BUDGET" in out


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


#: Every rational flag, each with a command that reads it and a negative value.
RATIONAL_FLAGS = [
    (["probe", "S", "--kind", "modulus", "--rate", "constant:0", "--n-max", "3"], "--limit", "-1/3"),
    (["detect", "S", "--kind", "cauchy-heuristic", "--budget", "3"], "--tolerance", "-1/2"),
    (["detect", "S", "--kind", "cauchy-heuristic", "--budget", "3"], "--window-cap", "-1/2"),
    (["eval", "S", "-m", "2", "--rate", "constant:3"], "--r", "-1/2"),
    (["probe", "S", "--kind", "ratio", "--budget", "5"], "--threshold", "-3/2"),
    (["probe", "S", "--kind", "effective", "--rate", "constant:1", "--k-max", "1",
      "--n-budget", "5"], "--radius", "-1/2"),
]


@pytest.mark.parametrize("argv, flag, value", RATIONAL_FLAGS)
def test_negative_fraction_flag_values_parse_in_both_spellings(tmp_path, capsys, argv, flag, value):
    argv = [series_file(tmp_path, "explicit -1/3") if a == "S" else a for a in argv]
    separate = _run([*argv, flag, value], capsys)
    joined = _run([*argv, f"{flag}={value}"], capsys)
    assert separate == joined
    assert "expected one argument" not in separate[2]


@pytest.mark.parametrize("argv, flag", [(argv, flag) for argv, flag, _ in RATIONAL_FLAGS])
def test_an_empty_rational_flag_exits_one(tmp_path, capsys, argv, flag):
    # An empty value is given, not unset: it must not fall back to the flag's default.
    argv = [series_file(tmp_path, "explicit -1/3") if a == "S" else a for a in argv]
    code, out, err = _run([*argv, f"{flag}="], capsys)
    assert (code, out) == (1, "") and err.startswith("error: invalid rational ''")


def test_probe_requires_kind_specific_flags(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(["probe", spec, "--kind", "ratio"])
    assert code == 1
    assert "--budget" in capsys.readouterr().err
    code = main(["probe", spec, "--kind", "effective", "--rate", "constant:1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--radius" in err and "--k-max" in err


def test_probe_root_rejects_kv(tmp_path, capsys):
    # root prints float estimates, not a report, so it has no key=value form
    spec = series_file(tmp_path, "builtin one")
    assert main(["probe", spec, "--kind", "root", "--n-max", "5", "--kv"]) == 1
    assert capsys.readouterr() == ("", "error: probe --kind root does not take --kv\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probe", "S", "--kind", "modulus", "--limit", "1", "--rate", "constant:1", "--n-max", "2",
          "--threshold", "7", "--budget", "9"], "probe --kind modulus does not take --threshold"),
        (["probe", "S", "--kind", "modulus", "--limit", "1", "--rate", "constant:1", "--n-max", "2",
          "--budget", "9"], "probe --kind modulus does not take --budget"),
        (["probe", "S", "--kind", "effective", "--rate", "constant:1", "--radius", "1",
          "--k-max", "1", "--n-budget", "3", "--r", "1/2"], "probe --kind effective does not take --r"),
        (["probe", "S", "--kind", "ratio", "--budget", "3", "--limit", "0"],
         "probe --kind ratio does not take --limit"),
        (["probe", "S", "--kind", "root", "--n-max", "3", "--threshold", "2"],
         "probe --kind root does not take --threshold"),
        (["detect", "S", "--kind", "threshold", "--budget", "3", "--tolerance", "1",
          "--horizon-scale", "5"], "detect --kind threshold does not take --horizon-scale"),
        (["detect", "S", "--kind", "threshold", "--budget", "3", "--tolerance", "1"],
         "detect --kind threshold does not take --tolerance"),
        (["detect", "S", "--kind", "cauchy", "--budget", "3", "--window-cap", "1/3"],
         "detect --kind cauchy does not take --window-cap"),
    ],
)
def test_a_flag_the_kind_does_not_read_exits_one(tmp_path, capsys, argv, message):
    argv = [series_file(tmp_path, "builtin one") if a == "S" else a for a in argv]
    assert _run(argv, capsys) == (1, "", f"error: {message}\n")


def test_a_missing_flag_is_named_before_a_flag_the_kind_does_not_read(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    argv = ["probe", spec, "--kind", "modulus", "--rate", "constant:1", "--threshold", "2"]
    assert _run(argv, capsys) == (1, "", "error: probe --kind modulus requires --limit, --n-max\n")


@pytest.mark.parametrize(
    "argv, defaults, other",
    [
        (["probe", "S", "--kind", "ratio", "--budget", "30"], ["--r", "1", "--threshold", "2"],
         ["--r", "4", "--threshold", "2"]),
        (["probe", "S", "--kind", "modulus", "--limit", "2", "--rate", "linear:1:1", "--n-max", "6"],
         ["--r", "1"], ["--r", "1/2"]),
    ],
)
def test_a_kind_default_applies_only_to_a_flag_left_unset(tmp_path, capsys, argv, defaults, other):
    argv = [series_file(tmp_path, "builtin geometric 1/2") if a == "S" else a for a in argv]
    unset = _run(argv, capsys)
    assert unset[0] in (0, 2)
    assert _run([*argv, *defaults], capsys) == unset
    assert _run([*argv, *other], capsys) != unset


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_round_trips_through_the_cli(three_file, capsys):
    code = main(["encode", three_file])
    assert code == 0
    number = int(capsys.readouterr().out.strip())
    assert number == encode_godel(parse_program("inc 0\ninc 0\nhalt"))
    code = main(["encode", "--decode", str(number)])
    assert code == 0
    text = capsys.readouterr().out
    assert parse_program(text) == decode_godel(number)


def test_encode_prints_and_decodes_a_code_over_4300_digits(tmp_path, capsys):
    path = tmp_path / "long.machine"
    path.write_text(corpus.LONG_PROGRAM)
    program = parse_program(corpus.LONG_PROGRAM)
    with corpus.int_digit_limit(0):
        expected = str(encode_godel(program))
    assert len(expected) > 4300
    # The default limit, then the smallest one the interpreter accepts.
    for limit in (sys.get_int_max_str_digits(), 640):
        with corpus.int_digit_limit(limit):
            assert main(["encode", str(path)]) == 0
            assert capsys.readouterr().out == expected + "\n"
            assert main(["encode", "--decode", expected]) == 0
            assert parse_program(capsys.readouterr().out) == program


def test_encode_prints_no_code_past_the_decoder_limit(tmp_path, capsys):
    path = tmp_path / "long.machine"
    path.write_text("inc 0\n" * 4100)
    assert main(["encode", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: instruction count 4100 exceeds decoder limit 4096\n")


def test_encode_invalid_code_exits_one(capsys):
    # register 3 with register count 1 (pair-built by hand): rejected
    code = main(["encode", "--decode", "666"])
    assert code == 1
    assert "register 3" in capsys.readouterr().err


def test_encode_without_arguments_exits_one(capsys):
    assert main(["encode"]) == 1


def test_decode_errors_print_integers_past_the_digit_limit(capsys):
    big = "1" + "0" * 5000
    with corpus.int_digit_limit(0):
        inc_big = str(corpus.cantor_pair(0, corpus.cantor_pair(0, 2 * 10 ** 5000 + 2)))
    for limit in (sys.get_int_max_str_digits(), 640):
        with corpus.int_digit_limit(limit):
            assert main(["encode", "--decode", "1" + "0" * 9000]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: register count ")
            assert err.endswith(" exceeds decoder limit 4096\n")
            assert main(["encode", "--decode", inc_big]) == 1
            assert capsys.readouterr().err == (
                f"error: instruction 0: register {big} out of range for register count 1\n"
            )


def test_out_of_memory_exits_one_with_a_plain_message(halt_file, monkeypatch, capsys):
    def exhausted(ns):
        raise MemoryError

    monkeypatch.setattr("haltseries.cli._cmd_simulate", exhausted)
    assert main(["simulate", halt_file, "--input", "0", "--budget", "1"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_reports_have_no_timestamps(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    main(["detect", spec, "--kind", "threshold", "--budget", "5"])
    out = capsys.readouterr().out
    assert "20" not in out.replace("after 5", "")  # no dates, no clock artifacts


def test_out_of_memory_exits_one_with_a_message(tmp_path):
    # A window horizon of 10^8 terms of the harmonic series sums fractions
    # until the address space runs out.
    resource = pytest.importorskip("resource")
    cap = 512 * 2 ** 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    spec = series_file(tmp_path, "builtin harmonic")
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "haltseries.cli", "detect", spec, "--kind", "cauchy-heuristic",
         "--budget", "1", "--horizon-scale", "100000000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


def test_a_huge_decimal_exponent_exits_one_at_once(tmp_path):
    # Fraction("1e10000000") alone takes seconds; the exponent is refused first.
    program = tmp_path / "halt.m"
    program.write_text("halt\n")
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "haltseries.cli", "forward", str(program), "--input", "0",
         "--r", "1e10000000", "--budget", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: invalid rational '1e10000000': decimal exponent has more than 4 digits\n"
    )


def test_a_horizon_scale_past_any_list_exits_one_at_once(tmp_path):
    # Horizon 1 alone would need more partial sums than a list can hold; on
    # `zero` such a run went on until a timeout killed it.
    spec = series_file(tmp_path, "builtin zero")
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    for scale in (str(sys.maxsize + 1), "1" + "0" * 4402):
        proc = subprocess.run(
            [sys.executable, "-m", "haltseries.cli", "detect", spec, "--kind", "cauchy-heuristic",
             "--horizon-scale", scale, "--budget", "3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: horizon_scale must be at most {sys.maxsize}\n"
    assert CauchyWindowKnobs(horizon_scale=sys.maxsize).horizon_scale == sys.maxsize


# ---------------------------------------------------------------------------
# start-up: what each command loads
# ---------------------------------------------------------------------------

#: Modules no command may load, unless the interpreter had them before the package.
_SLOW = ("dataclasses", "inspect")
_LOADED = (
    "import atexit, sys\n"
    "_before = set(sys.modules)\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('haltseries')"
    f" or m in {_SLOW} and m not in _before), file=sys.stderr))\n"
)


def _modules_loaded(code: str, *argv: str) -> tuple[int, list[str]]:
    """Run ``code`` in a child with ``argv``; its exit code, the package
    modules it had loaded at exit, and each ``_SLOW`` module it loaded after
    start-up."""
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LOADED + code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, ast.literal_eval(proc.stderr.splitlines()[-1])


def test_each_command_loads_only_the_modules_it_runs(tmp_path, halt_file):
    cli = "from haltseries.cli import app\napp()\n"
    machine_only = ["haltseries", "haltseries.cli", "haltseries.machine"]
    assert _modules_loaded(cli, "simulate", halt_file, "--input", "0", "--budget", "5") == (
        0, machine_only)
    assert _modules_loaded(cli, "encode", "--decode", "0") == (0, machine_only)
    spec = series_file(tmp_path, "builtin reciprocal_factorial")
    for argv, exit_code in ((["eval", spec, "--r", "1", "-m", "5", "--rate", "exp_tail"], 0),
                            (["probe", spec, "--kind", "ratio", "--budget", "10"], 2)):
        code, loaded = _modules_loaded(cli, *argv)
        assert code == exit_code and "haltseries.series" in loaded, argv
        assert "haltseries.reductions" not in loaded and not set(_SLOW) & set(loaded), argv
    every = ["haltseries", "haltseries.cli", "haltseries.coefficients", "haltseries.machine",
             "haltseries.reductions", "haltseries.series"]
    for argv in (["detect", spec, "--kind", "cauchy-heuristic", "--budget", "5"],
                 ["forward", halt_file, "--input", "0", "--r", "1", "--budget", "5"]):
        assert _modules_loaded(cli, *argv) == (0, every), argv
    assert _modules_loaded("import haltseries\n") == (0, ["haltseries"])
    # The from-import asks the package for the attribute before it imports the submodule.
    assert _modules_loaded("from haltseries import cli\n") == (0, machine_only)
    code, loaded = _modules_loaded("from haltseries import series\n")
    assert code == 0 and "haltseries.series" in loaded
    assert "haltseries.reductions" not in loaded
