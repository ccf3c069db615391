import sys

import pytest

from haltseries import decode_godel, encode_godel, parse_program
from haltseries.cli import main


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


def test_probe_requires_kind_specific_flags(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin one")
    code = main(["probe", spec, "--kind", "ratio"])
    assert code == 1
    assert "--budget" in capsys.readouterr().err
    code = main(["probe", spec, "--kind", "effective", "--rate", "constant:1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--radius" in err and "--k-max" in err


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


def test_encode_invalid_code_exits_one(capsys):
    # register 3 with register count 1 (pair-built by hand): rejected
    code = main(["encode", "--decode", "666"])
    assert code == 1
    assert "register 3" in capsys.readouterr().err


def test_encode_without_arguments_exits_one(capsys):
    assert main(["encode"]) == 1


def test_reports_have_no_timestamps(tmp_path, capsys):
    spec = series_file(tmp_path, "builtin zero")
    main(["detect", spec, "--kind", "threshold", "--budget", "5"])
    out = capsys.readouterr().out
    assert "20" not in out.replace("after 5", "")  # no dates, no clock artifacts
