"""Command-line front end.

Exit codes are uniform across commands and never conflated: 0 means a
positive witness (a halt, a divergence witness, or a successfully
computed value), 2 means a budget ran out with nothing witnessed, and 1
means a usage or input error. Budgets on semidecision commands are
mandatory flags with no defaults. Output is deterministic: exact
rationals, a 12-digit decimal marked "approx" where helpful, and no
timestamps.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .coefficients import (
    CoefficientStream,
    approx_decimal,
    format_rational,
    parse_rational,
    parse_series_spec,
)
from .machine import (
    GodelDecodeError,
    MachineParseError,
    MachineProgram,
    decode_godel,
    encode_godel,
    parse_program,
    pretty_program,
    run_bounded,
)
from .reductions import (
    DetectorOutcome,
    Halted,
    ThresholdCertificate,
    build_cauchy_window_detector,
    build_cauchy_window_heuristic,
    build_threshold_detector,
    forward_reduce,
    run_detector,
    semidecide_halting_via_series,
)
from .series import (
    ConsistentUpToBudget,
    EvaluationPoint,
    RateUndefinedError,
    SeriesProbeReport,
    check_effective_criterion,
    check_modulus,
    effective_partial_sum,
    parse_rate_spec,
    ratio_test_probe,
    root_estimate,
)

EXIT_WITNESS = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET_EXHAUSTED = 2


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load_program(path: str) -> MachineProgram:
    return parse_program(Path(path).read_text())


def _load_stream(path: str) -> CoefficientStream:
    p = Path(path)
    return parse_series_spec(p.read_text(), base_dir=p.parent)


def _exact_line(label: str, value: Fraction) -> str:
    return f"{label}: {format_rational(value)} (approx {approx_decimal(value)})"


def _print_probe(report: SeriesProbeReport, kv: bool) -> int:
    sys.stdout.write(report.to_kv() if kv else report.to_text())
    if isinstance(report.verdict, ConsistentUpToBudget):
        return EXIT_BUDGET_EXHAUSTED
    return EXIT_WITNESS


def _print_outcome(outcome: DetectorOutcome, kv: bool) -> int:
    lines: list[str] = []
    if isinstance(outcome, Halted):
        lines.append(
            f"verdict=HALTED\niteration={outcome.iteration}"
            if kv
            else f"verdict: HALTED at iteration {outcome.iteration}"
        )
        cert = outcome.certificate
        if isinstance(cert, ThresholdCertificate):
            if kv:
                lines.append(f"certificate_index={cert.index}")
                lines.append(f"certificate_sum={format_rational(cert.partial_sum)}")
            else:
                lines.append("certificate:")
                lines.append(f"  N: {cert.index}")
                lines.append("  " + _exact_line("S_N", cert.partial_sum))
                lines.append(f"  inequality: |S_N| > {cert.index}")
        else:
            if kv:
                lines.append(f"certificate_horizon={cert.horizon}")
                lines.append(f"certificate_tolerance={format_rational(cert.tolerance)}")
                for f in cert.failures:
                    lines.append(
                        f"failure.{f.window_start}="
                        f"{f.lo_index},{f.hi_index},{format_rational(f.gap)}"
                    )
            else:
                lines.append("certificate:")
                lines.append(f"  horizon: {cert.horizon}")
                lines.append(f"  tolerance: {format_rational(cert.tolerance)}")
                for f in cert.failures:
                    lines.append(
                        f"  window start {f.window_start}: |S_{f.hi_index} - "
                        f"S_{f.lo_index}| = {format_rational(f.gap)}"
                    )
        code = EXIT_WITNESS
    else:
        lines.append(
            f"verdict=STILL_RUNNING\niterations={outcome.budget}"
            if kv
            else f"verdict: STILL_RUNNING after {outcome.budget} iterations"
        )
        if outcome.final_bounds is not None:
            lo, hi = outcome.final_bounds
            if kv:
                lines.append(f"final_sum_lower={format_rational(lo)}")
                lines.append(f"final_sum_upper={format_rational(hi)}")
            else:
                lines.append(
                    f"final sum enclosure: [{format_rational(lo)}, {format_rational(hi)}]"
                )
        if outcome.witness_log and not kv:
            first = outcome.witness_log[0]
            last = outcome.witness_log[-1]
            lines.append(
                f"window witnesses: start {first[0]} -> {first[1]}, "
                f"..., start {last[0]} -> {last[1]} ({len(outcome.witness_log)} recorded)"
            )
        if outcome.trace:
            if kv:
                for n, s in outcome.trace:
                    lines.append(f"trace.{n}={format_rational(s)}")
            else:
                lines.append(f"trace (first {len(outcome.trace)}):")
                for n, s in outcome.trace:
                    lines.append(f"  S_{n} = {format_rational(s)}")
        code = EXIT_BUDGET_EXHAUSTED
    print("\n".join(lines))
    return code


def _cmd_simulate(ns) -> int:
    program = _load_program(ns.machine_file)
    outcome = run_bounded(program, ns.input, ns.budget)
    if outcome.halted:
        print(f"HALTED at step {outcome.steps}")
        return EXIT_WITNESS
    print(f"RUNNING after {outcome.budget}")
    return EXIT_BUDGET_EXHAUSTED


def _cmd_forward(ns) -> int:
    program = _load_program(ns.machine_file)
    point = EvaluationPoint(parse_rational(ns.r))
    report = semidecide_halting_via_series(program, ns.input, point, ns.budget)
    # a_n is nonzero exactly from the halt step on, so only the run's halt
    # step is needed to find the first nonzero coefficients.
    outcome = run_bounded(program, ns.input, ns.budget)
    if outcome.halted:
        coeffs = forward_reduce(program, ns.input).stream
        shown = range(outcome.steps, min(outcome.steps + 10, ns.budget + 1))
        preview = (f"a_{n}={format_rational(coeffs.at(n))}" for n in shown)
        print("coefficients (first nonzero): " + " ".join(preview))
    else:
        print(f"coefficients: all zero up to index {ns.budget}")
    return _print_probe(report, ns.kv)


def _cmd_detect(ns) -> int:
    stream = _load_stream(ns.series_file)
    if ns.kind == "threshold":
        detector = build_threshold_detector(stream)
    elif ns.kind == "cauchy":
        detector = build_cauchy_window_detector(stream)
    else:
        tolerance = parse_rational(ns.tolerance) if ns.tolerance else None
        detector = build_cauchy_window_heuristic(
            stream,
            horizon_scale=ns.horizon_scale,
            window_cap=parse_rational(ns.window_cap),
            fixed_tolerance=tolerance,
        )
    if ns.show_program:
        print(detector.describe(), end="")
    outcome = run_detector(detector, ns.budget)
    return _print_outcome(outcome, ns.kv)


def _cmd_eval(ns) -> int:
    stream = _load_stream(ns.series_file)
    point = EvaluationPoint(parse_rational(ns.r))
    rate = parse_rate_spec(ns.rate)
    value, terms = effective_partial_sum(stream, point, ns.precision, rate)
    print(f"terms used: {terms}")
    print(_exact_line("value", value))
    return EXIT_WITNESS


def _cmd_probe(ns) -> int:
    stream = _load_stream(ns.series_file)
    if ns.kind == "ratio":
        point = EvaluationPoint(parse_rational(ns.r))
        report = ratio_test_probe(stream, point, parse_rational(ns.threshold), ns.budget)
        return _print_probe(report, ns.kv)
    if ns.kind == "root":
        result = root_estimate(stream, ns.n_max)
        print(f"limsup proxy: {result.limsup_proxy:.9e}")
        radius = (
            "inf" if result.implied_radius == float("inf") else f"{result.implied_radius:.9e}"
        )
        print(f"implied radius: {radius}")
        shown = result.estimates[: min(20, len(result.estimates))]
        for n, est in shown:
            print(f"  |a_{n}|^(1/{n}) ~ {est:.9e}")
        return EXIT_WITNESS
    if ns.kind == "effective":
        rate = parse_rate_spec(ns.rate)
        report = check_effective_criterion(
            stream, rate, parse_rational(ns.radius), ns.k_max, ns.n_budget
        )
        return _print_probe(report, ns.kv)
    # modulus
    point = EvaluationPoint(parse_rational(ns.r))
    rate = parse_rate_spec(ns.rate)
    report = check_modulus(stream, point, parse_rational(ns.limit), rate, ns.n_max)
    return _print_probe(report, ns.kv)


def _cmd_encode(ns) -> int:
    if ns.decode is not None:
        program = decode_godel(ns.decode)
        sys.stdout.write(pretty_program(program))
        return EXIT_WITNESS
    if ns.machine_file is None:
        return _fail("encode requires a machine file or --decode CODE")
    program = _load_program(ns.machine_file)
    code = encode_godel(program)
    print(code)
    if decode_godel(code) != program:
        return _fail("round-trip check failed")  # pragma: no cover
    return EXIT_WITNESS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="haltseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a machine under a step budget")
    p.add_argument("machine_file")
    p.add_argument("--input", type=_nat, required=True)
    p.add_argument("--budget", type=_positive, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("forward", help="reduce a run to a series and probe it")
    p.add_argument("machine_file")
    p.add_argument("--input", type=_nat, required=True)
    p.add_argument("--r", required=True, help="evaluation point, e.g. 1/2")
    p.add_argument("--budget", type=_positive, required=True)
    p.add_argument("--kv", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("detect", help="run a divergence detector over a series")
    p.add_argument("series_file")
    p.add_argument(
        "--kind", choices=("threshold", "cauchy", "cauchy-heuristic"), required=True
    )
    p.add_argument("--budget", type=_positive, required=True)
    p.add_argument("--horizon-scale", type=_positive, default=2)
    p.add_argument("--window-cap", default="1/2")
    p.add_argument("--tolerance", default=None)
    p.add_argument("--show-program", action="store_true")
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="rate-driven evaluation with target accuracy")
    p.add_argument("series_file")
    p.add_argument("--r", required=True)
    p.add_argument("-m", "--precision", type=_nat, required=True, dest="precision")
    p.add_argument("--rate", required=True, help="e.g. exp_tail or constant:5")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("probe", help="budgeted convergence probes")
    p.add_argument("series_file")
    p.add_argument("--kind", choices=("ratio", "root", "effective", "modulus"), required=True)
    p.add_argument("--r", default="1")
    p.add_argument("--threshold", default="2")
    p.add_argument("--budget", type=_positive, default=None)
    p.add_argument("--n-max", type=_positive, default=None)
    p.add_argument("--rate", default=None)
    p.add_argument("--radius", default=None)
    p.add_argument("--k-max", type=_nat, default=None)
    p.add_argument("--n-budget", type=_positive, default=None)
    p.add_argument("--limit", default=None)
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("encode", help="program-to-number round-trip utility")
    p.add_argument("machine_file", nargs="?")
    p.add_argument("--decode", type=_nat, default=None, metavar="CODE")
    p.set_defaults(func=_cmd_encode)

    return parser


def _nat(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


_PROBE_REQUIRED = {
    "ratio": ("budget",),
    "root": ("n_max",),
    "effective": ("rate", "radius", "k_max", "n_budget"),
    "modulus": ("rate", "limit", "n_max"),
}


def main(argv: list[str] | None = None) -> int:
    # Certificates and program codes can be very large integers; lift the
    # interpreter's digit cap so printing them exactly never fails, and
    # give an in-process caller its own cap back afterwards.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(2_000_000)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "probe":
        missing = [
            f"--{name.replace('_', '-')}"
            for name in _PROBE_REQUIRED[ns.kind]
            if getattr(ns, name) is None
        ]
        if missing:
            return _fail(f"probe --kind {ns.kind} requires {', '.join(missing)}")
    try:
        return ns.func(ns)
    except (MachineParseError, GodelDecodeError, RateUndefinedError) as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
