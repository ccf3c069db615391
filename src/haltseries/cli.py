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
import re
import sys
from pathlib import Path

# Only the machine layer loads with the CLI; each command reads the rest from
# the package when it runs, so ``simulate`` and ``encode`` never load it.
from .machine import (
    MachineProgram,
    _factorial_texts,
    _int_text,
    _text_int,
    decode_godel,
    encode_godel,
    parse_program,
    pretty_program,
    run_bounded,
)

EXIT_WITNESS = 0
EXIT_INPUT_ERROR = 1
EXIT_BUDGET_EXHAUSTED = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read -1/3 as a value, as argparse reads -1 and -0.5: "--r -1/3" == "--r=-1/3".
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    # Usage errors must exit 1, not argparse's default 2. Python 3.13 lists
    # the valid choices bare: quote them, as 3.10-3.12 do.
    def error(self, message):
        message = re.sub(r"(?<=\(choose from )[^')]+(?=\))",
                         lambda m: ", ".join(map(repr, m[0].split(", "))), message)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load_program(path: str) -> MachineProgram:
    return parse_program(Path(path).read_text())


def _load_stream(path: str):
    from . import parse_series_spec

    p = Path(path)
    return parse_series_spec(p.read_text(), base_dir=p.parent)


def _print_report(report, kv: bool, witnessed: bool) -> int:
    """Print a probe report or detector outcome as text or key=value lines."""
    sys.stdout.write(report.to_kv() if kv else report.to_text())
    return EXIT_WITNESS if witnessed else EXIT_BUDGET_EXHAUSTED


def _cmd_simulate(ns) -> int:
    program = _load_program(ns.machine_file)
    outcome = run_bounded(program, ns.input, ns.budget)
    if outcome.halted:
        print(f"HALTED at step {_int_text(outcome.steps)}")
        return EXIT_WITNESS
    print(f"RUNNING after {_int_text(outcome.budget)}")
    return EXIT_BUDGET_EXHAUSTED


def _cmd_forward(ns) -> int:
    from . import EvaluationPoint, format_rational, parse_rational, semidecide_halting_via_series

    program = _load_program(ns.machine_file)
    point = EvaluationPoint(parse_rational(ns.r))
    report = semidecide_halting_via_series(program, ns.input, point, ns.budget)
    # a_n is n! from the halt step on and 0 before it, so only the run's halt
    # step is needed to print the first nonzero coefficients.
    outcome = run_bounded(program, ns.input, ns.budget)
    if outcome.halted:
        shown = range(outcome.steps, min(outcome.steps + 10, ns.budget + 1))
        # Each text is written as it comes, so only one is held at a time.
        out = sys.stdout
        out.write("coefficients (first nonzero):")
        for n, text in zip(shown, _factorial_texts(shown.start, shown.stop)):
            out.write(f" a_{format_rational(n)}=")
            out.write(text)
        out.write("\n")
    else:
        print(f"coefficients: all zero up to index {format_rational(ns.budget)}")
    return _print_report(report, ns.kv, report.witness is not None)


def _cmd_detect(ns) -> int:
    from . import (build_cauchy_window_detector, build_cauchy_window_heuristic,
                   build_threshold_detector, parse_rational, run_detector)

    stream = _load_stream(ns.series_file)
    if ns.kind == "threshold":
        detector = build_threshold_detector(stream)
    elif ns.kind == "cauchy":
        detector = build_cauchy_window_detector(stream)
    else:
        # Only the knobs given are passed: ``CauchyWindowKnobs`` fills the rest.
        texts = {"fixed_tolerance": ns.tolerance, "window_cap": ns.window_cap}
        knobs = {name: parse_rational(text) for name, text in texts.items() if text is not None}
        if ns.horizon_scale is not None:
            knobs["horizon_scale"] = ns.horizon_scale
        detector = build_cauchy_window_heuristic(stream, **knobs)
    if ns.show_program:
        print(detector.describe(), end="")
    outcome = run_detector(detector, ns.budget)
    return _print_report(outcome, ns.kv, outcome.halted)


def _cmd_eval(ns) -> int:
    from . import (EvaluationPoint, effective_partial_sum, format_rational, parse_rate_spec,
                   parse_rational)
    from .series import exact_line

    stream = _load_stream(ns.series_file)
    point = EvaluationPoint(parse_rational(ns.r))
    rate = parse_rate_spec(ns.rate)
    value, terms = effective_partial_sum(stream, point, ns.precision, rate)
    print(f"terms used: {format_rational(terms)}")
    print(exact_line("value", value))
    return EXIT_WITNESS


def _cmd_probe(ns) -> int:
    from . import (EvaluationPoint, check_effective_criterion, check_modulus, parse_rate_spec,
                   parse_rational, ratio_test_probe, root_estimate)

    stream = _load_stream(ns.series_file)
    if ns.kind == "root":
        result = root_estimate(stream, ns.n_max)
        print(f"limsup proxy: {result.limsup_proxy:.9e}")
        print(f"implied radius: {result.implied_radius:.9e}")  # infinity prints as "inf"
        for n, est in result.estimates[:20]:
            print(f"  |a_{n}|^(1/{n}) ~ {est:.9e}")
        return EXIT_WITNESS
    if ns.kind == "ratio":
        point = EvaluationPoint(parse_rational(ns.r))
        report = ratio_test_probe(stream, point, parse_rational(ns.threshold), ns.budget)
    elif ns.kind == "effective":
        rate = parse_rate_spec(ns.rate)
        report = check_effective_criterion(
            stream, rate, parse_rational(ns.radius), ns.k_max, ns.n_budget
        )
    else:  # modulus
        point = EvaluationPoint(parse_rational(ns.r))
        rate = parse_rate_spec(ns.rate)
        report = check_modulus(stream, point, parse_rational(ns.limit), rate, ns.n_max)
    return _print_report(report, ns.kv, report.witness is not None)


def _cmd_encode(ns) -> int:
    if ns.decode is not None:
        program = decode_godel(ns.decode)
        sys.stdout.write(pretty_program(program))
        return EXIT_WITNESS
    if ns.machine_file is None:
        return _fail("encode requires a machine file or --decode CODE")
    program = _load_program(ns.machine_file)
    code = encode_godel(program)
    if decode_godel(code) != program:
        return _fail("round-trip check failed")  # pragma: no cover
    print(_int_text(code))
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
    p.add_argument("--horizon-scale", type=_positive)
    p.add_argument("--window-cap")
    p.add_argument("--tolerance")
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
    p.add_argument("--r")
    p.add_argument("--threshold")
    p.add_argument("--budget", type=_positive)
    p.add_argument("--n-max", type=_positive)
    p.add_argument("--rate")
    p.add_argument("--radius")
    p.add_argument("--k-max", type=_nat)
    p.add_argument("--n-budget", type=_positive)
    p.add_argument("--limit")
    p.add_argument("--kv", action="store_true", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("encode", help="program-to-number round-trip utility")
    p.add_argument("machine_file", nargs="?")
    p.add_argument("--decode", type=_nat, default=None, metavar="CODE")
    p.set_defaults(func=_cmd_encode)

    return parser


def _integer(text: str, what: str) -> int:
    try:
        return _text_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None


def _nat(text: str) -> int:
    value = _integer(text, "a natural number")
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = _integer(text, "a positive integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


# The flags that each kind of a command reads, each with the value it takes
# when not given: ``...`` marks a required flag, and ``None`` a knob whose
# default the library owns. A kind rejects every other flag in its command's table.
_KIND_FLAGS = {
    "detect": {
        "threshold": {},
        "cauchy": {},
        "cauchy-heuristic": {"horizon_scale": None, "window_cap": None, "tolerance": None},
    },
    "probe": {
        "ratio": {"r": "1", "threshold": "2", "budget": ..., "kv": False},
        "root": {"n_max": ...},
        "effective": {"rate": ..., "radius": ..., "k_max": ..., "n_budget": ..., "kv": False},
        "modulus": {"r": "1", "rate": ..., "limit": ..., "n_max": ..., "kv": False},
    },
}


def _apply_kind_flags(ns) -> str | None:
    """Give the unset flags that ``ns``'s kind reads their values; return the usage error, if any."""
    kinds = _KIND_FLAGS.get(ns.command)
    if kinds is None:
        return None
    reads, where = kinds[ns.kind], f"{ns.command} --kind {ns.kind}"
    missing = [_flag(name) for name, default in reads.items()
               if default is ... and getattr(ns, name) is None]
    if missing:
        return f"{where} requires {', '.join(missing)}"
    for name in (name for flags in kinds.values() for name in flags if name not in reads):
        if getattr(ns, name) is not None:
            return f"{where} does not take {_flag(name)}"
    for name, default in reads.items():
        if getattr(ns, name) is None:
            setattr(ns, name, default)
    return None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    wrong = _apply_kind_flags(ns)
    if wrong:
        return _fail(wrong)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except MemoryError:
        return _fail("out of memory")


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
