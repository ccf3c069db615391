"""The benchmark's workloads: seeded inputs, operations and their expected results.

Each workload is a closed loop with one client: the benchmark starts one
child process, waits for it to exit, checks its output, then starts the
next. The seed picks every input (machine inputs, evaluation points,
budgets, stream parameters) within a narrow size band, so seeds differ in
the values the program sees but not in how much work it does. The program
only ever sees the generated files and arguments. ``README.md`` beside this
file says why each workload is in the set.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

DOUBLER = """\
# leaves twice the input in register 1; halts at step 4x+2
loop: decjz 0 done
      inc 1
      inc 1
      decjz 2 loop    # register 2 stays zero: unconditional jump back
done: halt
"""

SPIN = """\
# never halts: one increment and one unconditional jump, forever
loop: inc 1
      decjz 2 loop
"""


def multiplier(k: int) -> str:
    """Source of a machine leaving k*x in register 1 through a short inner loop per unit."""
    loads = "       inc 2\n" * k
    return (
        f"# leaves {k}*x in register 1; halts at step x*(4*{k}+3)+2\n"
        "outer: decjz 0 done\n"
        f"{loads}"
        "inner: decjz 2 next\n"
        "       inc 1\n"
        "       decjz 3 inner\n"
        "next:  decjz 3 outer\n"
        "done:  halt\n"
    )


@dataclass
class Tally:
    """Operations attempted, unexpected failures, and failures already known at this commit."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.known += other.known


@dataclass
class Op:
    """One child process: CLI arguments (or a library-warm spec file) and its check."""

    name: str
    argv: list[str]
    check: Callable[[str, int], Tally]
    library: bool = False


@dataclass
class Workload:
    files: dict[str, str]
    ops: list[Op]


def _cli_op(name: str, argv: list, code: int, verify: Callable[[str], list[str]]) -> Op:
    def check(text: str, exit_code: int) -> Tally:
        if exit_code != code:
            return Tally(1, [f"{name}: exit code {exit_code}, expected {code}"])
        try:
            problems = verify(text)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return Tally(1, [f"{name}: {'; '.join(problems[:3])}"] if problems else [])

    return Op(name, [str(a) for a in argv], check)


def _zeros(n: int) -> Fraction:
    return Fraction(0)


# ---------------------------------------------------------------------------
# Operations, each with its sizes given explicitly
# ---------------------------------------------------------------------------


def forward_halting(x: int, d: int, budget: int) -> Op:
    """``forward`` on the doubler: witness at 4x+2 and ten factorial preview terms."""
    h = oracle.doubler_halt_step(x)

    def verify(text: str) -> list[str]:
        first, _, report = text.partition("\n")
        label, _, terms = first.partition(": ")
        expected = [f"a_{n}" for n in range(h, min(h + 10, budget + 1))]
        pairs = [t.partition("=") for t in terms.split(" ")]
        problems = []
        if label != "coefficients (first nonzero)" or [p[0] for p in pairs] != expected:
            problems.append("preview indices")
        elif any(int(v) != math.factorial(int(k[2:])) for k, _, v in pairs):
            problems.append("a preview term is not n!")
        problems += oracle.check_witness(report, budget, h, Fraction(h + 1, d))
        return problems + oracle.check_trace(oracle.report_fields(report)[1], _zeros)

    argv = ["forward", "doubler.machine", "--input", x, "--r", f"1/{d}", "--budget", budget]
    return _cli_op("forward", argv, 0, verify)


def forward_spin(x: int, budget: int) -> Op:
    """``forward`` on a machine that never halts: an all-zero stream up to the budget."""

    def verify(text: str) -> list[str]:
        first, _, report = text.partition("\n")
        problems = [] if first == f"coefficients: all zero up to index {budget}" else ["first line"]
        problems += oracle.check_consistent(report, budget)
        return problems + oracle.check_trace(oracle.report_fields(report)[1], _zeros)

    argv = ["forward", "spin.machine", "--input", x, "--r", "1/2", "--budget", budget]
    return _cli_op("forward-spin", argv, 2, verify)


def ratio_probe(n0: int, q: int, budget: int) -> Op:
    """``probe --kind ratio`` on ``factorial_tail n0`` at r = 1/q: ratios (n+1)/q reach 2 at 2q-1."""
    index = max(n0, 2 * q - 1)

    def partial(n: int) -> Fraction:
        return sum((Fraction(math.factorial(i), q**i) for i in range(n0, n + 1)), Fraction(0))

    def verify(text: str) -> list[str]:
        problems = oracle.check_witness(text, budget, index, Fraction(index + 1, q))
        return problems + oracle.check_trace(oracle.report_fields(text)[1], partial)

    argv = ["probe", f"ft{n0}.txt", "--kind", "ratio", "--r", f"1/{q}", "--threshold", "2",
            "--budget", budget]
    return _cli_op("probe-ratio", argv, 0, verify)


def simulate(machine: str, x: int, halt_step: int) -> Op:
    """``simulate`` with a budget well past the known halt step."""
    argv = ["simulate", machine, "--input", x, "--budget", 2 * halt_step]
    expected = f"HALTED at step {halt_step}\n"
    return _cli_op("simulate", argv, 0, lambda text: [] if text == expected else [text[:60]])


def eval_sum(spec_file: str, n: int, expected: Callable[[], Fraction | tuple[int, int]]) -> Op:
    """``eval`` at r = 1 with the rate ``constant:n``; ``expected`` gives the exact value."""

    def verify(text: str) -> list[str]:
        value = expected()
        want = f"terms used: {n}\nvalue: "
        tail = f" (approx {oracle.approx(value)})\n"
        if not (text.startswith(want) and text.endswith(tail)):
            return ["terms or approx line"]
        return [] if oracle.same(text[len(want) : -len(tail)], value) else ["value"]

    argv = ["eval", spec_file, "--r", "1", "-m", "0", "--rate", f"constant:{n}"]
    return _cli_op("eval", argv, 0, verify)


def modulus_probe(n_max: int) -> Op:
    """``probe --kind modulus`` on geometric 2/3 with the honest rate linear:2:4 toward 3."""

    def verify(text: str) -> list[str]:
        problems = oracle.check_consistent(text, n_max)
        trace = oracle.report_fields(text)[1]
        return problems + oracle.check_trace(trace, lambda k: oracle.geometric_sum(Fraction(2, 3), k))

    argv = ["probe", "g23.txt", "--kind", "modulus", "--r", "1", "--limit", "3",
            "--rate", "linear:2:4", "--n-max", n_max]
    return _cli_op("probe-modulus", argv, 2, verify)


def window_detect(spec_file: str, kind: str, budget: int, start_of, partial, extra=()) -> Op:
    """``detect`` with a window detector that keeps running; ``start_of(k)`` is the logged start."""

    def verify(text: str) -> list[str]:
        fields, trace = oracle.report_fields(text)
        problems = []
        if fields.get("verdict") != f"STILL_RUNNING after {budget} iterations":
            problems.append(f"verdict {fields.get('verdict')!r}")
        witnesses = f"start 1 -> {start_of(1)}, ..., start {budget} -> {start_of(budget)} ({budget} recorded)"
        if fields.get("window witnesses") != witnesses:
            problems.append("window witnesses")
        return problems + oracle.check_trace(trace, partial)

    argv = ["detect", spec_file, "--kind", kind, "--budget", budget, *extra]
    return _cli_op(f"detect-{kind}", argv, 2, verify)


def library_warm(spec: dict) -> Op:
    """One long-lived ``library_warm.py`` child; ``spec`` holds every input it uses."""
    doubler_budget = spec["semidecide_budget"]
    d = spec["semidecide_d"]
    n0, q = spec["ratio_n0"], spec["ratio_q"]
    index = max(n0, 2 * q - 1)

    def check_one(result: dict) -> list[str]:
        op = result["op"]
        if op == "semidecide":
            h = oracle.doubler_halt_step(result["x"])
            return oracle.check_witness(result["text"], doubler_budget, h, Fraction(h + 1, d))
        if op == "ratio":
            return oracle.check_witness(result["text"], spec["ratio_budget"], index, Fraction(index + 1, q))
        if op == "threshold":
            offset, terms = spec["threshold_offset"], spec["threshold_terms"]
            low, high = oracle.offset_harmonic_bounds(offset, terms)
            lo, hi = (Fraction(*oracle.parse_rational(t)) for t in result["bounds"])
            ok = result["still_running"] == terms and lo <= low and high <= hi
            partial = lambda n: sum((Fraction(1, i + offset) for i in range(n + 1)), Fraction(0))
            return ([] if ok else ["enclosure or budget"]) + oracle.check_trace(dict(result["trace"]), partial)
        if op == "near_threshold":
            k = spec["near_threshold_k"]
            ok = result["iteration"] == k and result["recheck"] and oracle.same(result["sum"], Fraction(3 * k + 2, 3))
            return [] if ok else ["near-threshold halt"]
        # exp_tail: the exact value travels in hex, which the digit limit does not cover
        n = oracle.exp_tail_terms(spec["exp_tail_m"])
        expected = oracle.reciprocal_factorial_sum(n)
        num, den = int(result["num"], 16), int(result["den"], 16)
        if result["terms"] != n or num * expected[1] != expected[0] * den:
            return ["exp_tail value"]
        # A known render failure was already counted by the caller; the value still had to match.
        return [] if "error" in result or oracle.same(result["text"], expected) else ["render"]

    def check(text: str, exit_code: int) -> Tally:
        expected = len(spec["inputs"]) + spec["ratio_repeats"] + 3
        try:
            results = json.loads(text)["results"] if exit_code == 0 else []
        except ValueError:
            results = []
        if len(results) != expected:
            return Tally(expected, [f"library-warm: exit {exit_code}, {len(results)} results"] * expected)
        tally = Tally(expected)
        for result in results:
            error = result.get("error", "")
            if result["op"] == "exp_tail" and error.startswith("ValueError: Exceeds the limit"):
                # Known at this commit: the library cannot render values over 4300 digits.
                tally.known.append(f"exp_tail render: {error[:60]}")
                error = ""
            try:
                problems = [error] if error else check_one(result)
            except (KeyError, ValueError) as exc:
                problems = [f"unreadable result: {exc!r}"]
            tally.failures += [f"library-warm {result['op']}: {p}" for p in problems[:1]]
        return tally

    return Op("library-warm", ["library.json"], check, library=True)


# ---------------------------------------------------------------------------
# Workloads: sizes drawn from the seed within fixed bands
# ---------------------------------------------------------------------------


def _forward_halting(rng: random.Random) -> Workload:
    n0 = rng.randint(10, 30)
    return Workload(
        {"doubler.machine": DOUBLER, f"ft{n0}.txt": f"builtin factorial_tail {n0}\n"},
        [
            forward_halting(rng.randint(3990, 4010), rng.randint(2, 9), rng.randint(19_980, 20_020)),
            ratio_probe(n0, rng.randint(145, 155), rng.randint(9980, 10_020)),
        ],
    )


def _machine_run(rng: random.Random) -> Workload:
    k = 5
    x_double = rng.randint(749_000, 751_000)
    x_mult = rng.randint(130_200, 130_600)
    return Workload(
        {"doubler.machine": DOUBLER, "multiplier.machine": multiplier(k), "spin.machine": SPIN},
        [
            simulate("doubler.machine", x_double, oracle.doubler_halt_step(x_double)),
            simulate("multiplier.machine", x_mult, oracle.multiplier_halt_step(x_mult, k)),
            forward_spin(rng.randint(0, 9), rng.randint(299_000, 301_000)),
        ],
    )


def harmonic_partial(n: int) -> Fraction:
    """S_n of the harmonic builtin, ``sum(1/(i+1) for i in 0..n)``."""
    return Fraction(*oracle.harmonic_sum(1, n + 1))


def _exact_sums(rng: random.Random) -> Workload:
    n_h = rng.randint(19_950, 20_050)
    n_g = rng.randint(5990, 6010)
    return Workload(
        {"harmonic.txt": "builtin harmonic\n", "g23.txt": "builtin geometric 2/3\n",
         "g12.txt": "builtin geometric 1/2\n"},
        [
            eval_sum("harmonic.txt", n_h, lambda: oracle.harmonic_sum(1, n_h + 1)),
            eval_sum("g23.txt", n_g, lambda: oracle.geometric_sum(Fraction(2, 3), n_g)),
            modulus_probe(rng.randint(2990, 3010)),
            window_detect("harmonic.txt", "cauchy", rng.randint(4990, 5010), lambda k: k, harmonic_partial),
            window_detect("g12.txt", "cauchy-heuristic", rng.randint(398, 402), lambda k: 1,
                          lambda n: oracle.geometric_sum(Fraction(1, 2), n), ("--tolerance", "1")),
        ],
    )


def _library_warm(rng: random.Random) -> Workload:
    base = rng.randint(700, 710)
    spec = {
        "doubler": DOUBLER,
        # Fifty consecutive inputs, so every seed does the same amount of work.
        "inputs": rng.sample(range(base, base + 50), 50),
        "semidecide_d": rng.randint(2, 9),
        "semidecide_budget": 3200,
        "ratio_n0": rng.randint(10, 30),
        "ratio_q": rng.randint(145, 155),
        "ratio_budget": rng.randint(14_980, 15_020),
        "ratio_repeats": 3,
        "threshold_offset": 10,
        "threshold_terms": rng.randint(199_500, 200_500),
        "near_threshold_k": 2 * rng.randint(398, 402),
        "exp_tail_m": rng.randint(19_950, 20_050),
    }
    return Workload({"library.json": json.dumps(spec)}, [library_warm(spec)])


WORKLOADS = {
    "forward-halting": _forward_halting,
    "machine-run": _machine_run,
    "exact-sums": _exact_sums,
    "library-warm": _library_warm,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))
