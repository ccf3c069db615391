"""Expected values for the benchmark's correctness checks.

Nothing here imports haltseries. Every expected value comes from a closed
form or from this module's own exact arithmetic, so a wrong answer from
the program under test cannot also be the expected one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_TRACE_LINE = re.compile(r"^  S_(\d+) = (\S+)$")


def doubler_halt_step(x: int) -> int:
    """Halt step of the doubler on input x: 4 steps per unit, then the exit test and halt."""
    return 4 * x + 2


def multiplier_halt_step(x: int, k: int) -> int:
    """Halt step of the times-k multiplier: per unit 1 test, k loads, 3k inner, exit test, jump."""
    return x * (4 * k + 3) + 2


def harmonic_sum(lo: int, hi: int) -> tuple[int, int]:
    """``sum(1/i for i in lo..hi)`` as an unreduced ``(p, q)``, by binary splitting."""

    def split(a: int, b: int) -> tuple[int, int]:
        if b - a == 1:
            return 1, a
        m = (a + b) // 2
        p1, q1 = split(a, m)
        p2, q2 = split(m, b)
        return p1 * q2 + p2 * q1, q1 * q2

    return split(lo, hi + 1)


def geometric_sum(r: Fraction, n: int) -> Fraction:
    """``sum(r**i for i in 0..n)`` from the closed form ``(1 - r^(n+1)) / (1 - r)``."""
    return (1 - r ** (n + 1)) / (1 - r)


def reciprocal_factorial_sum(n: int) -> tuple[int, int]:
    """``sum(1/i! for i in 0..n)`` as an unreduced ``(p, n!)``, by Horner's rule."""
    p = 1
    for k in range(1, n + 1):
        p = p * k + 1
    return p, math.factorial(n)


def exp_tail_terms(m: int) -> int:
    """Smallest N with ``2 / (N+1)! < 2^-m``: the exp_tail rate at r = 1."""
    target = 2 ** (m + 1)
    n, fact = 0, 1
    while not target < fact:
        n += 1
        fact *= n
    return n - 1


def offset_harmonic_bounds(offset: int, n: int, shift: int = 128) -> tuple[Fraction, Fraction]:
    """An enclosure of ``sum(1/(i+offset) for i in 0..n)`` of width at most (n+1)/2^shift."""
    unit = 1 << shift
    low = sum(unit // (i + offset) for i in range(n + 1))
    return Fraction(low, unit), Fraction(low + n + 1, unit)


def approx(value: Fraction | tuple[int, int], digits: int = 12) -> str:
    """Decimal text of a Fraction or ``(p, q)``, rounded half to even, as reports print it."""
    num, den = (value.numerator, value.denominator) if isinstance(value, Fraction) else value
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    whole, frac = divmod(abs(q), 10**digits)
    return f"{'-' if q < 0 else ''}{whole}.{frac:0{digits}d}"


def parse_rational(text: str) -> tuple[int, int]:
    """``p/q`` or integer text as ``(p, q)``, rejecting anything not in lowest terms."""
    num, _, den = text.partition("/")
    p, q = int(num), int(den or "1")
    if q <= 0 or math.gcd(p, q) != 1 or (den and q == 1):
        raise ValueError(f"not a rational in lowest terms: {text[:40]!r}")
    return p, q


def same(text: str, expected: Fraction | tuple[int, int]) -> bool:
    """Whether rational text denotes ``expected`` (a Fraction or an unreduced pair)."""
    p, q = parse_rational(text)
    if isinstance(expected, Fraction):
        expected = expected.numerator, expected.denominator
    return p * expected[1] == expected[0] * q


def report_fields(text: str) -> tuple[dict[str, str], dict[int, str]]:
    """Split report text into ``key: value`` fields and ``S_n = value`` trace lines."""
    fields: dict[str, str] = {}
    trace: dict[int, str] = {}
    for line in text.splitlines():
        match = _TRACE_LINE.match(line)
        if match:
            trace[int(match.group(1))] = match.group(2)
        elif ": " in line:
            key, value = line.split(": ", 1)
            fields[key.strip()] = value
    return fields, trace


def check_trace(trace: dict[int, str], expected) -> list[str]:
    """Compare every printed ``S_n`` against ``expected(n)``; an empty trace fails."""
    if not trace:
        return ["no trace lines"]
    return [f"S_{n} = {v[:40]} is wrong" for n, v in trace.items() if not same(v, expected(n))]


def check_witness(text: str, budget: int, index: int, ratio: Fraction) -> list[str]:
    """Problems with a ratio-probe report that should witness divergence at ``index``."""
    fields, _ = report_fields(text)
    problems = []
    if fields.get("verdict") != "WITNESSED_DIVERGENCE":
        problems.append(f"verdict {fields.get('verdict')!r}")
    if fields.get("budget") != str(budget):
        problems.append(f"budget {fields.get('budget')!r}")
    if fields.get("witness index") != str(index):
        problems.append(f"witness index {fields.get('witness index')!r}, expected {index}")
    value = fields.get("witness value", "")
    if value != f"{ratio} (approx {approx(ratio)})":
        problems.append(f"witness value {value!r}")
    if fields.get("ratio") != str(ratio) or fields.get("threshold") != "2":
        problems.append("ratio or threshold line")
    return problems


def check_consistent(text: str, budget: int) -> list[str]:
    """Problems with a report that should be consistent up to ``budget``."""
    fields, _ = report_fields(text)
    problems = []
    if fields.get("verdict") != "CONSISTENT_UP_TO_BUDGET":
        problems.append(f"verdict {fields.get('verdict')!r}")
    if fields.get("budget") != str(budget):
        problems.append(f"budget {fields.get('budget')!r}")
    return problems
