"""Exact partial sums and budgeted convergence probes.

Evaluation points are non-negative rationals standing for the modulus
``|z|``; every convergence-relevant quantity here (term ratios, root
growth, tail bounds) depends on ``|z|`` only. All partial sums and
certificates are exact rationals. Probes are three-valued: they either
produce a finite, independently re-checkable witness (of divergence or of
a violated bound) or report that everything stayed consistent up to the
given budget. Nothing in this module ever claims convergence outright.

Rate functions, which promise the index through which partial sums reach
a target accuracy, are first-class values supplied by the caller. They are
trusted by :func:`effective_partial_sum` (whose guarantee is only as honest
as the rate) and can be falsified, never verified, by :func:`check_modulus`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

from .coefficients import (
    CoefficientStream,
    _text_int,
    approx_decimal,
    format_rational,
    parse_rational,
)
from .machine import _Record

__all__ = [
    "EvaluationPoint",
    "RateFunction",
    "ExpTailRate",
    "LinearRate",
    "TabulatedRate",
    "RateUndefinedError",
    "parse_rate_spec",
    "WitnessedDivergence",
    "WitnessedBoundViolation",
    "ConsistentUpToBudget",
    "SeriesProbeReport",
    "partial_sum",
    "prefix_sums",
    "effective_partial_sum",
    "ratio_test_probe",
    "root_estimate",
    "check_effective_criterion",
    "check_modulus",
]

_ZERO = Fraction(0)

#: Relative error bound of a root-growth estimate in the normal float range.
#: With u = 2^-53, the log of a part's top 64 bits is off by at most 66u; the
#: two logs' difference plus (s - t)·log 2 by 260u + 4u·|log|a_n||, y = that / n
#: by 260u + 5u·|y|, and exp(y) adds 2u: under (262 + 5·710)u < 4.3e-13.
ROOT_ESTIMATE_RELATIVE_ERROR = 1e-12

#: Number of (index, partial sum) pairs sampled into probe traces.
TRACE_POINTS = 20

#: Offsets past the rate's promised index sampled by check_modulus.
MODULUS_SAMPLE_OFFSETS = (0, 1, 2, 4, 8, 16, 32)


class EvaluationPoint(_Record):
    """The modulus ``|z| >= 0`` at which a series is probed."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r < 0:
            raise ValueError("evaluation point must be non-negative")


class RateUndefinedError(ValueError):
    """The rate function does not cover the queried (m, r)."""

    def __init__(self, m: int, r: Fraction, why: str):
        where = f"m={format_rational(m)}, r={format_rational(r)}"
        super().__init__(f"rate undefined at {where}: {why}")
        self.m = m
        self.r = r


class RateFunction:
    """Caller-supplied promise: the partial sum through index
    ``terms_for(m, r)`` (``S_N``, the terms ``a_0..a_N``) lands within
    ``2^-m`` of the limit at modulus ``r``. Only ever falsified."""

    def terms_for(self, m: int, r: Fraction = _ZERO) -> int:
        raise NotImplementedError


class ExpTailRate(RateFunction, _Record):
    """Rate for exponential-type series on ``r <= 1``.

    Returns the smallest N with ``2 * r^(N+1) / (N+1)! < 2^-m``, a valid
    tail bound for sum(r^n / n!) since the ratio of consecutive tail
    terms is at most 1/2 there.
    """

    def terms_for(self, m: int, r: Fraction = _ZERO) -> int:
        if m < 0:
            raise RateUndefinedError(m, r, "precision exponent must be non-negative")
        r = Fraction(r)
        if r > 1:
            raise RateUndefinedError(m, r, "only declared for r <= 1")
        # 2 * r^(N+1) / (N+1)! < 2^-m  <=>  2^(m+1) * num^(N+1) < (N+1)! * den^(N+1)
        num, den = r.numerator, r.denominator
        lhs = 2 ** (m + 1) * num
        rhs = den
        factorial = 1  # (n+1)!
        n = 0
        while True:
            factorial *= n + 1
            if lhs < rhs * factorial:
                return n
            n += 1
            lhs *= num
            rhs *= den


class LinearRate(RateFunction, _Record):
    """``terms_for(m) = slope * m + offset``."""

    slope: int
    offset: int

    def __post_init__(self):
        if self.slope < 0 or self.offset < 0:
            raise ValueError("linear rate coefficients must be non-negative")

    def terms_for(self, m: int, r: Fraction = _ZERO) -> int:
        return self.slope * m + self.offset


class TabulatedRate(RateFunction, _Record):
    """Explicit rows ``(m, r_bound, N)``.

    A query (m, r) is served by every row with ``row m >= m`` and
    ``r <= r_bound`` (a promise for higher precision or a larger modulus
    covers lower ones); the smallest such N is returned. This lookup makes
    the answer automatically nondecreasing in m.
    """

    rows: tuple[tuple[int, Fraction, int], ...]

    def __post_init__(self):
        rows = tuple(
            (int(m), Fraction(r_bound), int(n)) for m, r_bound, n in self.rows
        )
        object.__setattr__(self, "rows", rows)
        for m, r_bound, n in rows:
            if m < 0 or n < 0 or r_bound < 0:
                raise ValueError("tabulated rate entries must be non-negative")

    def terms_for(self, m: int, r: Fraction = _ZERO) -> int:
        r = Fraction(r)
        candidates = [n for row_m, r_bound, n in self.rows if row_m >= m and r <= r_bound]
        if not candidates:
            raise RateUndefinedError(m, r, "no tabulated row covers the query")
        return min(candidates)


def parse_rate_spec(text: str) -> RateFunction:
    """Parse a rate description.

    Forms: ``exp_tail``, ``linear:SLOPE:OFFSET``, ``constant:N`` (that is,
    ``linear:0:N``) and ``table:M,RBOUND,N[;M,RBOUND,N...]``.
    """
    parts = text.strip().split(":", 1)
    kind = parts[0].lower().replace("-", "_")
    if kind == "exp_tail":
        if len(parts) > 1:
            raise ValueError("exp_tail takes no parameters")
        return ExpTailRate()
    if kind == "constant":
        if len(parts) != 2 or not parts[1].isdecimal():
            raise ValueError("expected constant:N")
        return LinearRate(0, _text_int(parts[1]))
    if kind == "linear":
        fields = text.strip().split(":")
        if len(fields) != 3 or not fields[1].isdecimal() or not fields[2].isdecimal():
            raise ValueError("expected linear:SLOPE:OFFSET")
        return LinearRate(_text_int(fields[1]), _text_int(fields[2]))
    if kind == "table":
        if len(parts) != 2:
            raise ValueError("expected table:M,RBOUND,N[;...]")
        rows = []
        for chunk in parts[1].split(";"):
            cols = chunk.split(",")
            if len(cols) != 3 or not cols[0].isdecimal() or not cols[2].isdecimal():
                raise ValueError(f"bad table row {chunk!r}, expected M,RBOUND,N")
            rows.append((_text_int(cols[0]), parse_rational(cols[1]), _text_int(cols[2])))
        return TabulatedRate(tuple(rows))
    raise ValueError(f"unknown rate kind {parts[0]!r}")


def _promised_terms(rate: RateFunction, m: int, r: Fraction) -> int:
    """``rate.terms_for(m, r)``, which must be an integer of at least 0."""
    terms = rate.terms_for(m, r)
    try:
        terms = operator.index(terms)
    except TypeError:
        raise RateUndefinedError(m, r, "promised a number of terms that is not an integer") from None
    if terms < 0:
        raise RateUndefinedError(m, r, "promised a negative number of terms")
    return terms


# ---------------------------------------------------------------------------
# Verdicts and reports
# ---------------------------------------------------------------------------


class WitnessedDivergence(_Record):
    """Term ratios crossed the threshold at ``index`` and stayed there
    through every later sampled ratio within the budget."""

    index: int
    ratio: Fraction
    threshold: Fraction

    kind = "WITNESSED_DIVERGENCE"

    @property
    def detail(self) -> dict:
        """The crossing ratio and the threshold it crossed."""
        return {"ratio": self.ratio, "threshold": self.threshold}


class WitnessedBoundViolation(_Record):
    """A claimed bound failed; ``detail`` holds the exact violated values."""

    detail: dict

    kind = "WITNESSED_BOUND_VIOLATION"


class ConsistentUpToBudget(_Record):
    """No witness within the budget. Not a convergence claim."""

    budget: int

    kind = "CONSISTENT_UP_TO_BUDGET"
    detail = {}  # unannotated, so a class constant and not a field


class _Report:
    """Base of the outcomes the CLI prints: a subclass gives ``report_lines(kv)``
    and a ``trace``, and this renders both as text or as ``key=value`` lines."""

    def to_text(self) -> str:
        return "\n".join(self.report_lines(False) + trace_lines(self.trace, False)) + "\n"

    def to_kv(self) -> str:
        return "\n".join(self.report_lines(True) + trace_lines(self.trace, True)) + "\n"


class SeriesProbeReport(_Report, _Record):
    """Outcome of a budgeted probe.

    ``witness`` is an (index, value) pair exactly when the verdict is a
    witness; ``trace`` holds sampled (index, exact partial sum) pairs.
    """

    verdict: WitnessedDivergence | WitnessedBoundViolation | ConsistentUpToBudget
    witness: tuple[int, Fraction] | None
    trace: tuple[tuple[int, Fraction], ...]
    budget_used: int

    def __post_init__(self):
        has_witness = not isinstance(self.verdict, ConsistentUpToBudget)
        if has_witness != (self.witness is not None):
            raise ValueError("witness must be present iff the verdict is a witness")

    def report_lines(self, kv: bool) -> list[str]:
        """The verdict, the budget, the witness and the verdict's detail."""
        sep = "=" if kv else ": "
        lines = [f"verdict{sep}{self.verdict.kind}", f"budget{sep}{format_rational(self.budget_used)}"]
        if self.witness is not None:
            index, value = self.witness
            if kv:
                lines += [f"witness_index={format_rational(index)}",
                          f"witness_value={format_rational(value)}"]
            else:
                lines += [f"witness index: {format_rational(index)}",
                          exact_line("witness value", value)]
        details = sorted(self.verdict.detail.items())
        return lines + [f"{key}{sep}{format_rational(value)}" for key, value in details]


def exact_line(label: str, value: Fraction) -> str:
    """``label: p/q (approx d)``, an exact value with its 12-digit decimal."""
    return f"{label}: {format_rational(value)} (approx {approx_decimal(value)})"


def trace_lines(trace: tuple[tuple[int, Fraction], ...], kv: bool) -> list[str]:
    """The report lines for sampled ``(index, exact partial sum)`` pairs."""
    if kv:
        return [f"trace.{format_rational(n)}={format_rational(s)}" for n, s in trace]
    if not trace:
        return []
    lines = [f"  S_{format_rational(n)} = {format_rational(s)}" for n, s in trace]
    return [f"trace (first {len(trace)}):"] + lines


class RootEstimateReport(_Record):
    """Per-index estimates of ``|a_n|^(1/n)`` plus a limsup proxy.

    Estimates carry the documented relative error bound; the proxy is the
    maximum over the trailing half of the indices and is a diagnostic, not
    a claim about the true limsup. ``implied_radius`` is its reciprocal
    (infinity when the proxy is zero).
    """

    estimates: tuple[tuple[int, float], ...]
    limsup_proxy: float
    implied_radius: float


# ---------------------------------------------------------------------------
# Exact summation
# ---------------------------------------------------------------------------


def _shape_of(stream: CoefficientStream, upto: int):
    """The term shape over ``0..upto``; ``None`` also for ``at``-only streams."""
    shape_of = getattr(stream, "term_shape", None)
    return shape_of(upto) if shape_of is not None else None


def _running_sums(terms, point: EvaluationPoint, first: int = 0):
    """Yield the exact sums of ``a_j * r^j`` over ``first..n`` for each term
    ``a_n`` of ``terms``, which run ``a_first, a_first+1, ...`` (``S_0, S_1,
    ...`` from ``first = 0``), reading each term once, in order, via a running
    power."""
    r = point.r
    total = _ZERO
    power = r ** first
    for a in terms:
        if a:
            total += a * power
        power *= r
        yield total


#: Ranges of at most this many terms are summed by the one-term recurrence.
_LEAF_TERMS = 16

#: The :func:`_split` triple of an empty range.
_EMPTY = (1, 1, 0)


def _split(
    p: tuple[int, int],
    q: tuple[int, int],
    a: int,
    b: int,
    acc: tuple[int, int, int] = _EMPTY,
    keep_p: bool = True,
) -> tuple[int | None, int, int]:
    """Binary splitting of ``[a, b)`` for ``p(j) = p[0]*j + p[1]``, ``q(j) = q[0]*j + q[1]``.

    For ``acc = (P(x, a), Q(x, a), T(x, a))`` returns ``(P(x, b), Q(x, b),
    T(x, b))``, where ``P(x, y)`` and ``Q(x, y)`` are the products of ``p(j)``
    and ``q(j)`` over ``x <= j < y`` and ``T(x, y) = sum(P(x, n) * Q(n, y) for
    x <= n < y)``, so ``T / Q`` sums ``P(x, n) / Q(x, n)``; the default ``acc``
    starts at ``x = a``. Halves merge as ``P1*P2, Q1*Q2, T1*Q2 + P1*T2``, and
    up to ``_LEAF_TERMS`` terms extend ``acc`` by ``P*p(j), Q*q(j), (T + P)*q(j)``
    each. No merge reads the rightmost ``P``, so with ``keep_p`` false it is
    not formed and ``None`` stands in its place.

    A triple may be divided by any common factor. When both forms are
    non-constant (``p[0]`` and ``q[0]`` nonzero, as for ``harmonic``), ``P``
    and ``Q`` are products of nearby integers that share most of their
    primes, so each merge divides its triple (``Q`` and ``T`` on the right
    spine) by their gcd with ``//``, and the sum's parts stay near the size of
    the reduced value: the final ``Fraction(T, Q)`` then costs one gcd on
    operands near the value's size. With a constant form little cancels and
    the gcds would be wasted, so such triples, like the leaf recurrence, take
    none.
    """
    big_p, big_q, big_t = acc
    if b - a <= _LEAF_TERMS:
        (p0, p1), (q0, q1) = p, q
        for j in range(a, b):
            qj = q0 * j + q1
            big_t, big_q = (big_t + big_p) * qj, big_q * qj
            if keep_p or j + 1 < b:
                big_p *= p0 * j + p1
        return (big_p if keep_p else None), big_q, big_t
    m = (a + b) // 2
    cancel = p[0] and q[0]
    whole = _merge(_split(p, q, a, m), _split(p, q, m, b, keep_p=keep_p), cancel)
    return whole if acc == _EMPTY else _merge(acc, whole, cancel)


def _merge(left, right, cancel):
    """The :func:`_split` triple of two adjacent ranges, ``P`` being ``None``
    when ``right``'s is; with ``cancel`` it is divided by its common gcd."""
    (p1, q1, t1), (p2, q2, t2) = left, right
    big_p, big_q, big_t = (None if p2 is None else p1 * p2), q1 * q2, t1 * q2 + p1 * t2
    if cancel:
        g = math.gcd(big_q, big_t) if big_p is None else math.gcd(big_p, big_q, big_t)
        if g != 1:
            big_q, big_t = big_q // g, big_t // g
            big_p = None if big_p is None else big_p // g
    return big_p, big_q, big_t


def _sampled_sums(
    stream: CoefficientStream, point: EvaluationPoint, indices: list[int], first: int = 0
):
    """Yield unreduced ``(k, num, den)``, ``num / den = sum(a_j * r^j for j in
    first..k)`` with ``den > 0`` (``S_k`` from ``first = 0``), for each k of
    the strictly increasing, non-empty ``indices``, none below ``first``. A
    shaped stream reads only ``a_start``, ``start = max(first, shape.start)``:
    the sum is ``T / Q`` for the :func:`_split` triple over ``[start, k + 1)``
    from ``P / Q = a_start * r^start`` and ``T = 0``, extended one segment per
    index, whose merges cancel as :func:`_split` says; the last segment forms
    no ``P``. ``Q`` is positive, as the :class:`TermShape`'s denominator
    form is from ``start`` on. Any other stream is summed term by term from
    ``first``. ``Fraction(num, den)`` reduces a result."""
    shape = _shape_of(stream, indices[-1])
    if shape is None:
        wanted = set(indices)
        terms = map(stream.at, range(first, indices[-1] + 1))
        sums = enumerate(_running_sums(terms, point, first), first)
        yield from ((k, s.numerator, s.denominator) for k, s in sums if k in wanted)
        return
    start, (a, b), (c, d), r = max(first, shape.start), shape.num, shape.den, point.r
    lead = stream.at(start) * r ** start if start <= indices[-1] else _ZERO
    p, q = (a * r.numerator, b * r.numerator), (c * r.denominator, d * r.denominator)
    acc, done = (lead.numerator, lead.denominator, 0), start
    for k in indices:
        if k >= start:  # below start S_k = 0, and T is still 0
            acc, done = _split(p, q, done, k + 1, acc, k != indices[-1]), k + 1
        _, den, num = acc
        yield k, num, den


def partial_sum(stream: CoefficientStream, point: EvaluationPoint, upto: int) -> Fraction:
    """Exact ``sum(a_n * r^n for n in 0..upto)``."""
    if upto < 0:
        raise ValueError("partial sum index must be non-negative")
    ((_, num, den),) = _sampled_sums(stream, point, [upto])
    return Fraction(num, den)


def prefix_sums(stream: CoefficientStream, point: EvaluationPoint, upto: int) -> list[Fraction]:
    """All exact partial sums ``S_0..S_upto`` in one incremental pass."""
    return list(_running_sums(map(stream.at, range(upto + 1)), point))


def effective_partial_sum(
    stream: CoefficientStream,
    point: EvaluationPoint,
    m: int,
    rate: RateFunction,
) -> tuple[Fraction, int]:
    """Sum through the index the rate prescribes for accuracy ``2^-m``.

    Returns ``(S_N, N)``: N is the last index summed, so ``N + 1`` terms
    ``a_0..a_N``. The accuracy guarantee is exactly as honest as the
    supplied rate function; use :func:`check_modulus` to hunt for
    dishonest rates.
    """
    if m < 0:
        raise ValueError("precision exponent must be non-negative")
    upto = _promised_terms(rate, m, point.r)
    return partial_sum(stream, point, upto), upto


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _trace_indices(budget: int) -> list[int]:
    step = max(1, budget // (TRACE_POINTS - 1))
    picks = list(range(0, budget + 1, step))
    if picks[-1] != budget:
        picks.append(budget)
    return picks[:TRACE_POINTS]


def _term_ratios(terms):
    """Yield ``(n, p, q)`` with ``|a_{n+1} / a_n| = p / q`` and ``q > 0``, as
    unreduced cross-products, for every n where both ``a_n`` and ``a_{n+1}``
    of ``terms`` (``a_0, a_1, ...``) are nonzero, in order."""
    for n, (current, nxt) in enumerate(itertools.pairwise(terms)):
        if current and nxt:
            yield n, abs(nxt.numerator) * current.denominator, abs(current.numerator) * nxt.denominator


def _run_start(shape, budget: int, scale_p: int, scale_q: int) -> int | None:
    """The first n of the unbroken run of crossings
    ``|a*n + b| * scale_p >= (c*n + d) * scale_q`` that ends at ``budget``,
    within ``[shape.start, budget]``, or ``None`` when ``budget`` misses.

    A :class:`TermShape`'s numerator form keeps its sign at ``start`` on the
    range and its denominator form is positive there, so a crossing is one
    linear inequality ``A*n + B >= 0``. With ``A > 0`` it fails exactly for
    ``n < ceil(-B/A)``; otherwise it holds on the whole range once it holds
    at ``budget``."""
    (a, b), (c, d), start = shape.num, shape.den, shape.start
    sign = 1 if a * start + b > 0 else -1
    A, B = sign * a * scale_p - c * scale_q, sign * b * scale_p - d * scale_q
    if start > budget or A * budget + B < 0:
        return None
    return max(start, -(B // A)) if A > 0 else start


def ratio_test_probe(
    stream: CoefficientStream,
    point: EvaluationPoint,
    threshold: Fraction,
    budget: int,
) -> SeriesProbeReport:
    """Scan term ratios for a persistent threshold crossing.

    For every n in ``0..budget`` with both ``a_n`` and ``a_{n+1}`` nonzero
    the exact ratio ``|a_{n+1}| * r / |a_n|`` is compared against the
    threshold. The verdict is a divergence witness at the first index from
    which every later sampled ratio (up to the budget) also clears the
    threshold; one large ratio on its own proves nothing. Indices where
    either term vanishes are not sampled and do not interrupt a run.
    A stream with a term shape finds the witness in closed form from its
    ratio, whose numerator keeps one sign and whose denominator is positive
    (:func:`_run_start`); any other is read term by term, each index once.
    Both give the same report.
    """
    threshold = Fraction(threshold)
    if threshold <= 1:
        raise ValueError("threshold must exceed 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    r = point.r
    # |a_{n+1} / a_n| * r >= threshold  <=>  p * rn * td >= q * tn * rd
    scale_p = r.numerator * threshold.denominator
    scale_q = threshold.numerator * r.denominator

    shape = _shape_of(stream, budget + 1)
    # The trace covers the first TRACE_POINTS partial sums only; spanning
    # the whole scan would drag enormous exact sums through streams whose
    # terms explode (factorial tails at small r).
    head = [stream.at(n) for n in range(min(budget + 1, TRACE_POINTS))]
    trace = tuple(enumerate(_running_sums(head, point)))

    # (n, p, q) of the first crossing in the last unbroken run
    start: tuple[int, int, int] | None = None
    if shape is None:
        terms = itertools.chain(head, map(stream.at, range(len(head), budget + 2)))
        for n, p, q in _term_ratios(terms):
            if p * scale_p < q * scale_q:
                start = None
            elif start is None:
                start = (n, p, q)
    else:
        n = _run_start(shape, budget, scale_p, scale_q)
        if n is not None:
            (a, b), (c, d) = shape.num, shape.den
            start = (n, abs(a * n + b), c * n + d)

    if start is None:
        verdict, witness = ConsistentUpToBudget(budget), None
    else:
        index, p, q = start
        ratio = Fraction(p * r.numerator, q * r.denominator)
        verdict = WitnessedDivergence(index=index, ratio=ratio, threshold=threshold)
        witness = (index, ratio)
    return SeriesProbeReport(verdict=verdict, witness=witness, trace=trace, budget_used=budget)


def _root_growth(value: Fraction, n: int) -> float:
    """``|value|^(1/n)`` within ``ROOT_ESTIMATE_RELATIVE_ERROR``."""
    if value == 0:
        return 0.0
    # Each part's top 64 bits and its shift; the shifts cancel as integers.
    num, den = abs(value.numerator), value.denominator
    s, t = max(num.bit_length() - 64, 0), max(den.bit_length() - 64, 0)
    log_mag = math.log(num >> s) - math.log(den >> t) + (s - t) * math.log(2.0)
    try:
        return math.exp(log_mag / n)
    except OverflowError:
        return math.inf


def root_estimate(stream: CoefficientStream, n_max: int) -> RootEstimateReport:
    """Estimate ``|a_n|^(1/n)`` for n in ``1..n_max``.

    Magnitudes are taken from the top 64 bits of each part and the exact
    difference of their shifts, so an estimate in the normal float range is
    within ``ROOT_ESTIMATE_RELATIVE_ERROR`` relatively, one above it is
    ``inf``, and a zero term's is exactly 0. The limsup proxy is the maximum
    over n from ``n_max // 2 + 1`` to ``n_max``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    estimates = tuple(
        (n, _root_growth(stream.at(n), n)) for n in range(1, n_max + 1)
    )
    proxy = max(est for _, est in estimates[n_max // 2:])
    radius = math.inf if proxy == 0.0 else 1.0 / proxy
    return RootEstimateReport(estimates=estimates, limsup_proxy=proxy, implied_radius=radius)


def check_effective_criterion(
    stream: CoefficientStream,
    m_rate: RateFunction,
    radius: Fraction,
    k_max: int,
    n_budget: int,
) -> SeriesProbeReport:
    """Falsify the effective-growth bound ``|a_n|^(1/n) < 1/R + 2^-k``.

    For each k up to ``k_max`` the bound is checked for every n from the
    rate's promised start index up to ``n_budget``. Float estimates only
    screen candidates (none below the normal float range); a violation is
    reported solely when the exact comparison ``|a_n| >= (1/R + 2^-k)^n``
    confirms it, so the certificate re-checks exactly. Consistency is
    falsification-only evidence and proves nothing about effectiveness.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k_max < 0 or n_budget < 1:
        raise ValueError("k_max must be >= 0 and n_budget >= 1")
    estimates = root_estimate(stream, n_budget).estimates  # (n, estimate) for n = 1, 2, ...
    inv_radius = 1 / radius
    verdict, witness = ConsistentUpToBudget(n_budget), None
    for k in range(k_max + 1):
        bound = inv_radius + Fraction(1, 2 ** k)
        # The estimates' error bound holds in the normal float range only: below it, screen nothing.
        bound_f = float(min(bound, 1e308)) if bound >= sys.float_info.min else 0.0
        start = max(_promised_terms(m_rate, k, _ZERO), 1)
        bound_power = bound ** start if start <= n_budget else None
        for n in range(start, n_budget + 1):
            # Screen generously in floats, then confirm exactly.
            if estimates[n - 1][1] * (1 + 1e-6) >= bound_f:
                magnitude = abs(stream.at(n))
                if magnitude >= bound_power:
                    detail = {
                        "k": k,
                        "n": n,
                        "coefficient_abs": magnitude,
                        "bound": bound,
                    }
                    verdict, witness = WitnessedBoundViolation(detail), (n, magnitude)
                    break
            bound_power *= bound
        if witness is not None:
            break
    return SeriesProbeReport(verdict=verdict, witness=witness, trace=(), budget_used=n_budget)


def check_modulus(
    stream: CoefficientStream,
    point: EvaluationPoint,
    claimed_limit: Fraction,
    rate: RateFunction,
    n_max: int,
) -> SeriesProbeReport:
    """Falsify a claimed convergence rate toward a claimed limit.

    For each precision exponent n up to ``n_max`` the partial sum is
    evaluated at the promised index ``e(n)`` and at fixed sample offsets
    beyond it, checking ``|S_k - limit| < 2^-n`` exactly. The first
    failure in (n, offset) order is returned with its exact certificate.
    One pass over the sampled indices, in increasing order, meets every
    check; it holds O(n_max) integers besides the sums.
    """
    claimed_limit = Fraction(claimed_limit)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    promised = [_promised_terms(rate, n, point.r) for n in range(n_max + 1)]
    # One cursor per offset walks the exponents in order of promised index
    # (a stable sort: ties keep exponent order), meeting each check at its index.
    order = sorted(range(n_max + 1), key=promised.__getitem__)
    keys = [promised[n] for n in order]
    last = keys[-1] + MODULUS_SAMPLE_OFFSETS[-1]
    keys.append(-1 - MODULUS_SAMPLE_OFFSETS[-1])  # below every index: it stops each cursor
    cursors = [0] * len(MODULUS_SAMPLE_OFFSETS)
    traced = set(_trace_indices(last))
    indices = sorted(traced.union(k0 + d for k0 in promised for d in MODULUS_SAMPLE_OFFSETS))
    limit_num, limit_den = claimed_limit.numerator, claimed_limit.denominator
    trace = []
    best, failure = n_max + 1, None  # the exponent, then (k, num, den), of the first failure
    for k, num, den in _sampled_sums(stream, point, indices):
        if k in traced:
            trace.append((k, Fraction(num, den)))
        scaled, scale = (num, den) if limit_den == 1 else (num * limit_den, den * limit_den)
        gap = abs(scaled - limit_num * den)
        # The least n with gap << n >= scale, that is |S_k - limit| >= 2^-n as den > 0.
        fails_from = max(scale.bit_length() - gap.bit_length(), 0) if gap else best
        if gap and gap << fails_from < scale:
            fails_from += 1
        for position, offset in enumerate(MODULUS_SAMPLE_OFFSETS):
            i = cursors[position]
            while keys[i] + offset == k:
                n, i = order[i], i + 1
                # An exponent meets its offsets in index order, so the least failing
                # exponent, where it first fails, is first in (n, offset) order.
                if fails_from <= n < best:
                    best, failure = n, (k, num, den)
            cursors[position] = i
    if failure is None:
        verdict, witness = ConsistentUpToBudget(n_max), None
    else:
        k, num, den = failure
        value = Fraction(num, den)
        detail = {
            "precision_exponent": best,
            "terms": k,
            "partial_sum": value,
            "distance": abs(value - claimed_limit),
            "tolerance": Fraction(1, 2 ** best),
        }
        verdict, witness = WitnessedBoundViolation(detail), (k, value)
    return SeriesProbeReport(
        verdict=verdict, witness=witness, trace=tuple(trace), budget_used=n_max
    )
