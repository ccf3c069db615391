import decimal
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from haltseries import (
    CoefficientStream,
    ConsistentUpToBudget,
    EvaluationPoint,
    ExpTailRate,
    ExplicitStream,
    HaltingEncoded,
    LinearRate,
    RateFunction,
    RateUndefinedError,
    SeriesProbeReport,
    TabulatedRate,
    WitnessedBoundViolation,
    WitnessedDivergence,
    builtin_stream,
    check_effective_criterion,
    check_modulus,
    effective_partial_sum,
    parse_rate_spec,
    parse_program,
    partial_sum,
    prefix_sums,
    ratio_test_probe,
    root_estimate,
)

import corpus
from haltseries import series
from haltseries.coefficients import TermShape
from haltseries.series import (
    MODULUS_SAMPLE_OFFSETS,
    _sampled_sums,
    _trace_indices,
)

HALF = EvaluationPoint(Fraction(1, 2))
UNIT = EvaluationPoint(Fraction(1))


def test_evaluation_point_rejects_negative():
    with pytest.raises(ValueError):
        EvaluationPoint(Fraction(-1, 2))


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sum_finite_geometric():
    assert partial_sum(builtin_stream("one"), HALF, 3) == Fraction(15, 8)


def test_partial_sum_zero_stream():
    assert partial_sum(builtin_stream("zero"), UNIT, 50) == 0


def test_partial_sum_factorial_tail():
    # 2! + 3! + 4! at r = 1
    assert partial_sum(builtin_stream("factorial_tail", 2), UNIT, 4) == 32


def test_partial_sum_at_zero_uses_only_the_constant_term():
    stream = ExplicitStream((Fraction(7), Fraction(9)), Fraction(9))
    assert partial_sum(stream, EvaluationPoint(Fraction(0)), 25) == 7


def test_partial_sum_recurrence_on_sampled_streams():
    rng = random.Random(11)
    streams = [
        builtin_stream("harmonic"),
        builtin_stream("alternating"),
        builtin_stream("geometric", Fraction(2, 3)),
        ExplicitStream((Fraction(1, 3), Fraction(-5)), Fraction(1, 7)),
    ]
    points = [HALF, UNIT, EvaluationPoint(Fraction(3, 2))]
    for stream in streams:
        for point in points:
            for _ in range(5):
                n = rng.randint(1, 60)
                lhs = partial_sum(stream, point, n)
                rhs = partial_sum(stream, point, n - 1) + stream.at(n) * point.r ** n
                assert lhs == rhs


def test_prefix_sums_match_partial_sum():
    stream = builtin_stream("harmonic")
    sums = prefix_sums(stream, HALF, 30)
    assert sums[17] == partial_sum(stream, HALF, 17)
    assert len(sums) == 31


class AtOnly:
    """A stream that defines only ``at``: the generic, term-by-term path. It
    records each index read."""

    def __init__(self, stream):
        self.stream, self.reads = stream, []

    def at(self, n):
        self.reads.append(n)
        return self.stream.at(n)


class NegativeRatio(CoefficientStream):
    """``(-1/2)^n`` with its ratio written as ``-1 / 2``: the sign sits above."""

    def at(self, n):
        return Fraction(-1, 2) ** n

    def term_shape(self, upto):
        return TermShape(0, (0, -1), (0, 2))


def sequential_sum(stream, r, upto):
    """The plain reference: one ``a_n * r^n`` addition per index."""
    total = Fraction(0)
    for n in range(upto + 1):
        total += stream.at(n) * r ** n
    return total


halting_streams = st.tuples(corpus.programs(), st.integers(0, 5)).map(
    lambda args: HaltingEncoded(*args)
)
explicit_streams = st.builds(
    lambda prefix, tail: ExplicitStream(tuple(prefix), tail),
    st.lists(st.fractions(-5, 5, max_denominator=7), max_size=6),
    st.fractions(-3, 3, max_denominator=5),
)


@given(
    st.one_of(
        corpus.builtin_streams(),
        halting_streams,
        explicit_streams,
        corpus.builtin_streams().map(AtOnly),
    ),
    st.fractions(0, 3, max_denominator=9),
    st.integers(0, 90),
)
@settings(deadline=None)
def test_partial_sum_matches_the_sequential_sum(stream, r, upto):
    assert partial_sum(stream, EvaluationPoint(r), upto) == sequential_sum(stream, r, upto)


@pytest.mark.parametrize(
    "stream",
    [
        builtin_stream("factorial_tail", 30),  # every tested N below the shape's start
        builtin_stream("geometric", 0),  # no shape
        builtin_stream("alternating"),  # p(n) is negative
        builtin_stream("reciprocal_factorial"),
        AtOnly(builtin_stream("harmonic")),  # duck-typed, at-only
        NegativeRatio(),
    ],
)
@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_partial_sum_edge_streams_match_the_sequential_sum(stream, r):
    for upto in (0, 1, 2, 7, 29, 30, 31, 64):
        assert partial_sum(stream, EvaluationPoint(r), upto) == sequential_sum(stream, r, upto)


def test_partial_sum_on_a_shaped_stream_reads_one_coefficient():
    stream = corpus.Counting(builtin_stream("harmonic"))
    value = partial_sum(stream, UNIT, 10**4)
    assert stream.reads <= 1
    assert value == partial_sum(AtOnly(builtin_stream("harmonic")), UNIT, 10**4)


def resumed_sum(stream, r, first, upto):
    ((k, num, den),) = _sampled_sums(stream, EvaluationPoint(r), [upto], first)
    assert k == upto and den > 0
    return Fraction(num, den)


def difference_of_partial_sums(stream, r, first, upto):
    below = partial_sum(stream, EvaluationPoint(r), first - 1) if first else 0
    return partial_sum(stream, EvaluationPoint(r), upto) - below


@pytest.mark.parametrize(
    "stream, start",
    [
        (builtin_stream("factorial_tail", 5), 5),
        (builtin_stream("harmonic"), 0),
        (HaltingEncoded(parse_program("loop: decjz 0 done\ndecjz 2 loop\ndone: halt"), 3), 8),
        (NegativeRatio(), 0),
    ],
)
@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)])
def test_resumed_sum_is_a_difference_of_partial_sums_on_shaped_streams(stream, start, r):
    assert stream.term_shape(40).start == start
    for first in sorted({0, start - 1, start, start + 1, start + 6} - {-1}):
        for upto in (first, first + 1, first + 9, 40):
            expected = difference_of_partial_sums(stream, r, first, upto)
            assert resumed_sum(stream, r, first, upto) == expected, (first, upto)
            assert resumed_sum(AtOnly(stream), r, first, upto) == expected, (first, upto)


@given(
    st.one_of(corpus.builtin_streams(), halting_streams, explicit_streams),
    st.fractions(0, 3, max_denominator=9),
    st.integers(0, 40),
    st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True),
)
@settings(deadline=None)
def test_resumed_sums_match_differences_of_partial_sums(stream, r, first, offsets):
    indices = sorted(first + k for k in offsets)
    got = list(_sampled_sums(stream, EvaluationPoint(r), indices, first))
    assert [k for k, _, _ in got] == indices
    for k, num, den in got:
        assert den > 0
        assert Fraction(num, den) == difference_of_partial_sums(stream, r, first, k)


def test_resumed_sum_reads_only_the_terms_it_adds():
    stream = corpus.Counting(ExplicitStream((), Fraction(1, 3)))
    assert resumed_sum(stream, Fraction(1), 100, 149) == Fraction(50, 3)
    assert stream.reads == 50
    shaped = corpus.Counting(builtin_stream("harmonic"))
    resumed_sum(shaped, Fraction(1), 100, 10 ** 4)
    assert shaped.reads == 1


class Shaped(CoefficientStream):
    """``a_start * prod((a*j + b) / (c*j + d) for start <= j < n)`` from ``start``
    on, zero below it, with that term shape: any forms :class:`TermShape` takes."""

    def __init__(self, start, lead, num, den):
        self.start, self.lead, self.num, self.den = start, lead, num, den
        self.terms = [lead]  # a_start, a_(start+1), ...

    def at(self, n):
        if n < self.start:
            return Fraction(0)
        (a, b), (c, d) = self.num, self.den
        while len(self.terms) <= n - self.start:
            j = self.start + len(self.terms) - 1
            self.terms.append(self.terms[-1] * Fraction(a * j + b, c * j + d))
        return self.terms[n - self.start]

    def term_shape(self, upto):
        return TermShape(self.start, self.num, self.den)


linear_forms = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def shaped_sums(draw):
    """A shaped stream, a point with large parts, ``first`` and the indices
    after it: runs of consecutive ones, gaps, and segments longer than 16."""
    first = draw(st.integers(0, 40))
    gaps = draw(st.lists(st.sampled_from([1, 1, 2, 5, 16, 17, 40, 97]), min_size=1, max_size=6))
    indices = [first + draw(st.integers(0, 40))]
    for gap in gaps[1:]:
        indices.append(indices[-1] + gap)
    start = draw(st.integers(0, indices[-1] + 5))  # may lie past the last index
    (a, b), (c, d) = num, den = draw(linear_forms), draw(linear_forms)
    p = a * start + b
    assume(p and p * a >= 0 and c * start + d > 0 and c >= 0)  # TermShape's contract
    lead = draw(st.fractions(-50, 50, max_denominator=10**6).filter(bool))
    r = Fraction(draw(st.integers(0, 10**30)), draw(st.integers(1, 10**30)))
    return Shaped(start, lead, num, den), r, first, indices


@given(shaped_sums())
@settings(deadline=None, max_examples=300)
def test_sampled_sums_match_a_running_fraction_sum(case):
    stream, r, first, indices = case
    got = list(_sampled_sums(stream, EvaluationPoint(r), indices, first))
    assert [k for k, _, _ in got] == indices
    total, wanted = Fraction(0), iter(got)
    for j in range(first, indices[-1] + 1):
        total += stream.at(j) * r ** j
        if j in indices:
            k, num, den = next(wanted)
            value = Fraction(num, den)
            assert den > 0 and value == total, (k, first)
            assert (value.numerator, value.denominator) == (total.numerator, total.denominator)
    if first == 0:
        assert partial_sum(stream, EvaluationPoint(r), indices[-1]) == total


#: Indices sampled at once for each N: segments of one term, of up to 16
#: (the one-term recurrence) and longer ones, which merge into the sum so far.
HARMONIC_SAMPLES = {600: [0, 17, 40, 41, 333, 600], 5000: [5, 100, 1200, 1217, 4000, 5000]}


@pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 3), Fraction(7, 5)])
def test_cancelled_harmonic_sums_match_a_running_fraction_sum(r):
    stream, point = builtin_stream("harmonic"), EvaluationPoint(r)
    expected, total, power = {}, Fraction(0), Fraction(1)
    for j in range(max(HARMONIC_SAMPLES) + 1):
        total += Fraction(power, j + 1)
        power *= r
        expected[j] = total
    for upto, indices in HARMONIC_SAMPLES.items():
        assert partial_sum(stream, point, upto) == expected[upto]
        got = list(_sampled_sums(stream, point, indices))
        assert [k for k, _, _ in got] == indices
        for k, num, den in got:
            assert den > 0 and Fraction(num, den) == expected[k], (upto, k)


def test_cancelled_harmonic_sum_holds_operands_near_its_size():
    ((_, num, den),) = _sampled_sums(builtin_stream("harmonic"), UNIT, [20000])
    reduced = Fraction(num, den).denominator
    assert reduced.bit_length() == 28821
    assert den.bit_length() < 2 * reduced.bit_length()


class CountingGcd:
    """Stands in for ``series``' ``math`` module and counts ``gcd`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.calls += 1
        return math.gcd(*args)


@pytest.mark.parametrize(
    "stream, r",
    [
        (builtin_stream("reciprocal_factorial"), Fraction(1)),
        (builtin_stream("reciprocal_factorial"), Fraction(2, 3)),
        (builtin_stream("geometric", Fraction(2, 3)), Fraction(1)),
        (builtin_stream("factorial_tail", 15), Fraction(1, 3)),
        (HaltingEncoded(parse_program("inc 0\ninc 0\nhalt"), 0), Fraction(1, 2)),
        (builtin_stream("alternating"), Fraction(3, 2)),
        (builtin_stream("harmonic"), Fraction(0)),  # p(j) = 0*j + 0 at r = 0
    ],
)
def test_only_shapes_with_two_linear_forms_cancel_as_they_merge(monkeypatch, stream, r):
    counter = CountingGcd()
    monkeypatch.setattr(series, "math", counter)
    partial_sum(stream, EvaluationPoint(r), 5000)
    assert counter.calls == 0  # the final reduction is the Fraction constructor's
    partial_sum(builtin_stream("harmonic"), UNIT, 5000)
    assert counter.calls > 2  # the counter sees the merges that cancel


def quotient_cases():
    """``(q, b)``: quotients and divisors at and next to bit-length edges,
    divisors shorter and longer than their quotients."""
    for k in (1, 2, 7, 64, 65, 200):
        for q in (2**k - 1, 2**k, 2**k + 1):
            for m in (1, 2, 70, 200, 1000):
                yield q, 2**m - 1
                yield q, 2 ** (m - 1) + 2 ** max(m - k - 1, 0) - 1  # b just past a power of 2
    yield 1, 3**500
    yield 3**40, 5**300


@pytest.mark.parametrize(
    "q, b",
    [pytest.param(q, b, id=f"q{q.bit_length()}-b{b.bit_length()}") for q, b in quotient_cases()],
)
def test_exact_quotient_recovers_the_quotient(q, b):
    # (b, b, 0) then (q, 1, ±q) merge to (b*q, b, ±b*q), whose gcd is b: the
    # cancelled merge must divide all three parts by it exactly.
    for sign in (1, -1):
        assert series._merge((b, b, 0), (q, 1, sign * q), True) == (q, 1, sign * q)
        assert series._merge((b, b, 0), (None, 1, sign * q), True) == (None, 1, sign * q)
    assert series._merge((b, b, 0), (1, 1, 1), True) == (1, 1, 1)
    assert series._merge((b, b, 0), (1, 1, 0), True) == (1, 1, 0)


@given(st.integers(-(2**600), 2**600), st.integers(1, 2**900))
@settings(deadline=None)
def test_exact_quotient_matches_floor_division(q, b):
    assert series._merge((b, b, 0), (q, 1, q), True) == (q, 1, q)
    assert series._merge((b, b, 0), (None, 1, q), True) == (None, 1, q)


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------


def test_exp_tail_rate_values():
    rate = ExpTailRate()
    # smallest N with 2 r^(N+1)/(N+1)! < 2^-m, by direct search below
    assert rate.terms_for(10, Fraction(1)) == 6
    assert rate.terms_for(20, Fraction(1)) == 9
    assert rate.terms_for(20, Fraction(1, 2)) == 7
    assert rate.terms_for(5, Fraction(0)) == 0
    for m, r in [(10, Fraction(1)), (20, Fraction(1, 2)), (3, Fraction(1, 3))]:
        n = rate.terms_for(m, r)
        bound = lambda k: 2 * r ** (k + 1) / math.factorial(k + 1)
        assert bound(n) < Fraction(1, 2 ** m)
        if n > 0:
            assert bound(n - 1) >= Fraction(1, 2 ** m)


def test_exp_tail_rate_undefined_past_one():
    with pytest.raises(RateUndefinedError):
        ExpTailRate().terms_for(5, Fraction(3, 2))
    with pytest.raises(RateUndefinedError, match="precision exponent must be non-negative"):
        ExpTailRate().terms_for(-1)


def test_constant_and_linear_rates():
    assert LinearRate(0, 4).terms_for(99) == 4
    assert LinearRate(2, 3).terms_for(5) == 13
    for slope, offset in [(0, -1), (-1, 0)]:
        with pytest.raises(ValueError, match="linear rate coefficients must be non-negative"):
            LinearRate(slope, offset)


def test_tabulated_rate_lookup():
    rate = TabulatedRate(((5, Fraction(1), 10), (10, Fraction(1), 20)))
    assert rate.terms_for(3, Fraction(1, 2)) == 10
    assert rate.terms_for(7, Fraction(1)) == 20
    with pytest.raises(RateUndefinedError):
        rate.terms_for(11, Fraction(1, 2))
    with pytest.raises(RateUndefinedError):
        rate.terms_for(5, Fraction(2))
    for row in [(-1, Fraction(1), 5), (5, Fraction(-1), 5), (5, Fraction(1), -1)]:
        with pytest.raises(ValueError, match="tabulated rate entries must be non-negative"):
            TabulatedRate((row,))


def test_tabulated_rate_is_nondecreasing_in_m():
    rate = TabulatedRate(((2, Fraction(1), 7), (4, Fraction(1), 9), (9, Fraction(1), 30)))
    values = [rate.terms_for(m, Fraction(1)) for m in range(10)]
    assert values == sorted(values)


def test_parse_rate_spec_forms():
    assert isinstance(parse_rate_spec("exp_tail"), ExpTailRate)
    assert parse_rate_spec("constant:5") == LinearRate(0, 5)
    assert parse_rate_spec("linear:1:1") == LinearRate(1, 1)
    table = parse_rate_spec("table:5,1,10;10,1/2,20")
    assert table.terms_for(5, Fraction(1)) == 10
    for bad, message in [
        ("exp_tail:1", "exp_tail takes no parameters"),
        ("constant:x", "expected constant:N"),
        ("linear:1", "expected linear:SLOPE:OFFSET"),
        ("table", "expected table:M,RBOUND,N"),
        ("table:1,2", "bad table row"),
        ("table:1,1/0,5", "invalid rational"),
        ("wat", "unknown rate kind"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_rate_spec(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("constant:²", "expected constant:N"),
        ("linear:²:1", "expected linear:SLOPE:OFFSET"),
        ("linear:1:²", "expected linear:SLOPE:OFFSET"),
        ("table:²,1,5", "bad table row"),
        ("table:5,1,²", "bad table row"),
    ],
)
def test_parse_rate_spec_rejects_non_decimal_digits(text, message):
    # "²" passes str.isdigit but not int(); each form keeps its own message
    with pytest.raises(ValueError, match=message):
        parse_rate_spec(text)


# ---------------------------------------------------------------------------
# rate-driven evaluation
# ---------------------------------------------------------------------------


def test_effective_partial_sum_exp_series():
    stream = builtin_stream("reciprocal_factorial")
    for m in (1, 5, 10, 20):
        for point in (EvaluationPoint(Fraction(0)), HALF, UNIT):
            value, terms = effective_partial_sum(stream, point, m, ExpTailRate())
            oracle = partial_sum(stream, point, terms + 500)
            assert abs(value - oracle) < Fraction(1, 2 ** m)


def test_effective_partial_sum_reports_terms_used():
    stream = builtin_stream("reciprocal_factorial")
    value, terms = effective_partial_sum(stream, UNIT, 10, ExpTailRate())
    assert terms == 6
    assert value == partial_sum(stream, UNIT, 6)


def test_effective_partial_sum_zero_stream_is_exact():
    value, _ = effective_partial_sum(builtin_stream("zero"), UNIT, 30, LinearRate(0, 0))
    assert value == 0


def test_effective_partial_sum_propagates_rate_domain_errors():
    with pytest.raises(RateUndefinedError):
        effective_partial_sum(
            builtin_stream("reciprocal_factorial"),
            EvaluationPoint(Fraction(2)),
            5,
            ExpTailRate(),
        )


# ---------------------------------------------------------------------------
# ratio probe
# ---------------------------------------------------------------------------


def test_ratio_probe_factorial_tail_witness():
    # ratios are (n+1)/10; they first reach 2 at n = 19 and keep growing
    stream = builtin_stream("factorial_tail", 5)
    report = ratio_test_probe(stream, EvaluationPoint(Fraction(1, 10)), Fraction(2), 100)
    assert isinstance(report.verdict, WitnessedDivergence)
    assert report.verdict.index == 19
    assert report.verdict.ratio == 2
    assert report.witness == (19, Fraction(2))


def test_ratio_probe_zero_stream_has_nothing_to_sample():
    report = ratio_test_probe(builtin_stream("zero"), UNIT, Fraction(2), 100)
    assert report.verdict == ConsistentUpToBudget(100)
    assert report.witness is None


def test_ratio_probe_constant_ratio_below_threshold():
    report = ratio_test_probe(builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(2), 100)
    assert report.verdict == ConsistentUpToBudget(100)


def test_ratio_probe_single_spike_is_not_a_witness():
    # one ratio of 10 followed by tame ratios must not count
    stream = ExplicitStream((Fraction(1), Fraction(10), Fraction(1)), Fraction(1))
    report = ratio_test_probe(stream, UNIT, Fraction(2), 50)
    assert isinstance(report.verdict, ConsistentUpToBudget)


def test_ratio_probe_on_a_shapeless_splice_witnesses_nothing():
    # nonzero, gap of zeros, then persistently growing tail
    stream = ExplicitStream(
        (Fraction(1), Fraction(3), Fraction(0), Fraction(0)), Fraction(0)
    )
    spiky = builtin_stream("factorial_tail", 10)

    class Spliced:
        def at(self, n):
            return stream.at(n) if n < 10 else spiky.at(n)

    # The splice diverges, but it has no term shape, and no read within the
    # budget proves that its ratios keep clearing the threshold past it.
    report = ratio_test_probe(Spliced(), UNIT, Fraction(2), 60)
    assert report.verdict == ConsistentUpToBudget(60)


def test_ratio_probe_witness_recheck_from_scratch():
    stream = builtin_stream("factorial_tail", 5)
    point = EvaluationPoint(Fraction(1, 10))
    report = ratio_test_probe(stream, point, Fraction(2), 100)
    n = report.verdict.index
    ratio = abs(stream.at(n + 1)) * point.r / abs(stream.at(n))
    assert ratio == report.verdict.ratio
    assert ratio >= report.verdict.threshold
    for later in range(n, 100 + 1):
        a, b = stream.at(later), stream.at(later + 1)
        if a != 0 and b != 0:
            assert abs(b) * point.r / abs(a) >= report.verdict.threshold


thresholds = st.fractions(1, 5, max_denominator=9).filter(lambda t: t > 1)


@st.composite
def shaped_cases(draw, max_budget):
    """``(Shaped stream, point, threshold, budget)``. Each form is
    ``k * (2a*n + e - 2a*m)``, never zero at an integer, with its sign change,
    if any, near an m drawn just below ``start``, so that it keeps one sign
    from ``start`` on. The numerator's leading coefficient has any sign or is
    zero; the denominator's is not negative, and a constant denominator is
    positive. Starts run past the budget. Half the cases put a tie at some n:
    the ratio there times r is the threshold exactly."""
    budget = draw(st.integers(1, max_budget))
    start = draw(st.integers(0, budget + 3))

    def form(a):
        e, k = draw(st.sampled_from((-1, 1))), draw(st.integers(1, 3))
        m = draw(st.integers(start - 3, start - 1))
        return 2 * a * k, (e - 2 * a * m) * k

    num, (c, d) = form(draw(st.integers(-4, 4))), form(draw(st.integers(0, 4)))
    den = c, d if c else abs(d)
    lead = draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
    threshold, r = draw(thresholds), draw(st.fractions(0, 4, max_denominator=9))
    if draw(st.booleans()):
        n = draw(st.integers(start, max(start, budget)))
        r = threshold * abs(den[0] * n + den[1]) / abs(num[0] * n + num[1])
    return Shaped(start, lead, num, den), EvaluationPoint(r), threshold, budget


@given(
    st.one_of(
        st.tuples(
            st.one_of(
                corpus.builtin_streams(),
                st.tuples(corpus.programs(), st.integers(0, 5)).map(
                    lambda args: HaltingEncoded(*args)
                ),
            ),
            st.fractions(0, 4, max_denominator=9).map(EvaluationPoint),
            thresholds,
            st.integers(1, 80),
        ),
        shaped_cases(80),
    )
)
@settings(max_examples=200, deadline=None)
def test_ratio_probe_on_an_at_only_copy_witnesses_nothing(case):
    # Without the shape nothing proves a crossing past the budget, so there is
    # no witness; the trace is the same, read through `at` in both.
    stream, point, threshold, budget = case
    shaped = ratio_test_probe(stream, point, threshold, budget)
    generic = ratio_test_probe(AtOnly(stream), point, threshold, budget)
    text, kv = shaped.to_text(), shaped.to_kv()
    assert generic.to_text() == (
        f"verdict: CONSISTENT_UP_TO_BUDGET\nbudget: {budget}\n" + text[text.index("trace ("):]
    )
    assert generic.to_kv() == (
        f"verdict=CONSISTENT_UP_TO_BUDGET\nbudget={budget}\n" + kv[kv.index("trace."):]
    )


def crosses_in_the_limit(shape, point, threshold):
    """Whether ``|a_{n+1} / a_n| * r >= threshold`` for every large n, from
    the shape's forms alone: for large n, ``|a*n + b|`` is ``a*n + b`` times
    the sign of its leading nonzero coefficient and ``c*n + d`` is positive,
    so the crossing's slope decides, and at slope 0 its constant."""
    (a, b), (c, d), r = shape.num, shape.den, point.r
    scale_p, scale_q = r.numerator * threshold.denominator, threshold.numerator * r.denominator
    sign = 1 if (a, b) > (0, 0) else -1
    return (sign * a * scale_p - c * scale_q, sign * b * scale_p - d * scale_q) >= (0, 0)


def scanned_witness(shape, point, threshold, budget):
    """The shaped scan the closed form replaced, kept as its reference: the
    first ``(n, ratio)`` of the last unbroken run of crossings, or ``None``,
    and ``None`` too when the crossing fails in the limit."""
    (a, b), (c, d), r = shape.num, shape.den, point.r
    scale_p, scale_q = r.numerator * threshold.denominator, threshold.numerator * r.denominator
    run = None
    for n in range(shape.start, budget + 1):
        p, q = abs(a * n + b), abs(c * n + d)
        if p * scale_p < q * scale_q:
            run = None
        elif run is None:
            run = (n, Fraction(p, q) * r)
    return run if crosses_in_the_limit(shape, point, threshold) else None


@given(shaped_cases(10 ** 4))
@settings(max_examples=300, deadline=None)
# One case per branch of the closed form, A*n + B >= 0 being a crossing:
# A > 0 and a run from ceil(-B/A) = 2 past start, where floor(-B/A) = 1;
# A == 0 and a tie at every n; A < 0 and a tie at the budget, then a run of
# crossings from start to the budget; a miss at the budget.
@example((Shaped(0, Fraction(1), (2, 1), (0, 1)), HALF, Fraction(2), 9))
@example((Shaped(1, Fraction(-3), (2, 0), (1, 0)), UNIT, Fraction(2), 12))
@example((Shaped(0, Fraction(1), (1, 20), (1, 1)), UNIT, Fraction(3, 2), 37))
@example((Shaped(0, Fraction(1), (1, 20), (1, 1)), UNIT, Fraction(3, 2), 30))
@example((Shaped(0, Fraction(1), (1, 20), (1, 1)), UNIT, Fraction(3, 2), 38))
def test_ratio_probe_closed_form_matches_the_scan(case):
    stream, point, threshold, budget = case
    report = ratio_test_probe(stream, point, threshold, budget)
    assert report.witness == scanned_witness(stream.term_shape(budget), point, threshold, budget)
    if report.witness is None:
        assert report.verdict == ConsistentUpToBudget(budget)
    else:
        assert (report.verdict.index, report.verdict.ratio) == report.witness


@given(shaped_cases(200))
@settings(max_examples=300, deadline=None)
# A < 0: the crossing holds from start through the budget and fails later.
@example((Shaped(0, Fraction(1), (0, 1), (1, 1)), EvaluationPoint(100), Fraction(2), 30))
# A == 0 at a tie, and A > 0 from index 2 on.
@example((Shaped(1, Fraction(-3), (2, 0), (1, 0)), UNIT, Fraction(2), 12))
@example((Shaped(0, Fraction(1), (2, 1), (0, 1)), HALF, Fraction(2), 9))
def test_ratio_probe_witness_holds_to_the_budget_and_in_the_limit(case):
    stream, point, threshold, budget = case
    report = ratio_test_probe(stream, point, threshold, budget)
    if report.witness is None:
        return
    index = report.verdict.index
    assert abs(stream.at(index + 1)) * point.r / abs(stream.at(index)) == report.verdict.ratio
    for n in range(index, budget + 1):
        a, b = stream.at(n), stream.at(n + 1)
        assert a != 0 and abs(b) * point.r >= threshold * abs(a), n
    assert crosses_in_the_limit(stream.term_shape(budget), point, threshold)


@pytest.mark.parametrize("budget", [1, 18, 19, 20, 21, 100])
@pytest.mark.parametrize("stream", [builtin_stream("harmonic"), builtin_stream("factorial_tail", 3),
                                    builtin_stream("geometric", Fraction(-3, 2))])
def test_ratio_probe_reads_each_index_of_an_at_only_stream_once(stream, budget):
    # The probe reads a_0 .. a_min(budget, 19), for the trace, and nothing else.
    counted = AtOnly(stream)
    report = ratio_test_probe(counted, HALF, Fraction(2), budget)
    assert counted.reads == list(range(min(budget + 1, 20)))
    assert report.verdict == ConsistentUpToBudget(budget)
    assert report.trace == ratio_test_probe(stream, HALF, Fraction(2), budget).trace


@pytest.mark.parametrize("budget", [30, 60])
def test_ratio_probe_on_reciprocal_factorial_witnesses_nothing(budget):
    # e^z: the ratio is 100/(n + 1), which clears 2 up to n = 49 and then never again.
    stream = builtin_stream("reciprocal_factorial")
    report = ratio_test_probe(stream, EvaluationPoint(100), Fraction(2), budget)
    assert report.verdict == ConsistentUpToBudget(budget)


@pytest.mark.parametrize(
    "stream, r, threshold",
    [
        # scaled ratios 3, 2, 3, 3/2, 3, then a zero tail that no budget samples
        (ExplicitStream(tuple(map(Fraction, (3, -3, 2, -2, 1, -1))), Fraction(0)), 3,
         Fraction(3, 2)),
        # 32 terms 4^n over a zero tail: every ratio is 4 * 1/2 = 2
        (ExplicitStream(tuple(Fraction(4) ** n for n in range(32)), Fraction(0)), Fraction(1, 2),
         Fraction(2)),
    ],
)
@pytest.mark.parametrize("budget", [30, 10 ** 6])
def test_ratio_probe_on_a_polynomial_witnesses_nothing(stream, r, threshold, budget):
    report = ratio_test_probe(stream, EvaluationPoint(r), threshold, budget)
    assert report.verdict == ConsistentUpToBudget(budget)


def test_sums_and_probes_reject_out_of_range_bounds():
    one, rate = builtin_stream("one"), LinearRate(0, 1)
    for call, message in [
        (lambda: partial_sum(one, UNIT, -1), "partial sum index must be non-negative"),
        (lambda: effective_partial_sum(one, UNIT, -1, rate), "precision exponent must be non-negative"),
        (lambda: root_estimate(one, 0), "n_max must be at least 1"),
        (lambda: check_effective_criterion(one, rate, Fraction(1), -1, 10), "k_max must be >= 0"),
        (lambda: check_effective_criterion(one, rate, Fraction(1), 0, 0), "n_budget >= 1"),
        (lambda: check_modulus(one, UNIT, Fraction(0), rate, -1), "n_max must be non-negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()


def test_ratio_probe_validates_inputs():
    with pytest.raises(ValueError):
        ratio_test_probe(builtin_stream("one"), UNIT, Fraction(1), 10)
    with pytest.raises(ValueError):
        ratio_test_probe(builtin_stream("one"), UNIT, Fraction(2), 0)


# ---------------------------------------------------------------------------
# root estimates
# ---------------------------------------------------------------------------


def test_root_estimate_zero_stream():
    report = root_estimate(builtin_stream("zero"), 100)
    assert all(est == 0.0 for _, est in report.estimates)
    assert report.limsup_proxy == 0.0
    assert report.implied_radius == math.inf


def test_root_estimate_factorial_growth():
    report = root_estimate(builtin_stream("factorial_tail", 0), 50)
    ests = dict(report.estimates)
    # independent check through lgamma at the last index
    oracle = math.exp(math.lgamma(51) / 50)
    assert abs(ests[50] - oracle) <= 1e-9 * oracle
    assert ests[50] > 10
    values = [est for _, est in report.estimates]
    assert values == sorted(values)  # factorial roots grow monotonically
    crossing = min(n for n, est in report.estimates if est > 10)
    assert crossing < 50


def test_root_estimate_geometric_is_exact_within_tolerance():
    for ratio in (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        report = root_estimate(builtin_stream("geometric", ratio), 200)
        for n, est in report.estimates:
            assert abs(est - float(ratio)) <= 1e-9 * float(ratio), (ratio, n)
    half = root_estimate(builtin_stream("geometric", Fraction(1, 2)), 100)
    assert abs(half.implied_radius - 2.0) <= 1e-8


def test_root_estimate_handles_huge_magnitudes():
    report = root_estimate(builtin_stream("factorial_tail", 0), 3000)
    est = dict(report.estimates)[3000]
    oracle = math.exp(math.lgamma(3001) / 3000)
    assert abs(est - oracle) <= 1e-9 * oracle


def test_root_estimate_proxy_is_the_maximum_over_the_trailing_half():
    stream = ExplicitStream((Fraction(0), Fraction(100), Fraction(1), Fraction(1)))
    first = root_estimate(stream, 1)
    assert first.limsup_proxy == first.estimates[0][1] > 99
    assert root_estimate(stream, 3).limsup_proxy == 1.0  # n = 2, 3


def test_root_estimate_meets_its_bound_where_the_parts_sizes_cancel():
    # a_1 = 3 + 2^-M: each part's log is about 0.69·M, and rounded apart
    # their difference was off by 2.5e-9 relatively.
    m = 25_165_829
    stream = ExplicitStream((Fraction(0), Fraction(3 * 2 ** m + 1, 2 ** m)))
    ((_, est),) = root_estimate(stream, 1).estimates
    assert abs(est - 3) <= series.ROOT_ESTIMATE_RELATIVE_ERROR * 3


def _decimal_root_growth(value, n):
    """``|value|^(1/n)`` to 40 digits through ``Decimal.ln`` and ``exp``."""
    with decimal.localcontext(decimal.Context(prec=40, Emax=10 ** 6, Emin=-10 ** 6)) as ctx:
        num, den = (ctx.create_decimal(abs(part)) for part in value.as_integer_ratio())
        return ((num.ln() - den.ln()) / n).exp()


def _part(draw, rng):
    """A positive integer of up to 10^5 bits, often of at most 64 or over
    5·10^4."""
    bits = draw(st.one_of(st.integers(1, 64), st.integers(65, 10 ** 5), st.integers(5 * 10 ** 4, 10 ** 5)))
    return rng.getrandbits(bits) | 1 << (bits - 1)


@st.composite
def root_growth_cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    den = _part(draw, rng)
    if draw(st.booleans()):
        num = _part(draw, rng)
    else:  # near a small multiple of the denominator: the parts' sizes cancel
        num = max(den * draw(st.integers(1, 1000)) + draw(st.integers(-10 ** 6, 10 ** 6)), 1)
    n = draw(st.one_of(st.integers(1, 100), st.integers(1, 10 ** 5)))
    return Fraction(draw(st.sampled_from([1, -1])) * num, den), n


@settings(max_examples=300, deadline=None)
@given(root_growth_cases())
def test_root_growth_meets_its_bound_against_a_decimal_reference(case):
    value, n = case
    est, ref = series._root_growth(value, n), _decimal_root_growth(value, n)
    if decimal.Decimal(sys.float_info.min) <= ref <= decimal.Decimal(sys.float_info.max):
        assert abs(decimal.Decimal(est) - ref) <= decimal.Decimal(series.ROOT_ESTIMATE_RELATIVE_ERROR) * ref
    num, den = abs(value.numerator), value.denominator
    if max(num.bit_length(), den.bit_length()) <= 64:
        assert est == math.exp((math.log(num) - math.log(den)) / n)


# ---------------------------------------------------------------------------
# effective-growth falsification
# ---------------------------------------------------------------------------


def test_effective_criterion_flat_series_is_consistent():
    report = check_effective_criterion(
        builtin_stream("one"), LinearRate(0, 1), Fraction(1), 20, 500
    )
    assert report.verdict == ConsistentUpToBudget(500)


def test_effective_criterion_factorial_violation_is_exact():
    report = check_effective_criterion(
        builtin_stream("factorial_tail", 0), LinearRate(0, 1), Fraction(1), 5, 100
    )
    assert isinstance(report.verdict, WitnessedBoundViolation)
    detail = report.verdict.detail
    # first scan hit: k = 0 gives bound 2, and 4! = 24 >= 2^4 = 16
    assert (detail["k"], detail["n"]) == (0, 4)
    assert detail["coefficient_abs"] == 24
    assert detail["coefficient_abs"] >= detail["bound"] ** detail["n"]


def test_effective_criterion_zero_stream_consistent():
    report = check_effective_criterion(
        builtin_stream("zero"), LinearRate(0, 0), Fraction(1000), 10, 200
    )
    assert report.verdict == ConsistentUpToBudget(200)


def test_effective_criterion_holds_no_second_table_of_estimates():
    # a dict of the 20,000 root estimates beside their tuple took 38% more
    def peak(call):
        tracemalloc.start()
        try:
            report = call()
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, n = builtin_stream("one"), 20_000
    report, checked = peak(lambda: check_effective_criterion(one, LinearRate(0, 1), Fraction(1), 0, n))
    _, estimated = peak(lambda: root_estimate(one, n))
    assert report.verdict == ConsistentUpToBudget(n)
    assert checked < 1.1 * estimated


def test_effective_criterion_reads_only_the_terms_its_screen_reaches():
    # k = 0 screens a_1 .. a_4 and confirms a_4: five reads, at any budget.
    stream = corpus.Counting(builtin_stream("factorial_tail", 0))
    report = check_effective_criterion(stream, LinearRate(0, 1), Fraction(1), 20, 40_000)
    assert (report.verdict.detail["k"], report.verdict.detail["n"]) == (0, 4)
    assert stream.reads == 5


def test_effective_criterion_respects_rate_start_index():
    # starting the scan past the only violation hides it
    stream = ExplicitStream((Fraction(1), Fraction(50)), Fraction(0))
    hit = check_effective_criterion(stream, LinearRate(0, 1), Fraction(1), 0, 30)
    assert isinstance(hit.verdict, WitnessedBoundViolation)
    assert hit.verdict.detail["n"] == 1
    missed = check_effective_criterion(stream, LinearRate(0, 2), Fraction(1), 0, 30)
    assert isinstance(missed.verdict, ConsistentUpToBudget)


def scanned_violation(stream, rate, radius, k_max, n_budget):
    """The effective-growth probe written plainly, with no float screen: the
    first (k, n) whose exact comparison ``|a_n| >= (1/R + 2^-k)^n`` holds."""
    for k in range(k_max + 1):
        bound = 1 / radius + Fraction(1, 2 ** k)
        for n in range(max(rate.terms_for(k), 1), n_budget + 1):
            if abs(stream.at(n)) >= bound ** n:
                return k, n
    return None


#: 1/R = (2049 + 1/2) * 2^-1074 lies between two subnormal floats, and
#: a_1 = 1/R + 2^-1200 ties the bound at k = 1200.
SUBNORMAL_MID = Fraction(2 * 2049 + 1, 2 ** 1075)


@st.composite
def effective_ties(draw):
    """An explicit stream whose a_n are zeros and exact ties
    ``(1/R + 2^-k)^n``, with 1/R in the normal float range, at the midpoint
    of two subnormal floats, or above 1e308."""
    inv_radius = draw(st.one_of(
        st.builds(lambda p, e: p * Fraction(2) ** e,
                  st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-1074, 970)),
        # A small m, where one float step is a large relative error.
        st.integers(0, 2 ** 20).map(lambda m: Fraction(2 * m + 1, 2 ** 1075)),
        st.builds(lambda p, e: Fraction(p * 2 ** e), st.integers(1, 2 ** 60), st.integers(1024, 1100)),
    ))
    n_budget = draw(st.integers(1, 3))
    # k past 1074 moves a subnormal bound by less than one float step.
    ks = draw(st.lists(st.one_of(st.none(), st.integers(0, 1205), st.integers(1070, 1205)),
                       min_size=n_budget, max_size=n_budget))
    prefix = [Fraction(0)] + [Fraction(0) if k is None else (inv_radius + Fraction(1, 2 ** k)) ** n
                              for n, k in enumerate(ks, 1)]
    k_max = max((k for k in ks if k is not None), default=0) + draw(st.integers(-1, 2))
    rate = LinearRate(0, draw(st.integers(0, 2)))
    return ExplicitStream(tuple(prefix)), rate, 1 / inv_radius, max(k_max, 0), n_budget


@given(effective_ties())
@settings(max_examples=100, deadline=None)
@example((ExplicitStream((0, SUBNORMAL_MID + Fraction(1, 2 ** 1200))), LinearRate(0, 1),
          1 / SUBNORMAL_MID, 1205, 1))
def test_effective_criterion_matches_an_unscreened_scan(case):
    stream, rate, radius, k_max, n_budget = case
    report = check_effective_criterion(stream, rate, radius, k_max, n_budget)
    expected = scanned_violation(stream, rate, radius, k_max, n_budget)
    if expected is None:
        assert report.verdict == ConsistentUpToBudget(n_budget)
    else:
        k, n = expected
        assert (report.verdict.detail["k"], report.verdict.detail["n"]) == (k, n)
        assert report.witness == (n, abs(stream.at(n)))


# ---------------------------------------------------------------------------
# rate falsification
# ---------------------------------------------------------------------------


def test_check_modulus_zero_stream_consistent():
    report = check_modulus(
        builtin_stream("zero"), UNIT, Fraction(0), LinearRate(0, 0), 30
    )
    assert report.verdict == ConsistentUpToBudget(30)


def test_check_modulus_honest_rate_for_dyadic_geometric():
    # S_k = 2 - 2^-k, so e(n) = n + 1 terms always land within 2^-n
    report = check_modulus(
        builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(2), LinearRate(1, 1), 20
    )
    assert report.verdict == ConsistentUpToBudget(20)


def test_check_modulus_dishonest_rate_is_caught_exactly():
    report = check_modulus(
        builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(2), LinearRate(0, 0), 5
    )
    assert isinstance(report.verdict, WitnessedBoundViolation)
    detail = report.verdict.detail
    assert detail["partial_sum"] == 1  # S_0
    assert detail["distance"] == 1
    assert detail["distance"] >= detail["tolerance"]
    # certificate re-checks from scratch
    sums = prefix_sums(builtin_stream("geometric", Fraction(1, 2)), UNIT, detail["terms"])
    assert abs(sums[detail["terms"]] - 2) == detail["distance"]


def test_equal_probe_reports_compare_and_hash_equal():
    # Reports are records: they compare by their fields, not by identity.
    args = (builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(2), LinearRate(0, 0), 5)
    failed = check_modulus(*args)
    assert isinstance(failed.verdict, WitnessedBoundViolation)
    assert check_modulus(*args) == failed
    with pytest.raises(TypeError):
        hash(failed)  # the verdict's detail is a dict, as in a frozen dataclass
    zero = builtin_stream("zero")
    first, again = (check_modulus(zero, UNIT, Fraction(0), LinearRate(0, 0), 30) for _ in range(2))
    assert first.verdict == ConsistentUpToBudget(30)
    assert first == again and hash(first) == hash(again)


def test_check_modulus_wrong_limit_is_caught():
    report = check_modulus(
        builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(3), LinearRate(1, 1), 10
    )
    assert isinstance(report.verdict, WitnessedBoundViolation)


class Zigzag(RateFunction):
    """Promised indices taken in turn from ``values``, which may go down as well as up."""

    def __init__(self, values):
        self.values = tuple(values)

    def terms_for(self, m, r=Fraction(0)):
        return self.values[m % len(self.values)]


def reference_check_modulus(stream, point, claimed_limit, rate, n_max):
    """The modulus probe written plainly: every prefix sum held in a list,
    scanned in (n, offset) order, first failure returned."""
    claimed_limit = Fraction(claimed_limit)
    promised = [rate.terms_for(n, point.r) for n in range(n_max + 1)]
    max_k = max(k0 + MODULUS_SAMPLE_OFFSETS[-1] for k0 in promised)
    sums = prefix_sums(stream, point, max_k)
    trace = tuple((k, sums[k]) for k in _trace_indices(max_k))
    for n in range(n_max + 1):
        tolerance = Fraction(1, 2 ** n)
        for offset in MODULUS_SAMPLE_OFFSETS:
            k = promised[n] + offset
            distance = abs(sums[k] - claimed_limit)
            if distance >= tolerance:
                detail = {
                    "precision_exponent": n,
                    "terms": k,
                    "partial_sum": sums[k],
                    "distance": distance,
                    "tolerance": tolerance,
                }
                return SeriesProbeReport(
                    verdict=WitnessedBoundViolation(detail),
                    witness=(k, sums[k]),
                    trace=trace,
                    budget_used=n_max,
                )
    return SeriesProbeReport(
        verdict=ConsistentUpToBudget(n_max), witness=None, trace=trace, budget_used=n_max
    )


def modulus_outcome(probe, *args):
    try:
        report = probe(*args)
    except RateUndefinedError as exc:
        return "undefined", str(exc)
    return report.to_text(), report.to_kv()


rates = st.one_of(
    st.integers(0, 20).map(lambda n: LinearRate(0, n)),
    st.builds(LinearRate, st.integers(0, 3), st.integers(0, 10)),
    st.lists(
        st.tuples(st.integers(0, 12), st.fractions(0, 3, max_denominator=4), st.integers(0, 30)),
        min_size=1,
        max_size=4,
    ).map(lambda rows: TabulatedRate(tuple(rows))),
    st.lists(st.integers(0, 40), min_size=1, max_size=6).map(Zigzag),
    # Promised indices a sample offset apart, so that checks of several
    # exponents and offsets share one index (1 + 16 = 17 + 0, 16 + 16 = 32 + 0, ...).
    st.lists(st.sampled_from((0, 1, 2, 3, 4, 8, 16, 17, 32, 33)), min_size=1, max_size=12).map(Zigzag),
)


@given(
    st.one_of(corpus.builtin_streams(), explicit_streams),
    st.fractions(0, 3, max_denominator=9),
    st.fractions(-3, 3, max_denominator=16),
    rates,
    st.integers(0, 120),
)
@settings(deadline=None)
def test_check_modulus_matches_the_reference_probe(stream, r, limit, rate, n_max):
    args = (stream, EvaluationPoint(r), limit, rate, n_max)
    assert modulus_outcome(check_modulus, *args) == modulus_outcome(reference_check_modulus, *args)


@pytest.mark.parametrize(
    "stream, limit, rate, n_max, failure",
    [
        # S_0 = 1 is already a whole unit away from 100
        (builtin_stream("geometric", Fraction(1, 2)), Fraction(100), LinearRate(1, 1), 8, (0, 1)),
        # |S_k - limit| = 2^-k + 2^-20 first reaches 2^-n at n = 19, k = n + 1
        (builtin_stream("geometric", Fraction(1, 2)), 2 + Fraction(1, 2**20), LinearRate(1, 1), 24,
         (19, 20)),
        (builtin_stream("geometric", Fraction(1, 2)), Fraction(2), LinearRate(1, 1), 30, None),
        # k = 0 fails first in index order (n = 3), but n = 2 fails at k = 10
        (builtin_stream("geometric", Fraction(1, 2)), Fraction(9, 4), Zigzag((10, 10, 10, 0)), 5,
         (2, 10)),
        # |S_4 - 7/5| = 43/80 >= 1/2: n = 2 fails at k = 4, its first offset, and
        # n = 1 at k = 4, its fourth; the smaller exponent wins
        (builtin_stream("geometric", Fraction(1, 2)), Fraction(7, 5), Zigzag((0, 0, 4)), 2, (1, 4)),
        # n = 1 fails at k = 0, its first offset, and again at k = 1, where S_1 lies
        # further out; the first offset it fails at holds
        (ExplicitStream((Fraction(3, 5), Fraction(3, 5), Fraction(-11, 10)), Fraction(0)),
         Fraction(0), Zigzag((2, 0)), 1, (1, 0)),
        (ExplicitStream((Fraction(1), Fraction(-1, 2)), Fraction(0)), Fraction(1, 2),
         Zigzag((4, 1, 2)), 9, None),
        (builtin_stream("zero"), Fraction(0), LinearRate(0, 0), 12, None),
        # S_k - 2/3 = -(-1/2)^(k+1) * 2/3 alternates in sign, as its shape's numerator is negative
        (NegativeRatio(), Fraction(2, 3), LinearRate(1, 0), 16, None),
        (NegativeRatio(), Fraction(2, 3), LinearRate(0, 3), 16, (5, 3)),
        # An integer limit: |S_3 - 2| = 1/8 first reaches 2^-n at n = 3
        (builtin_stream("geometric", Fraction(1, 2)), Fraction(2), Zigzag((3,)), 6, (3, 3)),
        # A non-integer limit: |S_n - 3/2| = 3^-n / 2 stays below 2^-n
        (builtin_stream("geometric", Fraction(1, 3)), Fraction(3, 2), LinearRate(1, 0), 40, None),
    ],
)
def test_check_modulus_fails_first_late_or_never_like_the_reference(
    stream, limit, rate, n_max, failure
):
    report = check_modulus(stream, UNIT, limit, rate, n_max)
    expected = reference_check_modulus(stream, UNIT, limit, rate, n_max)
    assert (report.to_text(), report.to_kv()) == (expected.to_text(), expected.to_kv())
    if failure is None:
        assert isinstance(report.verdict, ConsistentUpToBudget)
    else:
        detail = report.verdict.detail
        assert (detail["precision_exponent"], detail["terms"]) == failure


def test_check_modulus_on_a_shaped_stream_reads_one_coefficient():
    stream = corpus.Counting(builtin_stream("geometric", Fraction(2, 3)))
    report = check_modulus(stream, UNIT, Fraction(3), LinearRate(2, 4), 2000)
    assert stream.reads <= 1
    assert isinstance(report.verdict, ConsistentUpToBudget)


def test_check_modulus_holds_no_table_of_its_checks():
    # 7 * 3001 checks over about 6,000 indices: a table of them took 2.65 MB
    stream = builtin_stream("geometric", Fraction(2, 3))
    tracemalloc.start()
    try:
        report = check_modulus(stream, UNIT, Fraction(3), LinearRate(2, 4), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(report.verdict, ConsistentUpToBudget)
    assert peak < 1_500_000


@pytest.mark.parametrize(
    "stream",
    [builtin_stream("one"), builtin_stream("geometric", Fraction(1, 2)),
     ExplicitStream((Fraction(1), Fraction(1, 2)), Fraction(0))],
)
@pytest.mark.parametrize("terms, why", [(-5, "negative"), (Fraction(5, 2), "not an integer")])
def test_a_promised_index_must_be_a_natural_number(stream, terms, why):
    rate = Zigzag((3, terms))  # m = 0 keeps its promise, m = 1 breaks it
    for call, r in ((lambda: effective_partial_sum(stream, UNIT, 1, rate), 1),
                    (lambda: check_modulus(stream, UNIT, Fraction(2), rate, 4), 1),
                    (lambda: check_effective_criterion(stream, rate, Fraction(1), 1, 10), 0)):
        with pytest.raises(RateUndefinedError, match=f"^rate undefined at m=1, r={r}: .*{why}"):
            call()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_no_probe_ever_claims_convergence():
    reports = [
        ratio_test_probe(builtin_stream("geometric", Fraction(1, 2)), UNIT, Fraction(2), 50),
        check_modulus(builtin_stream("zero"), UNIT, Fraction(0), LinearRate(0, 0), 10),
        check_effective_criterion(builtin_stream("one"), LinearRate(0, 1), Fraction(1), 5, 50),
    ]
    for report in reports:
        assert report.verdict.kind == "CONSISTENT_UP_TO_BUDGET"
        assert "CONVERGE" not in report.to_text().upper()


def test_report_witness_field_matches_verdict():
    with pytest.raises(ValueError):
        SeriesProbeReport(
            verdict=ConsistentUpToBudget(5),
            witness=(1, Fraction(1)),
            trace=(),
            budget_used=5,
        )
    with pytest.raises(ValueError):
        SeriesProbeReport(
            verdict=WitnessedDivergence(1, Fraction(2), Fraction(2)),
            witness=None,
            trace=(),
            budget_used=5,
        )


def test_report_serializations_are_deterministic_and_exact():
    stream = builtin_stream("factorial_tail", 5)
    point = EvaluationPoint(Fraction(1, 10))
    first = ratio_test_probe(stream, point, Fraction(2), 100)
    second = ratio_test_probe(stream, point, Fraction(2), 100)
    assert first.to_text() == second.to_text()
    assert first.to_kv() == second.to_kv()
    assert "witness_index=19" in first.to_kv()
    assert "ratio=2" in first.to_kv()
    assert "witness index: 19" in first.to_text()


def test_trace_holds_exact_partial_sums():
    stream = builtin_stream("geometric", Fraction(1, 2))
    report = ratio_test_probe(stream, UNIT, Fraction(2), 40)
    for n, value in report.trace:
        assert value == partial_sum(stream, UNIT, n)
    assert 1 <= len(report.trace) <= 20
