import decimal
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, find, given, settings, strategies as st

from haltseries import (
    ExplicitStream,
    HaltingEncoded,
    SeriesProbeReport,
    WitnessedDivergence,
    approx_decimal,
    builtin_stream,
    format_rational,
    halted_by,
    parse_program,
    parse_rational,
    parse_series_spec,
    run_bounded,
)
from haltseries import coefficients, machine
from haltseries.coefficients import BuiltinStream, TermShape
from haltseries.machine import _factorial_texts, _int_text, _text_int

import corpus


def test_self_loop_stream_is_identically_zero():
    program = parse_program("loop: decjz 1 loop")
    stream = HaltingEncoded(program, 0)
    assert all(stream.at(n) == 0 for n in range(1001))


def test_three_step_program_factorial_tail():
    program = parse_program("inc 0\ninc 0\nhalt")
    stream = HaltingEncoded(program, 0)
    # halt step is 3, so the tail starts there: 3! = 6, 4! = 24, 5! = 120
    assert [stream.at(n) for n in range(6)] == [0, 0, 0, 6, 24, 120]


def test_minimal_halt_program_values():
    stream = HaltingEncoded(parse_program("halt"), 0)
    assert [stream.at(n) for n in range(4)] == [0, 1, 2, 6]


def test_builtin_values():
    assert builtin_stream("harmonic").at(4) == Fraction(1, 5)
    tail = builtin_stream("factorial_tail", 2)
    assert tail.at(1) == 0
    assert tail.at(4) == 24
    geometric = builtin_stream("geometric", Fraction(1, 2))
    assert geometric.at(3) == Fraction(1, 8)
    assert builtin_stream("geometric", 2).at(3) == 8
    assert all(builtin_stream("zero").at(n) == 0 for n in range(20))
    assert builtin_stream("factorial_tail", 0).at(6) == 720
    alternating = builtin_stream("alternating")
    assert (alternating.at(4), alternating.at(5)) == (1, -1)
    assert builtin_stream("reciprocal_factorial").at(5) == Fraction(1, 120)


def test_builtin_rejects_bad_arity_and_params():
    with pytest.raises(ValueError):
        builtin_stream("nonsense")
    with pytest.raises(ValueError):
        builtin_stream("one", 3)
    with pytest.raises(ValueError):
        builtin_stream("geometric")
    with pytest.raises(ValueError):
        builtin_stream("factorial_tail", Fraction(1, 2))
    with pytest.raises(ValueError):
        builtin_stream("factorial_tail", -1)


def test_explicit_stream_prefix_then_tail():
    stream = ExplicitStream((Fraction(5), Fraction(-1, 3)), Fraction(7))
    assert [stream.at(n) for n in range(4)] == [5, Fraction(-1, 3), 7, 7]


def test_support_is_upward_closed_on_corpus():
    rng = random.Random(7)
    for case, program in corpus.halting_programs() + corpus.non_halting_programs():
        stream = HaltingEncoded(program, case.input_value)
        samples = sorted(rng.sample(range(10 ** 4), 40))
        seen_nonzero = False
        for n in samples:
            nonzero = stream.at(n) != 0
            if seen_nonzero:
                assert nonzero, case.name
            seen_nonzero = seen_nonzero or nonzero


def test_agrees_with_piecewise_formula_via_independent_run():
    for case, program in corpus.halting_programs() + corpus.non_halting_programs():
        stream = HaltingEncoded(program, case.input_value)
        outcome = run_bounded(program, case.input_value, 200)
        for n in range(201):
            if outcome.halted and n >= outcome.steps:
                expected = Fraction(math.factorial(n))
            else:
                expected = Fraction(0)
            assert stream.at(n) == expected, (case.name, n)


def test_memoization_costs_one_simulation_pass():
    program = parse_program("loop: inc 1\ndecjz 2 loop")
    stream = HaltingEncoded(program, 0)
    for n in (500, 100, 250, 500, 499):
        stream.at(n)
    assert stream.simulated_steps == 500
    stream.at(800)
    assert stream.simulated_steps == 800


def test_memoized_values_match_fresh_evaluation_in_any_order():
    program = parse_program(corpus.HALTING[4].source)  # drain_three, halts at 14
    memoized = HaltingEncoded(program, 0)
    order = list(range(40))
    random.Random(3).shuffle(order)
    for n in order:
        fresh = HaltingEncoded(program, 0)
        assert memoized.at(n) == fresh.at(n)


def test_concurrent_reads_are_consistent():
    program = parse_program("loop: inc 1\ndecjz 2 loop")
    stream = HaltingEncoded(program, 0)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(stream.at, range(400)))
    assert results == [0] * 400
    # Each of 8 threads reads every index in its own shuffled order, so
    # reads at, just past and away from the shared cursor interleave.
    cases = [
        (
            HaltingEncoded(parse_program("inc 0\ninc 0\nhalt"), 0),
            lambda n: math.factorial(n) if n >= 3 else 0,
        ),
        (builtin_stream("factorial_tail", 7), lambda n: math.factorial(n) if n >= 7 else 0),
        (builtin_stream("reciprocal_factorial"), lambda n: Fraction(1, math.factorial(n))),
    ] + [
        (builtin_stream("geometric", r), lambda n, r=r: r ** n)
        for r in (Fraction(0), Fraction(-1, 2), Fraction(7, 3))
    ]
    orders = [random.Random(seed).sample(range(300), 300) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for stream, expected in cases:
            with ThreadPoolExecutor(max_workers=8) as pool:
                reads = list(
                    pool.map(lambda order: [(n, stream.at(n)) for n in order], orders, timeout=60)
                )
            assert len(reads) == 8
            for thread_reads in reads:
                assert all(value == expected(n) for n, value in thread_reads)
    finally:
        sys.setswitchinterval(interval)


@st.composite
def read_orders(draw):
    """Indices read in turn: repeats, steps just past the last one, steps
    back and jumps either way."""
    n, order = 0, []
    for move in draw(st.lists(st.one_of(st.sampled_from([0, 1, 1, 1, -1]), st.integers(-40, 40)))):
        n = max(n + move, 0)
        order.append(n)
    return order


@given(st.fractions(-3, 3, max_denominator=9), read_orders())
@example(Fraction(0), [0, 1, 2, 0, 1])
@example(Fraction(-1, 2), [3, 4, 4, 5, 2, 3, 40, 41])
def test_geometric_reads_in_any_order_are_powers(r, order):
    stream = builtin_stream("geometric", r)
    for n in order:
        value = stream.at(n)
        assert type(value) is Fraction and value == r ** n, (n, order)


def assert_shape_matches_terms(stream, upto):
    """Zero before the shape's start, nonzero from it on, and
    a_{n+1} = a_n * (num[0]*n + num[1]) / (den[0]*n + den[1])."""
    shape = stream.term_shape(upto)
    (p1, p0), (q1, q0) = shape.num, shape.den
    assert all(stream.at(n) == 0 for n in range(min(shape.start, upto + 1)))
    for n in range(shape.start, upto + 1):
        assert stream.at(n) != 0
        if n < upto:
            assert stream.at(n + 1) == stream.at(n) * Fraction(p1 * n + p0, q1 * n + q0)


@given(corpus.builtin_streams(), st.integers(0, 60))
def test_builtin_term_shape_matches_terms(stream, upto):
    assert_shape_matches_terms(stream, upto)


@pytest.mark.parametrize(
    "start, num, den",
    [
        (0, (2, -9), (0, 1)),  # the numerator turns negative to positive at 4.5
        (2, (-2, 21), (4, -17)),  # both forms change sign after start
        (0, (0, 0), (0, 1)),  # a zero numerator
        (3, (1, -3), (0, 1)),  # a numerator zero at start
        (0, (0, 1), (0, -2)),  # a negative denominator
        (0, (0, 1), (-1, 5)),  # a falling denominator, zero at 5
    ],
)
def test_term_shape_refuses_forms_that_do_not_keep_one_sign(start, num, den):
    with pytest.raises(ValueError, match="keep one sign"):
        TermShape(start, num, den)


def test_streams_without_a_term_shape():
    assert builtin_stream("geometric", 0).term_shape(10) is None
    assert ExplicitStream((Fraction(1),), Fraction(2)).term_shape(10) is None


@given(corpus.programs(), st.integers(0, 5), st.integers(0, 60), st.integers(0, 80))
@settings(deadline=None)
def test_halting_term_shape_matches_terms(program, input_value, upto, read_first):
    stream = HaltingEncoded(program, input_value)
    stream.at(read_first)  # the run may already be past upto
    assert_shape_matches_terms(stream, upto)
    assert_shape_matches_terms(HaltingEncoded(program, input_value), upto)


def test_halting_coefficient_matches_halted_by_pointwise():
    for case, program in corpus.halting_programs():
        stream = HaltingEncoded(program, case.input_value)
        for n in range(min(case.halt_step + 5, 60)):
            expect_nonzero = halted_by(program, case.input_value, n)
            assert (stream.at(n) != 0) == expect_nonzero


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    assert parse_rational(format_rational(a)) == a


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_both_notations():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-6/8") == Fraction(-3, 4)
    assert parse_rational("5") == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_parse_rational_bounds_the_decimal_exponent():
    assert parse_rational("7e300") == 7 * 10 ** 300
    assert parse_rational(" 1E-9999 ") == Fraction(1, 10 ** 9999)
    assert parse_rational("2.5e+0009999") == Fraction(5, 2) * 10 ** 9999
    for text in ("1e10000", "1e-10000", "1e10000000", "1e1_0000", "1e" + "9" * 10 ** 6):
        with pytest.raises(ValueError, match="invalid rational .*more than 4 digits"):
            parse_rational(text)


def test_format_rational_lowest_terms():
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_approx_decimal_is_deterministic_round_half_even():
    assert approx_decimal(Fraction(1, 3)) == "0.333333333333"
    assert approx_decimal(Fraction(-1, 2)) == "-0.500000000000"
    assert approx_decimal(Fraction(15, 8)) == "1.875000000000"
    # ties land on the even neighbor
    assert approx_decimal(Fraction(5, 10 ** 13)) == "0.000000000000"
    assert approx_decimal(Fraction(15, 10 ** 13)) == "0.000000000002"


def plain_str(value):
    """``str(value)`` with no int-digit limit."""
    with corpus.int_digit_limit(0):
        return str(value)


# Random magnitudes of up to 200k bits, and powers of two and their
# neighbours anywhere in that range, around the 32768-bit cut to plain str,
# near the 3 * limit cuts of 640 and the default 4300 digits (1920 and
# 12900 bits), and near 2**16 bits, whose halvings meet the 2048-bit leaf
# cut exactly.
magnitudes = st.one_of(
    st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits),
              st.integers(0, 200_000), st.integers(0, 2 ** 32)),
    st.builds(lambda k, d: 2 ** k + d,
              st.integers(0, 200_000) | st.integers(32_760, 32_776) | st.integers(65_530, 65_542)
              | st.integers(1_915, 1_925) | st.integers(12_895, 12_905),
              st.sampled_from((-1, 0, 1))),
)


@settings(max_examples=60, deadline=None)
@given(magnitudes, st.sampled_from((1, -1)))
@example(0, 1)
@example(2 ** 32768, -1)
@example(2 ** 65536 - 1, 1)
@example(2 ** 1920 - 1, 1)
@example(2 ** 1920, -1)
@example(2 ** 12900 - 1, -1)
@example(2 ** 12900, 1)
def test_int_text_matches_str(magnitude, sign):
    value = sign * magnitude
    text, ratio = plain_str(value), plain_str(Fraction(sign, magnitude + 1))
    for limit in (0, 640, sys.get_int_max_str_digits()):
        with corpus.int_digit_limit(limit):
            assert _int_text(value) == text
            assert format_rational(Fraction(sign, magnitude + 1)) == ratio


def test_int_text_never_rounds(monkeypatch):
    # Its decimal context traps Inexact, so a precision too small for the
    # value raises instead of printing rounded digits.
    monkeypatch.setattr(decimal, "MAX_PREC", 50)
    with corpus.int_digit_limit(0), pytest.raises(decimal.Inexact):
        _int_text(3 ** 50_000)
    # So do the factorial texts: 64! has 76 digits before its trailing
    # zeros, and so has the product tree's top product.
    with pytest.raises(decimal.Inexact):
        next(_factorial_texts(64, 65))
    # 41! fits in 50 digits, and the linear products round from 48! on,
    # which has 52 digits before its trailing zeros.
    with pytest.raises(decimal.Inexact):
        list(_factorial_texts(41, 49))


# Every first value from 0 to 3000 takes the same path: no cut to plain str
# remains. The examples sit at the 32-factor leaves' edges, at the largest
# drawn value and far past it.
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 10))
@example(0, 10)
@example(31, 3)
@example(32, 1)
@example(33, 1)
@example(64, 2)
@example(65, 1)
@example(3000, 1)
@example(40_000, 2)
def test_factorial_texts_match_str_of_factorial(first, count):
    with corpus.int_digit_limit(0):
        expected = [str(math.factorial(n)) for n in range(first, first + count)]
    for limit in (0, 640, sys.get_int_max_str_digits()):
        with corpus.int_digit_limit(limit):
            assert list(_factorial_texts(first, first + count)) == expected


# 640 is the smallest limit the interpreter accepts; at 10,000 digits the
# values are past the 32768-bit cut, so the divide-and-conquer path renders
# them. The caller's limit stays in place, and the text is exact anyway.
@pytest.mark.parametrize("limit", [640, 10_000])
def test_format_rational_keeps_the_int_digit_limit(limit):
    values = (10 ** (limit - 1), 10 ** limit, -(10 ** limit), 10 ** (5 * limit) + 7)
    expected = [(plain_str(value), plain_str(Fraction(1, value))) for value in values]
    with corpus.int_digit_limit(limit):
        assert format_rational(Fraction(-(10 ** (limit - 1)), 7)) == f"-1{'0' * (limit - 1)}/7"
        for value, (text, inverse) in zip(values, expected):
            assert format_rational(Fraction(value)) == text
            assert format_rational(Fraction(1, value)) == inverse
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("limit", [640, 10_000])
def test_report_text_keeps_the_int_digit_limit(limit):
    def report(value):
        verdict = WitnessedDivergence(index=0, ratio=Fraction(2), threshold=Fraction(2))
        return SeriesProbeReport(verdict, (0, Fraction(value)), (), 1)

    big = 10 ** (5 * limit) + 3
    with corpus.int_digit_limit(0):
        expected = report(big).to_text(), report(big).to_kv()
    with corpus.int_digit_limit(limit):
        value = 10 ** (limit - 1) + 7
        assert f"witness value: {value} (approx {value}.000000000000)\n" in report(value).to_text()
        assert (report(big).to_text(), report(big).to_kv()) == expected
        assert sys.get_int_max_str_digits() == limit


# Signed digit runs of random length, most near the 600-digit cut to int
# and near twice it, where the first split lands on the cut.
digit_texts = st.builds(
    lambda sign, n, seed: sign + "".join(random.Random(seed).choices("0123456789", k=n)),
    st.sampled_from(("", "-", "+")),
    st.integers(1, 5_000) | st.integers(590, 610) | st.integers(1_190, 1_210),
    st.integers(0, 2 ** 32),
)


@settings(max_examples=60, deadline=None)
@given(digit_texts)
@example("9" * 600)
@example("-" + "9" * 601)
@example(" +" + "0" * 1_200 + "1 ")
def test_text_int_matches_int(text):
    with corpus.int_digit_limit(0):
        expected = int(text)
    with corpus.int_digit_limit(640):
        assert _text_int(text) == expected


@pytest.mark.parametrize("text", ["", "-", "+-" + "9" * 700, "9" * 700 + "x", "12a", "1.5"])
def test_text_int_rejects_what_int_rejects(text):
    with pytest.raises(ValueError):
        _text_int(text)


@pytest.mark.parametrize("limit", [640, 4300])
def test_parse_rational_reads_back_every_printed_value(limit):
    values = (Fraction(10 ** 5000, 3), Fraction(-(7 ** 9000), 10 ** 5001 + 1), Fraction(3 ** 20000))
    with corpus.int_digit_limit(limit):
        for value in values:
            assert parse_rational(format_rational(value)) == value
        # Decimal-point text still goes through Fraction and its limit.
        with pytest.raises(ValueError, match="invalid rational"):
            parse_rational("1." + "0" * 5000)


def test_parse_series_spec_builtin():
    stream = parse_series_spec("builtin geometric 1/2")
    assert stream.at(3) == Fraction(1, 8)
    assert parse_series_spec("# note\n\nbuiltin one\n").at(9) == 1


def test_parse_series_spec_explicit():
    stream = parse_series_spec("explicit 1 1/2 -3 | tail 2")
    assert [stream.at(n) for n in range(5)] == [1, Fraction(1, 2), -3, 2, 2]
    bare = parse_series_spec("explicit 1 2")
    assert (bare.at(1), bare.at(2)) == (2, 0)


def test_parse_series_spec_halting(tmp_path):
    (tmp_path / "prog.machine").write_text("inc 0\ninc 0\nhalt\n")
    stream = parse_series_spec("halting prog.machine 0", base_dir=tmp_path)
    assert stream.at(3) == 6


@pytest.mark.parametrize(
    "text",
    [
        "",
        "builtin one\nbuiltin zero",
        "builtin",
        "halting only_one_token",
        "halting prog.machine x",
        "explicit 1 2 | tail",
        "explicit 1 2 | cap 3",
        "mystery 1 2",
    ],
)
def test_parse_series_spec_rejects_malformed(text, tmp_path):
    (tmp_path / "prog.machine").write_text("halt\n")
    with pytest.raises(ValueError):
        parse_series_spec(text, base_dir=tmp_path)


def test_parse_series_spec_rejects_non_decimal_input(tmp_path):
    (tmp_path / "p.m").write_text("halt\n")
    with pytest.raises(ValueError, match="input must be a natural number, got '²'"):
        parse_series_spec("halting p.m ²", base_dir=tmp_path)


def test_builtin_stream_name_variants():
    assert builtin_stream(" Reciprocal-Factorial ") == builtin_stream("reciprocal_factorial")
    with pytest.raises(ValueError, match="^unknown builtin 'Exp'$"):
        builtin_stream("Exp")


def test_builtin_stream_is_keyed_by_its_spec_name():
    assert BuiltinStream("harmonic").at(3) == Fraction(1, 4)
    assert BuiltinStream("geometric", (Fraction(1, 2),)).at(3) == Fraction(1, 8)
    with pytest.raises(ValueError, match="^unknown builtin 'bogus'$"):
        BuiltinStream("bogus")
    with pytest.raises(ValueError, match="builtin harmonic takes 0 parameter"):
        BuiltinStream("harmonic", (1,))


def test_corpus_draws_every_builtin():
    """So that a new builtin cannot skip the term-shape check above."""
    for name in coefficients._BUILTIN_ARITY:
        assert find(corpus.builtin_streams(), lambda stream: stream.name == name).name == name
