"""Lazy coefficient sequences as exact-rational streams.

Every stream maps an index ``n`` to an exact ``Fraction``, evaluated on
demand. The central construction ties a stream to a machine run: the
coefficient at ``n`` is ``n!`` once the machine has halted within ``n``
steps and ``0`` before that, so a never-halting machine yields the zero
sequence and a halting one yields a factorial tail. A small library of
builtin sequences covers the test corpus for the reverse direction.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from pathlib import Path

from .machine import MachineProgram, MachineRun, _int_text, _Record, _text_int, parse_program

__all__ = [
    "CoefficientStream",
    "HaltingEncoded",
    "ExplicitStream",
    "builtin_stream",
    "parse_series_spec",
    "parse_rational",
    "format_rational",
    "approx_decimal",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
_APPROX_DIGITS = 12


def _cursor_read(stream, n: int, step, jump):
    """``f(n)`` through ``stream``'s private ``(k, f(k))`` cursor, where
    ``f(k + 1) = f(k) * step`` and ``jump(n) = f(n)``: ``n!`` with ``step``
    ``n`` and ``math.factorial``, ``r^n`` with ``r`` and ``r.__pow__``.

    A read at the cursor costs nothing, a read just past it one
    multiplication, any other read one ``jump``; the cursor then moves to
    ``n``. It is replaced as one tuple, so concurrent readers always see a
    consistent pair.
    """
    k, value = stream._cursor
    if n != k:
        value = value * step if n == k + 1 else jump(n)
        object.__setattr__(stream, "_cursor", (n, value))
    return value


class TermShape(_Record):
    """A stream's hypergeometric shape up to some index.

    Terms are zero below ``start`` and nonzero from ``start`` on, where
    ``a_{n+1} / a_n = (num[0]*n + num[1]) / (den[0]*n + den[1])``. ``start``
    lies past that index when every term up to it is zero. Each form keeps
    one sign from ``start`` on: the numerator is nonzero at ``start`` and
    moves away from zero after it, the denominator is positive at ``start``
    and does not fall. Any other shape raises ``ValueError``.
    """

    start: int
    num: tuple[int, int] = (0, 1)
    den: tuple[int, int] = (0, 1)

    def __post_init__(self):
        (a, b), (c, d), n = self.num, self.den, self.start
        p = a * n + b
        if not p or p * a < 0 or c * n + d <= 0 or c < 0:
            raise ValueError(f"{self!r}: the ratio's forms must keep one sign from start on")


_FACTORIAL_RATIO = ((1, 1), (0, 1))


class CoefficientStream:
    """Deterministic, total map from indices to exact rationals.

    ``at`` is the only method a stream must provide; consumers accept any
    object with it. ``term_shape`` is an optional fast path.
    """

    def at(self, n: int) -> Fraction:
        raise NotImplementedError

    def term_shape(self, upto: int) -> TermShape | None:
        """The stream's :class:`TermShape` valid for indices ``0..upto``,
        or ``None`` when it has none: a ratio whose numerator keeps one sign
        and whose denominator stays positive from the shape's start on."""
        return None


class HaltingEncoded(CoefficientStream):
    """Coefficients encoding whether a machine run has halted.

    ``at(n)`` is ``n!`` if the program, started on the given input, halts
    within ``n`` steps, else ``0``. The support is therefore upward
    closed. The stream holds one :class:`MachineRun`, resumed as larger
    indices are queried, so evaluating indices ``0..N`` in any order costs
    one simulation of ``N`` steps in total. A lock keeps the resumable
    run safe under concurrent readers; observable values are identical to
    unmemoized evaluation.
    """

    def __init__(self, program: MachineProgram, input_value: int):
        self._run = MachineRun(program, input_value)
        self._lock = threading.Lock()
        self._cursor = (0, 1)

    @property
    def simulated_steps(self) -> int:
        """Steps of machine time consumed so far (diagnostic)."""
        return self._run.steps

    def _halt_step_within(self, n: int) -> int | None:
        """The halt step if it is at most ``n``, resuming the run as needed."""
        with self._lock:
            run = self._run
            halt = run.halt_step
            if halt is None and run.steps < n:
                halt = run.advance(n)
        return halt if halt is not None and halt <= n else None

    def at(self, n: int) -> Fraction:
        halted = self._halt_step_within(n) is not None
        return Fraction(_cursor_read(self, n, n, math.factorial)) if halted else _ZERO

    def term_shape(self, upto: int) -> TermShape:
        """Zero below the halt step, ``n!`` (ratio ``n + 1``) from it on."""
        halt = self._halt_step_within(upto)
        return TermShape(upto + 1 if halt is None else halt, *_FACTORIAL_RATIO)


#: Each builtin's spec name and its number of parameters.
_BUILTIN_ARITY = {
    "zero": 0, "one": 0, "harmonic": 0, "alternating": 0, "reciprocal_factorial": 0,
    "factorial_tail": 1, "geometric": 1,
}


class BuiltinStream(CoefficientStream, _Record):
    """One of the named sequences, with validated parameters.

    zero: 0, one: 1, harmonic: 1/(n+1), alternating: (-1)^n,
    reciprocal_factorial: 1/n!, factorial_tail(n0): 0 below n0 then n!,
    geometric(r): r^n.
    """

    name: str
    params: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(Fraction(p) for p in self.params))
        if self.name not in _BUILTIN_ARITY:
            raise ValueError(f"unknown builtin {self.name!r}")
        expected = _BUILTIN_ARITY[self.name]
        if len(self.params) != expected:
            raise ValueError(
                f"builtin {self.name} takes {expected} parameter(s), got {len(self.params)}"
            )
        if self.name == "factorial_tail":
            p = self.params[0]
            if p.denominator != 1 or p < 0:
                raise ValueError("factorial_tail requires a natural-number start index")
        object.__setattr__(self, "_cursor", (0, _ONE if self.name == "geometric" else 1))

    def at(self, n: int) -> Fraction:
        name = self.name
        if name == "zero":
            return _ZERO
        if name == "one":
            return _ONE
        if name == "harmonic":
            return Fraction(1, n + 1)
        if name == "alternating":
            return _ONE if n % 2 == 0 else _MINUS_ONE
        if name == "reciprocal_factorial":
            return Fraction(1, _cursor_read(self, n, n, math.factorial))
        if name == "factorial_tail":
            start = int(self.params[0])
            return Fraction(_cursor_read(self, n, n, math.factorial)) if n >= start else _ZERO
        r = self.params[0]  # geometric
        return _cursor_read(self, n, r, r.__pow__)

    def term_shape(self, upto: int) -> TermShape | None:
        """Every builtin but ``geometric 0`` is hypergeometric. Only
        ``zero``'s shape depends on ``upto``: it starts just past it."""
        name = self.name
        if name == "zero":
            return TermShape(upto + 1)
        if name == "one":
            return TermShape(0)
        if name == "harmonic":
            return TermShape(0, (1, 1), (1, 2))
        if name == "alternating":
            return TermShape(0, (0, -1))
        if name == "reciprocal_factorial":
            return TermShape(0, (0, 1), (1, 1))
        if name == "factorial_tail":
            return TermShape(int(self.params[0]), *_FACTORIAL_RATIO)
        q = self.params[0]  # geometric
        return TermShape(0, (0, q.numerator), (0, q.denominator)) if q else None


class ExplicitStream(CoefficientStream, _Record):
    """A finite prefix followed by a constant tail."""

    prefix: tuple[Fraction, ...]
    tail: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(Fraction(p) for p in self.prefix))
        object.__setattr__(self, "tail", Fraction(self.tail))

    def at(self, n: int) -> Fraction:
        return self.prefix[n] if n < len(self.prefix) else self.tail


def builtin_stream(name: str, *params: Fraction | int | str) -> BuiltinStream:
    """Construct a named builtin stream, validating parameter arity. The name
    is matched ignoring case, surrounding blanks and ``-`` for ``_``."""
    key = name.strip().lower().replace("-", "_")
    if key not in _BUILTIN_ARITY:
        raise ValueError(f"unknown builtin {name!r}")
    return BuiltinStream(key, tuple(parse_rational(p) for p in params))


# ---------------------------------------------------------------------------
# Rational text helpers and the series spec format
# ---------------------------------------------------------------------------


#: Most digits a decimal exponent may have: ``1e9999`` parses at once,
#: where ``Fraction('1e10000000')`` alone takes seconds.
_EXPONENT_DIGITS = 4


def parse_rational(text: Fraction | int | str) -> Fraction:
    """Parse ``p/q``, integer or decimal text into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        num, slash, den = text.strip().partition("/")
        digits = num[1:] if num.startswith(("+", "-")) else num
        if digits.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(_text_int(num), _text_int(den) if slash else 1)
        _, e, exponent = text.strip().lower().partition("e")
        if e and len(exponent.replace("_", "").lstrip("+-0")) > _EXPONENT_DIGITS:
            raise ValueError(f"decimal exponent has more than {_EXPONENT_DIGITS} digits")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Lowest-terms ``p/q`` text; integers print without a denominator."""
    value = Fraction(value)
    text = _int_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_int_text(value.denominator)}"


def approx_decimal(value: Fraction) -> str:
    """Deterministic decimal approximation to 12 places (round half to even)."""
    scale = 10 ** _APPROX_DIGITS
    q = round(value * scale)  # Fraction.__round__ rounds half to even
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), scale)
    return f"{sign}{_int_text(whole)}.{frac:0{_APPROX_DIGITS}d}"


def parse_series_spec(text: str, base_dir: Path | str = ".") -> CoefficientStream:
    """Parse a one-line series description.

    Forms::

        builtin <name> [params...]
        halting <program-file> <input>
        explicit a0 a1 ... [| tail c]

    Rationals are written ``p/q`` or as integers. Blank lines and ``#``
    comments are ignored; exactly one description line is expected. The
    program file of a ``halting`` spec resolves relative to ``base_dir``.
    """
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if len(lines) != 1:
        raise ValueError(f"expected exactly one series description line, got {len(lines)}")
    tokens = lines[0].split()
    kind = tokens[0].lower()

    if kind == "builtin":
        if len(tokens) < 2:
            raise ValueError("expected: builtin <name> [params...]")
        return builtin_stream(tokens[1], *tokens[2:])

    if kind == "halting":
        if len(tokens) != 3:
            raise ValueError("expected: halting <program-file> <input>")
        path = Path(base_dir) / tokens[1]
        program = parse_program(path.read_text())
        if not tokens[2].isdecimal():
            raise ValueError(f"input must be a natural number, got {tokens[2]!r}")
        return HaltingEncoded(program, _text_int(tokens[2]))

    if kind == "explicit":
        rest = tokens[1:]
        tail = _ZERO
        if "|" in rest:
            split = rest.index("|")
            tail_tokens = rest[split + 1 :]
            if len(tail_tokens) != 2 or tail_tokens[0].lower() != "tail":
                raise ValueError("expected: explicit a0 a1 ... | tail c")
            tail = parse_rational(tail_tokens[1])
            rest = rest[:split]
        return ExplicitStream(tuple(parse_rational(t) for t in rest), tail)

    raise ValueError(f"unknown series kind {kind!r}")
