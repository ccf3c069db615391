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

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .machine import MachineProgram, MachineRun, parse_program

__all__ = [
    "BuiltinId",
    "CoefficientStream",
    "HaltingEncoded",
    "BuiltinStream",
    "ExplicitStream",
    "halting_coefficients",
    "coefficient_at",
    "builtin_stream",
    "parse_series_spec",
    "parse_rational",
    "format_rational",
    "approx_decimal",
    "cached_factorial",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

# Factorials built multiplicatively and shared process-wide; guarded so
# concurrent readers observe a consistent prefix.
_factorials: list[int] = [1]
_factorials_lock = threading.Lock()


def cached_factorial(n: int) -> int:
    """``n!`` from an incrementally grown shared cache."""
    if n < 0:
        raise ValueError("factorial of a negative number")
    if n < len(_factorials):
        return _factorials[n]
    with _factorials_lock:
        while len(_factorials) <= n:
            _factorials.append(_factorials[-1] * len(_factorials))
        return _factorials[n]


class CoefficientStream:
    """Deterministic, total map from indices to exact rationals."""

    def at(self, n: int) -> Fraction:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def coefficient_at(stream: CoefficientStream, n: int) -> Fraction:
    """The exact coefficient at index ``n`` (``n >= 0``)."""
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    return stream.at(n)


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
        self.program = program
        self.input_value = input_value
        self._lock = threading.Lock()

    @property
    def simulated_steps(self) -> int:
        """Steps of machine time consumed so far (diagnostic)."""
        return self._run.steps

    @property
    def halt_step(self) -> int | None:
        """The halt step if the memoized run has already reached it."""
        return self._run.halt_step

    def at(self, n: int) -> Fraction:
        with self._lock:
            run = self._run
            halt = run.halt_step
            if halt is None and run.steps < n:
                halt = run.advance(n)
        return Fraction(cached_factorial(n)) if halt is not None and halt <= n else _ZERO

    def describe(self) -> str:
        return f"halting-encoded run (input {self.input_value})"


class BuiltinId(enum.Enum):
    """Named reference sequences."""

    ZERO = "zero"
    ONE = "one"
    HARMONIC = "harmonic"
    ALTERNATING = "alternating"
    RECIPROCAL_FACTORIAL = "reciprocal_factorial"
    FACTORIAL_TAIL = "factorial_tail"
    GEOMETRIC = "geometric"

    @classmethod
    def from_name(cls, name: str) -> "BuiltinId":
        key = name.strip().lower().replace("-", "_")
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown builtin {name!r}")


@dataclass(frozen=True)
class BuiltinStream(CoefficientStream):
    """One of the named sequences, with validated parameters.

    zero: 0, one: 1, harmonic: 1/(n+1), alternating: (-1)^n,
    reciprocal_factorial: 1/n!, factorial_tail(n0): 0 below n0 then n!,
    geometric(r): r^n.
    """

    builtin_id: BuiltinId
    params: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(Fraction(p) for p in self.params))
        expected = 1 if self.builtin_id in (BuiltinId.FACTORIAL_TAIL, BuiltinId.GEOMETRIC) else 0
        if len(self.params) != expected:
            raise ValueError(
                f"builtin {self.builtin_id.value} takes {expected} parameter(s), "
                f"got {len(self.params)}"
            )
        if self.builtin_id is BuiltinId.FACTORIAL_TAIL:
            p = self.params[0]
            if p.denominator != 1 or p < 0:
                raise ValueError("factorial_tail requires a natural-number start index")

    def at(self, n: int) -> Fraction:
        b = self.builtin_id
        if b is BuiltinId.ZERO:
            return _ZERO
        if b is BuiltinId.ONE:
            return _ONE
        if b is BuiltinId.HARMONIC:
            return Fraction(1, n + 1)
        if b is BuiltinId.ALTERNATING:
            return _ONE if n % 2 == 0 else _MINUS_ONE
        if b is BuiltinId.RECIPROCAL_FACTORIAL:
            return Fraction(1, cached_factorial(n))
        if b is BuiltinId.FACTORIAL_TAIL:
            start = int(self.params[0])
            return Fraction(cached_factorial(n)) if n >= start else _ZERO
        return self.params[0] ** n  # geometric

    def describe(self) -> str:
        if self.params:
            args = " ".join(format_rational(p) for p in self.params)
            return f"builtin {self.builtin_id.value} {args}"
        return f"builtin {self.builtin_id.value}"


@dataclass(frozen=True)
class ExplicitStream(CoefficientStream):
    """A finite prefix followed by a constant tail."""

    prefix: tuple[Fraction, ...]
    tail: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(Fraction(p) for p in self.prefix))
        object.__setattr__(self, "tail", Fraction(self.tail))

    def at(self, n: int) -> Fraction:
        return self.prefix[n] if n < len(self.prefix) else self.tail

    def describe(self) -> str:
        head = " ".join(format_rational(p) for p in self.prefix)
        return f"explicit {head} | tail {format_rational(self.tail)}"


def halting_coefficients(program: MachineProgram, input_value: int) -> HaltingEncoded:
    """The stream with ``a_n = n!`` once the run has halted by step n, else 0."""
    return HaltingEncoded(program, input_value)


def builtin_stream(name: BuiltinId | str, *params: Fraction | int | str) -> BuiltinStream:
    """Construct a named builtin stream, validating parameter arity."""
    builtin_id = name if isinstance(name, BuiltinId) else BuiltinId.from_name(name)
    return BuiltinStream(builtin_id, tuple(parse_rational(p) for p in params))


# ---------------------------------------------------------------------------
# Rational text helpers and the series spec format
# ---------------------------------------------------------------------------


def parse_rational(text: Fraction | int | str) -> Fraction:
    """Parse ``p/q`` or integer text into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Lowest-terms ``p/q`` text; integers print without a denominator."""
    return str(Fraction(value))


def approx_decimal(value: Fraction, digits: int = 12) -> str:
    """Deterministic decimal approximation (round half to even)."""
    scale = 10 ** digits
    num = value.numerator * scale
    den = value.denominator
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), scale)
    return f"{sign}{whole}.{frac:0{digits}d}"


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
        if not tokens[2].isdigit():
            raise ValueError(f"input must be a natural number, got {tokens[2]!r}")
        return halting_coefficients(program, int(tokens[2]))

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
