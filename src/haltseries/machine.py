"""Unlimited-register counter machine.

The model has three instructions. ``inc R`` increments register ``R`` and
advances. ``decjz R L`` decrements register ``R`` and advances when ``R``
is positive, and jumps to instruction index ``L`` (leaving registers
untouched) when ``R`` is zero. ``halt`` stops execution. A program also
halts when the instruction pointer runs off the end of the instruction
list. Every executed instruction, ``halt`` included, counts as one step,
so the earliest possible halt is at step 1.

Programs carry an explicit register count (register 0 holds the input and
the output by convention) and are immutable after construction. Besides
the interpreter, this module provides a line-oriented source format and an
injective arithmetic encoding of programs as natural numbers, built from
the Cantor pairing function. For the whole package, its private ``_Record``
is the base of every value class, and ``_int_text`` and ``_text_int``
convert integers to and from decimal text at any length.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from typing import Iterable, Iterator, Union

__all__ = [
    "Inc",
    "DecJz",
    "Halt",
    "MachineProgram",
    "HaltedAt",
    "RunningAfter",
    "MachineParseError",
    "GodelDecodeError",
    "parse_program",
    "pretty_program",
    "run_bounded",
    "halted_by",
    "encode_godel",
    "decode_godel",
]

# Defensive caps for decoding untrusted codes; far above anything the
# rest of the toolkit produces.
MAX_DECODED_INSTRUCTIONS = 4096
MAX_REGISTERS = 4096


class _Record:
    """Base of the package's frozen value classes. It generates no code, so no
    module imports ``dataclasses``. As in a frozen dataclass, a record's fields
    (``__match_args__``) are its bases' then its own annotated names; an omitted
    field takes its class attribute; ``__post_init__`` runs after ``__init__``;
    records compare and hash as field tuples within one class; writes raise
    ``AttributeError``; and ``__replace__`` copies with changes, as
    ``copy.replace`` asks on Python 3.13+."""

    __match_args__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", ())
        cls.__match_args__ += tuple(key for key in own if key not in cls.__match_args__)

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__match_args__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() takes each of {fields} once, by position or keyword")
        values = dict(zip(fields, args), **kwargs)
        for key in fields:
            try:
                self.__dict__[key] = values[key] if key in values else getattr(type(self), key)
            except AttributeError:
                raise TypeError(f"{name}() missing argument {key!r}") from None
        self.__post_init__()

    def __post_init__(self):
        """Check and normalize the fields; a subclass overrides it."""

    def __values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__match_args__)

    def __eq__(self, other):
        return self.__values() == other.__values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.__values())

    def __repr__(self):
        shown = (f"{key}={value!r}" for key, value in zip(self.__match_args__, self.__values()))
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, key, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {key!r}")

    __delattr__ = __setattr__

    def __replace__(self, **changes):
        return type(self)(**dict(zip(self.__match_args__, self.__values()), **changes))


class Inc(_Record):
    """Increment a register and advance to the next instruction."""

    register: int


class DecJz(_Record):
    """Decrement-or-jump-if-zero.

    When the register is positive: decrement it and advance. When it is
    zero: jump to ``target`` without modifying any register.
    """

    register: int
    target: int


class Halt(_Record):
    """Stop execution (sets the instruction pointer past the end)."""


Instruction = Union[Inc, DecJz, Halt]


class MachineParseError(ValueError):
    """Malformed machine source; ``line`` is the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GodelDecodeError(ValueError):
    """A natural number that is not a valid program encoding.

    ``position`` is the 0-based index of the offending instruction when
    the failure is local to one instruction, else ``None``.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"instruction {position}: {message}"
        super().__init__(message)
        self.position = position


_OP_INC, _OP_DECJZ, _OP_HALT = 0, 1, 2


def _str_renders(bits: int) -> bool:
    """Whether ``str`` prints a value of ``bits`` bits: up to 32768 bits, where it
    is faster, and up to 3 * limit bits, where it cannot raise."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return bits <= 32768 and (not limit or bits <= 3 * limit)


def _exact_context():
    """A fresh ``decimal`` context that holds any integer and traps ``Inexact``."""
    import decimal  # only here, so that commands which print small integers never load it

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.Inexact])


def _int_text(value: int) -> str:
    """``str(value)`` at any length, in subquadratic time.

    ``str`` takes the values ``_str_renders`` allows; larger values split at
    half their bit length into ``lo + hi * 2**w`` in ``decimal`` (Brent and
    Zimmermann, *Modern Computer Arithmetic* 1.7), down to 2048-bit leaves.
    """
    bits = value.bit_length()
    if _str_renders(bits):
        return str(value)
    exact = _exact_context()
    powers = {}

    def convert(n: int, width: int):
        if width <= 2048:
            return exact.create_decimal(n)
        half = width >> 1
        if half not in powers:
            powers[half] = exact.power(2, half)
        hi = n >> half
        return exact.fma(convert(hi, width - half), powers[half], convert(n - (hi << half), half))

    text = str(convert(abs(value), bits))
    return "-" + text if value < 0 else text


def _factorial_texts(first: int, stop: int) -> Iterator[str]:
    """``str(math.factorial(n))`` for ``n = first, ..., stop - 1`` (at least
    ``first``), one text at a time, never building an integer factorial.

    ``first!`` is a product tree over ``1..first`` in the exact ``decimal``
    context, whose leaves are ``math.prod`` of up to 32 factors. libmpdec
    multiplies large operands by a number-theoretic transform, and only the
    small leaves are converted from binary (Brent and Zimmermann, *Modern
    Computer Arithmetic* 1.7 and ch. 4). Each later value is one linear
    product by ``n``.
    """
    exact = _exact_context()

    def product(lo: int, hi: int):  # lo * (lo + 1) * ... * (hi - 1)
        if hi - lo <= 32:
            return exact.create_decimal(math.prod(range(lo, hi)))
        mid = (lo + hi) // 2
        return exact.multiply(product(lo, mid), product(mid, hi))

    value = product(1, first + 1)
    yield str(value)
    for n in range(first + 1, stop):
        value = exact.multiply(value, n)
        yield str(value)


def _text_int(text: str) -> int:
    """``int(text)`` at any length: long digit runs split into ``hi * 10**k + lo``."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    if len(body) <= 600 or not digits.isdecimal():
        return int(text)
    k = len(digits) // 2
    value = _text_int(digits[:-k]) * 10**k + _text_int(digits[-k:])
    return -value if body.startswith("-") else value


def _instruction_problem(ins: Instruction, register_count: int, count: int) -> str | None:
    """Why ``ins`` cannot sit in a program of ``count`` instructions over
    ``register_count`` registers, or ``None`` when it can."""
    if isinstance(ins, (Inc, DecJz)) and not 0 <= ins.register < register_count:
        return (f"register {_int_text(ins.register)} out of range"
                f" for register count {_int_text(register_count)}")
    if isinstance(ins, DecJz) and not 0 <= ins.target < count:
        return (f"jump target {_int_text(ins.target)} out of range"
                f" for {_int_text(count)} instructions")
    return None


class MachineProgram(_Record):
    """A validated counter-machine program.

    Invariants: at least one instruction, every jump target is an existing
    0-based instruction index, every register index is below
    ``register_count``, and ``register_count >= 1``.
    """

    instructions: tuple[Instruction, ...]
    register_count: int

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not self.instructions:
            raise ValueError("program must contain at least one instruction")
        if self.register_count < 1:
            raise ValueError("register_count must be at least 1")
        for i, ins in enumerate(self.instructions):
            problem = _instruction_problem(ins, self.register_count, len(self.instructions))
            if problem is not None:
                raise ValueError(f"instruction {i}: {problem}")

    @cached_property
    def _code(self) -> tuple[tuple[int, int, int], ...]:
        # Dense dispatch form for the interpreter hot loop.
        rows = []
        for ins in self.instructions:
            if isinstance(ins, Inc):
                rows.append((_OP_INC, ins.register, 0))
            elif isinstance(ins, DecJz):
                rows.append((_OP_DECJZ, ins.register, ins.target))
            else:
                rows.append((_OP_HALT, 0, 0))
        return tuple(rows)


class HaltedAt(_Record):
    """The program halted; ``steps`` is the exact step count at halt."""

    steps: int
    halted = True  # unannotated, so a class constant and not a field


class RunningAfter(_Record):
    """The program was still running when the step budget ran out."""

    budget: int
    halted = False


# ---------------------------------------------------------------------------
# Source format
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Each instruction's operand count, and the message for any other count.
_SYNTAX = {"halt": (0, "halt takes no operands"), "inc": (1, "expected: inc R"),
           "decjz": (2, "expected: decjz R TARGET")}


def _inferred_registers(instructions: Iterable[Instruction]) -> int:
    """One past the highest register the instructions use, at least 1."""
    return max((i.register + 1 for i in instructions if not isinstance(i, Halt)), default=1)


def parse_program(text: str) -> MachineProgram:
    """Parse line-oriented machine source into a validated program.

    Format: one instruction per line, optionally prefixed by ``label:``.
    Instructions are ``inc R``, ``decjz R TARGET`` and ``halt``, where
    ``R`` is a decimal register index and ``TARGET`` is either a label or
    a bare decimal instruction index. ``#`` starts a comment. An optional
    ``registers N`` directive (at most once) pins the register count;
    otherwise it is inferred as one past the highest register used, with
    a minimum of 1.
    """
    declared_registers: int | None = None
    parsed: list[tuple[int, int | None, list[str]]] = []  # (line_no, register, targets)
    labels: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()

        if tokens[0].lower() == "registers":
            if len(tokens) != 2:
                raise MachineParseError("expected: registers N", line_no)
            if declared_registers is not None:
                raise MachineParseError("duplicate registers directive", line_no)
            declared_registers = _parse_nat(tokens[1], "register count", line_no)
            if not 1 <= declared_registers <= MAX_REGISTERS:
                raise MachineParseError(
                    f"register count must be in 1..{MAX_REGISTERS}", line_no
                )
            continue

        if tokens[0].endswith(":"):
            label = tokens[0][:-1]
            if not _LABEL_RE.match(label):
                raise MachineParseError(f"invalid label {label!r}", line_no)
            if label in labels:
                raise MachineParseError(f"duplicate label {label!r}", line_no)
            labels[label] = len(parsed)
            tokens = tokens[1:]
            if not tokens:
                raise MachineParseError(
                    "label must prefix an instruction on the same line", line_no
                )

        op = tokens[0].lower()
        if op not in _SYNTAX:
            raise MachineParseError(f"unknown instruction {op!r}", line_no)
        operands, usage = _SYNTAX[op]
        if len(tokens) != operands + 1:
            raise MachineParseError(usage, line_no)
        reg = _parse_nat(tokens[1], "register index", line_no) if operands else None
        parsed.append((line_no, reg, tokens[2:]))

    if not parsed:
        raise MachineParseError("program contains no instructions", max(1, text.count("\n") + 1))

    instructions: list[Instruction] = []
    for line_no, reg, targets in parsed:
        if reg is None:
            instructions.append(Halt())
            continue
        if reg > MAX_REGISTERS - 1:
            raise MachineParseError(f"register index {reg} out of range", line_no)
        if declared_registers is not None and reg >= declared_registers:
            raise MachineParseError(
                f"register index {reg} out of range (declared {declared_registers})",
                line_no,
            )
        if not targets:
            instructions.append(Inc(reg))
            continue
        (target_text,) = targets
        if target_text.isdecimal():
            target = _parse_nat(target_text, "jump target", line_no)
        elif target_text in labels:
            target = labels[target_text]
        else:
            raise MachineParseError(f"unknown jump target {target_text!r}", line_no)
        if target >= len(parsed):
            raise MachineParseError(f"jump target {target} out of range", line_no)
        instructions.append(DecJz(reg, target))

    return MachineProgram(instructions, declared_registers or _inferred_registers(instructions))


def _parse_nat(token: str, what: str, line_no: int) -> int:
    if not token.isdecimal():
        raise MachineParseError(f"{what} must be a decimal natural, got {token!r}", line_no)
    if len(token.lstrip("0")) > 600:  # out of range, and int() may refuse it
        raise MachineParseError(f"{what} out of range", line_no)
    return int(token.lstrip("0") or "0")


def pretty_program(program: MachineProgram) -> str:
    """Render a program back to source text; ``parse_program`` inverts it."""
    targets = {
        ins.target for ins in program.instructions if isinstance(ins, DecJz)
    }
    lines: list[str] = []
    if program.register_count != _inferred_registers(program.instructions):
        lines.append(f"registers {_int_text(program.register_count)}")
    for i, ins in enumerate(program.instructions):
        prefix = f"L{_int_text(i)}: " if i in targets else ""
        if isinstance(ins, Inc):
            lines.append(f"{prefix}inc {_int_text(ins.register)}")
        elif isinstance(ins, DecJz):
            lines.append(f"{prefix}decjz {_int_text(ins.register)} L{_int_text(ins.target)}")
        else:
            lines.append(f"{prefix}halt")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


# A watch of one loop pass gives up after _WATCH_CAP steps. A head whose watch
# did not pay off rests for _QUIET times the steps watched, so failed watches
# cost a fixed share.
_WATCH_CAP = 1 << 12
_QUIET = 8


class MachineRun:
    """One run of a program on one input, resumable at any step count.

    ``registers``, ``pc`` and ``steps`` are the live interpreter state;
    ``halt_step`` is the step count at halt once the run has reached it,
    else ``None``. ``advance`` is the only loop that executes programs. At
    a loop head it watches one real pass of the loop, and when the pass
    returns to the head it applies at once the further passes that keep
    every zero test and decrement outcome of that pass, so a loop costs
    O(1) per exit and the state stays exactly what one instruction per
    step gives.
    """

    __slots__ = ("program", "registers", "pc", "steps", "halt_step", "_quiet")

    def __init__(self, program: MachineProgram, input_value: int):
        if input_value < 0:
            raise ValueError("input must be a natural number")
        self.program = program
        self.registers = [input_value] + [0] * (program.register_count - 1)
        self.pc = 0
        self.steps = 0
        self.halt_step: int | None = None
        self._quiet: dict[int, int] = {}  # loop head -> first step it may be watched again

    def advance(self, budget: int) -> int | None:
        """Run on until halted or ``budget`` steps in total; return ``halt_step``."""
        code = self.program._code
        n = len(code)
        regs = self.registers
        quiet = self._quiet
        pc = self.pc
        steps = self.steps
        # The watched pass: its head (-1 when none), the step it began at, each
        # register's value before its first write, the least value each
        # decrement met, and the zero-tested registers. The last four are
        # bound when a watch starts.
        head = -1
        while steps < budget and pc < n:
            op, a, b = code[pc]
            steps += 1
            if op == _OP_INC:
                if head >= 0 and a not in before:
                    before[a] = regs[a]
                regs[a] += 1
                pc += 1
            elif op == _OP_DECJZ:
                v = regs[a]
                if v:
                    if head >= 0:
                        if a not in before:
                            before[a] = low[a] = v
                        elif a not in low or v < low[a]:
                            low[a] = v
                    regs[a] = v - 1
                    pc += 1
                elif head < 0:
                    # Fall-through only moves forward, so every loop closes
                    # with a backward jump like this one.
                    if b <= pc and quiet.get(b, 0) <= steps:
                        head, start, before, low, zeros = b, steps, {}, {}, set()
                    pc = b
                else:
                    zeros.add(a)
                    if b == head:
                        # The pass from ``start`` ran for real. Each later
                        # pass adds the same deltas and takes the same path
                        # while zero-tested registers keep their values and
                        # decrements find positive ones; those of them that
                        # fit in the budget follow at once.
                        length = steps - start
                        passes = (budget - start) // length
                        deltas = {r: regs[r] - v for r, v in before.items() if regs[r] != v}
                        for r, d in deltas.items():
                            if r in zeros:
                                passes = min(passes, 1)
                            elif d < 0:
                                passes = min(passes, (low[r] - 1) // -d + 1)
                        for r, d in deltas.items():
                            regs[r] += (passes - 1) * d
                        steps += (passes - 1) * length
                        if passes < 2:
                            quiet[head] = steps + _QUIET * length
                        head = -1
                    elif steps - start >= _WATCH_CAP:
                        quiet[head] = steps + _QUIET * (steps - start)
                        head = -1
                    pc = b
            else:
                pc = n
        self.pc = pc
        self.steps = steps
        if pc >= n:
            self.halt_step = steps
        return self.halt_step


def run_bounded(program: MachineProgram, input_value: int, budget: int) -> HaltedAt | RunningAfter:
    """Run for at most ``budget`` steps.

    Returns ``HaltedAt(n0)`` with ``n0 <= budget`` when the program halts
    within the budget, else ``RunningAfter(budget)``. Budget exhaustion is
    an ordinary value, not an error, and the result is deterministic.
    """
    run = MachineRun(program, input_value)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    halt = run.advance(budget)
    return RunningAfter(budget) if halt is None else HaltedAt(halt)


def halted_by(program: MachineProgram, input_value: int, n: int) -> bool:
    """Whether the program has halted within ``n`` steps (monotone in n)."""
    return run_bounded(program, input_value, n).halted


# ---------------------------------------------------------------------------
# Arithmetic encoding (Cantor pairing over a balanced instruction tree)
# ---------------------------------------------------------------------------
#
# Instruction codes form a bijection with the naturals:
#   0        <-> halt
#   2m + 1   <-> decjz r t   where (r, t) = unpair(m)
#   2m + 2   <-> inc m
# A program's instruction codes are folded into one natural by pairing
# over a balanced binary tree (left half gets the ceiling), which keeps
# the code size linear in total instruction bits; a linear right fold
# would double the bit length per instruction. The register count and
# instruction count are paired on top.


def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + a


def _unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    a = z - w * (w + 1) // 2
    return a, w - a


def _instruction_code(ins: Instruction) -> int:
    if isinstance(ins, Halt):
        return 0
    if isinstance(ins, DecJz):
        return 2 * _pair(ins.register, ins.target) + 1
    return 2 * ins.register + 2


def _instruction_from_code(code: int) -> Instruction:
    if code == 0:
        return Halt()
    if code % 2 == 1:
        r, t = _unpair((code - 1) // 2)
        return DecJz(r, t)
    return Inc((code - 2) // 2)


def _encode_tree(codes: list[int], lo: int, hi: int) -> int:
    if hi - lo == 1:
        return codes[lo]
    mid = (lo + hi + 1) // 2
    return _pair(_encode_tree(codes, lo, mid), _encode_tree(codes, mid, hi))


def _decode_tree(value: int, count: int, out: list[int]) -> None:
    if count == 1:
        out.append(value)
        return
    left = (count + 1) // 2
    a, b = _unpair(value)
    _decode_tree(a, left, out)
    _decode_tree(b, count - left, out)


def encode_godel(program: MachineProgram) -> int:
    """Encode a program as a natural number; injective on valid programs."""
    codes = [_instruction_code(ins) for ins in program.instructions]
    tree = _encode_tree(codes, 0, len(codes))
    return _pair(program.register_count - 1, _pair(len(codes) - 1, tree))


def decode_godel(code: int) -> MachineProgram:
    """Invert :func:`encode_godel`; raises :class:`GodelDecodeError`.

    Every natural number splits structurally, so rejection always points
    at a concrete violation: an instruction whose register index is not
    below the encoded register count, a jump target outside the program,
    or a count beyond the decoder's defensive limits.
    """
    if code < 0:
        raise GodelDecodeError("code must be a natural number")
    rc_minus_1, rest = _unpair(code)
    count_minus_1, tree = _unpair(rest)
    register_count = rc_minus_1 + 1
    count = count_minus_1 + 1
    if register_count > MAX_REGISTERS:
        raise GodelDecodeError(
            f"register count {_int_text(register_count)} exceeds decoder limit {MAX_REGISTERS}"
        )
    if count > MAX_DECODED_INSTRUCTIONS:
        raise GodelDecodeError(
            f"instruction count {_int_text(count)} exceeds decoder limit {MAX_DECODED_INSTRUCTIONS}"
        )
    codes: list[int] = []
    _decode_tree(tree, count, codes)
    instructions = tuple(_instruction_from_code(c) for c in codes)
    for i, ins in enumerate(instructions):
        problem = _instruction_problem(ins, register_count, count)
        if problem is not None:
            raise GodelDecodeError(problem, position=i)
    return MachineProgram(instructions, register_count)
