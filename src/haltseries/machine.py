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
the Cantor pairing function.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

__all__ = [
    "Inc",
    "DecJz",
    "Halt",
    "Instruction",
    "MachineProgram",
    "MachineState",
    "MachineRun",
    "HaltedAt",
    "RunningAfter",
    "ExecutionOutcome",
    "MachineParseError",
    "GodelDecodeError",
    "parse_program",
    "pretty_program",
    "initial_state",
    "is_halted",
    "step",
    "run_bounded",
    "halted_by",
    "encode_godel",
    "decode_godel",
]

# Defensive caps for decoding untrusted codes; far above anything the
# rest of the toolkit produces.
MAX_DECODED_INSTRUCTIONS = 4096
MAX_REGISTERS = 4096


@dataclass(frozen=True)
class Inc:
    """Increment a register and advance to the next instruction."""

    register: int


@dataclass(frozen=True)
class DecJz:
    """Decrement-or-jump-if-zero.

    When the register is positive: decrement it and advance. When it is
    zero: jump to ``target`` without modifying any register.
    """

    register: int
    target: int


@dataclass(frozen=True)
class Halt:
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


@dataclass(frozen=True)
class MachineProgram:
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
        n = len(self.instructions)
        for i, ins in enumerate(self.instructions):
            if isinstance(ins, (Inc, DecJz)):
                if not 0 <= ins.register < self.register_count:
                    raise ValueError(
                        f"instruction {i}: register {ins.register} out of range "
                        f"for register count {self.register_count}"
                    )
            if isinstance(ins, DecJz) and not 0 <= ins.target < n:
                raise ValueError(
                    f"instruction {i}: jump target {ins.target} out of range "
                    f"for {n} instructions"
                )

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


@dataclass(frozen=True)
class MachineState:
    """Interpreter state: ``pc == len(instructions)`` encodes "halted"."""

    pc: int
    registers: tuple[int, ...]
    steps_executed: int


@dataclass(frozen=True)
class HaltedAt:
    """The program halted; ``steps`` is the exact step count at halt."""

    steps: int

    @property
    def halted(self) -> bool:
        return True


@dataclass(frozen=True)
class RunningAfter:
    """The program was still running when the step budget ran out."""

    budget: int

    @property
    def halted(self) -> bool:
        return False


ExecutionOutcome = Union[HaltedAt, RunningAfter]


# ---------------------------------------------------------------------------
# Source format
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    parsed: list[tuple[int, str, tuple]] = []  # (line_no, kind, args)
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
        if op == "halt":
            if len(tokens) != 1:
                raise MachineParseError("halt takes no operands", line_no)
            parsed.append((line_no, "halt", ()))
        elif op == "inc":
            if len(tokens) != 2:
                raise MachineParseError("expected: inc R", line_no)
            reg = _parse_nat(tokens[1], "register index", line_no)
            parsed.append((line_no, "inc", (reg,)))
        elif op == "decjz":
            if len(tokens) != 3:
                raise MachineParseError("expected: decjz R TARGET", line_no)
            reg = _parse_nat(tokens[1], "register index", line_no)
            parsed.append((line_no, "decjz", (reg, tokens[2])))
        else:
            raise MachineParseError(f"unknown instruction {op!r}", line_no)

    if not parsed:
        raise MachineParseError("program contains no instructions", max(1, text.count("\n") + 1))

    n = len(parsed)
    max_register = -1
    instructions: list[Instruction] = []
    for line_no, kind, args in parsed:
        if kind == "halt":
            instructions.append(Halt())
            continue
        reg = args[0]
        if reg > MAX_REGISTERS - 1:
            raise MachineParseError(f"register index {reg} out of range", line_no)
        if declared_registers is not None and reg >= declared_registers:
            raise MachineParseError(
                f"register index {reg} out of range (declared {declared_registers})",
                line_no,
            )
        max_register = max(max_register, reg)
        if kind == "inc":
            instructions.append(Inc(reg))
            continue
        target_text = args[1]
        if target_text.isdigit():
            target = int(target_text)
        elif target_text in labels:
            target = labels[target_text]
        else:
            raise MachineParseError(f"unknown jump target {target_text!r}", line_no)
        if target >= n:
            raise MachineParseError(f"jump target {target} out of range", line_no)
        instructions.append(DecJz(reg, target))

    register_count = declared_registers
    if register_count is None:
        register_count = max(max_register + 1, 1)
    return MachineProgram(tuple(instructions), register_count)


def _parse_nat(token: str, what: str, line_no: int) -> int:
    if not token.isdigit():
        raise MachineParseError(f"{what} must be a decimal natural, got {token!r}", line_no)
    return int(token)


def pretty_program(program: MachineProgram) -> str:
    """Render a program back to source text; ``parse_program`` inverts it."""
    targets = {
        ins.target for ins in program.instructions if isinstance(ins, DecJz)
    }
    inferred = max(
        (ins.register for ins in program.instructions if isinstance(ins, (Inc, DecJz))),
        default=-1,
    ) + 1
    lines: list[str] = []
    if program.register_count != max(inferred, 1):
        lines.append(f"registers {program.register_count}")
    for i, ins in enumerate(program.instructions):
        prefix = f"L{i}: " if i in targets else ""
        if isinstance(ins, Inc):
            lines.append(f"{prefix}inc {ins.register}")
        elif isinstance(ins, DecJz):
            lines.append(f"{prefix}decjz {ins.register} L{ins.target}")
        else:
            lines.append(f"{prefix}halt")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


def initial_state(program: MachineProgram, input_value: int) -> MachineState:
    """Load ``input_value`` into register 0, zero the rest, reset counters."""
    if input_value < 0:
        raise ValueError("input must be a natural number")
    registers = (input_value,) + (0,) * (program.register_count - 1)
    return MachineState(pc=0, registers=registers, steps_executed=0)


def is_halted(program: MachineProgram, state: MachineState) -> bool:
    return state.pc >= len(program.instructions)


def step(program: MachineProgram, state: MachineState) -> MachineState:
    """Execute exactly one instruction, returning the successor state.

    Stepping a halted state is a contract violation and raises ValueError.
    """
    n = len(program.instructions)
    if state.pc >= n:
        raise ValueError("cannot step a halted state")
    ins = program.instructions[state.pc]
    regs = state.registers
    steps = state.steps_executed + 1
    if isinstance(ins, Inc):
        r = ins.register
        regs = regs[:r] + (regs[r] + 1,) + regs[r + 1 :]
        return MachineState(state.pc + 1, regs, steps)
    if isinstance(ins, DecJz):
        r = ins.register
        if regs[r] > 0:
            regs = regs[:r] + (regs[r] - 1,) + regs[r + 1 :]
            return MachineState(state.pc + 1, regs, steps)
        return MachineState(ins.target, regs, steps)
    return MachineState(n, regs, steps)


class MachineRun:
    """One run of a program on one input, resumable at any step count.

    ``registers``, ``pc`` and ``steps`` are the live interpreter state;
    ``halt_step`` is the step count at halt once the run has reached it,
    else ``None``. This is the only place programs are executed outside
    the single-step reference semantics of :func:`step`.
    """

    __slots__ = ("program", "registers", "pc", "steps", "halt_step")

    def __init__(self, program: MachineProgram, input_value: int):
        if input_value < 0:
            raise ValueError("input must be a natural number")
        self.program = program
        self.registers = [0] * program.register_count
        self.registers[0] = input_value
        self.pc = 0
        self.steps = 0
        self.halt_step: int | None = None

    def advance(self, budget: int) -> int | None:
        """Run on until halted or ``budget`` steps in total; return ``halt_step``."""
        code = self.program._code
        n = len(code)
        regs = self.registers
        pc = self.pc
        steps = self.steps
        while steps < budget and pc < n:
            op, a, b = code[pc]
            steps += 1
            if op == _OP_INC:
                regs[a] += 1
                pc += 1
            elif op == _OP_DECJZ:
                v = regs[a]
                if v:
                    regs[a] = v - 1
                    pc += 1
                else:
                    pc = b
            else:
                pc = n
        self.pc = pc
        self.steps = steps
        if pc >= n:
            self.halt_step = steps
        return self.halt_step


def run_bounded(program: MachineProgram, input_value: int, budget: int) -> ExecutionOutcome:
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
            f"register count {register_count} exceeds decoder limit {MAX_REGISTERS}"
        )
    if count > MAX_DECODED_INSTRUCTIONS:
        raise GodelDecodeError(
            f"instruction count {count} exceeds decoder limit {MAX_DECODED_INSTRUCTIONS}"
        )
    codes: list[int] = []
    _decode_tree(tree, count, codes)
    instructions: list[Instruction] = []
    for i, c in enumerate(codes):
        ins = _instruction_from_code(c)
        if isinstance(ins, (Inc, DecJz)) and ins.register >= register_count:
            raise GodelDecodeError(
                f"register {ins.register} out of range for register count "
                f"{register_count}",
                position=i,
            )
        if isinstance(ins, DecJz) and ins.target >= count:
            raise GodelDecodeError(
                f"jump target {ins.target} out of range for {count} instructions",
                position=i,
            )
        instructions.append(ins)
    return MachineProgram(tuple(instructions), register_count)
