"""Shared machine corpus and generators for the test suite.

Halting machines carry their exact halt step, verified by hand
simulation of the interpreter semantics (every executed instruction,
halt included, counts as one step). Non-halting machines are structural:
control provably never reaches a halt or falls off the end.
"""

from __future__ import annotations

import contextlib
import random
import sys
from dataclasses import dataclass

from hypothesis import strategies as st

from haltseries import DecJz, Halt, Inc, MachineProgram, builtin_stream, parse_program
from haltseries.coefficients import CoefficientStream


@dataclass(frozen=True)
class HaltingCase:
    name: str
    source: str
    input_value: int
    halt_step: int  # hand-simulated


@dataclass(frozen=True)
class NonHaltingCase:
    name: str
    source: str
    input_value: int


HALTING = (
    # halt executes as the single step
    HaltingCase("halt_now", "halt", 0, 1),
    # inc, inc, halt
    HaltingCase("two_incs", "inc 0\ninc 0\nhalt", 0, 3),
    # decjz on zero jumps (step 1), halt (step 2)
    HaltingCase("jump_to_halt", "decjz 0 end\nend: halt", 0, 2),
    # per loop pass: decjz hit + jump back = 2 steps; 3 passes for input 3,
    # then the zero test jumps out (1) and halt (1): 2*3 + 2 = 8
    HaltingCase(
        "countdown",
        "loop: decjz 0 done\ndecjz 2 loop\ndone: halt",
        3,
        8,
    ),
    # 3 incs, then 3 passes of (decjz, inc, jump) = 9, exit test 1, halt 1
    HaltingCase(
        "drain_three",
        "inc 1\ninc 1\ninc 1\ndrain: decjz 1 done\ninc 0\ndecjz 2 drain\ndone: halt",
        0,
        14,
    ),
    # single inc, halts by falling off the end
    HaltingCase("fall_off", "inc 0", 0, 1),
)

NON_HALTING = (
    NonHaltingCase("self_loop", "loop: decjz 1 loop", 0),
    NonHaltingCase("inc_forever", "loop: inc 1\ndecjz 2 loop", 0),
    NonHaltingCase("two_inc_loop", "loop: inc 0\ninc 0\ndecjz 3 loop", 0),
    NonHaltingCase("ping_pong", "a: decjz 2 b\nb: decjz 3 a", 0),
    NonHaltingCase("grow", "grow: inc 1\ninc 2\ndecjz 4 grow", 0),
    # register 0 is bumped right before the test, so it never reads zero
    # and the halt line is unreachable
    NonHaltingCase("bump_then_test", "top: inc 0\ndecjz 0 out\ndecjz 5 top\nout: halt", 7),
)


# 400 labelled instructions whose Goedel code has 10,555 digits, past the
# interpreter's default 4,300-digit limit.
LONG_PROGRAM = "".join(
    f"p{i}: " + (f"decjz {i % 7} p{(i * 37 + 11) % 400}\n" if i % 3 else f"inc {i % 7}\n")
    for i in range(400)
) + "halt\n"


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run the block under the interpreter's int-digit limit ``limit``."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def halting_programs() -> list[tuple[HaltingCase, MachineProgram]]:
    return [(case, parse_program(case.source)) for case in HALTING]


def non_halting_programs() -> list[tuple[NonHaltingCase, MachineProgram]]:
    return [(case, parse_program(case.source)) for case in NON_HALTING]


def all_programs() -> list[MachineProgram]:
    return [parse_program(c.source) for c in HALTING + NON_HALTING]


def random_program(rng: random.Random, max_len: int = 8, max_regs: int = 4) -> MachineProgram:
    """A uniformly scrappy but always-valid random program."""
    n = rng.randint(1, max_len)
    register_count = rng.randint(1, max_regs)
    instructions = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            instructions.append(Inc(rng.randrange(register_count)))
        elif roll < 0.8:
            instructions.append(DecJz(rng.randrange(register_count), rng.randrange(n)))
        else:
            instructions.append(Halt())
    return MachineProgram(tuple(instructions), register_count)


class Counting(CoefficientStream):
    """Forwards to ``stream`` and counts the coefficients read through ``at``."""

    def __init__(self, stream):
        self.stream = stream
        self.reads = 0

    def at(self, n):
        self.reads += 1
        return self.stream.at(n)

    def term_shape(self, upto):
        return self.stream.term_shape(upto)


def cantor_pair(a: int, b: int) -> int:
    """Independent pairing helper for building codes by hand in tests."""
    s = a + b
    return s * (s + 1) // 2 + a


@st.composite
def programs(draw):
    """Random programs of up to eight instructions over up to four registers."""
    n = draw(st.integers(1, 8))
    register_count = draw(st.integers(1, 4))
    instructions = []
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            instructions.append(Inc(draw(st.integers(0, register_count - 1))))
        elif kind == 1:
            instructions.append(
                DecJz(draw(st.integers(0, register_count - 1)), draw(st.integers(0, n - 1)))
            )
        else:
            instructions.append(Halt())
    return MachineProgram(tuple(instructions), register_count)


def builtin_streams():
    """Every builtin, with random parameters; geometric ratios are nonzero."""
    return st.one_of(
        st.sampled_from(["zero", "one", "harmonic", "alternating", "reciprocal_factorial"]).map(
            builtin_stream
        ),
        st.integers(0, 40).map(lambda n0: builtin_stream("factorial_tail", n0)),
        st.fractions(-5, 5, max_denominator=9)
        .filter(lambda q: q != 0)
        .map(lambda q: builtin_stream("geometric", q)),
    )
