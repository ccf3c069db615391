import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import haltseries

from haltseries import (
    DecJz,
    GodelDecodeError,
    Halt,
    HaltedAt,
    HaltingEncoded,
    Inc,
    MachineParseError,
    MachineProgram,
    RunningAfter,
    decode_godel,
    encode_godel,
    halted_by,
    parse_program,
    pretty_program,
    run_bounded,
)
from haltseries import machine
from haltseries.machine import _LABEL_RE, MAX_REGISTERS, MachineRun, _parse_nat

import corpus


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_halt():
    program = parse_program("halt")
    assert program.instructions == (Halt(),)
    assert program.register_count == 1
    assert run_bounded(program, 0, 10) == HaltedAt(1)


def test_parse_self_loop():
    program = parse_program("loop: decjz 1 loop")
    assert program.instructions == (DecJz(1, 0),)
    assert program.register_count == 2
    assert run_bounded(program, 0, 10 ** 6) == RunningAfter(10 ** 6)


def test_parse_comments_and_numeric_targets():
    program = parse_program("# a comment\ninc 0  # trailing\ndecjz 0 0\n")
    assert program.instructions == (Inc(0), DecJz(0, 0))


def test_parse_missing_operand_is_syntax_error_with_line():
    with pytest.raises(MachineParseError) as err:
        parse_program("inc")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "source, line",
    [
        ("inc 0\nfoo 1", 2),
        ("decjz 0 nowhere", 1),
        ("inc 0\ndecjz 0 7", 2),  # numeric target past the end
        ("a: inc 0\na: halt", 2),
        ("inc x", 1),
        ("lonely:", 1),
        ("registers 0", 1),
        ("registers 2\ninc 5", 2),
        ("", 1),
        ("registers 2 3\nhalt", 1),
        ("registers 1\nregisters 1\nhalt", 2),
        ("9x: halt", 1),
        ("halt 0", 1),
        ("decjz 0", 1),
        ("inc 4096", 1),
        ("inc ²", 1),  # a digit to isdigit, but no decimal natural
        ("halt\ndecjz 0 ²", 2),
        ("registers ²\nhalt", 1),
    ],
)
def test_parse_errors_carry_line_numbers(source, line):
    with pytest.raises(MachineParseError) as err:
        parse_program(source)
    assert err.value.line == line


@pytest.mark.parametrize("limit", [0, 640, 4300])
@pytest.mark.parametrize(
    "source, line",
    [
        ("inc " + "9" * 5000, 1),
        ("halt\nregisters " + "1" * 4301, 2),
        ("inc 0\ndecjz 0 " + "7" * 601, 2),
    ],
    ids=["register-index", "register-count", "jump-target"],
)
def test_over_long_numbers_are_out_of_range_under_any_int_digit_limit(source, line, limit):
    with corpus.int_digit_limit(limit), pytest.raises(MachineParseError) as err:
        parse_program(source)
    assert err.value.line == line
    assert str(err.value).endswith(" out of range")


def test_leading_zeros_do_not_count_as_digits():
    with corpus.int_digit_limit(640):
        assert parse_program("inc " + "0" * 5000 + "5\ndecjz 0 " + "0" * 700).instructions == (
            Inc(5), DecJz(0, 0),
        )


def test_registers_directive_widens_count():
    program = parse_program("registers 5\ninc 0\nhalt")
    assert program.register_count == 5


@given(corpus.programs(), st.integers(0, 3))
@settings(deadline=None)
def test_pretty_then_parse_is_identity_on_corpus(program, extra):
    # ``extra`` declares registers past the inferred count, so the text must say so.
    program = MachineProgram(program.instructions, program.register_count + extra)
    assert parse_program(pretty_program(program)) == program
    for program in corpus.all_programs():
        assert parse_program(pretty_program(program)) == program


def _reference_parse_program(text: str) -> MachineProgram:
    """The source parser as written with one branch per instruction and a
    kind-tagged second pass; ``parse_program`` must agree with it exactly."""
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
    instructions: list = []
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
        if target_text.isdecimal():
            target = _parse_nat(target_text, "jump target", line_no)
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


def _parse_outcome(parse, source):
    """The program and its pretty text, or the error's type, message and line."""
    try:
        program = parse(source)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return program, pretty_program(program)


_NUMBERS = ["0", "1", "2", "3", "007", "4095", "4096", "5000", "9" * 601, "0" * 700 + "2", "²", "x"]
_SOUP = ["inc", "decjz", "halt", "HALT", "Inc", "registers", "nop", "a:", "b:", "9x:", ":",
         "a", "b", "#", "#c", *_NUMBERS]
_NUMBER = st.sampled_from(_NUMBERS)
_INSTRUCTION = st.one_of(
    st.just("halt"),
    _NUMBER.map("inc {}".format),
    st.tuples(_NUMBER, st.sampled_from(["0", "1", "5", "a", "b", "c", "7" * 601, "²"])).map(
        lambda rt: "decjz {} {}".format(*rt)
    ),
)
_SOURCE_LINE = st.one_of(
    st.tuples(st.sampled_from(["", "", "a: ", "b: ", "9x: "]), _INSTRUCTION).map("".join),
    st.sampled_from(["1", "2", "4", "4096", "0", "5000"]).map("registers {}".format),
    st.lists(st.sampled_from(_SOUP), max_size=4).map(" ".join),
    st.just("# comment"),
)


@given(st.lists(_SOURCE_LINE, max_size=7).map("\n".join))
@settings(deadline=None, max_examples=500)
@example("registers 2\ninc 5000")  # the register cap is checked before the declared count
@example("inc 5000\nregisters 2\nfoo")  # any line's syntax error comes before range checks
@example("decjz 0 a\nregisters 1\na: halt")  # a label and the directive may follow their use
@example("decjz 0 0 0\nhalt 1")
def test_parse_program_agrees_with_the_reference_parser(source):
    expected = _parse_outcome(_reference_parse_program, source)
    assert _parse_outcome(parse_program, source) == expected


def test_pretty_preserves_declared_registers():
    program = parse_program("registers 4\nhalt")
    again = parse_program(pretty_program(program))
    assert again.register_count == 4


# ---------------------------------------------------------------------------
# one-step semantics
# ---------------------------------------------------------------------------


def _single_steps(program, input_value, budgets):
    """The reference semantics: the state after each budget, executing one
    instruction of ``program.instructions`` per step, with no macro-steps
    and without the interpreter's dense table."""
    instructions = program.instructions
    n = len(instructions)
    regs = [input_value] + [0] * (program.register_count - 1)
    pc = steps = 0
    states = []
    for budget in budgets:
        while steps < budget and pc < n:
            ins = instructions[pc]
            steps += 1
            if isinstance(ins, Inc):
                regs[ins.register] += 1
                pc += 1
            elif isinstance(ins, DecJz):
                if regs[ins.register]:
                    regs[ins.register] -= 1
                    pc += 1
                else:
                    pc = ins.target
            else:
                pc = n
        states.append((pc, tuple(regs), steps, steps if pc >= n else None))
    return states


def _after_one_step(source, pc, registers):
    """``(pc, registers, steps, halt_step)`` after ``advance(1)`` from ``pc`` and ``registers``."""
    run = MachineRun(parse_program(source), 0)
    run.pc, run.registers = pc, list(registers)
    halt_step = run.advance(1)
    return run.pc, tuple(run.registers), run.steps, halt_step


def test_step_inc():
    assert _after_one_step("halt\ninc 1\nhalt", 1, (4, 7)) == (2, (4, 8), 1, None)


def test_step_decjz_on_zero_jumps_without_touching_registers():
    assert _after_one_step("inc 0\ndecjz 1 0\nhalt", 1, (5, 0)) == (0, (5, 0), 1, None)


def test_step_decjz_on_positive_decrements_and_advances():
    assert _after_one_step("inc 0\ndecjz 1 0\nhalt", 1, (5, 3)) == (2, (5, 2), 1, None)


def test_step_halt_moves_pc_past_the_end():
    assert _after_one_step("inc 0\nhalt", 1, (2,)) == (2, (2,), 1, 1)


# ---------------------------------------------------------------------------
# bounded runs
# ---------------------------------------------------------------------------


def test_run_bounded_three_step_program():
    program = parse_program("inc 0\ninc 0\nhalt")
    assert run_bounded(program, 0, 10) == HaltedAt(3)


def test_run_bounded_budget_zero_never_halts():
    program = parse_program("halt")
    assert run_bounded(program, 0, 0) == RunningAfter(0)


def test_halted_by_boundary_conventions():
    program = parse_program("halt")
    assert not halted_by(program, 0, 0)
    assert halted_by(program, 0, 1)
    three = parse_program("inc 0\ninc 0\nhalt")
    assert not halted_by(three, 0, 2)
    assert halted_by(three, 0, 3)


def test_corpus_halt_steps_match_hand_simulation():
    for case, program in corpus.halting_programs():
        assert run_bounded(program, case.input_value, 10 ** 4) == HaltedAt(case.halt_step), case.name


def test_corpus_non_halting_exhaust_budget():
    for case, program in corpus.non_halting_programs():
        assert run_bounded(program, case.input_value, 10 ** 4) == RunningAfter(10 ** 4), case.name


def test_budget_consistency_on_corpus():
    for case, program in corpus.halting_programs():
        n0 = case.halt_step
        for budget in (n0, n0 + 1, n0 + 17, 10 ** 3):
            assert run_bounded(program, case.input_value, budget) == HaltedAt(n0)
        assert run_bounded(program, case.input_value, n0 - 1) == RunningAfter(n0 - 1)


def test_run_bounded_is_deterministic():
    program = parse_program(corpus.HALTING[4].source)
    outcomes = {run_bounded(program, 0, 100) for _ in range(5)}
    assert len(outcomes) == 1


@given(corpus.programs(), st.integers(0, 5), st.integers(0, 60))
@settings(deadline=None)
def test_run_bounded_agrees_with_single_stepping(program, input_value, budget):
    ((_, _, _, halt_step),) = _single_steps(program, input_value, [budget])
    expected = RunningAfter(budget) if halt_step is None else HaltedAt(halt_step)
    assert run_bounded(program, input_value, budget) == expected


@given(
    corpus.programs(),
    st.integers(0, 300),
    st.lists(st.integers(0, 3000), min_size=1, max_size=6).map(sorted),
)
@settings(deadline=None)
def test_resumed_run_agrees_with_single_stepping(program, input_value, budgets):
    # Inputs and budgets large enough for loop macro-steps of many passes.
    run = MachineRun(program, input_value)
    for budget, expected in zip(budgets, _single_steps(program, input_value, budgets)):
        halt_step = run.advance(budget)
        assert (run.pc, tuple(run.registers), run.steps, halt_step) == expected
        assert run.halt_step == halt_step


def test_run_rejects_negative_input():
    program = parse_program("halt")
    starts = [
        lambda: MachineRun(program, -1),
        lambda: run_bounded(program, -1, 5),
        lambda: halted_by(program, -1, 5),
        lambda: HaltingEncoded(program, -1),
    ]
    for start in starts:
        with pytest.raises(ValueError, match="input must be a natural number"):
            start()
    with pytest.raises(ValueError, match="budget must be non-negative"):
        run_bounded(program, 0, -1)


@given(corpus.programs(), st.integers(0, 5), st.integers(0, 100), st.integers(0, 100))
@settings(deadline=None)
def test_halted_by_is_monotone(program, input_value, a, b):
    lo, hi = sorted((a, b))
    if halted_by(program, input_value, lo):
        assert halted_by(program, input_value, hi)


# ---------------------------------------------------------------------------
# loop macro-steps against a plain one-step loop
# ---------------------------------------------------------------------------

DOUBLER = "loop: decjz 0 done\ninc 1\ninc 1\ndecjz 2 loop\ndone: halt"  # halts at 4x+2
SPIN = "loop: inc 1\ndecjz 2 loop"
# two decrements of register 0 per pass: the second finds the smaller value
HALVER = "loop: decjz 0 done\ndecjz 0 done\ninc 1\ndecjz 2 loop\ndone: halt"
# Each outer pass grows register 1, then moves it to register 2 and back, so
# the inner loops' exit register is zero-tested and changes every outer pass.
# Halts at 3x^2 + 8x + 2.
NESTED = """\
outer: decjz 0 done
       inc 1
there: decjz 1 back
       inc 2
       decjz 3 there
back:  decjz 2 next
       inc 1
       decjz 3 back
next:  decjz 3 outer
done:  halt
"""

# Pass 1 of ``outer`` opens a watch, and pass 2 drains register 0 inside it:
# the watch gives up after _WATCH_CAP steps, so that ``inner`` is watched.
# Halts at 2x + 6.
WATCHED = """\
        inc 1
outer:  decjz 1 inner
        decjz 3 outer
inner:  decjz 0 done
        decjz 3 inner
done:   halt
"""


def multiplier(k: int) -> str:
    """Leaves k*x in register 1 through an inner loop per unit; halts at x*(4k+3)+2."""
    return (
        "outer: decjz 0 done\n" + "inc 2\n" * k
        + "inner: decjz 2 next\ninc 1\ndecjz 3 inner\nnext: decjz 3 outer\ndone: halt\n"
    )


class _CountedCode(tuple):
    """A program's dense table that counts the instructions read from it."""

    reads = 0

    def __getitem__(self, pc):
        self.reads += 1
        return super().__getitem__(pc)


def _macro_steps(program, input_value, budgets):
    """The states after each budget of one resumed run. The run reads no
    more instructions than it takes steps, so no pass ever runs twice."""
    run = MachineRun(program, input_value)
    code = program.__dict__["_code"] = _CountedCode(program._code)
    states = []
    for budget in budgets:
        halt_step = run.advance(budget)
        states.append((run.pc, tuple(run.registers), run.steps, halt_step))
        assert code.reads <= run.steps
    return states


LOOPS = {
    "doubler": DOUBLER,
    "spin": SPIN,
    "halver": HALVER,
    "nested": NESTED,
    "watched": WATCHED,
    "multiplier1": multiplier(1),
    "multiplier4": multiplier(4),
}


@pytest.mark.parametrize("name", LOOPS)
@pytest.mark.parametrize("input_value", [0, 1, 2, 5, 61, 150, 1001])
def test_loop_macro_steps_agree_with_a_plain_loop(name, input_value):
    program = parse_program(LOOPS[name])
    # Resumed one step at a time, the run cuts a watched pass at every point.
    for budgets in ([1, 2, 7, 100, 1001, 12_345, 12_346, 99_999, 10 ** 5], range(1, 401)):
        assert _macro_steps(program, input_value, budgets) == _single_steps(
            program, input_value, budgets
        )


def test_loop_macro_steps_agree_with_a_plain_loop_on_random_programs():
    rng = random.Random(10)
    for _ in range(60):
        program = corpus.random_program(rng, max_len=10)
        input_value = rng.randint(0, 300)
        budgets = sorted(rng.randint(0, 2 * 10 ** 4) for _ in range(3))
        expected = _single_steps(program, input_value, budgets)
        assert _macro_steps(program, input_value, budgets) == expected, program


@pytest.mark.parametrize("input_value", [2045, 2046, 2047, 2048, 5000])
def test_a_watch_past_its_cap_agrees_with_a_plain_loop(input_value):
    # Each budget in one call, since a resumed run starts a fresh watch.
    program = parse_program(WATCHED)
    for budget in (4098, 4099, 4100, 4101, 4102, 4103, 10 ** 5):
        assert _macro_steps(program, input_value, [budget]) == _single_steps(program, input_value, [budget])


def test_only_the_dense_table_and_advance_read_the_opcodes():
    # One interpreter core: no second loop dispatches over the instruction set.
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in ("_OP_INC", "_OP_DECJZ"):
                if isinstance(child.ctx, ast.Load):
                    readers.add(".".join(scope))
            elif isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(Path(machine.__file__).read_text()), ())
    assert readers == {"MachineProgram._code", "MachineRun.advance"}


def test_closed_form_halt_steps():
    assert run_bounded(parse_program(NESTED), 60, 10 ** 5) == HaltedAt(3 * 60 ** 2 + 8 * 60 + 2)
    assert run_bounded(parse_program(multiplier(4)), 61, 10 ** 5) == HaltedAt(61 * 19 + 2)


_LOOPS_COST_PER_EXIT_CHILD = """
import sys
from haltseries import parse_program, run_bounded
from haltseries.cli import main
from haltseries.coefficients import HaltingEncoded

doubler, x = parse_program(sys.argv[1]), 10 ** 12
print(run_bounded(doubler, x, 10 ** 13))
print(run_bounded(parse_program(sys.argv[2]), 10 ** 9, 10 ** 12))
print(run_bounded(parse_program(sys.argv[3]), 0, 10 ** 15))
print(HaltingEncoded(doubler, x).term_shape(5 * x).start)
with open("doubler.m", "w") as f:
    f.write(sys.argv[1])
print(main(["simulate", "doubler.m", "--input", str(x), "--budget", str(5 * x)]))
"""


def test_loops_cost_o1_per_exit(tmp_path):
    # Single-stepping these runs would take days; a macro-step per loop
    # exit finishes them at once. The child's timeout fails the test.
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOOPS_COST_PER_EXIT_CHILD, DOUBLER, multiplier(5), SPIN],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=60,
    )
    x = 10 ** 12
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        repr(HaltedAt(4 * x + 2)),
        repr(HaltedAt(10 ** 9 * 23 + 2)),  # multiplier(5): x(4k + 3) + 2
        repr(RunningAfter(10 ** 15)),
        str(4 * x + 2),
        "HALTED at step 4000000000002",
        "0",
    ]


def test_a_watch_gives_up_at_its_cap(tmp_path):
    # Without the cap the watch of ``outer`` would single-step the whole
    # inner loop, 2·10^9 steps; the child's timeout fails the test.
    (tmp_path / "watched.m").write_text(WATCHED)
    env = {**os.environ, "PYTHONPATH": str(Path(haltseries.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "haltseries.cli", "simulate", "watched.m", "--input", str(10 ** 9),
         "--budget", str(10 ** 10)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=20,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "HALTED at step 2000000006\n")


# ---------------------------------------------------------------------------
# program encoding
# ---------------------------------------------------------------------------


def test_encode_decode_roundtrip_on_corpus():
    for program in corpus.all_programs():
        assert decode_godel(encode_godel(program)) == program


def test_encode_is_injective_on_corpus():
    codes = [encode_godel(p) for p in corpus.all_programs()]
    assert len(set(codes)) == len(codes)


@given(corpus.programs())
@settings(deadline=None)
def test_encode_decode_roundtrip_random(program):
    assert decode_godel(encode_godel(program)) == program


def test_decode_rejects_out_of_range_register():
    # by hand: [inc 3] with register count 1; instruction code 2*3+2 = 8
    code = corpus.cantor_pair(0, corpus.cantor_pair(0, 8))
    with pytest.raises(GodelDecodeError) as err:
        decode_godel(code)
    assert err.value.position == 0
    assert "register 3" in str(err.value)


def test_decode_rejects_out_of_range_jump_target():
    # by hand: [decjz 0 5] alone; pair(0, 5) = 15, instruction code 31
    code = corpus.cantor_pair(0, corpus.cantor_pair(0, 31))
    with pytest.raises(GodelDecodeError) as err:
        decode_godel(code)
    assert err.value.position == 0
    assert "jump target 5" in str(err.value)


def test_decode_rejects_gigantic_headers():
    huge = corpus.cantor_pair(10 ** 9, 0)
    with pytest.raises(GodelDecodeError):
        decode_godel(huge)
    huge_count = corpus.cantor_pair(0, corpus.cantor_pair(10 ** 9, 0))
    with pytest.raises(GodelDecodeError):
        decode_godel(huge_count)
    with pytest.raises(GodelDecodeError, match="code must be a natural number"):
        decode_godel(-1)


def test_invalid_program_messages_print_integers_past_the_digit_limit():
    big, text = 10 ** 5000, "1" + "0" * 5000  # str(big) is refused under the default limit
    decode_cases = [
        (corpus.cantor_pair(big - 1, 0), f"register count {text} exceeds decoder limit 4096"),
        (corpus.cantor_pair(0, corpus.cantor_pair(big - 1, 0)),
         f"instruction count {text} exceeds decoder limit 4096"),
        # [inc 10^5000]: instruction code 2 * 10^5000 + 2
        (corpus.cantor_pair(0, corpus.cantor_pair(0, 2 * big + 2)),
         f"instruction 0: register {text} out of range for register count 1"),
        # [decjz 0 10^5000]: instruction code 2 * pair(0, 10^5000) + 1
        (corpus.cantor_pair(0, corpus.cantor_pair(0, 2 * corpus.cantor_pair(0, big) + 1)),
         f"instruction 0: jump target {text} out of range for 1 instructions"),
    ]
    for limit in (sys.get_int_max_str_digits(), 640):
        with corpus.int_digit_limit(limit):
            for code, message in decode_cases:
                with pytest.raises(GodelDecodeError) as err:
                    decode_godel(code)
                assert str(err.value) == message
            with pytest.raises(ValueError) as err:
                MachineProgram((Inc(big),), 1)
            assert str(err.value) == f"instruction 0: register {text} out of range for register count 1"


def test_pretty_program_prints_integers_past_the_digit_limit():
    big, text = 10 ** 5000, "1" + "0" * 5000
    programs = [
        (MachineProgram((Inc(0),), big), f"registers {text}\ninc 0\n"),
        (MachineProgram((Inc(big), Halt()), big + 1), f"inc {text}\nhalt\n"),
        (MachineProgram((DecJz(big, 1), Halt()), big + 2),
         f"registers {text[:-1]}2\ndecjz {text} L1\nL1: halt\n"),
    ]
    for limit in (sys.get_int_max_str_digits(), 640):
        with corpus.int_digit_limit(limit):
            for program, source in programs:
                assert pretty_program(program) == source


def test_program_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MachineProgram((), 1)
    with pytest.raises(ValueError):
        MachineProgram((Inc(2),), 1)
    with pytest.raises(ValueError):
        MachineProgram((DecJz(0, 3),), 1)
    with pytest.raises(ValueError):
        MachineProgram((Halt(),), 0)
