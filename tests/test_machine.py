import pytest
from hypothesis import given, settings, strategies as st

from haltseries import (
    DecJz,
    GodelDecodeError,
    Halt,
    HaltedAt,
    Inc,
    MachineParseError,
    MachineProgram,
    MachineState,
    RunningAfter,
    decode_godel,
    encode_godel,
    halted_by,
    initial_state,
    is_halted,
    parse_program,
    pretty_program,
    run_bounded,
    step,
)
from haltseries.machine import MachineRun

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
    ],
)
def test_parse_errors_carry_line_numbers(source, line):
    with pytest.raises(MachineParseError) as err:
        parse_program(source)
    assert err.value.line == line


def test_registers_directive_widens_count():
    program = parse_program("registers 5\ninc 0\nhalt")
    assert program.register_count == 5


def test_pretty_then_parse_is_identity_on_corpus():
    for program in corpus.all_programs():
        assert parse_program(pretty_program(program)) == program


def test_pretty_preserves_declared_registers():
    program = parse_program("registers 4\nhalt")
    again = parse_program(pretty_program(program))
    assert again.register_count == 4


# ---------------------------------------------------------------------------
# step semantics
# ---------------------------------------------------------------------------


def test_step_inc():
    program = parse_program("inc 0\nhalt")
    state = MachineState(pc=0, registers=(4,), steps_executed=0)
    after = step(program, state)
    assert after == MachineState(pc=1, registers=(5,), steps_executed=1)


def test_step_decjz_on_zero_jumps_without_touching_registers():
    program = parse_program("a: decjz 0 a\nhalt")
    state = MachineState(pc=0, registers=(0,), steps_executed=3)
    after = step(program, state)
    assert after == MachineState(pc=0, registers=(0,), steps_executed=4)


def test_step_decjz_on_positive_decrements_and_advances():
    program = parse_program("a: decjz 0 a\nhalt")
    state = MachineState(pc=0, registers=(3,), steps_executed=0)
    after = step(program, state)
    assert after == MachineState(pc=1, registers=(2,), steps_executed=1)


def test_step_halt_moves_pc_past_the_end():
    program = parse_program("halt")
    after = step(program, initial_state(program, 0))
    assert is_halted(program, after)
    assert after.steps_executed == 1


def test_step_on_halted_state_raises():
    program = parse_program("halt")
    state = MachineState(pc=1, registers=(0,), steps_executed=1)
    with pytest.raises(ValueError):
        step(program, state)


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


@st.composite
def programs(draw):
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


@given(programs(), st.integers(0, 5), st.integers(0, 60))
@settings(deadline=None)
def test_run_bounded_agrees_with_single_stepping(program, input_value, budget):
    state = initial_state(program, input_value)
    while state.steps_executed < budget and not is_halted(program, state):
        state = step(program, state)
    expected = (
        HaltedAt(state.steps_executed)
        if is_halted(program, state)
        else RunningAfter(budget)
    )
    assert run_bounded(program, input_value, budget) == expected


@given(
    programs(),
    st.integers(0, 5),
    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(sorted),
)
@settings(deadline=None)
def test_resumed_run_agrees_with_single_stepping(program, input_value, budgets):
    run = MachineRun(program, input_value)
    state = initial_state(program, input_value)
    for budget in budgets:
        halt_step = run.advance(budget)
        while state.steps_executed < budget and not is_halted(program, state):
            state = step(program, state)
        expected_halt = state.steps_executed if is_halted(program, state) else None
        assert (run.pc, tuple(run.registers), run.steps) == (
            state.pc,
            state.registers,
            state.steps_executed,
        )
        assert halt_step == run.halt_step == expected_halt


def test_run_rejects_negative_input():
    with pytest.raises(ValueError, match="natural number"):
        MachineRun(parse_program("halt"), -1)


@given(programs(), st.integers(0, 5), st.integers(0, 100), st.integers(0, 100))
@settings(deadline=None)
def test_halted_by_is_monotone(program, input_value, a, b):
    lo, hi = sorted((a, b))
    if halted_by(program, input_value, lo):
        assert halted_by(program, input_value, hi)


# ---------------------------------------------------------------------------
# program encoding
# ---------------------------------------------------------------------------


def test_encode_decode_roundtrip_on_corpus():
    for program in corpus.all_programs():
        assert decode_godel(encode_godel(program)) == program


def test_encode_is_injective_on_corpus():
    codes = [encode_godel(p) for p in corpus.all_programs()]
    assert len(set(codes)) == len(codes)


@given(programs())
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


def test_program_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MachineProgram((), 1)
    with pytest.raises(ValueError):
        MachineProgram((Inc(2),), 1)
    with pytest.raises(ValueError):
        MachineProgram((DecJz(0, 3),), 1)
    with pytest.raises(ValueError):
        MachineProgram((Halt(),), 0)
