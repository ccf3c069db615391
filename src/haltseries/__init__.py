"""Halting encoded as power-series convergence, and back.

A counter-machine run maps to a coefficient stream whose terms switch
from 0 to n! at the halt step, so the resulting series converges
everywhere when the run never halts and diverges away from the origin
when it does. In the other direction, detectors run over a coefficient
stream and halt when they believe the series diverges at z = 1. All
arithmetic is exact, and every verdict is a budgeted semidecision:
positive witness, negative witness, or budget exhausted.
"""

from .coefficients import (
    BuiltinId,
    BuiltinStream,
    CoefficientStream,
    ExplicitStream,
    HaltingEncoded,
    approx_decimal,
    builtin_stream,
    format_rational,
    parse_rational,
    parse_series_spec,
)
from .machine import (
    DecJz,
    ExecutionOutcome,
    GodelDecodeError,
    Halt,
    HaltedAt,
    Inc,
    Instruction,
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
from .reductions import (
    CauchyWindowCertificate,
    CauchyWindowKnobs,
    DetectorKind,
    DetectorOutcome,
    DetectorProgram,
    Halted as DetectorHalted,
    StillRunning,
    ThresholdCertificate,
    WindowFailure,
    build_cauchy_window_detector,
    build_cauchy_window_heuristic,
    build_threshold_detector,
    forward_reduce,
    recheck_certificate,
    run_detector,
    semidecide_halting_via_series,
)
from .series import (
    ConsistentUpToBudget,
    ConstantRate,
    EvaluationPoint,
    ExpTailRate,
    LinearRate,
    RateFunction,
    RateUndefinedError,
    RootEstimateReport,
    SeriesProbeReport,
    TabulatedRate,
    Verdict,
    WitnessedBoundViolation,
    WitnessedDivergence,
    check_effective_criterion,
    check_modulus,
    effective_partial_sum,
    parse_rate_spec,
    partial_sum,
    prefix_sums,
    ratio_test_probe,
    root_estimate,
)

__version__ = "0.1.0"
