"""Reductions between machine halting and series behavior at z = 1.

Forward direction: package a machine run as its halting-encoded
coefficient stream, then read halting off a budgeted ratio probe. A
divergence witness is a proof that the run halted within the budget
(nonzero coefficients exist only after the halt step), so this
semidecision never lies; the converse silence only means "not halted
within budget".

Reverse direction: detectors that run over a coefficient stream and halt
when they believe the series diverges at z = 1. Two constructions are
provided, both implemented exactly as designed even where the design is
degenerate, plus clearly-labeled heuristic variants.

* The threshold detector halts at the first N whose exact partial sum
  satisfies ``|S_N| > N``. Slowly diverging series (logarithmic partial
  sums) never trip it, and any series with ``|a_0 + a_1| > 1`` trips it
  degenerately at N = 1, convergent or not.
* The Cauchy-window detector, for each horizon k, searches for a window
  start N <= k making all partial sums in ``[N, k]`` lie within ``2^-k``
  of each other, halting when no N works. The single-point window N = k
  always works, so the literal detector never halts on any stream; each
  horizon's vacuous witness is recorded. The heuristic variant caps the
  window start below the horizon (and optionally widens the horizon or
  fixes the tolerance) to make the check non-vacuous, with no
  correctness claim.

Detector outcomes carry exact certificates that re-check by independent
recomputation of the cited partial sums.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .coefficients import CoefficientStream, HaltingEncoded, halting_coefficients
from .machine import MachineProgram
from .series import (
    EvaluationPoint,
    SeriesProbeReport,
    TRACE_POINTS,
    partial_sum,
    ratio_test_probe,
)

__all__ = [
    "ForwardReduction",
    "DetectorKind",
    "CauchyWindowKnobs",
    "DetectorProgram",
    "ThresholdCertificate",
    "WindowFailure",
    "CauchyWindowCertificate",
    "Halted",
    "StillRunning",
    "DetectorOutcome",
    "forward_reduce",
    "semidecide_halting_via_series",
    "build_threshold_detector",
    "build_cauchy_window_detector",
    "build_cauchy_window_heuristic",
    "run_detector",
    "recheck_certificate",
]

#: Ratio threshold used by the halting semidecision; any value above 1
#: works because halting-encoded term ratios grow without bound.
SEMIDECIDE_THRESHOLD = Fraction(2)

_POINT_ONE = EvaluationPoint(Fraction(1))

# Scaled-integer accumulator precision for the threshold detector loop.
_SHIFT = 64
_UNIT = 1 << _SHIFT


@dataclass(frozen=True)
class ForwardReduction:
    """A machine run together with its halting-encoded series."""

    program: MachineProgram
    input_value: int
    stream: HaltingEncoded


def forward_reduce(program: MachineProgram, input_value: int) -> ForwardReduction:
    """Package the run as a series; pure construction, nothing is simulated."""
    return ForwardReduction(
        program=program,
        input_value=input_value,
        stream=halting_coefficients(program, input_value),
    )


def semidecide_halting_via_series(
    program: MachineProgram,
    input_value: int,
    point: EvaluationPoint,
    budget: int,
) -> SeriesProbeReport:
    """Budgeted halting semidecision through the encoded series.

    A divergence witness proves the program halted within ``budget``
    steps: the witness index carries two adjacent nonzero coefficients,
    which exist only past the halt step. Consistency up to budget means
    exactly "not halted within budget steps".
    """
    if point.r <= 0:
        raise ValueError("evaluation point must be positive for the semidecision")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    reduction = forward_reduce(program, input_value)
    return ratio_test_probe(reduction.stream, point, SEMIDECIDE_THRESHOLD, budget)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


class DetectorKind(enum.Enum):
    THRESHOLD = "threshold"
    CAUCHY_WINDOW = "cauchy_window"


@dataclass(frozen=True)
class CauchyWindowKnobs:
    """Heuristic parameters; presence of knobs marks a detector as a
    heuristic variant with no correctness claim.

    ``horizon_scale`` widens each horizon k to ``horizon_scale * k``
    partial sums; ``window_cap`` restricts the window start to
    ``max(1, floor(window_cap * k))``; ``fixed_tolerance`` replaces the
    shrinking ``2^-k`` tolerance when set.
    """

    horizon_scale: int = 2
    window_cap: Fraction = Fraction(1, 2)
    fixed_tolerance: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "window_cap", Fraction(self.window_cap))
        if self.horizon_scale < 1:
            raise ValueError("horizon_scale must be at least 1")
        if not 0 < self.window_cap <= 1:
            raise ValueError("window_cap must lie in (0, 1]")
        if self.fixed_tolerance is not None:
            tol = Fraction(self.fixed_tolerance)
            object.__setattr__(self, "fixed_tolerance", tol)
            if tol <= 0:
                raise ValueError("fixed_tolerance must be positive")


@dataclass(frozen=True)
class DetectorProgram:
    """An executable divergence detector over a coefficient stream."""

    kind: DetectorKind
    stream: CoefficientStream
    knobs: CauchyWindowKnobs | None = None

    def __post_init__(self):
        if self.knobs is not None and self.kind is not DetectorKind.CAUCHY_WINDOW:
            raise ValueError("knobs apply only to the Cauchy-window detector")

    @property
    def heuristic(self) -> bool:
        return self.knobs is not None

    def describe(self) -> str:
        """Pseudocode rendering of what running this detector does."""
        if self.kind is DetectorKind.THRESHOLD:
            return (
                "for N = 1, 2, 3, ...:\n"
                "    S_N = exact sum of a_0 .. a_N\n"
                "    if |S_N| > N: halt with certificate (N, S_N)\n"
            )
        if not self.heuristic:
            return (
                "for k = 1, 2, 3, ...:\n"
                "    compute exact S_1 .. S_k\n"
                "    if no N <= k has |S_m - S_n| < 2^-k for all m, n in [N, k]:\n"
                "        halt with one failing pair per window start\n"
                "    (N = k always qualifies vacuously, so this never halts)\n"
            )
        knobs = self.knobs
        tol = (
            f"{knobs.fixed_tolerance}" if knobs.fixed_tolerance is not None else "2^-k"
        )
        return (
            "heuristic variant (no correctness claim):\n"
            "for k = 1, 2, 3, ...:\n"
            f"    compute exact S_1 .. S_{{{knobs.horizon_scale}k}}\n"
            f"    if no N <= max(1, floor({knobs.window_cap} * k)) has\n"
            f"       |S_m - S_n| < {tol} for all m, n in [N, {knobs.horizon_scale}k]:\n"
            "        halt with one failing pair per window start\n"
        )


@dataclass(frozen=True)
class ThresholdCertificate:
    """Exact evidence for a threshold halt: ``|partial_sum| > index``."""

    index: int
    partial_sum: Fraction


@dataclass(frozen=True)
class WindowFailure:
    """One failing pair for a window start: ``|S_hi - S_lo| >= tolerance``."""

    window_start: int
    lo_index: int
    hi_index: int
    gap: Fraction


@dataclass(frozen=True)
class CauchyWindowCertificate:
    """Evidence for a window halt: every admissible window start fails."""

    horizon: int
    tolerance: Fraction
    failures: tuple[WindowFailure, ...]


@dataclass(frozen=True)
class Halted:
    """The detector halted at ``iteration`` with re-checkable evidence."""

    iteration: int
    certificate: Union[ThresholdCertificate, CauchyWindowCertificate]

    @property
    def halted(self) -> bool:
        return True


@dataclass(frozen=True)
class StillRunning:
    """Budget (or cancellation) ended the run first.

    ``trace`` holds the first few exact partial sums. For threshold runs
    ``final_bounds`` encloses the last partial sum between exact dyadic
    rationals. For literal window runs ``witness_log`` records, per
    horizon k, the window start that satisfied the check (always k).
    """

    budget: int
    trace: tuple[tuple[int, Fraction], ...] = ()
    final_bounds: tuple[Fraction, Fraction] | None = None
    witness_log: tuple[tuple[int, int], ...] = ()

    @property
    def halted(self) -> bool:
        return False


DetectorOutcome = Union[Halted, StillRunning]


def build_threshold_detector(stream: CoefficientStream) -> DetectorProgram:
    """Detector halting at the first N with ``|S_N(1)| > N``."""
    return DetectorProgram(DetectorKind.THRESHOLD, stream)


def build_cauchy_window_detector(stream: CoefficientStream) -> DetectorProgram:
    """The literal shrinking-tolerance window detector (never halts)."""
    return DetectorProgram(DetectorKind.CAUCHY_WINDOW, stream)


def build_cauchy_window_heuristic(
    stream: CoefficientStream,
    horizon_scale: int = 2,
    window_cap: Fraction = Fraction(1, 2),
    fixed_tolerance: Fraction | None = None,
) -> DetectorProgram:
    """Non-vacuous window variant; explicitly a heuristic."""
    knobs = CauchyWindowKnobs(horizon_scale, window_cap, fixed_tolerance)
    return DetectorProgram(DetectorKind.CAUCHY_WINDOW, stream, knobs)


def run_detector(
    detector: DetectorProgram,
    budget: int,
    cancel: Callable[[], bool] | None = None,
) -> DetectorOutcome:
    """Run a detector for at most ``budget`` outer iterations.

    Deterministic given the stream. ``cancel`` is polled at iteration
    boundaries; a cancelled run reports ``StillRunning`` with the number
    of completed iterations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if detector.kind is DetectorKind.THRESHOLD:
        return _run_threshold(detector.stream, budget, cancel)
    if detector.heuristic:
        return _run_window_heuristic(detector.stream, detector.knobs, budget, cancel)
    return _run_window_literal(detector.stream, budget, cancel)


def _scaled_bounds(value: Fraction) -> tuple[int, int]:
    # Directed rounding to multiples of 2^-_SHIFT; exact for dyadic input.
    num, den = value.numerator, value.denominator
    scaled = num << _SHIFT
    lo = scaled // den
    hi = -((-scaled) // den)
    return lo, hi


def _run_threshold(
    stream: CoefficientStream,
    budget: int,
    cancel: Callable[[], bool] | None,
) -> DetectorOutcome:
    """Threshold loop over a sound scaled-integer enclosure of S_N.

    The decision at each N ("is |S_N| > N") is taken from the enclosure
    when it is conclusive and from an exact recomputation otherwise, so
    the halt index always equals the one plain exact summation would
    give; only the evaluation strategy differs. Certificates are always
    recomputed exactly.
    """
    lo = hi = 0
    a0 = stream.at(0)
    t_lo, t_hi = _scaled_bounds(a0)
    lo += t_lo
    hi += t_hi
    exact = a0
    trace: list[tuple[int, Fraction]] = []
    completed = 0
    for n in range(1, budget + 1):
        if cancel is not None and cancel():
            return StillRunning(
                budget=completed,
                trace=tuple(trace),
                final_bounds=(Fraction(lo, _UNIT), Fraction(hi, _UNIT)),
            )
        a = stream.at(n)
        t_lo, t_hi = _scaled_bounds(a)
        lo += t_lo
        hi += t_hi
        if exact is not None and n <= TRACE_POINTS:
            exact = exact + a
            trace.append((n, exact))
            if n == TRACE_POINTS:
                exact = None
        threshold = n << _SHIFT
        if hi <= threshold and lo >= -threshold:
            crossed = False
        elif lo > threshold or hi < -threshold:
            crossed = True
        else:
            # Enclosure straddles the threshold: resolve exactly and
            # retighten the accumulator from the exact value.
            value = partial_sum(stream, _POINT_ONE, n)
            crossed = abs(value) > n
            lo, hi = _scaled_bounds(value)
        if crossed:
            value = partial_sum(stream, _POINT_ONE, n)
            return Halted(n, ThresholdCertificate(index=n, partial_sum=value))
        completed = n
    return StillRunning(
        budget=budget,
        trace=tuple(trace),
        final_bounds=(Fraction(lo, _UNIT), Fraction(hi, _UNIT)),
    )


def _run_window_literal(
    stream: CoefficientStream,
    budget: int,
    cancel: Callable[[], bool] | None,
) -> DetectorOutcome:
    total = stream.at(0)
    trace: list[tuple[int, Fraction]] = []
    witness_log: list[tuple[int, int]] = []
    for k in range(1, budget + 1):
        if cancel is not None and cancel():
            return StillRunning(
                budget=k - 1, trace=tuple(trace), witness_log=tuple(witness_log)
            )
        total += stream.at(k)
        if k <= TRACE_POINTS:
            trace.append((k, total))
        # The first window start tried, k itself, gives the single-point
        # window [k, k] with spread 0 < 2^-k, so it always qualifies and the
        # literal detector can never halt. That degenerate witness is
        # recorded per horizon.
        witness_log.append((k, k))
    return StillRunning(budget=budget, trace=tuple(trace), witness_log=tuple(witness_log))


def _run_window_heuristic(
    stream: CoefficientStream,
    knobs: CauchyWindowKnobs,
    budget: int,
    cancel: Callable[[], bool] | None,
) -> DetectorOutcome:
    sums: list[Fraction] = [stream.at(0)]
    trace: list[tuple[int, Fraction]] = []
    witness_log: list[tuple[int, int]] = []
    for k in range(1, budget + 1):
        if cancel is not None and cancel():
            return StillRunning(
                budget=k - 1, trace=tuple(trace), witness_log=tuple(witness_log)
            )
        horizon = knobs.horizon_scale * k
        while len(sums) <= horizon:
            sums.append(sums[-1] + stream.at(len(sums)))
        if k <= TRACE_POINTS:
            trace.append((k, sums[k]))
        tolerance = (
            knobs.fixed_tolerance
            if knobs.fixed_tolerance is not None
            else Fraction(1, 2 ** k)
        )
        cap = max(1, int(knobs.window_cap * k))
        # Suffix extrema of sums[start..horizon], built once per horizon.
        suffix: list[tuple[Fraction, int, Fraction, int]] = [None] * (horizon + 1)
        suffix[horizon] = (sums[horizon], horizon, sums[horizon], horizon)
        for i in range(horizon - 1, 0, -1):
            high, hi_at, low, lo_at = suffix[i + 1]
            s = sums[i]
            if s > high:
                high, hi_at = s, i
            if s < low:
                low, lo_at = s, i
            suffix[i] = (high, hi_at, low, lo_at)
        witness = None
        failures = []
        for start in range(1, cap + 1):
            high, hi_at, low, lo_at = suffix[start]
            if high - low < tolerance:
                witness = start
                break
            failures.append(
                WindowFailure(
                    window_start=start, lo_index=lo_at, hi_index=hi_at, gap=high - low
                )
            )
        if witness is None:
            return Halted(
                k,
                CauchyWindowCertificate(
                    horizon=k, tolerance=tolerance, failures=tuple(failures)
                ),
            )
        witness_log.append((k, witness))
    return StillRunning(budget=budget, trace=tuple(trace), witness_log=tuple(witness_log))


def recheck_certificate(
    stream: CoefficientStream,
    outcome: Halted,
    knobs: CauchyWindowKnobs | None = None,
) -> bool:
    """Re-establish a halt certificate by independent exact recomputation."""
    cert = outcome.certificate
    if isinstance(cert, ThresholdCertificate):
        value = partial_sum(stream, _POINT_ONE, cert.index)
        return value == cert.partial_sum and abs(value) > cert.index
    horizon = knobs.horizon_scale * cert.horizon if knobs else cert.horizon
    cap = max(1, int(knobs.window_cap * cert.horizon)) if knobs else cert.horizon
    starts_needed = set(range(1, cap + 1))
    seen = set()
    for failure in cert.failures:
        seen.add(failure.window_start)
        if not (failure.window_start <= failure.lo_index <= horizon):
            return False
        if not (failure.window_start <= failure.hi_index <= horizon):
            return False
        gap = abs(
            partial_sum(stream, _POINT_ONE, failure.hi_index)
            - partial_sum(stream, _POINT_ONE, failure.lo_index)
        )
        if gap != failure.gap or gap < cert.tolerance:
            return False
    return seen == starts_needed
