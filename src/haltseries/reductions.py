"""Reductions between machine halting and series behavior at z = 1.

Forward direction: package a machine run as its halting-encoded
coefficient stream, then read halting off a budgeted ratio probe. A
divergence witness is a proof that the run halted within the budget
(nonzero coefficients exist only after the halt step), so this
semidecision never lies. Silence means "not halted within budget" only
at budgets of at least ceil(2/r) - 1, where the scaled ratio (n + 1) * r
can reach 2.

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
recomputation of the cited partial sums under the runner's own rule.
Each outcome gives its ``report_lines(kv)`` and renders, as the CLI prints
it, through the one base ``series._Report`` (``to_text`` and ``to_kv``).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Iterable, Union

from .coefficients import CoefficientStream, HaltingEncoded, format_rational
from .machine import MachineProgram, _Record
from .series import (
    EvaluationPoint,
    SeriesProbeReport,
    TRACE_POINTS,
    _Report,
    _sampled_sums,
    exact_line,
    partial_sum,
    prefix_sums,
    ratio_test_probe,
)

__all__ = [
    "CauchyWindowKnobs",
    "DetectorProgram",
    "ThresholdCertificate",
    "WindowFailure",
    "CauchyWindowCertificate",
    "DetectorHalted",
    "StillRunning",
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


def forward_reduce(program: MachineProgram, input_value: int) -> HaltingEncoded:
    """The run's halting-encoded series; pure construction, nothing is simulated."""
    return HaltingEncoded(program, input_value)


def semidecide_halting_via_series(
    program: MachineProgram,
    input_value: int,
    point: EvaluationPoint,
    budget: int,
) -> SeriesProbeReport:
    """Budgeted halting semidecision through the encoded series.

    A divergence witness proves the program halted within ``budget``
    steps: the witness index carries two adjacent nonzero coefficients,
    which exist only past the halt step. Their ratio there is ``n + 1``, so
    a run that halts at step ``h`` is witnessed exactly when ``h <= budget``
    and ``(budget + 1) * r >= 2``, that is ``budget >= ceil(2/r) - 1``, at
    index ``max(h, ceil(2/r) - 1)``. Consistency up to budget means "not
    halted within budget steps" only at such budgets; below them a run
    that has halted reads as consistent too.
    """
    if point.r <= 0:
        raise ValueError("evaluation point must be positive for the semidecision")
    return ratio_test_probe(
        forward_reduce(program, input_value), point, SEMIDECIDE_THRESHOLD, budget
    )


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


class CauchyWindowKnobs(_Record):
    """The Cauchy-window rule; presence of knobs marks a detector as a
    heuristic variant with no correctness claim.

    ``horizon_scale`` widens each horizon k to ``horizon_scale * k``
    partial sums; ``window_cap`` restricts the window start to
    ``max(1, floor(window_cap * k))``; ``fixed_tolerance`` replaces the
    shrinking ``2^-k`` tolerance when set; only :meth:`rule` applies them.
    """

    horizon_scale: int = 2
    window_cap: Fraction = Fraction(1, 2)
    fixed_tolerance: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "window_cap", Fraction(self.window_cap))
        if not isinstance(self.horizon_scale, int):
            raise ValueError("horizon_scale must be an integer")
        if self.horizon_scale < 1:
            raise ValueError("horizon_scale must be at least 1")
        if self.horizon_scale > sys.maxsize:  # horizon 1 alone would outgrow any list
            raise ValueError(f"horizon_scale must be at most {sys.maxsize}")
        if not 0 < self.window_cap <= 1:
            raise ValueError("window_cap must lie in (0, 1]")
        if self.fixed_tolerance is not None:
            tol = Fraction(self.fixed_tolerance)
            object.__setattr__(self, "fixed_tolerance", tol)
            if tol <= 0:
                raise ValueError("fixed_tolerance must be positive")

    def rule(self, k: int) -> tuple[int, int, Fraction]:
        """Horizon k's last partial-sum index, largest window start and tolerance."""
        tolerance = self.fixed_tolerance or Fraction(1, 2 ** k)
        return self.horizon_scale * k, max(1, int(self.window_cap * k)), tolerance


#: The literal detector's rule: horizon k, every start up to k, tolerance 2^-k.
_LITERAL_RULE = CauchyWindowKnobs(1, Fraction(1))


class DetectorProgram(_Record):
    """An executable divergence detector over a coefficient stream: the
    threshold detector when ``threshold``, else the Cauchy-window detector,
    literal without knobs and the heuristic variant with them."""

    stream: CoefficientStream
    knobs: CauchyWindowKnobs | None = None
    threshold: bool = False

    def __post_init__(self):
        if self.knobs is not None and self.threshold:
            raise ValueError("knobs apply only to the Cauchy-window detector")

    @property
    def heuristic(self) -> bool:
        return self.knobs is not None

    def describe(self) -> str:
        """Pseudocode rendering of what running this detector does."""
        if self.threshold:
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
        scale, cap = format_rational(knobs.horizon_scale), format_rational(knobs.window_cap)
        tol = format_rational(knobs.fixed_tolerance) if knobs.fixed_tolerance else "2^-k"
        return (
            "heuristic variant (no correctness claim):\n"
            "for k = 1, 2, 3, ...:\n"
            f"    compute exact S_1 .. S_{{{scale}k}}\n"
            f"    if no N <= max(1, floor({cap} * k)) has\n"
            f"       |S_m - S_n| < {tol} for all m, n in [N, {scale}k]:\n"
            "        halt with one failing pair per window start\n"
        )


class ThresholdCertificate(_Record):
    """Exact evidence for a threshold halt: ``|partial_sum| > index``."""

    index: int
    partial_sum: Fraction

    def report_lines(self, kv: bool) -> list[str]:
        """This certificate's lines in a ``DetectorHalted`` report."""
        if kv:
            return [
                f"certificate_index={format_rational(self.index)}",
                f"certificate_sum={format_rational(self.partial_sum)}",
            ]
        return [
            "certificate:",
            f"  N: {format_rational(self.index)}",
            "  " + exact_line("S_N", self.partial_sum),
            f"  inequality: |S_N| > {format_rational(self.index)}",
        ]


class WindowFailure(_Record):
    """One failing pair for a window start: ``|S_hi - S_lo| >= tolerance``."""

    window_start: int
    lo_index: int
    hi_index: int
    gap: Fraction


class CauchyWindowCertificate(_Record):
    """Evidence for a window halt: every admissible window start fails."""

    horizon: int
    tolerance: Fraction
    failures: tuple[WindowFailure, ...]

    def report_lines(self, kv: bool) -> list[str]:
        """This certificate's lines in a ``DetectorHalted`` report."""
        failures = [tuple(map(format_rational, (f.window_start, f.lo_index, f.hi_index, f.gap)))
                    for f in self.failures]
        if kv:
            return [
                f"certificate_horizon={format_rational(self.horizon)}",
                f"certificate_tolerance={format_rational(self.tolerance)}",
            ] + [f"failure.{start}={lo},{hi},{gap}" for start, lo, hi, gap in failures]
        return [
            "certificate:",
            f"  horizon: {format_rational(self.horizon)}",
            f"  tolerance: {format_rational(self.tolerance)}",
        ] + [
            f"  window start {start}: |S_{hi} - S_{lo}| = {gap}" for start, lo, hi, gap in failures
        ]


class DetectorHalted(_Report, _Record):
    """The detector halted at ``iteration`` with re-checkable evidence."""

    iteration: int
    certificate: Union[ThresholdCertificate, CauchyWindowCertificate]
    halted = True  # unannotated, so a class constant and not a field
    trace = ()  # the certificate cites its own partial sums

    def report_lines(self, kv: bool) -> list[str]:
        """The verdict and iteration, then the certificate's lines."""
        iteration = format_rational(self.iteration)
        lines = (["verdict=HALTED", f"iteration={iteration}"] if kv
                 else [f"verdict: HALTED at iteration {iteration}"])
        return lines + self.certificate.report_lines(kv)


class StillRunning(_Report, _Record):
    """Budget (or cancellation) ended the run first.

    ``trace`` holds the first few exact partial sums. For threshold runs
    ``final_bounds`` encloses the last partial sum between exact dyadic
    rationals. For window runs ``witness_log`` records, per horizon k, a
    window start that satisfied the check: the literal detector logs k
    itself, the heuristic the smallest qualifying start.
    """

    budget: int
    trace: tuple[tuple[int, Fraction], ...] = ()
    final_bounds: tuple[Fraction, Fraction] | None = None
    witness_log: tuple[tuple[int, int], ...] = ()
    halted = False

    def report_lines(self, kv: bool) -> list[str]:
        """The verdict, the final sum's enclosure and, in text, the witness log."""
        budget = format_rational(self.budget)
        lines = (["verdict=STILL_RUNNING", f"iterations={budget}"] if kv
                 else [f"verdict: STILL_RUNNING after {budget} iterations"])
        if self.final_bounds is not None:
            lo, hi = map(format_rational, self.final_bounds)
            lines += ([f"final_sum_lower={lo}", f"final_sum_upper={hi}"] if kv
                      else [f"final sum enclosure: [{lo}, {hi}]"])
        if self.witness_log and not kv:
            first, last = (" -> ".join(map(format_rational, self.witness_log[i])) for i in (0, -1))
            lines.append(
                f"window witnesses: start {first}, ..., start {last} "
                f"({len(self.witness_log)} recorded)"
            )
        return lines


def build_threshold_detector(stream: CoefficientStream) -> DetectorProgram:
    """Detector halting at the first N with ``|S_N(1)| > N``."""
    return DetectorProgram(stream, threshold=True)


def build_cauchy_window_detector(stream: CoefficientStream) -> DetectorProgram:
    """The literal shrinking-tolerance window detector (never halts)."""
    return DetectorProgram(stream)


def build_cauchy_window_heuristic(stream: CoefficientStream, *args, **kwargs) -> DetectorProgram:
    """Non-vacuous window variant; explicitly a heuristic. The remaining
    arguments are :class:`CauchyWindowKnobs`' fields, with its defaults."""
    return DetectorProgram(stream, CauchyWindowKnobs(*args, **kwargs))


def run_detector(
    detector: DetectorProgram,
    budget: int,
    cancel: Callable[[], bool] | None = None,
) -> DetectorHalted | StillRunning:
    """Run a detector for at most ``budget`` outer iterations.

    Deterministic given the stream. ``cancel`` is polled here alone, once
    just before each iteration; a cancelled run reports ``StillRunning``
    with the number of completed iterations.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    iterations: Iterable[int] = range(1, budget + 1)
    if cancel is not None:
        iterations = takewhile(lambda _: not cancel(), iterations)
    if detector.threshold:
        return _run_threshold(detector.stream, iterations)
    if detector.heuristic:
        return _run_window_heuristic(detector.stream, detector.knobs, iterations)
    # The literal rule's first start at horizon k, k itself, gives the
    # single-point window [k, k] with spread 0 < 2^-k: it always qualifies,
    # so the outcome follows from the iterations completed, and only the
    # trace needs coefficients.
    completed = budget if cancel is None else sum(1 for _ in iterations)
    sums = prefix_sums(detector.stream, _POINT_ONE, min(completed, TRACE_POINTS))
    log = tuple((k, k) for k in range(1, completed + 1))
    return StillRunning(completed, tuple(enumerate(sums))[1:], witness_log=log)


def _scaled_bounds(value: Fraction) -> tuple[int, int]:
    # Directed rounding to multiples of 2^-_SHIFT, as the loop rounds a term; exact for dyadic input.
    lo, rem = divmod(value.numerator << _SHIFT, value.denominator)
    return lo, lo + (rem != 0)


def _run_threshold(
    stream: CoefficientStream, iterations: Iterable[int]
) -> DetectorHalted | StillRunning:
    """Threshold loop over a sound scaled-integer enclosure of S_N, N in ``iterations``.

    Whenever the enclosure does not rule out ``|S_N| > N``, the exact
    partial sum decides: it either becomes the halt certificate or
    retightens the enclosure. It resumes from the last one, ``S_checked``,
    summing only the terms past it, so all exact work is one pass over the
    terms read. The halt index therefore always equals the one plain exact
    summation would give; only the evaluation strategy differs.
    """
    exact = checkpoint = stream.at(0)
    checked = 0
    lo, hi = _scaled_bounds(exact)
    trace: list[tuple[int, Fraction]] = []
    n = 0  # the iterations completed
    for n in iterations:
        a = stream.at(n)
        num, den = a.as_integer_ratio()
        step, rem = divmod(num << _SHIFT, den)
        lo += step
        hi += step + (rem != 0)
        if n <= TRACE_POINTS:
            exact += a
            trace.append((n, exact))
        threshold = n << _SHIFT
        if hi > threshold or lo < -threshold:
            ((_, num, den),) = _sampled_sums(stream, _POINT_ONE, [n], checked + 1)
            checkpoint, checked = checkpoint + Fraction(num, den), n
            if abs(checkpoint) > n:
                return DetectorHalted(n, ThresholdCertificate(index=n, partial_sum=checkpoint))
            lo, hi = _scaled_bounds(checkpoint)
    return StillRunning(
        budget=n,
        trace=tuple(trace),
        final_bounds=(Fraction(lo, _UNIT), Fraction(hi, _UNIT)),
    )


def _run_window_heuristic(
    stream: CoefficientStream,
    knobs: CauchyWindowKnobs,
    iterations: Iterable[int],
) -> DetectorHalted | StillRunning:
    sums: list[Fraction] = [stream.at(0)]
    # Monotone stacks over sums[1..]: ``highs`` holds indices whose sums
    # strictly fall left to right, ``lows`` indices whose sums strictly
    # rise. The extrema of sums[start..] are each stack's first index at or
    # after start, the later index winning ties.
    highs: list[int] = []
    lows: list[int] = []
    witness_log: list[tuple[int, int]] = []
    first = 1

    def window(start: int) -> tuple[int, int, Fraction]:
        hi_at = highs[bisect_left(highs, start)]
        lo_at = lows[bisect_left(lows, start)]
        return lo_at, hi_at, sums[hi_at] - sums[lo_at]

    for k in iterations:
        horizon, cap, tolerance = knobs.rule(k)
        while len(sums) <= horizon:
            a = stream.at(len(sums))
            s = sums[-1] + a
            # The previous index tops both stacks; the term's sign settles it.
            if highs and a >= 0:
                highs.pop()
                while highs and sums[highs[-1]] <= s:
                    highs.pop()
            if lows and a <= 0:
                lows.pop()
                while lows and sums[lows[-1]] >= s:
                    lows.pop()
            highs.append(len(sums))
            lows.append(len(sums))
            sums.append(s)
        # The gap over [start, horizon] never grows with start and never
        # shrinks with the horizon, and the tolerance never grows. So the
        # qualifying starts are a tail of 1..cap, and no start below the
        # last witness qualifies again: scan forward from it. Over the whole
        # run that is at most one start check per iteration, plus cap.
        while first <= cap and window(first)[2] >= tolerance:
            first += 1
        if first > cap:
            failures = tuple(WindowFailure(n, *window(n)) for n in range(1, cap + 1))
            return DetectorHalted(k, CauchyWindowCertificate(k, tolerance, failures))
        witness_log.append((k, first))
    completed = len(witness_log)
    trace = tuple((k, sums[k]) for k in range(1, min(completed, TRACE_POINTS) + 1))
    return StillRunning(completed, trace, witness_log=tuple(witness_log))


def recheck_certificate(
    stream: CoefficientStream,
    outcome: DetectorHalted,
    knobs: CauchyWindowKnobs | None = None,
) -> bool:
    """Re-establish a halt certificate by independent exact recomputation.
    Every index and window start must be an ``int``, and the iteration must
    be the certificate's index or horizon. A threshold certificate must cite
    the runner's first N with ``|S_N| > N``: a fresh run to N - 1 must not
    halt, so a forged index on a stream that never trips costs a run to N.
    A window certificate's tolerance, starts and indices must follow
    ``knobs.rule`` (the literal detector's rule when ``knobs`` is None)."""
    cert = outcome.certificate
    threshold = isinstance(cert, ThresholdCertificate)
    last = cert.index if threshold else cert.horizon
    cited = [] if threshold else [i for f in cert.failures for i in (f.lo_index, f.hi_index)]
    starts = [] if threshold else [f.window_start for f in cert.failures]
    # A float, a bool or a Fraction may equal an index, but names no partial sum.
    if not all(type(i) is int for i in (outcome.iteration, last, *starts, *cited)):
        return False
    if not 1 <= last == outcome.iteration:
        return False
    if threshold:
        if _run_threshold(stream, range(1, cert.index)).halted:
            return False
        value = partial_sum(stream, _POINT_ONE, cert.index)
        return value == cert.partial_sum and abs(value) > cert.index
    horizon, cap, tol = (knobs or _LITERAL_RULE).rule(cert.horizon)
    failures = cert.failures
    distinct = set(starts)
    # The count first, so that a claimed cap far beyond the certificate's
    # own size is refused without building its range.
    if tol != cert.tolerance or len(distinct) != cap or distinct != set(range(1, cap + 1)):
        return False
    if not all(f.window_start <= i <= horizon for f in failures for i in (f.lo_index, f.hi_index)):
        return False
    # One fresh pass from index 0 that shares no state with the runner and
    # reads only the cited sums.
    sampled = _sampled_sums(stream, _POINT_ONE, sorted(set(cited)))
    sums = {k: Fraction(num, den) for k, num, den in sampled}
    return all(abs(sums[f.hi_index] - sums[f.lo_index]) == f.gap >= tol for f in failures)
