"""The benchmark's speed reference: a fixed task, timed around the program's work.

The speed of one core of a shared machine swings by half or more over
stretches of a few seconds to minutes, as other tenants come and go, and the
program slows with it. The reference task slows the same way, and no change
to the program can move it, since it uses only the standard library. Timed
just before and just after a stretch of the program's work on the same
core, it tells how fast the core ran, and ``speed_corrected`` turns the
stretch's time into the time it would take at the speed where the task takes
``REFERENCE_S``.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, one clock for every
process, so a child's probes and its parent's timings can be compared.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import NamedTuple

# The reference task's time, in seconds, on the machine the benchmark was
# built on when that machine ran at its fastest. Corrected times read as
# they would at that speed.
REFERENCE_S = 0.007


class Probe(NamedTuple):
    """One timing of the reference task: its start and end on ``perf_counter``, and its time."""

    start: float
    end: float
    ref: float


def _loop() -> None:
    total = 0
    for i in range(80_000):
        total += i * i % 7


def _fractions() -> None:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)


def reference_s() -> float:
    """Seconds the reference task takes now: best of three tries of each part, summed.

    The parts are the kinds of work the program does most: an interpreter
    loop and an exact ``Fraction`` sum.
    """
    total = 0.0
    for part in (_loop, _fractions):
        tries = []
        for _ in range(3):
            start = time.perf_counter()
            part()
            tries.append(time.perf_counter() - start)
        total += min(tries)
    return total


def probe() -> Probe:
    start = time.perf_counter()
    ref = reference_s()
    return Probe(start, time.perf_counter(), ref)


def speed_corrected(start: float, end: float, probes: list[Probe]) -> tuple[float, float]:
    """Seconds from ``start`` to ``end`` with the probes cut out: as measured, and corrected.

    ``probes`` are in time order; the first ends by ``start`` and the last
    starts at ``end`` or later. Each stretch between two probes is scaled
    by ``REFERENCE_S`` over the geometric mean of their two times.
    """
    raw = corrected = 0.0
    for a, b in zip(probes, probes[1:]):
        gap = min(b.start, end) - max(a.end, start)
        raw += gap
        corrected += gap * REFERENCE_S / math.sqrt(a.ref * b.ref)
    return raw, corrected
