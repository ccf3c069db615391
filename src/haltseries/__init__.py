"""Halting encoded as power-series convergence, and back.

A counter-machine run maps to a coefficient stream whose terms switch
from 0 to n! at the halt step, so the resulting series converges
everywhere when the run never halts and diverges away from the origin
when it does. In the other direction, detectors run over a coefficient
stream and halt when they believe the series diverges at z = 1. All
arithmetic is exact, and every verdict is a budgeted semidecision:
positive witness, negative witness, or budget exhausted.
"""

from .coefficients import *
from .machine import *
from .reductions import *
from .reductions import Halted as DetectorHalted
from .series import *

__all__ = (coefficients.__all__ + machine.__all__ + reductions.__all__ + series.__all__
           + ["DetectorHalted"])

__version__ = "0.1.0"
