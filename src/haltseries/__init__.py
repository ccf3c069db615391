"""Halting encoded as power-series convergence, and back.

A counter-machine run maps to a coefficient stream whose terms switch
from 0 to n! at the halt step, so the resulting series converges
everywhere when the run never halts and diverges away from the origin
when it does. In the other direction, detectors run over a coefficient
stream and halt when they believe the series diverges at z = 1. All
arithmetic is exact, and every verdict is a budgeted semidecision:
positive witness, negative witness, or budget exhausted.

The package re-exports each module's ``__all__`` and loads the modules
only when a name is first read (PEP 562). A name is looked up along the
chain ``machine``, ``coefficients``, ``series``, ``reductions``, in which
each module imports only the ones before it, so reading a name loads
nothing that its owner module does not load itself.
"""

import importlib

__version__ = "0.1.0"

_CHAIN = ("machine", "coefficients", "series", "reductions")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = [public for owner in _CHAIN for public in _module(owner).__all__]
    elif name == "cli" or name in _CHAIN:
        # ``from haltseries import cli`` asks for the attribute first: load that module alone.
        value = _module(name)
    else:
        owner = next((m for m in map(_module, _CHAIN) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
