"""A fixed reference computation that measures the machine's current speed.

Small shared machines change speed for seconds or minutes at a time when
other tenants load the cores: on a 2-core test box the same fsdg iteration
took 17-20 ms in one state and 29-33 ms in another, with CPU time equal to
wall time in both.  run.py times this yardstick before and after every
timed piece of work and scales the work's time by ``NOMINAL_S / yardstick``,
reporting it at the speed the box has when nothing else is running.

The yardstick mixes what fsdg's autodiff tape spends its time on: Python
calls and small float64 NumPy operations with finiteness checks.  It must
never change, or the figures of different commits stop being comparable.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one pass takes on the 2-core Xeon test box in its fast state.
NOMINAL_S = 0.012
_REPS = 450

_A = np.linspace(-1.0, 1.0, 96 * 64).reshape(96, 64)
_B = np.linspace(-0.5, 0.5, 64 * 32).reshape(64, 32)
_C = np.linspace(0.0, 1.0, 32)


def _step(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    h = np.add(x @ w, b)
    h = np.maximum(h, 0.0)
    if not np.all(np.isfinite(h)):
        raise ArithmeticError("yardstick: non-finite value")
    return h, float(np.sum(h * h))


def measure() -> float:
    """Wall seconds of one fixed pass."""
    t0 = perf_counter()
    total = 0.0
    for _ in range(_REPS):
        h, s = _step(_A, _B, _C)
        total += s + float(h[0, 0])
    if not total > 0.0:
        raise ArithmeticError("yardstick: unexpected result")
    return perf_counter() - t0
