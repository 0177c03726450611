"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by tens of percent over
seconds, as other tenants come and go. ``calibrate`` times a fixed piece
of work in the same style as vicsim's hot paths (Kronecker products,
solves and products of 9x9 matrices); it never changes, so the ratio of
``REFERENCE_S`` to its measured time is the machine's current speed
relative to a fixed reference. Timings scaled by that ratio are in
reference-speed seconds and compare across runs whatever the drift.
"""

from __future__ import annotations

import time

import numpy as np

# Calibration time on the reference machine (2 vCPU x86_64, Python 3.11,
# numpy 2.4); only its constancy matters, not its value.
REFERENCE_S = 5.5e-4
_ROUNDS = 3
_A = np.arange(9.0).reshape(3, 3) / 10.0
_Q = np.eye(9) - np.diag(np.linspace(0.1, 0.5, 9)) + 0.01


def _work() -> None:
    # Kronecker products, a linear solve and 9x9 products; numpy only, so the
    # benchmark adds no import to the measured process.
    m = np.eye(9)
    for i in range(12):
        m = np.linalg.solve(_Q, np.kron(_A, np.eye(3) + 1e-3 * i) @ m) * 0.5 + np.eye(9)


def calibrate() -> float:
    """Seconds the fixed work takes now (the best of a few rounds)."""
    best = float("inf")
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best
