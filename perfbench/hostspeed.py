"""The host's current speed, measured with fixed reference loops.

This host shares its cores with other tenants, and its speed swings by up to
2x within minutes.  CPU time swings with wall time, so it does not help.  A
run therefore times a fixed reference loop while it measures, and rescales
its wall times to the speed at which that loop takes its nominal time.

Code slows by different amounts under the same contention, so each workload
names the loop that best matches its own mix (see README, "Reference
speed"): ``python`` is an integer loop, ``variates`` draws Beta and Gamma
variates into a list, and ``numpy`` is a small matrix-vector product.  None
of them touches kinchem, so a change to the program cannot move them.
"""
from __future__ import annotations

import math
import random
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.25

_cells = [0.5] * 1000
_matrix = np.random.default_rng(0).random((513, 257))
_vector = np.random.default_rng(1).random(513)


def _python_loop() -> None:
    x = 0
    for i in range(50_000):
        x += i * i % 7


def _variates_loop() -> None:
    rng = random.Random(5)
    for _ in range(800):
        i = rng.randrange(1000)
        _cells[i] = math.sqrt(_cells[i] + rng.betavariate(1.5, 1.5) + rng.gammavariate(1.5, 1.0))


def _numpy_loop() -> None:
    for _ in range(100):
        _vector @ _matrix


# loop, and its nominal time in seconds: about its median on the baseline host
REFERENCES = {
    "python": (_python_loop, 0.005),
    "variates": (_variates_loop, 0.005),
    "numpy": (_numpy_loop, 0.003),
}


def reference_s(kind: str) -> float:
    """Wall time of one pass of the ``kind`` reference loop."""
    loop = REFERENCES[kind][0]
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def at_reference_speed(wall_s: float, kind: str, samples: list) -> float:
    """``wall_s`` rescaled to the speed at which the loop takes its nominal time."""
    return wall_s * REFERENCES[kind][1] / statistics.median(samples)


class HostSpeed:
    """Times a reference loop every SAMPLE_INTERVAL_S from a SIGALRM handler.

    The handler runs in the measured thread between bytecodes, so it samples
    the speed of the core the workload runs on, while it runs.  ``spent``
    adds up the handler's own time, which the caller subtracts.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s(self.kind))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
