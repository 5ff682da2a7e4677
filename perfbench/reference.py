"""Fixed reference computations that measure the host's current speed.

The host's speed drifts by up to 1.7x for minutes at a time (see NOTES.md,
Measurement noise), so raw seconds from runs minutes apart are not
comparable.  Each worker therefore interleaves a reference computation with
its operations, and the end-to-end times are rescaled to a host on which the
reference takes its nominal time:

    normalised seconds = raw seconds * nominal / (median reference time)

A slow phase of the host does not slow every kind of code alike, so each
workload uses the reference that does the same kind of work:

- ``symbolic``: expand a cubic in four symbols and differentiate it, with
  sympy's cache cleared; object-heavy Python, like the symbolic pipeline
  and the per-step call overhead of a one-point simulation.
- ``array``: explicit steps of a damped periodic wave on 16384 points with
  ``numpy.roll`` and fresh arrays each step, like the RK4 stages of a large
  grid.

Neither calls ``mcfield``, so a change to the package cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import sympy as sp
from sympy.core.cache import clear_cache

SHARE = 0.3   # reference time run after each operation, as a share of it

_X = sp.symbols("x0:4")
_U = np.linspace(0.0, 1.0, 16384)


def symbolic() -> int:
    clear_cache()
    e = sp.expand((_X[0] + 2 * _X[1] - _X[2] * _X[3] + 1) ** 3)
    return sp.Add(*[sp.diff(e, x) for x in _X]).count_ops()


def array() -> float:
    u, v = _U.copy(), np.cos(_U)
    for _ in range(300):
        lap = np.roll(u, 1) - 2 * u + np.roll(u, -1)
        v = v + 1e-3 * (lap - 0.1 * v)
        u = u + 1e-3 * v
    return float(u.sum())


# name -> (computation, nominal seconds: about its time on a 2-vCPU VM
# (Firecracker) in the host's faster phases)
KINDS = {"symbolic": (symbolic, 0.06), "array": (array, 0.03)}


class Reference:
    def __init__(self, kind: str):
        self.compute, self.nominal = KINDS[kind]
        self.expected = self.compute()

    def timed(self, after_s: float = 0.0) -> list[float]:
        """Run the reference once, then again until its time reaches
        ``SHARE * after_s``; return the duration of each run."""
        times: list[float] = []
        while not times or sum(times) < SHARE * after_s:
            t0 = time.perf_counter()
            result = self.compute()
            times.append(time.perf_counter() - t0)
            if result != self.expected:
                raise RuntimeError(f"reference gave {result}, not {self.expected}")
        return times

    def scale(self, refs: list[float]) -> float:
        """Factor that turns this process's raw seconds into normalised ones."""
        return self.nominal / statistics.median(refs)
