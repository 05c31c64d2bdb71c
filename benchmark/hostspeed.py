"""Host-speed gauges: fixed numpy work, timed around each unit of work.

On a shared host the CPU lent to the benchmark runs the same code up to
1.8x slower in spells that last from a second to minutes, and the share
of slow time changes from run to run. A gauge is a fixed piece of work
that needs nothing from the package; its time, read just before and
just after a unit on the same CPU, tells how fast the host ran the unit.
The unit's wall time times REF / (mean of the two readings) is the time
the unit takes on the reference host at full speed, whatever the share
of slow time in the run.

There are two gauges, one for each kind of work the package does:

- `small_calls`: many numpy calls on 64-element arrays, as in the scalar
  kernel, evaluator builds and critical-level solves (option_grid,
  curve_path) and in importing and setting up;
- `large_arrays`: one numpy call on a 6,000,000-element array (48 MB),
  as in the Monte Carlo batch kernel (mc_batch), whose 20,000-draw
  chunks times about 210 quadrature nodes make arrays of 4 million; its
  time follows memory bandwidth, which the host's slow spells slow less
  than they slow small calls.

REF is each gauge's fastest reading on the reference host: 2 vCPUs of an
Intel Xeon (AVX-512), Python 3.11.7, numpy 2.4.6, one BLAS thread. The
scaled times are therefore close to that host's wall times at full
speed. They are comparable between two commits only under the same
numpy, because the gauges run numpy code.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# each gauge's fastest readings on the reference host, rounded
REF_SMALL_S = 1.6e-3
REF_LARGE_S = 18e-3


class Gauge:
    """`reps` calls of exp and sum on a fixed array of `size` floats."""

    def __init__(self, size, reps, ref_s):
        self.x = np.random.default_rng(0).random(size)
        self.reps = reps
        self.ref_s = ref_s

    def read(self):
        """Seconds one round of the gauge's work takes now."""
        x = self.x
        start = perf_counter()
        for _ in range(self.reps):
            np.exp(x).sum()
        return perf_counter() - start

    def timed(self, fn, *args):
        """Run fn(*args) between two readings. Returns its result, its wall
        time, and the factor that scales that time to the reference host
        at full speed."""
        before = self.read()
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        after = self.read()
        return result, wall, 2.0 * self.ref_s / (before + after)


SMALL_CALLS = Gauge(size=64, reps=1000, ref_s=REF_SMALL_S)
LARGE_ARRAYS = Gauge(size=6_000_000, reps=1, ref_s=REF_LARGE_S)
