"""Host-speed probes, independent of lumpkit.

On a shared host the speed of the same Python code moves by up to 4x over
an hour and differs between the two vCPUs at any moment. The benchmark
therefore brackets every pipeline with :func:`speed_probe` and reports its
time in reference seconds (see run.py).
"""

from __future__ import annotations

import time

import numpy as np

# the speed probe's time on the host the benchmark was defined on, in its
# fast state; timings are reported as if every probe had taken this long
PROBE_REFERENCE_S = 0.004
_MATRIX = np.random.default_rng(0).standard_normal((10, 10))


def speed_probe() -> float:
    """Seconds for a fixed loop of small numpy calls, the kind of work that
    dominates lumpkit's pipelines (about 4 ms)."""
    v = np.ones(10)
    t0 = time.perf_counter()
    for _ in range(1000):
        v = _MATRIX @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


def machine_probe() -> dict[str, float]:
    """A 3M-iteration pure-Python loop and 20 speed probes, in ms. Reported
    next to the numbers as a diagnostic of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i
    spin = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(20):
        speed_probe()
    return {"spin_ms": 1e3 * spin, "numpy_ms": 1e3 * (time.perf_counter() - t0)}
