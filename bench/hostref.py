"""How fast the shared host runs right now, from a fixed reference probe.

The host this benchmark is sized for (2 shared vCPUs) drifts by 15-40 %
within seconds as neighbours load it, in step for every process on it: the
same pure-Python loop takes 0.28 s in one minute and 0.51 s in the next.
Timed work is therefore scaled by a short probe timed right next to it:
``raw * NOMINAL_PROBE_S / probe``, that is, seconds on a host whose probe
takes ``NOMINAL_PROBE_S``.  A change to the program moves the scaled value
exactly as it moves the raw one, because the probe is part of the benchmark,
not of the program.

The probe is an arithmetic loop plus small method calls that update a dict.
The arithmetic loop alone under-reads how much contention slows the serve
and crash workloads; with the calls, scaled pass times of ten runs spread
by 2-5 % where raw ones spread by 15-24 %.
"""

from __future__ import annotations

import time

#: probe seconds of the nominal host every scaled time refers to
NOMINAL_PROBE_S = 0.015


class _Counter:
    def __init__(self) -> None:
        self.total = 0
        self.by_key: dict[int, int] = {}

    def add(self, key: int, value: int) -> None:
        self.total += value
        self.by_key[key] = self.by_key.get(key, 0) + value


def probe() -> float:
    """Seconds for the fixed ~15 ms reference probe."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    counter = _Counter()
    for i in range(30_000):
        counter.add(i & 1023, i)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to nominal seconds, for work between probes."""
    return NOMINAL_PROBE_S / ((before + after) / 2)


def drift_probe() -> float:
    """Seconds for a fixed ~0.5 s pure-Python plus numpy loop (diagnostic)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(150):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - start
