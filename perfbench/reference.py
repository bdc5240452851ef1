"""A fixed reference task that gauges the host's speed during a run.

On a shared virtual machine the same code can run tens of percent slower
for minutes at a time, and CPU time drifts with wall time (the slowdown
is not time stolen from the process, it is a slower core).  ``run.py``
therefore interleaves this task with the timed work and reports times at
the reference speed: measured seconds times ``REFERENCE_S`` over the
task's mean time in the same run.  The task runs no keenact code, so a
change to the program never moves it; it mixes what the commands spend
their time in: string parsing, small numpy products, an interpreter loop
and look-ups scattered over a dict too large for the caches.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal time of one ``reference_task`` call, the unit the reported times use.
REFERENCE_S = 0.05

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((64, 16))
_VECTOR = _RNG.standard_normal(16)
_LINES = [f"u{i % 97}\ti{i % 1009}\ta{i % 3}\t{i}\n" for i in range(7000)]
_TABLE = {i * 7919 % 1000003: i for i in range(300000)}
_KEYS = [i * 7919 % 1000003 for i in _RNG.integers(0, 300000, 30000).tolist()]


def reference_task() -> float:
    total = 0.0
    counts: dict[str, int] = {}
    for line in _LINES:
        _user, item, _activity, value = line.rstrip("\n").split("\t")
        counts[item] = counts.get(item, 0) + 1
        total += int(value) % 7
    for i in range(14000):
        total += float(_MATRIX[i % 64] @ _VECTOR)
    for i in range(80000):
        total += i * i % 7
    for key in _KEYS:
        total += _TABLE[key]
    return total + len(counts)


def timed_reference() -> float:
    """Seconds one ``reference_task`` call takes now."""
    started = time.perf_counter()
    reference_task()
    return time.perf_counter() - started
