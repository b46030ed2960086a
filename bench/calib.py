"""Machine-speed reference for the benchmark's timings.

The small virtual machines this benchmark runs on share their host, and the
speed of identical work drifts by up to about 1.5x for seconds to minutes at
a time.  On a 2-vCPU Intel Xeon (2.1 GHz) VM, a fixed pure-Python loop timed
in 50-second windows spread by 0.10 to 0.15 of its median (interquartile
range) with no other work running, which is as wide as the spread of the
benchmark's own raw timings across runs.

So every timing the end-to-end metrics use is bracketed by a short fixed
reference task, timed just before and just after it, and is reported in
reference seconds: the raw seconds times ``REFERENCE_S`` over the mean of
the two reference times.  A machine that runs the reference task in
``REFERENCE_S`` reads the same in raw and reference seconds.  The reference
task touches nothing of apkaudit and runs with the garbage collector off,
so a change to apkaudit cannot move it; the raw values are printed and
recorded next to the scaled ones.
"""

from __future__ import annotations

import gc
import time

ITERATIONS = 1_000_000
REFERENCE_S = 0.1  # nominal time of the reference task


def _task() -> int:
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return acc


def measure() -> float:
    """Seconds one run of the reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Raw seconds times this factor gives reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
