"""A fixed piece of reference work that shows how fast the machine is right now.

The reference box is shared. Other tenants change its speed by tens of
percent within a minute, so the raw wall times of two runs can differ more
than a code change does. The benchmark therefore times in CPU time
(``cpu_ns``), which leaves out the time the process waits while a neighbour
runs, and runs this probe right before and right after every measured
interval: each op, and each worker's set-up. The probe catches what CPU time
cannot leave out: a neighbour on the same core slows every instruction.
After a long op the probe repeats, for a fixed share of the op's time, so the
estimate of the machine's speed around a long op rests on more samples.
The interval is divided by the mean of its two probes and multiplied by
``REFERENCE_MS``. The result is the interval at a fixed machine speed, in
milliseconds of the reference box. The probe does the same kind of work as
yaxter's kernels (small complex Kronecker products, 8x8 products, norms and a
Python loop) but never calls yaxter, so no change to the program can move it.
"""

from __future__ import annotations

import resource
import time

import numpy as np

#: typical probe time on the reference box; scaled intervals read in its ms
REFERENCE_MS = 0.7
#: after an op, the probe repeats until it has run for this share of the op's time
SHARE = 0.02

_A = (np.arange(16).reshape(4, 4) + 1j) / 16.0
_I2 = np.eye(2, dtype=complex)


def _work() -> None:
    for _ in range(20):
        big = np.kron(_A, _I2)
        np.linalg.norm(big @ big - big)
        total = 0
        for k in range(50):
            total += k * k


def cpu_ns() -> int:
    """CPU time of this process and of the children it has waited for, in ns.
    Counting the children keeps work moved into a subprocess on the clock."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def probe_ns(min_total_ns: float = 0.0) -> float:
    """Mean CPU time of one run of the reference work, in ns, over as many runs
    as it takes to spend ``min_total_ns`` (at least one run)."""
    runs = total = 0
    while runs == 0 or total < min_total_ns:
        start = time.process_time_ns()
        _work()
        total += time.process_time_ns() - start
        runs += 1
    return total / runs


def scaled(interval_ns: int, before_ns: float, after_ns: float) -> float:
    """The interval in ms at reference speed, given the probes that bracket it."""
    return interval_ns * REFERENCE_MS / ((before_ns + after_ns) / 2.0)
