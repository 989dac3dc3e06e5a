"""Host-speed probes, and the pinning that lets them see the node's CPU.

On a small VM that shares its host, the speed of a CPU follows the host's
load.  A fixed pure-Python loop here takes 1.3 ms for some seconds, then
2.4 ms for the next ones, and a request to the node slows down with it.  So
the benchmark samples that loop between requests, at most every
``PROBE_EVERY_S``, on the CPU that runs the node while the node waits for
its next request.  Each stretch of time between two samples is scaled to a
reference speed by the mean of those two samples:

    scaled_s = measured_s * REF_PROBE_S / mean(probe before, probe after)

The loop does not use pscalar, so a change to the program moves
``measured_s`` and not the probes.  A node that burned CPU while idle would
slow the probes, so ``SpeedTrack`` also adds up the node's CPU time during
them and the run fails if that is not small.  See README.md, "Host speed".
"""

from __future__ import annotations

import os
import time
from collections import Counter
from statistics import median
from typing import Callable

REF_PROBE_S = 2.0e-3  # one ``_loop`` at the reference speed
PROBE_LOOPS = 3  # loops per sample; the sample is their median
PROBE_EVERY_S = 0.1  # at most one sample per this much measured time
NODE_BUSY_SHARE = 0.25  # node CPU allowed during probes, as a share of their time
NODE_BUSY_SLACK_S = 0.03  # plus three 10 ms clock ticks, the CPU time resolution


def _loop() -> float:
    """Dict, tuple and float work, as in evaluating a polynomial."""
    table: dict = {}
    total = 0.0
    for i in range(6000):
        key = (i & 63, i & 7)
        total += table.get(key, 0.5) * 1.000001
        table[key] = total % 1.0
    return total


def probe(loops: int = PROBE_LOOPS) -> float:
    """Median seconds of one ``_loop`` over ``loops`` back-to-back runs."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return median(times)


def pin_to_one_cpu() -> None:
    """Bind this process, and so every node it starts later, to one CPU.

    The client and the node take turns (one request in flight at a time),
    so sharing a CPU costs them no parallelism.  It keeps the node from
    moving between CPUs of different speed, and it makes the probes, run
    by this process, time the CPU that runs the node."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedTrack:
    """Seconds added with ``add``, measured and scaled by the samples around them.

    ``sample`` closes the current stretch: everything added since the last
    sample, and the wall time between the two samples ("wall"), is scaled by
    REF_PROBE_S over the mean of the two.  Time spent probing is in no
    stretch.  ``node_cpu``, if given, reads the node's CPU seconds, so that
    its use during the probes can be checked."""

    def __init__(self, node_cpu: Callable[[], float] | None = None):
        self.measured: Counter = Counter()
        self.scaled: Counter = Counter()
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.node_busy_s = 0.0
        self._node_cpu = node_cpu
        self._pending: Counter = Counter()
        self._last_end = 0.0

    def due(self) -> bool:
        return time.perf_counter() - self._last_end >= PROBE_EVERY_S

    def add(self, name: str, seconds: float) -> None:
        self._pending[name] += seconds

    def sample(self) -> None:
        busy0 = self._node_cpu() if self._node_cpu else 0.0
        t0 = time.perf_counter()
        p = probe()
        t1 = time.perf_counter()
        if self._node_cpu:
            self.node_busy_s += self._node_cpu() - busy0
        self.probe_s += t1 - t0
        if self.samples:
            self._pending["wall"] += t0 - self._last_end
            factor = 2.0 * REF_PROBE_S / (self.samples[-1] + p)
            for name, seconds in self._pending.items():
                self.measured[name] += seconds
                self.scaled[name] += seconds * factor
        self._pending.clear()
        self.samples.append(p)
        self._last_end = t1

    def factor(self, name: str = "wall") -> float:
        """Scaled over measured seconds of ``name``: the mean scale applied."""
        return self.scaled[name] / self.measured[name] if self.measured[name] else 1.0

    def node_was_idle(self) -> bool:
        return self.node_busy_s <= NODE_BUSY_SHARE * self.probe_s + NODE_BUSY_SLACK_S
