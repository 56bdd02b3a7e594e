"""Host-speed probe: a fixed reference computation timed around each
measured step, so reported times move less with the shared host's speed.

The benchmark runs on a few vCPUs of a shared machine.  How fast the same
Python code runs there drifts by tens of percent over minutes, with the
load of other tenants (contention for caches and memory, not descheduling:
CPU time drifts with wall time).  Runs of one workload a few minutes apart
differed by more than a performance bound can tolerate, and not by the
program's doing.

So every set-up and every evaluation is bracketed by runs of a probe.  The
probe is code of this directory only -- no change to the program can make
it faster or slower -- and mixes, in about equal time, what the workloads
spend their time on: interpreted Python following pointers across a large
heap, interpreted dict and integer work on a small one, and many numpy
calls on small arrays.  A step's *normalized* time is its wall time scaled
by ``(REFERENCE_RUN_S / mean probe run) ** SENSITIVITY``: about its seconds
on a host where one probe run takes :data:`REFERENCE_RUN_S`.

The probe tracks the host only in part: slowdowns do not hit the probe and
a workload in equal measure.  On a 2-vCPU Xeon VM, over twelve minutes of
``coach-vs-none`` evaluations, the median evaluation time of successive
groups of six spread 0.24 (quartile distance over median) in wall time and
about 0.1 normalized.  When the host's speed swung by half, the probe swung
more than the workloads did, which is what :data:`SENSITIVITY` below one
allows for.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Entries of the probe's object heap, about 45 MB: far beyond the
#: core-private caches and TLB reach, so walking it meets the contention the
#: program's own heap of trace and ledger objects meets.
HEAP_ENTRIES = 1 << 18
#: Steps of the scattered walk per probe run.
WALK_STEPS = 15_000
#: Rounds over 512 dict keys per probe run.
DICT_ROUNDS = 34
#: Rounds of three small-array numpy calls per probe run.
NUMPY_ROUNDS = 520
#: Share of a step's wall time spent probing on each side of it; more
#: probing around longer steps keeps the speed estimate as precise as the
#: step's own time.
PROBE_SHARE = 0.05
#: Fewest probe runs on each side of a step.
MIN_RUNS = 2
#: Seconds one probe run took on the reference host, a 2-vCPU Intel Xeon VM,
#: when it was quiet.  Only the scale of the normalized times depends on it.
REFERENCE_RUN_S = 0.012
#: Power of the probe's slowdown that a step's time is divided by.  Over the
#: largest swing measured (the probe 2.5x slower), the workloads' times moved
#: as about the 0.7th-0.8th power of the probe's; over smaller swings, as
#: about its first power.
SENSITIVITY = 0.8


class HostProbe:
    """A fixed computation whose time tracks the host's current speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250401)
        order = rng.permutation(HEAP_ENTRIES).tolist()
        successor = [0] * HEAP_ENTRIES
        for here, there in zip(order, order[1:] + order[:1]):
            successor[here] = there
        #: ``successor[i]`` is the next index of one cycle through the heap.
        self._successor = successor
        self._heap = [(i, float(i) * 0.5, str(i)) for i in range(HEAP_ENTRIES)]
        self._row = rng.random(4096)
        self._matrix = rng.random((64, 64))
        self._keys = [f"k{i}" for i in range(512)]
        self._last_wall = 0.0

    def _work(self) -> float:
        return self._walk() + self._interpret() + self._numpy_calls()

    def _walk(self) -> float:
        """Interpreted Python following pointers across a large heap."""
        total = 0.0
        index = 0
        successor, heap = self._successor, self._heap
        for _ in range(WALK_STEPS):
            total += heap[index][1]
            index = successor[index]
        return total

    def _interpret(self) -> float:
        """Interpreted Python over a small working set: dict and integer
        arithmetic."""
        counts: dict = {}
        total = 0
        for _ in range(DICT_ROUNDS):
            for position, key in enumerate(self._keys):
                counts[key] = counts.get(key, 0) + position
                total += (position * 3) % 7
        return float(total)

    def _numpy_calls(self) -> float:
        """Many numpy calls on small arrays, where per-call overhead rules."""
        total = 0.0
        row, matrix = self._row, self._matrix
        for step in range(NUMPY_ROUNDS):
            window = row[step:step + 256]
            total += float(np.argmax(window)) + float(window.sum())
            total += float(matrix[step % 64] @ matrix[:, step % 64])
        return total

    def _sample(self, budget: float) -> tuple:
        """Probe runs until *budget* seconds, at least :data:`MIN_RUNS`:
        ``(runs, seconds)``."""
        runs = 0
        start = time.perf_counter()
        while True:
            self._work()
            runs += 1
            spent = time.perf_counter() - start
            if runs >= MIN_RUNS and spent >= budget:
                return runs, spent

    def timed(self, step: Callable[[], T]) -> Tuple[T, float, float]:
        """``(step(), wall seconds, normalized seconds)`` of one step.

        The step is bracketed by probe runs, each side taking
        :data:`PROBE_SHARE` of the step's wall time (the step before it
        sets the budget of the first side); the normalized time is the
        wall time times ``(REFERENCE_RUN_S / mean probe run) **
        SENSITIVITY``.
        """
        runs_before, before = self._sample(PROBE_SHARE * self._last_wall)
        start = time.perf_counter()
        result = step()
        wall = time.perf_counter() - start
        self._last_wall = wall
        runs_after, after = self._sample(PROBE_SHARE * wall)
        mean_run = (before + after) / (runs_before + runs_after)
        return result, wall, wall * (REFERENCE_RUN_S / mean_run) ** SENSITIVITY
