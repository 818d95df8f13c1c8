"""How the benchmark reads stage times on a host whose speed moves.

On a shared host the same pass takes anywhere from 1.0x to 1.7x its
fastest time. The speed moves on two time scales: it flips between fast
and slow many times a second, and its best level drifts by 10-35% over
tens of seconds to minutes. Two tools take these out:

* `SegmentClock` cuts a stage into short segments at heartbeat marks and
  keeps each segment's fastest time over the run's passes. A 5 ms segment
  almost always finds a fast moment in some pass; a whole 1 s stage often
  does not.
* `SpeedProbe` times one unit of a fixed numpy workload at every
  PROBE_EVERY-th heartbeat mark (`Pulse`), so at the same points of the
  program's work in every pass. Each slot (the k-th unit of a pass) keeps
  its fastest time, in the same way as a segment does. A stage's probe
  time is the mean over the slots inside it. The stage's segments and
  those slots then see the same fast moments, so their ratio does not
  move with the drift. Times are reported at the probe's nominal speed:
  a stage whose probe is 20% slower than nominal has its time scaled by
  1/1.2.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

# The probe's fastest unit time that reported times are scaled to. It is
# about the fastest unit time on the 2-core Xeon host the benchmark was
# built on, so reported times read as that host's fast-phase seconds.
PROBE_NOMINAL_S = 2.0e-4
# Marks per probe unit: one unit every 2.5-10 ms of program time, 2-8% more
# wall time per pass, none of it inside the reported times.
PROBE_EVERY = 128


class SegmentClock:
    """A stage's time as the sum of per-segment minimums over passes.

    `add` takes one pass's marks: the stage's start, its beats and its end.
    The first pass cuts them into segments of at least `segment_s` seconds,
    and later passes with the same number of marks are cut at the same
    indices, so segment j is the same work in every pass. Each segment
    keeps its fastest time. Passes whose mark count differs are kept in a
    group of their own; `best_s` uses the group with the most passes.
    """

    def __init__(self, segment_s: float):
        self.segment_s = segment_s
        self.groups: dict[int, tuple[list[int], list[float], list[int]]] = {}

    def add(self, marks) -> None:
        group = self.groups.get(len(marks))
        if group is None:
            bounds = [0]
            for i in range(1, len(marks) - 1):
                if marks[i] - marks[bounds[-1]] >= self.segment_s:
                    bounds.append(i)
            bounds.append(len(marks) - 1)
            mins = [marks[b] - marks[a] for a, b in zip(bounds, bounds[1:])]
            self.groups[len(marks)] = (bounds, mins, [1])
            return
        bounds, mins, count = group
        for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
            d = marks[b] - marks[a]
            if d < mins[j]:
                mins[j] = d
        count[0] += 1

    def _largest(self):
        return max(self.groups.values(), key=lambda g: g[2][0])

    def best_s(self) -> float:
        return sum(self._largest()[1])

    def describe(self) -> dict:
        bounds, _, count = self._largest()
        return {"segments": len(bounds) - 1, "passes": count[0],
                "groups": len(self.groups)}


class Pulse:
    """One plain pass's heartbeat: a mark whenever a jointpref function returns.

    With a probe, every PROBE_EVERY-th mark first times one probe unit in
    the slot of that mark's place in the pass. Marks run on a clock that
    stops while the probe runs: perf_counter() minus `paused_s`. So
    segment times hold program time only.
    """

    def __init__(self, probe: "SpeedProbe | None" = None):
        self.marks = array("d")
        self.count = 0
        self.paused_s = 0.0     # probe time so far, left out of `now`
        self.probe = probe

    def tick(self) -> None:
        self.count += 1
        if self.probe is not None and self.count % PROBE_EVERY == 0:
            start = time.perf_counter()
            self.probe.sample(self.count // PROBE_EVERY - 1, 1)
            self.paused_s += time.perf_counter() - start
        self.marks.append(time.perf_counter() - self.paused_s)


class SpeedProbe:
    """The host's speed during a run, from a fixed numpy workload.

    One unit is the kind of work the program does: small matrix products,
    elementwise maths and an einsum over a (modes, agents, steps, 2) array,
    driven from a Python loop. It uses numpy only, never jointpref, so no
    change to the program moves it. Build it after the thread variables
    are set: it imports numpy.
    """

    UNIT_ITERATIONS = 20

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((32, 24))
        self.x = rng.standard_normal(24)
        self.w2 = rng.standard_normal((12, 32))
        self.trajs = rng.standard_normal((6, 2, 12, 2))
        self.slots: list[float] = []   # fastest unit time per slot
        self.units = 0

    def _unit(self) -> float:
        np, total = self.np, 0.0
        for _ in range(self.UNIT_ITERATIONS):
            h = np.tanh(self.w1 @ self.x)
            total += float(np.outer(self.w2 @ h, h).sum())
            d = np.einsum("katd,katd->ka", self.trajs, self.trajs)
            total += float(np.exp(-d).sum())
        return total

    def sample(self, slot: int, units: int) -> None:
        """Time `units` units and keep the fastest in `slot`."""
        while len(self.slots) <= slot:
            self.slots.append(math.inf)
        for _ in range(units):
            start = time.perf_counter()
            self._unit()
            took = time.perf_counter() - start
            if took < self.slots[slot]:
                self.slots[slot] = took
        self.units += units

    def unit_s(self, slots: range | None = None) -> float:
        """Mean fastest unit over `slots`; over every slot when it is empty."""
        picked = [self.slots[i] for i in slots or ()] or self.slots
        return statistics.fmean(picked)

    def scale(self, slots: range | None = None) -> float:
        """Factor that takes times to the nominal probe speed."""
        return PROBE_NOMINAL_S / self.unit_s(slots)
