"""Host-speed calibration: each measured span is scaled to a reference
host speed by a fixed loop timed just before and just after it.

On a shared host one CPU's speed swings by 25 % and more within tens of
seconds, and stays slow or fast for minutes (coll_fine passes timed
back to back moved between 0.65 and 1.19 of their median within one
minute on a 2-core x86-64 host).  The spread of a 20-second run's
median then follows the host, not the program.

The loop is a pointer chase through a cycle of 500,000 small objects
in a fixed shuffled order; each call goes on where the last one
stopped.  The cycle (about 40 MB) is far larger than a core's L2 cache
(2 MB on that host), so the loop waits on the shared cache much as the
simulator's 60-85 MB heap does, and slows with it when other tenants
load it.  On 200 s of back-to-back coll_fine passes on that host,
scaling by this loop (then with a million objects) cut the spread of
eight-pass medians from 0.104 to 0.042.  A chase that kept re-walking
the same 20,000 objects, which fit in L2, did nearly as well in spells
like that one, but in ten full benchmark runs coll_fine's scaled
medians still rose by 15 % for a slow spell it did not see.

The loop is pure Python in this directory and imports nothing of the
program, so no change to the program can move it.  Only spans of the
program's own work are scaled; the loop runs between them, never while
the program runs.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: the loop's median time on the 2-core x86-64 host the benchmark was
#: tuned on, in a fast spell: a scaled span reads as seconds at that
#: host's speed
REFERENCE_S = 4.0e-3
NODES = 500_000
#: steps of one loop
STEPS = 20_000
REPEATS = 10


class _Node:
    __slots__ = ("next", "value")


class HostSpeed:
    """``start()`` before a span, ``scale()`` after it: the factor that
    turns the span's host seconds into reference seconds.  ``scale()``
    also starts the next span."""

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(NODES)]
        # the same shuffled cycle, and so the same loop, in every run
        order = list(range(NODES))
        random.Random(0).shuffle(order)
        for value, (a, b) in enumerate(zip(order, order[1:] + order[:1])):
            nodes[a].next = nodes[b]
            nodes[a].value = value
        self._node = nodes[0]
        self._before = self.loop_s()

    def _chase(self) -> int:
        node, total = self._node, 0
        for _ in range(STEPS):
            total += node.value
            node = node.next
        self._node = node
        return total

    def loop_s(self) -> float:
        """The loop's median time now, in host seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._chase()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def start(self) -> None:
        self._before = self.loop_s()

    def scale(self) -> float:
        after = self.loop_s()
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return factor
