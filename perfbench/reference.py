"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The machine the benchmark was built on is shared with other guests, which
slow a process down by up to about 2.3x for minutes at a time.  A drain
runs :func:`gauge` between its specs; the benchmark scales the drain's
times by the gauge's times from the same process (see ``run.py``), so that
a slow stretch of the host cancels out while a change to the program does
not: this file is the benchmark's own and no change to ``src/`` touches it.

The kernel does what a discrete-event simulator does, on a toy model: it
builds a few thousand slotted objects, pops timed events from a heap,
reads and updates objects scattered over a few megabytes, and allocates a
message per event.  Its result is fixed, and checked.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Tuple

#: objects the kernel builds and reads at random.
LINES = 16384
#: events per gauge.
EVENTS = 6000
#: seconds one gauge takes, about, on a 2.1 GHz Xeon core of a quiet host.
#: Scaled times read as seconds on a host running at that speed.
NOMINAL_S = 0.013
#: :func:`kernel`'s result.
EXPECTED = 225047


class _Line:
    __slots__ = ("tag", "value", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.value = tag * 7
        self.hits = 0

    def access(self, amount: int) -> int:
        self.hits += 1
        self.value = (self.value * 31 + amount) & 0xFFFF
        return self.value


class _Message:
    __slots__ = ("src", "dst", "size", "when")

    def __init__(self, src: int, dst: int, size: int, when: int) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.when = when


def kernel() -> int:
    """Run ``EVENTS`` toy events and return a checksum of them."""
    lines = {tag: _Line(tag) for tag in range(LINES)}
    heap = []
    for unit in range(256):
        heappush(heap, (unit, unit))
    inflight = {}
    seed = 12345
    total = 0
    for event in range(EVENTS):
        when, unit = heappop(heap)
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        value = lines[seed % LINES].access(unit)
        inflight[event & 1023] = _Message(unit, seed & 255, value & 63, when)
        older = inflight.get((event + 512) & 1023)
        delay = (value & 15) + 1 + (older.size if older is not None else 0)
        heappush(heap, (when + delay, unit))
        total += delay
    return total


def gauge() -> Tuple[float, float]:
    """Wall and CPU seconds of one :func:`kernel` run on this host now."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = kernel()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, "
                           f"not {EXPECTED}")
    return wall, cpu
