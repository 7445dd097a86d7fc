"""Fixed yardsticks for the host's current speed.

Host speed on a shared VM drifts by 25% or more over minutes: the same
headline call took 0.86x to 1.37x its median time in consecutive 10-call
blocks.  The benchmark times :func:`kernel` right after every call and
divides the call's time by it, which cut that block spread to 0.94x-1.07x.
Times are then reported in *reference seconds*: seconds on a host that runs
the kernel in :data:`REFERENCE_S` (and, for set-up launches, starts a bare
interpreter in :data:`START_REFERENCE_S`).

The kernel is pure Python shaped like the simulator's inner loop (a heap
of timed events, per-node dicts of line state, small allocations) and uses
nothing from ``src/``, so a change to the program cannot move it.
"""

import gc
import heapq
import statistics
import time

#: Nominal kernel time: what it took on an idle host of the benchmark box.
REFERENCE_S = 0.07

#: Nominal start of a bare ``python3 -c pass`` on the same host.  Set-up
#: launches are scaled by it instead of by the kernel: process creation and
#: loading slow down with the host in ways the kernel does not, while a bare
#: start tracks them (a 10-launch median's IQR fell from 8.7% to 2.8%).
START_REFERENCE_S = 0.043


class _Node:
    __slots__ = ("lines", "handled")

    def __init__(self):
        self.lines = {}
        self.handled = 0

    def handle(self, addr, kind):
        line = self.lines.get(addr)
        if line is None:
            line = self.lines[addr] = [kind, 0]
        line[1] += 1
        self.handled += 1
        return line[1] & 7


def kernel(steps=60_000):
    nodes = [_Node() for _ in range(16)]
    queue = [(i, i, i % 16, i * 128) for i in range(64)]
    heapq.heapify(queue)
    x, seq = 7, 64
    for _ in range(steps):
        when, _, node, addr = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        delay = nodes[node].handle(addr, x & 3)
        seq += 1
        heapq.heappush(queue, (when + 1 + delay + (x & 15), seq,
                               (node + (x >> 4)) & 15,
                               ((x >> 8) & 2047) * 128))
    return seq


def reference_seconds(budget=0.0, runs=3):
    """Median seconds of the kernel over at least ``runs`` runs and
    ``budget`` seconds, with the cyclic GC paused so the caller's live heap
    cannot slow it.  One run alone varies by 10% from the next."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        started = time.perf_counter()
        while len(times) < runs or time.perf_counter() - started < budget:
            begun = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - begun)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()
