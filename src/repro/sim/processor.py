"""Trace-driven in-order processor model.

Each simulated CPU executes its operation stream sequentially: compute
ops advance local time, loads/stores probe the private cache hierarchy
and block on misses until the hub completes the coherence transaction
(one outstanding miss per CPU), and barriers park the CPU until everyone
arrives.

This is a deliberate simplification of the paper's 4-issue out-of-order
CPUs (see DESIGN.md): the phenomena under study are hub/directory-level,
and a blocking CPU preserves the *relative* cost of local vs. 2-hop vs.
3-hop misses that drives every result being reproduced.
"""

from heapq import heappush

from ..common.errors import SimulationError
from . import trace


class Processor:
    """One trace-driven CPU bound to a node's hub and cache hierarchy."""

    def __init__(self, node, system, hub, ops):
        self.node = node
        self.system = system
        self.hub = hub
        self.events = system.events
        self.stats = system.stats
        self.checker = system.checker
        self._ops = iter(ops)
        self.finished = False
        self.finish_time = None
        self.ops_executed = 0
        # The one outstanding miss (the CPU blocks on it): its start time,
        # line and store value, read back by _finish_read/_finish_write.
        self._blocked_since = None
        self._miss_addr = None
        self._miss_value = None
        # Hot-loop hoists: every op pays for these lookups otherwise.
        self._next_op = self._ops.__next__
        self._counters = system.stats._counters
        line_mask = ~(system.config.line_size - 1)
        self._line_mask = line_mask  # == config.line_of per op
        self._l1_latency = system.config.l1.latency
        self._hier_read = hub.hierarchy.read
        self._hier_write = hub.hierarchy.write
        checker = system.checker
        self._record_read = checker.record_read if checker else None
        self._record_write = checker.record_write if checker else None

    def start(self):
        self.events.schedule(0, self._step)

    # -- main loop ----------------------------------------------------------

    def _step(self):
        try:
            op = self._next_op()
        except StopIteration:
            self.finished = True
            self.finish_time = self.events.now
            self.system.on_cpu_finished(self.node)
            return
        self.ops_executed += 1
        cls = op.__class__
        if cls is trace.Compute:
            cycles = op.cycles
            events = self.events
            # Unchecked push onto the event calendar (see EventQueue):
            # delays are >= 1 by construction.
            time = events._now + (cycles if cycles > 1 else 1)
            calendar = events._calendar
            bucket = calendar.get(time)
            if bucket is None:
                calendar[time] = [(self._step, ())]
                heappush(events._times, time)
            else:
                bucket.append((self._step, ()))
        elif cls is trace.Read:
            self._do_read(op.addr & self._line_mask)
        elif cls is trace.Write:
            self._do_write(op.addr & self._line_mask)
        elif cls is trace.Barrier:
            self.system.barrier.arrive(self.node, op.bid, self._step)
        else:
            raise SimulationError("node %d: unknown op %r" % (self.node, op))

    # -- loads ----------------------------------------------------------------

    def _do_read(self, addr):
        result = self._hier_read(addr)
        if result.hit:
            latency = result.latency
            self._counters["hit.l1" if latency == self._l1_latency
                           else "hit.l2"] += 1
            events = self.events
            now = events._now
            if self._record_read is not None:
                self._record_read(self.node, addr, result.value,
                                  now, now + latency)
            # Unchecked push: hit latencies are non-negative.
            time = now + latency
            calendar = events._calendar
            bucket = calendar.get(time)
            if bucket is None:
                calendar[time] = [(self._step, ())]
                heappush(events._times, time)
            else:
                bucket.append((self._step, ()))
            return
        self._blocked_since = self.events._now
        self._miss_addr = addr
        self._counters["miss.read"] += 1
        self.hub.request_read(addr, self._finish_read)

    def _finish_read(self, path):
        addr = self._miss_addr
        result = self._hier_read(addr)
        if not result.hit:
            # The freshly filled line was stolen before the CPU could replay
            # its load (possible only under extreme contention): miss again.
            self.stats.inc("miss.read_replay")
            self.hub.request_read(addr, self._finish_read)
            return
        start = self._blocked_since
        self._blocked_since = None
        events = self.events
        if self._record_read is not None:
            self._record_read(self.node, addr, result.value,
                              start, events._now)
        events.schedule(result.latency, self._step)

    # -- stores -----------------------------------------------------------------

    def _do_write(self, addr):
        value = (self.checker.next_version() if self.checker is not None
                 else self.events.now + self.node)
        result = self._hier_write(addr, value)
        if result.hit:
            latency = result.latency
            events = self.events
            now = events._now
            if self._record_write is not None:
                self._record_write(self.node, addr, value,
                                   now, now + latency)
            # Unchecked push, as for read hits.
            time = now + latency
            calendar = events._calendar
            bucket = calendar.get(time)
            if bucket is None:
                calendar[time] = [(self._step, ())]
                heappush(events._times, time)
            else:
                bucket.append((self._step, ()))
            return
        self._blocked_since = self.events._now
        self._miss_addr = addr
        self._miss_value = value
        self._counters["miss.write"] += 1
        self.hub.request_write(addr, value, self._finish_write)

    def _finish_write(self, path):
        addr = self._miss_addr
        value = self._miss_value
        result = self._hier_write(addr, value)
        if not result.hit:
            self.stats.inc("miss.write_replay")
            self.hub.request_write(addr, value, self._finish_write)
            return
        start = self._blocked_since
        self._blocked_since = None
        events = self.events
        if self._record_write is not None:
            self._record_write(self.node, addr, value, start, events._now)
        events.schedule(result.latency, self._step)

    # -- diagnostics -------------------------------------------------------------

    def describe(self):
        if self.finished:
            return "finished@%d" % self.finish_time
        if self._blocked_since is not None:
            return "blocked since %d (miss %r)" % (
                self._blocked_since,
                self.hub.miss.addr if self.hub.miss else None)
        return "running (%d ops done)" % self.ops_executed
