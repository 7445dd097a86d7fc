"""Discrete-event scheduling core.

The whole simulator runs off one :class:`EventQueue`: hubs, processors, the
network fabric and the barrier manager all schedule plain callbacks at
absolute times (in CPU cycles).  Events scheduled for the same cycle fire in
scheduling order (a monotonically increasing sequence number breaks ties),
which keeps runs fully deterministic.

The queue is on the hot path of every simulated cycle.  The validated entry
points are :meth:`schedule` and :meth:`schedule_at`; the two hottest
callers (the fabric's deliveries and the processors' self-rescheduling)
push onto ``_heap`` directly because their timestamps are ``now`` plus a
non-negative latency by construction.  :meth:`run` inlines the pop/fire
loop instead of delegating to :meth:`step`.
"""

import heapq


class EventQueue:
    """A deterministic discrete-event queue keyed by absolute cycle time."""

    __slots__ = ("_heap", "_seq", "_now", "_processed")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._now = 0
        self._processed = 0

    @property
    def now(self):
        """Current simulation time in CPU cycles."""
        return self._now

    @property
    def pending(self):
        """Number of events waiting to fire."""
        return len(self._heap)

    @property
    def processed(self):
        """Total number of events fired so far."""
        return self._processed

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current cycle.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past (delay=%r)" % delay)
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        if time < self._now:
            raise ValueError(
                "cannot schedule at %r, current time is %r" % (time, self._now)
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def step(self):
        """Fire the single next event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _seq, callback, args = heapq.heappop(self._heap)
        self._now = time
        self._processed += 1
        callback(*args)
        return True

    def run(self, max_events=None, max_cycles=None):
        """Drain the queue.

        Stops when the queue is empty, when ``max_events`` events have fired,
        or when simulation time would exceed ``max_cycles``.  On the
        ``max_cycles`` exit ``now`` advances to the cap itself (no event fires
        there), so callers comparing ``now`` against their cap see the true
        stall point rather than the last fired event.  Returns the number of
        events processed by this call.

        The loop is inlined (no :meth:`step` call per event) and the
        ``processed`` counter is folded in via try/finally, preserving the
        historical invariant that an event's own firing is already counted
        if its callback raises — fuzz repro digests embed that number.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            if max_events is None and max_cycles is None:
                # Uncapped fast path — the common case for real runs.
                while heap:
                    time, _seq, callback, args = pop(heap)
                    self._now = time
                    fired += 1
                    callback(*args)
            else:
                while heap:
                    if max_events is not None and fired >= max_events:
                        break
                    if max_cycles is not None and heap[0][0] > max_cycles:
                        if max_cycles > self._now:
                            self._now = max_cycles
                        break
                    item = pop(heap)
                    self._now = item[0]
                    fired += 1
                    item[2](*item[3])
        finally:
            self._processed += fired
        return fired
