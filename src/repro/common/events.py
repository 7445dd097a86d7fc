"""Discrete-event scheduling core.

The whole simulator runs off one :class:`EventQueue`: hubs, processors, the
network fabric and the barrier manager all schedule plain callbacks at
absolute times (in CPU cycles).  Events scheduled for the same cycle fire in
scheduling order, which keeps runs fully deterministic.

The queue is a calendar (Brown, CACM 1988, with one bucket per cycle): a
heap of the distinct pending cycle times, plain ints, and a dict from each
of those cycles to the list of ``(callback, args)`` pairs due then, in
scheduling order.  List order is the same-cycle tie-break, so no sequence
number is kept.  A 256-node broadcast storm averages a dozen events per
cycle, so the heap holds far fewer entries than there are events and
compares ints instead of tuples.

The queue is on the hot path of every simulated cycle.  The validated entry
point is :meth:`schedule`; the two hottest callers (the fabric's deliveries
and the processors' self-rescheduling) append to ``_calendar`` directly
because their timestamps are ``now`` plus a non-negative latency by
construction.  :meth:`run` is the one drain loop, one cycle's list at a
time; ``run(max_events=1)`` fires a single event.

Invariant outside :meth:`run`: ``_times`` holds exactly the keys of
``_calendar``, and every listed event is still to fire.  During a drain the
current cycle's list also holds its already-fired prefix, so callbacks must
not re-enter :meth:`run`.
"""

from heapq import heappop, heappush


class EventQueue:
    """A deterministic discrete-event queue keyed by absolute cycle time."""

    __slots__ = ("_times", "_calendar", "_now", "_processed")

    def __init__(self):
        self._times = []
        self._calendar = {}
        self._now = 0
        self._processed = 0

    @property
    def now(self):
        """Current simulation time in CPU cycles."""
        return self._now

    @property
    def pending(self):
        """Number of events waiting to fire."""
        return sum(map(len, self._calendar.values()))

    @property
    def processed(self):
        """Total number of events fired so far."""
        return self._processed

    def _push(self, time, callback, args):
        bucket = self._calendar.get(time)
        if bucket is None:
            self._calendar[time] = [(callback, args)]
            heappush(self._times, time)
        else:
            bucket.append((callback, args))

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to fire ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current cycle.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past (delay=%r)" % delay)
        self._push(self._now + delay, callback, args)

    def _retire(self, time, bucket, fired):
        """Drop the first ``fired`` events of ``time``'s ``bucket``."""
        if fired < len(bucket):
            del bucket[:fired]
        else:
            heappop(self._times)
            del self._calendar[time]

    def run(self, max_events=None, max_cycles=None):
        """Drain the queue.

        Stops when the queue is empty, when ``max_events`` events have fired,
        or when simulation time would exceed ``max_cycles``.  On the
        ``max_cycles`` exit ``now`` advances to the cap itself (no event fires
        there), so callers comparing ``now`` against their cap see the true
        stall point rather than the last fired event.  Returns the number of
        events processed by this call.  Negative caps raise ``ValueError``.

        One loop serves capped and uncapped runs: the cycle cap is checked
        once per cycle and the event budget once per event.  Events
        scheduled for the cycle being drained are appended to its list and
        fire in the same drain.  The ``processed`` counter is folded in via
        try/finally, preserving the historical invariant that an event's
        own firing is already counted if its callback raises — fuzz repro
        digests embed that number — and the rest of its cycle stays queued.
        """
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be non-negative, got %r" % max_events)
        if max_cycles is not None and max_cycles < 0:
            raise ValueError("max_cycles must be non-negative, got %r" % max_cycles)
        # -1 never equals the non-negative ``fired``: no budget.
        stop = -1 if max_events is None else max_events
        times = self._times
        calendar = self._calendar
        pop = heappop
        fired = 0
        bucket = None
        try:
            while times and fired != stop:
                time = times[0]
                if max_cycles is not None and time > max_cycles:
                    if max_cycles > self._now:
                        self._now = max_cycles
                    break
                self._now = time
                bucket = calendar[time]
                base = fired
                # A list iterator also yields items appended mid-loop, so
                # zero-delay events join this drain.
                for callback, args in bucket:
                    fired += 1
                    callback(*args)
                    if fired == stop:
                        break
                else:
                    pop(times)
                    del calendar[time]
                    bucket = None
                    continue
                break  # budget spent; finally retires what fired
        finally:
            self._processed += fired
            if bucket is not None:
                self._retire(time, bucket, fired - base)
        return fired
