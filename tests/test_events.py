"""Event queue: ordering, determinism, run limits."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        ev = EventQueue()
        log = []
        ev.schedule(30, log.append, "c")
        ev.schedule(10, log.append, "a")
        ev.schedule(20, log.append, "b")
        ev.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        ev = EventQueue()
        log = []
        for tag in "abcde":
            ev.schedule(5, log.append, tag)
        ev.run()
        assert log == list("abcde")

    def test_now_advances(self):
        ev = EventQueue()
        seen = []
        ev.schedule(7, lambda: seen.append(ev.now))
        ev.schedule(19, lambda: seen.append(ev.now))
        ev.run()
        assert seen == [7, 19]

    def test_zero_delay_allowed(self):
        ev = EventQueue()
        fired = []
        ev.schedule(0, fired.append, 1)
        ev.run()
        assert fired == [1]

    def test_negative_delay_rejected(self):
        ev = EventQueue()
        with pytest.raises(ValueError):
            ev.schedule(-1, lambda: None)

    def test_events_scheduled_during_run(self):
        ev = EventQueue()
        log = []

        def first():
            log.append("first")
            ev.schedule(5, lambda: log.append("nested"))

        ev.schedule(1, first)
        ev.run()
        assert log == ["first", "nested"]


class TestRunLimits:
    def test_max_events(self):
        ev = EventQueue()
        for _ in range(10):
            ev.schedule(1, lambda: None)
        fired = ev.run(max_events=4)
        assert fired == 4
        assert ev.pending == 6

    def test_max_cycles(self):
        ev = EventQueue()
        log = []
        ev.schedule(10, log.append, "early")
        ev.schedule(100, log.append, "late")
        ev.run(max_cycles=50)
        assert log == ["early"]
        assert ev.pending == 1

    def test_max_cycles_advances_now_to_cap(self):
        # When the run stops at the cycle cap, simulated time must land on
        # the cap itself, not on the last event that happened to fire —
        # callers add wall-clock-style deltas to ``now`` after a capped run.
        ev = EventQueue()
        ev.schedule(10, lambda: None)
        ev.schedule(100, lambda: None)
        ev.run(max_cycles=50)
        assert ev.now == 50
        assert ev.pending == 1

    def test_max_cycles_never_rewinds_now(self):
        ev = EventQueue()
        ev.schedule(40, lambda: None)
        ev.schedule(100, lambda: None)
        ev.run(max_cycles=50)
        assert ev.now == 50
        # A cap below the current time must not move the clock backwards.
        ev.schedule(60, lambda: None)
        ev.run(max_cycles=20)
        assert ev.now == 50

    def test_single_step_on_empty_fires_nothing(self):
        assert EventQueue().run(max_events=1) == 0

    def test_processed_counter(self):
        ev = EventQueue()
        for _ in range(3):
            ev.schedule(1, lambda: None)
        ev.run()
        assert ev.processed == 3

    @pytest.mark.parametrize("caps", [{"max_events": -1}, {"max_cycles": -1}])
    def test_negative_caps_rejected(self, caps):
        # A negative cap is a caller bug: firing nothing would surface in
        # System.run as a misleading stall at cycle 0.
        ev = EventQueue()
        ev.schedule(1, lambda: None)
        with pytest.raises(ValueError):
            ev.run(**caps)
        assert (ev.pending, ev.processed, ev.now) == (1, 0, 0)


# -- differential test against a reference (time, seq) heap -------------------


class HeapQueue:
    """Reference model: the tuple heap the calendar queue replaced.

    Same public surface as :class:`EventQueue` (non-negative caps only).
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0
        self.processed = 0

    @property
    def pending(self):
        return len(self._heap)

    def schedule(self, delay, callback, *args):
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback,
                                    args))
        self._seq += 1

    def run(self, max_events=None, max_cycles=None):
        fired = 0
        try:
            while self._heap:
                if max_events is not None and fired >= max_events:
                    break
                if max_cycles is not None and self._heap[0][0] > max_cycles:
                    self.now = max(self.now, max_cycles)
                    break
                time, _seq, callback, args = heapq.heappop(self._heap)
                self.now = time
                fired += 1
                callback(*args)
        finally:
            self.processed += fired
        return fired


class Boom(Exception):
    pass


# One event: (delay, parent, raises).  An event whose ``parent`` is the
# index of an earlier event is scheduled when that event fires; any other
# is scheduled up front.  Small delays make same-cycle ties common and zero
# delays land in the cycle being drained.
_event = st.tuples(
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 40)),
    st.integers(0, 15).map(lambda r: r == 0),
)
# One call: run(max_events, max_cycles); (1, None) is a single step.
_call = st.one_of(
    st.just((1, None)),
    st.tuples(st.one_of(st.none(), st.integers(0, 12)),
              st.one_of(st.none(), st.integers(0, 25))),
)


def _install(queue, log, events):
    """Schedule ``events`` (see ``_event``) on ``queue``; firings go to
    ``log``."""
    children = [[] for _ in events]
    roots = []
    for index, (_delay, parent, _raises) in enumerate(events):
        if parent is None or parent >= index:
            roots.append(index)
        else:
            children[parent].append(index)

    def fire(index):
        log.append((queue.now, index))
        for child in children[index]:
            queue.schedule(events[child][0], fire, child)
        if events[index][2]:
            raise Boom(index)

    for index in roots:
        queue.schedule(events[index][0], fire, index)


def _invoke(queue, call):
    try:
        return queue.run(max_events=call[0], max_cycles=call[1])
    except Boom as exc:
        return ("raised", exc.args)


@settings(max_examples=300, deadline=None)
@given(events=st.lists(_event, min_size=1, max_size=40),
       calls=st.lists(_call, max_size=12))
def test_matches_reference_heap(events, calls):
    queue, model = EventQueue(), HeapQueue()
    got, want = [], []
    _install(queue, got, events)
    _install(model, want, events)
    # Drain to completion after the generated calls; each raising event
    # fires once, so this terminates.
    calls = calls + [(None, None)] * (len(events) + 1)
    for call in calls:
        assert _invoke(queue, call) == _invoke(model, call), call
        assert got == want
        assert queue.now == model.now
        assert queue.processed == model.processed
        assert queue.pending == model.pending
    assert queue.pending == 0
    assert len(got) == len(events)
