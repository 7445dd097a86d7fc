"""Directory delegation scenarios (paper §2.3)."""

import pytest

from repro.common import delegation_only
from repro.directory import DirState
from repro.sim import Barrier, Compute, Read, System, Write

LINE = 0x100000


def pc_ops(iters, producer=1, consumers=(2,), num_cpus=4, gap=300):
    """Build a producer-consumer op matrix with barrier phases."""
    ops = [[] for _ in range(num_cpus)]
    bid = 0
    for _ in range(iters):
        ops[producer].append(Write(LINE))
        for stream in ops:
            stream.append(Barrier(bid))
        bid += 1
        for consumer in consumers:
            ops[consumer].append(Compute(gap))
            ops[consumer].append(Read(LINE))
        for stream in ops:
            stream.append(Barrier(bid))
        bid += 1
    return ops


@pytest.fixture
def dele4():
    return delegation_only(num_nodes=4)


class TestDelegationLifecycle:
    def test_stable_pattern_triggers_delegation(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=8))
        assert res.stats.get("dele.delegate") == 1
        assert res.stats.get("dele.accepted") == 1
        assert system.hubs[0].home_memory.entry(LINE).state is DirState.DELE
        assert LINE in system.hubs[1].producer_table

    def test_no_delegation_before_saturation(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=3))
        assert res.stats.get("dele.delegate", 0) == 0

    def test_no_delegation_when_home_is_producer(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 1)  # home == producer
        res = system.run(pc_ops(iters=8))
        assert res.stats.get("dele.delegate", 0) == 0

    def test_delegate_message_carries_data(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=8))
        assert res.stats.get("msg.sent.DELEGATE") == 1

    def test_forwarding_and_hint(self, dele4):
        """After delegation, the consumer learns the new home and sends
        directly (Figure 4b)."""
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=10))
        assert res.stats.get("msg.sent.HOME_CHANGED", 0) >= 1
        # Consumer 2's hint points to producer 1.
        assert system.hubs[2].consumer_table.lookup(LINE) == 1

    def test_producer_writes_become_local_after_delegation(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(pc_ops(iters=12))
        # Producer-side writes: INV+ACK round trips only (2-hop), no more
        # 3-hop request-to-home paths in steady state.
        assert res.stats.get("miss.remote_2hop", 0) > 0


class TestUndelegation:
    def test_remote_exclusive_recalls_delegation(self, dele4):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        ops = pc_ops(iters=8)
        final_bid = 100
        for cpu, stream in enumerate(ops):
            if cpu == 3:
                stream.append(Write(LINE))  # third party wants exclusive
            stream.append(Barrier(final_bid))
        res = system.run(ops)
        total_undele = sum(v for k, v in res.stats.items()
                           if k.startswith("dele.undelegate."))
        assert total_undele >= 1
        entry = system.hubs[0].home_memory.entry(LINE)
        assert entry.state in (DirState.EXCL, DirState.SHARED,
                               DirState.UNOWNED)
        assert LINE not in system.hubs[1].producer_table

    def test_capacity_eviction_undelegates_oldest(self):
        from dataclasses import replace
        from repro.common import DelegateCacheConfig
        cfg = delegation_only(num_nodes=4)
        cfg = replace(cfg, delegate=DelegateCacheConfig(entries=1,
                                                        consumer_assoc=1))
        system = System(cfg)
        line2 = LINE + 0x100000
        system.address_map.place_range(LINE, 128, 0)
        system.address_map.place_range(line2, 128, 0)
        ops = [[] for _ in range(4)]
        bid = 0
        for _ in range(8):
            ops[1].append(Write(LINE))
            ops[1].append(Write(line2))
            for stream in ops:
                stream.append(Barrier(bid))
            bid += 1
            for addr in (LINE, line2):
                ops[2].append(Compute(200))
                ops[2].append(Read(addr))
            for stream in ops:
                stream.append(Barrier(bid))
            bid += 1
        res = system.run(ops)
        assert res.stats.get("dele.delegate", 0) >= 2
        assert res.stats.get("dele.undelegate.capacity", 0) >= 1
        assert len(system.hubs[1].producer_table) <= 1

    def test_flush_undelegates(self):
        """Evicting the delegated line from the producer's L2 returns the
        directory home (undelegation reason 2)."""
        from dataclasses import replace
        from repro.common import CacheConfig
        cfg = delegation_only(num_nodes=4)
        cfg = replace(cfg,
                      l1=CacheConfig(256, 2, latency=2),
                      l2=CacheConfig(512, 4, latency=10))  # 4-line L2
        system = System(cfg)
        system.address_map.place_range(LINE, 128, 0)
        ops = pc_ops(iters=8)
        # After delegation, the producer touches conflicting lines.
        stride = 128  # one-set L2: everything conflicts
        filler = [Write(LINE + 0x100000 + i * stride) for i in range(5)]
        final = 100
        ops[1].extend(filler)
        for stream in ops:
            stream.append(Barrier(final))
        res = system.run(ops)
        assert res.stats.get("dele.undelegate.flush", 0) >= 1

    def test_detector_reset_after_undelegation(self, dele4):
        """Re-delegation requires re-detection from scratch."""
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        ops = pc_ops(iters=8)
        final = 100
        for cpu, stream in enumerate(ops):
            if cpu == 3:
                stream.append(Write(LINE))
            stream.append(Barrier(final))
        system.run(ops)
        det = system.hubs[0].dircache.lookup(LINE, create=False)
        if det is not None:
            assert not det.marked_pc


class TestRecallRacesInFlightDelegate:
    """Regression: a recall (UNDELE_REQ) can overtake the DELEGATE it is
    recalling.

    The home pays the DRAM latency before the DELEGATE leaves, so a
    third-party GETX arriving inside that window parks at the home
    (busy=UNDELEGATE) and sends a recall that reaches the producer before
    the delegation does.  The producer has no producer-table entry yet; it
    must answer "busy" (its outstanding write miss proves a DELEGATE may
    be in flight to it), not "gone" — a "gone" reply makes the home wait
    forever for a voluntary UNDELE that will never come, stalling the
    parked request and livelocking every later requester.
    """

    def _racing_ops(self, delay):
        # Three warm-up producer/consumer phases saturate the detector;
        # the fourth producer write triggers delegation.  Node 3 writes
        # the same line ``delay`` cycles into the DRAM window with no
        # barrier in between, so its GETX races the in-flight DELEGATE.
        ops = pc_ops(iters=3)
        bid = 6
        ops[1].append(Write(LINE))
        ops[3].append(Compute(delay))
        ops[3].append(Write(LINE))
        for stream in ops:
            stream.append(Barrier(bid))
        return ops

    @pytest.mark.parametrize("delay", [0, 60, 120, 180])
    def test_third_party_write_during_delegate_flight(self, dele4, delay):
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        res = system.run(self._racing_ops(delay))
        # The delegation happened and was recalled; nobody stalled.
        assert res.stats.get("dele.delegate", 0) >= 1
        assert LINE not in system.hubs[1].producer_table
        entry = system.hubs[0].home_memory.entry(LINE)
        assert entry.state is not DirState.DELE


class TestStaleHints:
    def test_stale_hint_bounced_and_dropped(self, dele4):
        """A consumer-table hint surviving undelegation gets NACK_NOT_HOME
        and the request retries at the real home."""
        system = System(dele4)
        system.address_map.place_range(LINE, 128, 0)
        ops = pc_ops(iters=8)
        final = 100
        for cpu, stream in enumerate(ops):
            if cpu == 3:
                stream.append(Write(LINE))   # forces undelegation
            if cpu == 2:
                stream.append(Compute(4000))
                stream.append(Read(LINE))    # uses its now-stale hint
            stream.append(Barrier(final))
        res = system.run(ops)
        assert res.stats.get("msg.sent.NACK_NOT_HOME", 0) >= 1
        # The read still completed coherently (checker active) and the
        # stale hint is gone.
        assert system.hubs[2].consumer_table.lookup(LINE) != 1 or \
            LINE in system.hubs[1].producer_table
