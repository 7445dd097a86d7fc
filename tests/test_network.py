"""Interconnect: message sizing, fat-tree topology, fabric delivery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigError, EventQueue, Stats, baseline
from repro.network import Fabric, FatTree, Message, MsgType


def bytes_sent(mtype):
    """``msg.bytes`` counted by one remote :meth:`Fabric.send` of ``mtype``."""
    cfg = baseline(num_nodes=2)
    stats = Stats()
    fabric = Fabric(cfg, EventQueue(), stats)
    fabric.send(Message(mtype, 0, 1, 0))
    return stats.get("msg.bytes")


class TestMessageSizes:
    def test_header_only_is_32_bytes(self):
        assert bytes_sent(MsgType.GETS) == 32

    def test_data_bearing_adds_line(self):
        assert bytes_sent(MsgType.DATA_SHARED) == 160

    def test_data_bearing_flags(self):
        assert MsgType.UPDATE.data_bearing
        assert MsgType.DELEGATE.data_bearing
        assert MsgType.WRITEBACK.data_bearing
        assert not MsgType.INV.data_bearing
        assert not MsgType.NACK.data_bearing
        assert not MsgType.UPDATE_ACK.data_bearing
        assert not MsgType.EVICT_CLEAN.data_bearing

    def test_message_ids_unique(self):
        a = Message(MsgType.GETS, 0, 1, 0)
        b = Message(MsgType.GETS, 0, 1, 0)
        assert a.msg_id != b.msg_id


class TestFatTree:
    def test_same_node_zero_latency(self):
        tree = FatTree(16, baseline().network)
        assert tree.latency(3, 3) == 0

    def test_same_leaf_cheaper(self):
        tree = FatTree(16, baseline().network)
        assert tree.latency(0, 1) < tree.latency(0, 9)

    def test_cross_leaf_is_hop_latency(self):
        cfg = baseline().network
        tree = FatTree(16, cfg)
        assert tree.latency(0, 9) == cfg.hop_latency

    def test_leaf_assignment(self):
        tree = FatTree(16, baseline().network)
        assert tree.leaf_of(0) == 0
        assert tree.leaf_of(7) == 0
        assert tree.leaf_of(8) == 1

    def test_router_links(self):
        tree = FatTree(16, baseline().network)
        assert tree.router_links(0, 0) == 0
        assert tree.router_links(0, 1) == 2
        assert tree.router_links(0, 9) == 4

    def test_depth_grows_with_nodes(self):
        cfg = baseline().network
        assert FatTree(8, cfg).depth == 1
        assert FatTree(16, cfg).depth == 2

    def test_out_of_range_rejected(self):
        tree = FatTree(4, baseline().network)
        with pytest.raises(ConfigError):
            tree.latency(0, 4)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_latency_symmetric(self, a, b):
        tree = FatTree(16, baseline().network)
        assert tree.latency(a, b) == tree.latency(b, a)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_latency_nonnegative_and_bounded(self, a, b):
        cfg = baseline().network
        tree = FatTree(16, cfg)
        lat = tree.latency(a, b)
        assert 0 <= lat <= cfg.hop_latency


class TestDeepFatTree:
    """Large machines climb 2-3 router levels (the scaling study)."""

    def test_depth_at_scale(self):
        cfg = baseline(num_nodes=4).network  # radix 8 either way
        assert FatTree(64, cfg).depth == 2
        assert FatTree(65, cfg).depth == 3
        assert FatTree(512, cfg).depth == 3
        assert FatTree(1024, cfg).depth == 4

    def test_levels_climbed(self):
        # 512 nodes = 64 leaves / 8 L2 routers / 1 root: max climb is 2.
        tree = FatTree(512, baseline(num_nodes=4).network)
        assert tree.levels_climbed(0, 0) == 0
        assert tree.levels_climbed(0, 7) == 0     # same leaf
        assert tree.levels_climbed(0, 8) == 1     # adjacent leaves
        assert tree.levels_climbed(0, 64) == 2    # adjacent L2 subtrees
        assert tree.levels_climbed(0, 511) == 2   # opposite corners
        # 1024 nodes add a fourth router level: corners climb 3.
        deep = FatTree(1024, baseline(num_nodes=4).network)
        assert deep.levels_climbed(0, 1023) == 3

    def test_level_latency_monotone(self):
        """Each extra level climbed costs strictly more cycles."""
        cfg = baseline(num_nodes=4).network
        tree = FatTree(1024, cfg)
        lat_by_level = [tree.latency(0, n) for n in (1, 8, 64, 1023)]
        assert [tree.levels_climbed(0, n)
                for n in (1, 8, 64, 1023)] == [0, 1, 2, 3]
        for near, far in zip(lat_by_level, lat_by_level[1:]):
            assert near < far

    def test_extra_levels_cost_fraction_of_a_hop(self):
        cfg = baseline(num_nodes=4).network
        tree = FatTree(1024, cfg)
        one = tree.latency(0, 8)
        two = tree.latency(0, 64)
        three = tree.latency(0, 1023)
        step = round(cfg.hop_latency * cfg.level_latency_frac)
        assert one == cfg.hop_latency
        assert two == one + step
        assert three == one + 2 * step

    def test_router_links_grow_with_levels(self):
        tree = FatTree(1024, baseline(num_nodes=4).network)
        assert tree.router_links(0, 7) == 2
        assert tree.router_links(0, 8) == 4
        assert tree.router_links(0, 64) == 6
        assert tree.router_links(0, 1023) == 8

    def test_sixteen_node_latencies_unchanged(self):
        """The deepened oracle is byte-identical on the paper's machine:
        at 16 nodes at most one level is climbed, so every latency is
        still 0, the intra-leaf fraction, or exactly hop_latency."""
        cfg = baseline().network
        tree = FatTree(16, cfg)
        intra = max(1, round(cfg.hop_latency * cfg.intra_leaf_fraction))
        for a in range(16):
            for b in range(16):
                expected = (0 if a == b
                            else intra if a // 8 == b // 8
                            else cfg.hop_latency)
                assert tree.latency(a, b) == expected

    @given(st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=60, deadline=None)
    def test_deep_latency_symmetric(self, a, b):
        tree = FatTree(512, baseline(num_nodes=4).network)
        assert tree.latency(a, b) == tree.latency(b, a)
        assert tree.levels_climbed(a, b) == tree.levels_climbed(b, a)


class TestFabric:
    def make(self, num_nodes=4):
        cfg = baseline(num_nodes=num_nodes)
        events = EventQueue()
        stats = Stats()
        fabric = Fabric(cfg, events, stats)
        inbox = {n: [] for n in range(num_nodes)}
        for n in range(num_nodes):
            fabric.attach(n, lambda m, n=n: inbox[n].append((events.now, m)))
        return cfg, events, stats, fabric, inbox

    def test_delivery_to_handler(self):
        _cfg, events, _stats, fabric, inbox = self.make()
        fabric.send(Message(MsgType.GETS, 0, 2, 0))
        events.run()
        assert len(inbox[2]) == 1

    def test_local_send_not_counted_as_traffic(self):
        _cfg, events, stats, fabric, inbox = self.make()
        fabric.send(Message(MsgType.GETS, 1, 1, 0))
        events.run()
        assert len(inbox[1]) == 1
        assert stats.total("msg.sent.") == 0

    def test_remote_send_counted(self):
        _cfg, events, stats, fabric, _ = self.make()
        fabric.send(Message(MsgType.DATA_SHARED, 0, 1, 0))
        events.run()
        assert stats.get("msg.sent.DATA_SHARED") == 1
        assert stats.get("msg.bytes") == 160

    def test_port_contention_serialises(self):
        cfg, events, _stats, fabric, inbox = self.make()
        for _ in range(3):
            fabric.send(Message(MsgType.GETS, 0, 1, 0))
        events.run()
        times = [t for t, _m in inbox[1]]
        occupancy = cfg.network.hub_occupancy
        assert times[1] - times[0] == occupancy
        assert times[2] - times[1] == occupancy

    def test_per_pair_fifo(self):
        _cfg, events, _stats, fabric, inbox = self.make()
        first = Message(MsgType.GETS, 0, 1, 0)
        second = Message(MsgType.INV, 0, 1, 0)
        fabric.send(first)
        fabric.send(second)
        events.run()
        delivered = [m.msg_id for _t, m in inbox[1]]
        assert delivered == [first.msg_id, second.msg_id]

    def test_unattached_node_raises(self):
        cfg = baseline(num_nodes=2)
        events = EventQueue()
        fabric = Fabric(cfg, events, Stats())
        fabric.send(Message(MsgType.GETS, 0, 1, 0))
        with pytest.raises(RuntimeError):
            events.run()
