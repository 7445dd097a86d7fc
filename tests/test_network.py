"""Interconnect: message sizing, fat-tree topology, fabric delivery."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigError, EventQueue, Stats, baseline
from repro.network import Fabric, FatTree, Message, MsgType
from repro.network.chaos import ChaosConfig, ChaosPolicy
from repro.network.message import reset_msg_ids
from repro.obs import TraceConfig
from repro.spec.protocols.adaptive import MESSAGES


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


class TestVocabulary:
    def test_msgtype_is_the_adaptive_spec_vocabulary(self):
        assert [(m.name, m.data_bearing) for m in MsgType] == \
            [(m.name, m.data) for m in MESSAGES]
        assert [m.index for m in MsgType] == list(range(len(MESSAGES)))
        assert all(m.label == m.name for m in MsgType)

    def test_msgtype_pickles_to_the_same_member(self):
        for mtype in MsgType:
            assert pickle.loads(pickle.dumps(mtype)) is mtype


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


class TestLatencyRow:
    """A whole row per source, one slice per level, equals the pairwise
    latencies, including trees whose last subtree is only partly filled."""

    @pytest.mark.parametrize("radix", [2, 4, 8])
    @pytest.mark.parametrize("num_nodes", [1, 3, 16, 17, 64, 100, 256])
    def test_row_equals_pairwise_latency(self, num_nodes, radix):
        cfg = replace(baseline().network, router_radix=radix)
        tree = FatTree(num_nodes, cfg)
        for src in range(num_nodes):
            assert tree.latency_row(src) == \
                [tree.latency(src, dst) for dst in range(num_nodes)], src

    def test_out_of_range_source_rejected(self):
        with pytest.raises(ConfigError):
            FatTree(4, baseline().network).latency_row(4)


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


class RecordingTracer:
    """Just the fabric's tracer hook: records every ``msg_send`` call.

    It declares that it captures messages: the fabric calls the tracer per
    send only then."""

    config = TraceConfig(capture_messages=True)

    def __init__(self):
        self.sends = []

    def msg_send(self, msg, now, remote):
        self.sends.append((msg.msg_id, now, remote))


class TestFabric:
    def make(self, num_nodes=4):
        cfg = baseline(num_nodes=num_nodes)
        events = EventQueue()
        stats = Stats()
        fabric = Fabric(cfg, events, stats)
        inbox = {n: [] for n in range(num_nodes)}
        for n in range(num_nodes):
            fabric.attach(n, [lambda m, n=n: inbox[n].append((events.now, m))]
                          * len(MsgType))
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

    def scheduled(self, chaos=None, fan_out=False, mtype=MsgType.INV):
        """The callbacks a send of ``mtype`` to a node with a handler table
        schedules, before and after the node is re-attached."""
        cfg = baseline(num_nodes=2)
        events = EventQueue()
        stats = Stats()
        if chaos is not None:
            chaos = ChaosPolicy(chaos, stats=stats)
        fabric = Fabric(cfg, events, stats, chaos=chaos)

        def first(msg):
            pass

        def second(msg):
            pass

        fabric.attach(1, [first] * len(MsgType))
        send = ((lambda msg: fabric.send_all([msg])) if fan_out
                else fabric.send)
        send(Message(mtype, 0, 1, 0))
        fabric.attach(1, [second] * len(MsgType))
        send(Message(mtype, 0, 1, 0))
        return [callback.__name__ for _cycle, bucket
                in sorted(events._calendar.items())
                for callback, _args in bucket]

    @pytest.mark.parametrize("fan_out", [False, True])
    def test_send_schedules_the_handler_it_finds_at_send_time(self,
                                                              fan_out):
        assert self.scheduled(fan_out=fan_out) == ["first", "second"]

    @pytest.mark.parametrize("fan_out", [False, True])
    def test_chaos_delivers_through_the_generic_path(self, fan_out):
        # Only a type the policy can bounce takes the _deliver hook, whose
        # forced-NACK draw happens at delivery; any other type goes to the
        # handler found at send time, as without chaos.
        chaos = ChaosConfig(seed=4, force_nack_prob=0.5)
        assert self.scheduled(chaos, fan_out, MsgType.GETS) == [
            "_deliver", "_deliver"]
        assert self.scheduled(chaos, fan_out, MsgType.INV) == [
            "first", "second"]
        # With forced NACKs off nothing can be bounced.
        jitter = ChaosConfig(seed=4, delay_jitter=5)
        assert self.scheduled(jitter, fan_out, MsgType.GETS) == [
            "first", "second"]

    def test_unattached_node_raises(self):
        cfg = baseline(num_nodes=2)
        events = EventQueue()
        fabric = Fabric(cfg, events, Stats())
        fabric.send(Message(MsgType.GETS, 0, 1, 0))
        with pytest.raises(RuntimeError):
            events.run()

    # -- send_all builds the schedule, counters and msg_ids that one send()
    # per message builds.

    NODES = 8

    def run_send_all(self, fan_out, mtype, targets, src=3, tracer=None,
                     chaos=None):
        reset_msg_ids()
        cfg = baseline(num_nodes=self.NODES)
        events = EventQueue()
        stats = Stats()
        if chaos is not None:
            chaos = ChaosPolicy(chaos, stats=stats)
        fabric = Fabric(cfg, events, stats, tracer=tracer, chaos=chaos)
        inbox = []
        def spy(m):
            inbox.append((events.now, m.msg_id, m.mtype, m.src, m.dst))

        for n in range(self.NODES):
            fabric.attach(n, [spy] * len(MsgType))
        # Earlier traffic: a busy port at node 5, and a calendar bucket the
        # fan-out may append to.
        fabric.send(Message(MsgType.GETS, 0, 5, 0))
        fabric.send(Message(MsgType.GETS, 1, 5, 0))
        events.run(max_cycles=40)
        fabric.send(Message(MsgType.GETS, 6, 2, 0))
        msgs = (Message(mtype, src, dst, 0x80) for dst in targets)
        if fan_out:
            fabric.send_all(msgs)
        else:
            for msg in msgs:
                fabric.send(msg)
        schedule = [
            (cycle, [(callback.__name__, [m.msg_id for m in args])
                     for callback, args in bucket])
            for cycle, bucket in events._calendar.items()]
        snapshot = (schedule, list(events._times), list(fabric._busy_until),
                    stats.as_dict())
        events.run()
        return snapshot, inbox, stats.as_dict()

    def send_all_vs_send(self, mtype, targets, **kwargs):
        fan_out = self.run_send_all(True, mtype, targets, **kwargs)
        one_by_one = self.run_send_all(False, mtype, targets, **kwargs)
        assert fan_out == one_by_one
        return fan_out

    def test_send_all_broadcast_matches_sequential_sends(self):
        (schedule, _t, _b, counters), inbox, _ = self.send_all_vs_send(
            MsgType.INV, [0, 1, 2, 4, 5, 6, 7])
        # Same-latency targets share calendar buckets.
        assert max(len(bucket) for _cycle, bucket in schedule) > 1
        assert counters["msg.sent.INV"] == 7
        assert counters["msg.bytes"] == 3 * 32 + 7 * 32
        assert len(inbox) == 3 + 7

    def test_send_all_local_target_delivered_not_counted(self):
        (_s, _t, _b, counters), inbox, _ = self.send_all_vs_send(
            MsgType.UPDATE, [1, 3, 7])
        assert counters["msg.sent.UPDATE"] == 2
        assert [dst for *_rest, dst in inbox].count(3) == 1

    def test_send_all_all_local_touches_no_counter(self):
        (_s, _t, _b, counters), _inbox, _ = self.send_all_vs_send(
            MsgType.INV, [3])
        assert "msg.sent.INV" not in counters

    def test_send_all_empty_is_a_no_op(self):
        (schedule, _t, _b, counters), _inbox, _ = self.send_all_vs_send(
            MsgType.INV, [])
        assert "msg.sent.INV" not in counters
        assert sum(len(ids) for _c, bucket in schedule
                   for _name, ids in bucket) == 3  # the earlier GETSes

    def test_send_all_tracer_sees_every_message_in_order(self):
        traced = RecordingTracer()
        plain = RecordingTracer()
        fan_out = self.run_send_all(True, MsgType.INV, [7, 0, 3, 5],
                                    tracer=traced)
        one_by_one = self.run_send_all(False, MsgType.INV, [7, 0, 3, 5],
                                       tracer=plain)
        assert fan_out == one_by_one
        assert traced.sends == plain.sends
        fanned = traced.sends[-4:]
        assert [remote for _id, _now, remote in fanned] == [
            True, True, False, True]
        assert [msg_id for msg_id, _now, _remote in fanned] == sorted(
            msg_id for msg_id, _now, _remote in fanned)

    def test_send_all_chaos_duplicates_keep_interleaved_ids(self):
        chaos = ChaosConfig(seed=4, duplicate_prob=1.0, delay_jitter=5)
        _snapshot, inbox, counters = self.send_all_vs_send(
            MsgType.UPDATE, [0, 2, 5, 7], chaos=chaos)
        updates = sorted(msg_id for _now, msg_id, mtype, _src, _dst in inbox
                         if mtype is MsgType.UPDATE)
        # Every UPDATE and its duplicate: ids n, n+1 per target.
        assert len(updates) == 8
        assert updates == list(range(updates[0], updates[0] + 8))
        assert counters["msg.sent.UPDATE"] == 4

    def test_send_all_mixed_batch_rejected(self):
        cfg = baseline(num_nodes=4)
        fabric = Fabric(cfg, EventQueue(), Stats())
        with pytest.raises(ValueError):
            fabric.send_all([Message(MsgType.INV, 0, 1, 0),
                             Message(MsgType.INV, 2, 1, 0)])
        with pytest.raises(ValueError):
            fabric.send_all([Message(MsgType.INV, 0, 1, 0),
                             Message(MsgType.UPDATE, 0, 2, 0)])
        with pytest.raises(ValueError):
            fabric.send_all([Message("INV", 0, 1, 0)])
