"""Hub message handling driven directly with hand-crafted messages.

These bypass the processors to reach corner cases that full workloads hit
only rarely: stale replies, spurious invalidations, misrouted requests,
NACK purposes, writeback acks, and dispatch errors.
"""

import pytest

from repro.cache import LineState
from repro.common import small
from repro.common.errors import ProtocolError, UnhandledMessageError
from repro.directory import DirState
from repro.network import Message, MsgType
from repro.protocol.transactions import PathClass
from repro.sim import System

LINE = 0x100000


@pytest.fixture
def system(base4):
    return System(base4, check_coherence=False)


@pytest.fixture
def dele_system():
    return System(small(num_nodes=4), check_coherence=False)


def deliver(system, msg):
    """Send a message and drain the event queue."""
    system.fabric.send(msg)
    system.events.run()


class TestRequestRouting:
    def test_request_to_wrong_node_bounced(self, system):
        """A GETS landing on a node that is neither home nor delegate gets
        NACK_NOT_HOME back to the requester."""
        system.address_map.place_range(LINE, 128, 0)
        deliver(system, Message(MsgType.GETS, src=3, dst=2, addr=LINE,
                                payload={"requester": 3}))
        # Node 3 has no outstanding miss, so the bounce is simply dropped;
        # what matters is that node 2 did not corrupt its home memory.
        assert len(system.hubs[2].home_memory) == 0

    def test_gets_at_home_grants_exclusive_on_unowned(self, system):
        system.address_map.place_range(LINE, 128, 0)
        hub = system.hubs[0]
        deliver(system, Message(MsgType.GETS, src=2, dst=0, addr=LINE,
                                payload={"requester": 2}))
        entry = hub.home_memory.entry(LINE)
        assert entry.state is DirState.EXCL
        assert entry.owner == 2

    def test_unknown_message_type_rejected(self):
        # A message the protocol's spec does not handle: the wi baseline
        # has no delegation, so a DELEGATE is unknown to its hubs.
        system = System(small(num_nodes=4, protocol_name="wi"),
                        check_coherence=False)
        system.address_map.place_range(LINE, 128, 0)
        with pytest.raises(ProtocolError) as excinfo:
            system.hubs[0].dispatch(Message(MsgType.DELEGATE, src=1, dst=0,
                                            addr=LINE))
        # The structured error names the (node, message, directory state)
        # coordinates of the delivery.
        err = excinfo.value
        assert isinstance(err, UnhandledMessageError)
        assert err.node == 0
        assert err.mtype is MsgType.DELEGATE
        assert err.dir_state == "UNOWNED"  # hub 0 homes LINE
        assert "no handler" in str(err)


class TestSpuriousMessages:
    def test_stale_data_reply_dropped(self, system):
        """A reply with no outstanding miss leaves the hub untouched."""
        deliver(system, Message(MsgType.DATA_SHARED, src=0, dst=1,
                                addr=LINE, value=7, payload={"hops": 2}))
        assert system.hubs[1].hierarchy.state_of(LINE) is LineState.INVALID

    def test_stale_ack_x_dropped(self, system):
        deliver(system, Message(MsgType.ACK_X, src=0, dst=1, addr=LINE,
                                payload={"n_acks": 0}))
        assert system.hubs[1].miss is None

    def test_spurious_inv_acked_without_copy(self, system):
        """INV for a silently evicted line still produces an INV_ACK."""
        log = []
        original = system.hubs[2].dispatch

        def spy(msg):
            log.append(msg.mtype)
            original(msg)

        system.fabric.attach(2, [spy] * len(MsgType))
        # The ack is sent; its arrival at a collector with no outstanding
        # miss is itself a protocol error (acks are never unsolicited in a
        # real execution), which the strict hub surfaces loudly.
        with pytest.raises(ProtocolError):
            deliver(system, Message(MsgType.INV, src=0, dst=1, addr=LINE,
                                    payload={"collector": 2}))
        assert MsgType.INV_ACK in log

    def test_inv_ack_without_miss_is_protocol_error(self, system):
        with pytest.raises(ProtocolError):
            deliver(system, Message(MsgType.INV_ACK, src=2, dst=1,
                                    addr=LINE))

    def test_wb_ack_ignored(self, system):
        deliver(system, Message(MsgType.WB_ACK, src=0, dst=1, addr=LINE))
        assert system.hubs[1].miss is None

    def test_stale_nack_dropped(self, system):
        deliver(system, Message(MsgType.NACK, src=0, dst=1, addr=LINE,
                                payload={"for": "miss"}))
        assert system.hubs[1].miss is None


class TestWritebackPaths:
    def test_writeback_from_owner_frees_line(self, system):
        system.address_map.place_range(LINE, 128, 0)
        entry = system.hubs[0].home_memory.entry(LINE)
        entry.state = DirState.EXCL
        entry.owner = 2
        deliver(system, Message(MsgType.WRITEBACK, src=2, dst=0, addr=LINE,
                                value=42))
        assert entry.state is DirState.UNOWNED
        assert entry.owner is None
        assert entry.value == 42

    def test_stale_writeback_ignored(self, system):
        """A WRITEBACK from a node the directory no longer lists as owner
        must not clobber state."""
        system.address_map.place_range(LINE, 128, 0)
        entry = system.hubs[0].home_memory.entry(LINE)
        entry.state = DirState.SHARED
        entry.sharers = {1}
        entry.value = 9
        deliver(system, Message(MsgType.EVICT_CLEAN, src=2, dst=0,
                                addr=LINE))
        assert entry.state is DirState.SHARED
        assert entry.sharers == {1}


class TestInterventionRetry:
    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize("requester, path", [(0, PathClass.TWO_HOP),
                                                 (2, PathClass.THREE_HOP)])
    def test_busy_retry_keeps_hop_count(self, system, write, requester,
                                        path):
        """An owner that NACKs an intervention "busy" is sent it again; the
        retry carries the first send's hop count, so a miss by the home's
        own CPU still completes as a 2-hop miss."""
        system.address_map.place_range(LINE, 128, 0)
        owner = system.hubs[1]
        owner.request_write(LINE, 7, lambda _path: None)
        system.events.run()
        table = owner._handler_array
        index = MsgType.INTERVENTION.index
        on_intervention = table[index]

        def busy_once(msg):
            # As if the owner's own miss were still completing.
            table[index] = on_intervention
            owner.send(Message(MsgType.NACK, src=1, dst=0, addr=LINE,
                               payload={"for": "intervention",
                                        "reason": "busy"}))

        table[index] = busy_once
        paths = []
        hub = system.hubs[requester]
        if write:
            hub.request_write(LINE, 8, paths.append)
        else:
            hub.request_read(LINE, paths.append)
        system.events.run()
        assert table[index] is on_intervention  # the owner NACKed once
        assert paths == [path]


class TestDelegationMessages:
    def test_undele_req_for_unknown_line_reports_gone(self, dele_system):
        system = dele_system
        log = []
        original = system.hubs[0].dispatch

        def spy(msg):
            log.append((msg.mtype, msg.payload.get("reason")))
            original(msg)

        system.fabric.attach(0, [spy] * len(MsgType))
        deliver(system, Message(MsgType.UNDELE_REQ, src=0, dst=1,
                                addr=LINE))
        assert (MsgType.NACK, "gone") in log

    def test_home_changed_installs_hint(self, dele_system):
        system = dele_system
        deliver(system, Message(MsgType.HOME_CHANGED, src=0, dst=2,
                                addr=LINE, payload={"delegate": 3}))
        assert system.hubs[2].consumer_table.lookup(LINE) == 3

    def test_unsolicited_update_lands_in_rac(self, dele_system):
        system = dele_system
        deliver(system, Message(MsgType.UPDATE, src=1, dst=2, addr=LINE,
                                value=5, payload={"hops": 2}))
        rac_line = system.hubs[2].rac.probe(LINE)
        assert rac_line is not None
        assert rac_line.value == 5
        # And the consumer learned where the line lives.
        assert system.hubs[2].consumer_table.lookup(LINE) == 1

    def test_update_with_ack_flag_answers(self, dele_system):
        system = dele_system
        log = []
        original = system.hubs[1].dispatch

        def spy(msg):
            log.append(msg.mtype)
            original(msg)

        system.fabric.attach(1, [spy] * len(MsgType))
        deliver(system, Message(MsgType.UPDATE, src=1, dst=2, addr=LINE,
                                value=5, payload={"hops": 2, "ack": True}))
        assert MsgType.UPDATE_ACK in log

    def test_update_without_ack_flag_is_silent(self, dele_system):
        system = dele_system
        log = []
        original = system.hubs[1].dispatch

        def spy(msg):
            log.append(msg.mtype)
            original(msg)

        system.fabric.attach(1, [spy] * len(MsgType))
        deliver(system, Message(MsgType.UPDATE, src=1, dst=2, addr=LINE,
                                value=5, payload={"hops": 2}))
        assert MsgType.UPDATE_ACK not in log

    def test_update_for_cached_line_dropped(self, dele_system):
        system = dele_system
        system.hubs[2].hierarchy.fill(LINE, LineState.SHARED, 9)
        deliver(system, Message(MsgType.UPDATE, src=1, dst=2, addr=LINE,
                                value=5, payload={"hops": 2}))
        assert system.hubs[2].hierarchy.value_of(LINE) == 9
