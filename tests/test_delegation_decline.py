"""Delegation declined when the producer table cannot free a slot.

Regression for a crash found by fault-injection fuzzing: a DELEGATE
arriving while every producer-table entry was mid-transaction used to
fall through to ``ProducerTable.insert`` and die on its full-table
ProtocolError.  The hub must instead decline — take the exclusive grant
and hand the directory straight back with an UNDELE.
"""

import pytest

from repro.common import enhanced
from repro.directory import DirectoryEntry, DirState
from repro.network import Message, MsgType
from repro.protocol.transactions import BusyKind, BusyRecord, MissKind, \
    OutstandingMiss
from repro.sim import System

LINE = 0x100000


def make_system():
    return System(enhanced(delegate_entries=4, num_nodes=4),
                  check_coherence=False)


def stuck_busy(entry):
    entry.busy = BusyRecord(BusyKind.INVALIDATING)


def stuck_pending_updates(entry):
    entry.pending_updates = 1


def stuck_deferred(entry):
    entry.deferred_undelegate = "remote_getx"


def fill_producer_table(hub, make_stuck):
    for i in range(hub.producer_table.capacity):
        addr = 0x200000 + i * 4096
        entry = DirectoryEntry(addr=addr, state=DirState.EXCL, owner=hub.node)
        make_stuck(entry)
        hub.producer_table.insert(addr, entry)


def delegate_msg(home, producer, value=7):
    # Exactly what Home._initiate_delegation packs (Figure 4a, step 6).
    return Message(MsgType.DELEGATE, src=home, dst=producer, addr=LINE,
                   value=value,
                   payload={"dir": {"state": DirState.EXCL, "owner": producer,
                                    "sharers": set(), "value": value},
                            "hops": 2, "n_acks": 0})


@pytest.mark.parametrize("make_stuck", [stuck_busy, stuck_pending_updates,
                                        stuck_deferred],
                         ids=["busy", "pending_updates", "deferred_undele"])
def test_all_busy_table_declines_instead_of_crashing(make_stuck):
    system = make_system()
    system.address_map.place_range(LINE, 128, 0)
    hub = system.hubs[1]
    fill_producer_table(hub, make_stuck)
    # The home already moved its entry to DELE and sent the message below.
    home_entry = system.hubs[0].home_memory.entry(LINE)
    home_entry.state = DirState.DELE
    home_entry.delegate = 1
    # The DELEGATE doubles as the reply to an outstanding write miss.
    hub.miss = OutstandingMiss(addr=LINE, kind=MissKind.WRITE,
                               callback=lambda path: None, store_value=7)
    log = []
    original = system.hubs[0].dispatch

    def spy(msg):
        log.append(msg.mtype)
        original(msg)

    system.fabric.attach(0, [spy] * len(MsgType))
    hub.dispatch(delegate_msg(home=0, producer=1))  # must not raise
    system.events.run()
    assert system.stats.get("dele.declined") == 1
    assert LINE not in hub.producer_table
    # The directory went straight back to the home...
    assert MsgType.UNDELE in log
    assert home_entry.state is DirState.EXCL
    assert home_entry.owner == 1
    # ...and the producer still got its exclusive grant.
    assert hub.miss is None
    assert hub.hierarchy.state_of(LINE).writable


def test_victim_available_still_accepts():
    """Sanity: one evictable entry is enough — the delegation is accepted
    after undelegating the victim, not declined."""
    system = make_system()
    system.address_map.place_range(LINE, 128, 0)
    hub = system.hubs[1]
    fill_producer_table(hub, stuck_busy)
    # Free one entry: make the oldest evictable.
    victim_addr = hub.producer_table.addresses()[0]
    hub.producer_table.lookup(victim_addr, touch=False).busy = None
    home_entry = system.hubs[0].home_memory.entry(LINE)
    home_entry.state = DirState.DELE
    home_entry.delegate = 1
    hub.miss = OutstandingMiss(addr=LINE, kind=MissKind.WRITE,
                               callback=lambda path: None, store_value=7)
    hub.dispatch(delegate_msg(home=0, producer=1))
    system.events.run()
    assert system.stats.get("dele.declined") == 0
    assert system.stats.get("dele.accepted") == 1
    assert LINE in hub.producer_table
    assert victim_addr not in hub.producer_table
