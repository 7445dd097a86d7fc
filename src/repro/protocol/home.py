"""Home-node directory logic.

Implements the base directory-based write-invalidate protocol (GETS/GETX
processing, interventions, writebacks, the BUSY/NACK discipline) plus the
home's side of the paper's extensions: detector updates on every request
it processes, delegation initiation (Figure 4a), request forwarding while
in DELE (Figure 4b), and home-initiated undelegation on a remote exclusive
request (§2.3.3, reason 3).

Data-bearing replies that read memory pay the DRAM latency before hitting
the wire; directory-only actions (forwards, invalidations, NACKs) leave
immediately after the hub occupancy already charged by the fabric.
"""

from types import MappingProxyType

from ..common import stats as S
from ..directory.state import DirState
from ..network.message import Message, MsgType
from .transactions import BusyKind, BusyRecord

#: The payload of every busy NACK to a requester, shared read-only.
_NACK_MISS = MappingProxyType({"for": "miss"})


class HomeMixin:
    """Mixin for :class:`repro.protocol.hub.Hub`: home-directory logic."""

    # -- request processing -------------------------------------------------

    def _home_gets(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        entry = self.home_memory.entry(addr)
        if entry.busy is not None:
            self._nack(requester, addr)
            return
        if entry.state is DirState.DELE:
            self._forward_to_delegate(entry, msg, requester)
            return
        det = self.dircache.lookup(addr)
        # Uniqueness filter: only the SHARED state's sharing vector lists
        # *actual* readers; in EXCL it holds the preserved previous-consumer
        # set (the update-set trick), which must not mask fresh readers.
        already_sharer = (entry.state is DirState.SHARED
                          and requester in entry.sharers)
        self.detector.observe_read(det, requester, already_sharer)
        if entry.state is DirState.UNOWNED:
            # MESI exclusive grant on a read to an unowned line.
            entry.state = DirState.EXCL
            entry.owner = requester
            entry.sharers = set()
            self._send_after_dram(Message(
                MsgType.DATA_EXCL, self.node, requester, addr, entry.value,
                {"hops": 2, "n_acks": 0}))
        elif entry.state is DirState.SHARED:
            entry.sharers.add(requester)
            entry.update_strikes.pop(requester, None)  # active reader again
            self._send_after_dram(Message(
                MsgType.DATA_SHARED, self.node, requester, addr, entry.value,
                {"hops": 2}))
        elif entry.state is DirState.EXCL:
            self._home_gets_from_owner_state(entry, msg, requester)
        else:
            raise self._protocol_error("GETS in state %s" % entry.state)

    def _home_gets_from_owner_state(self, entry, msg, requester):
        addr = entry.addr
        owner = entry.owner
        if owner == requester:
            # The owner's writeback must be in flight; retry until it lands.
            self._nack(requester, addr)
            return
        if owner == self.node:
            if self._active_miss(addr) is not None:
                # Our own CPU's grant for this line is still in flight; the
                # requester retries, exactly as a remote owner's NACK-busy
                # would make it do.
                self._nack(requester, addr)
                return
            # Home's own processor is the owner: a purely local intervention.
            if self.hierarchy.state_of(addr).writable:
                value = self.hierarchy.downgrade(addr)
                entry.value = value
                entry.state = DirState.SHARED
                entry.sharers = {owner, requester}  # fresh read: new vector
                entry.owner = None
                self.send(Message(MsgType.DATA_SHARED, src=self.node,
                                  dst=requester, addr=addr, value=value,
                                  payload={"hops": 2}))
                return
            # Local copy already evicted; wait for our own writeback.
            entry.busy = BusyRecord(BusyKind.WB_RACE, requester=requester,
                                    req_msg=msg)
            return
        entry.busy = BusyRecord(BusyKind.INTERVENTION, requester=requester,
                                req_msg=msg)
        self.send(Message(MsgType.INTERVENTION, self.node, owner, addr, 0,
                          {"mode": "shared", "requester": requester,
                           "hops": 2 if requester == self.node else 3}))

    def _home_getx(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        entry = self.home_memory.entry(addr)
        if entry.busy is not None:
            self._nack(requester, addr)
            return
        if entry.state is DirState.DELE:
            if requester == entry.delegate:
                # The producer raced its own delegation; retry until its
                # DELEGATE message lands and it serves itself (§2.3.4).
                self._nack(requester, addr)
                return
            # Undelegation reason 3: another node wants exclusive ownership.
            entry.busy = BusyRecord(BusyKind.UNDELEGATE, requester=requester,
                                    req_msg=msg)
            self.send(Message(MsgType.UNDELE_REQ, src=self.node,
                              dst=entry.delegate, addr=addr))
            return
        det = self.dircache.lookup(addr)
        distinct_readers = len(entry.sharers - {requester})
        newly_marked = self.detector.observe_write(det, requester,
                                                   distinct_readers)
        delegate_now = (
            self.config.protocol.enable_delegation
            and (newly_marked or det.marked_pc)
            and requester != self.node
            and entry.state in (DirState.UNOWNED, DirState.SHARED)
        )
        if entry.state is DirState.UNOWNED:
            if delegate_now:
                self._initiate_delegation(entry, requester, n_acks=0)
            else:
                entry.state = DirState.EXCL
                entry.owner = requester
                self._send_after_dram(Message(
                    MsgType.DATA_EXCL, self.node, requester, addr,
                    entry.value, {"hops": 2, "n_acks": 0}))
        elif entry.state is DirState.SHARED:
            # The hardware acts on its (possibly lossy) vector encoding:
            # compressed formats over-approximate, costing extra INVs.
            targets = self.dir_format.invalidation_targets(
                entry.sharers, requester, self.config.num_nodes)
            upgrade = (requester in entry.sharers
                       and msg.payload.get("has_copy", False))
            self._invalidate_sharers(targets, addr, requester)
            hops = 3 if targets else 2
            if delegate_now:
                self._initiate_delegation(entry, requester,
                                          n_acks=len(targets), hops=hops)
                return
            # Keep the old sharing vector as the most-recent consumer set
            # (the paper's ownerID trick, §2.4.2); the owner field tells the
            # protocol who actually holds the line.  Preserve the *exact*
            # set, not the format-expanded ``targets``: storing the lossy
            # expansion back would compound across write rounds (a limited
            # vector that once overflowed to broadcast would stay broadcast
            # forever) — the encoding is re-applied at the next action point.
            # A spec without the ``consumer_vector`` feature (MESI) forgets
            # the invalidated readers instead.
            entry.state = DirState.EXCL
            entry.owner = requester
            if self._consumer_vector:
                entry.sharers = entry.sharers - {requester}
            else:
                entry.sharers = set()
            if upgrade:
                self.send(Message(MsgType.ACK_X, self.node, requester, addr,
                                  0, {"hops": hops, "n_acks": len(targets)}))
            else:
                self._send_after_dram(Message(
                    MsgType.DATA_EXCL, self.node, requester, addr,
                    entry.value, {"hops": hops, "n_acks": len(targets)}))
        elif entry.state is DirState.EXCL:
            self._home_getx_from_owner_state(entry, msg, requester)
        else:
            raise self._protocol_error("GETX in state %s" % entry.state)

    def _home_getx_from_owner_state(self, entry, msg, requester):
        addr = entry.addr
        owner = entry.owner
        if owner == requester:
            self._nack(requester, addr)  # writeback in flight; retry
            return
        if owner == self.node:
            if self._active_miss(addr) is not None:
                self._nack(requester, addr)  # our own grant still in flight
                return
            if self.hierarchy.state_of(addr).writable:
                _had, value = self.hierarchy.invalidate(addr)
                entry.value = value
                entry.owner = requester
                self._send_after_dram(Message(
                    MsgType.DATA_EXCL, src=self.node, dst=requester,
                    addr=addr, value=value,
                    payload={"hops": 2, "n_acks": 0}))
                return
            entry.busy = BusyRecord(BusyKind.WB_RACE, requester=requester,
                                    req_msg=msg)
            return
        entry.busy = BusyRecord(BusyKind.INTERVENTION, requester=requester,
                                req_msg=msg)
        self.send(Message(MsgType.INTERVENTION, src=self.node, dst=owner,
                          addr=addr,
                          payload={"mode": "excl", "requester": requester,
                                   "hops": 2 if requester == self.node else 3}))

    # -- intervention completion ------------------------------------------------

    def _on_shared_wb(self, msg):
        entry = self.home_memory.entry(msg.addr)
        entry.value = msg.value
        busy = entry.busy
        if busy is None or busy.kind is not BusyKind.INTERVENTION:
            raise self._protocol_error("unexpected SHARED_WB %r" % msg)
        entry.state = DirState.SHARED
        entry.sharers = {entry.owner, busy.requester}  # fresh read vector
        entry.owner = None
        entry.busy = None

    def _on_xfer_owner(self, msg):
        entry = self.home_memory.entry(msg.addr)
        busy = entry.busy
        if busy is None or busy.kind is not BusyKind.INTERVENTION:
            raise self._protocol_error("unexpected XFER_OWNER %r" % msg)
        entry.owner = msg.payload["new_owner"]
        entry.busy = None

    def _home_intervention_nacked(self, msg):
        """The owner had no copy (writeback racing) or was mid-transaction."""
        entry = self.home_memory.entry(msg.addr)
        busy = entry.busy
        if busy is None or busy.kind not in (BusyKind.INTERVENTION,
                                             BusyKind.WB_RACE):
            return  # already resolved by an arriving writeback
        if msg.payload.get("reason") == "busy":
            # The owner's own miss is still completing; retry shortly.
            mode = "excl" if busy.req_msg.mtype is MsgType.GETX else "shared"
            self.events.schedule(
                self.config.protocol.nack_retry_delay,
                self._retry_intervention, entry.addr, msg.src, mode)
            return
        if busy.info.get("wb_arrived"):
            self._resolve_wb_race(entry)
        else:
            busy.kind = BusyKind.WB_RACE

    def _retry_intervention(self, addr, owner, mode):
        entry = self.home_memory.entry(addr)
        busy = entry.busy
        if busy is None or busy.kind is not BusyKind.INTERVENTION:
            return
        if entry.owner != owner:
            return
        requester = busy.requester
        self.send(Message(MsgType.INTERVENTION, src=self.node, dst=owner,
                          addr=addr,
                          payload={"mode": mode, "requester": requester,
                                   "hops": 2 if requester == self.node else 3}))

    # -- writebacks ---------------------------------------------------------------

    def _home_writeback(self, msg):
        entry = self.home_memory.entry(msg.addr)
        if msg.mtype is MsgType.WRITEBACK:
            entry.value = msg.value
        busy = entry.busy
        if busy is not None:
            if busy.kind is BusyKind.WB_RACE:
                self._resolve_wb_race(entry)
            elif busy.kind is BusyKind.INTERVENTION:
                busy.info["wb_arrived"] = True
            # UNDELEGATE busy cannot see writebacks: a delegated line's only
            # possible owner is the producer, whose flush undelegates.
        elif entry.state is DirState.EXCL and entry.owner == msg.src:
            entry.state = DirState.UNOWNED
            entry.owner = None
        self.send(Message(MsgType.WB_ACK, src=self.node, dst=msg.src,
                          addr=msg.addr))

    def _resolve_wb_race(self, entry):
        """The data came home while a requester was waiting: replay them."""
        pending = entry.busy.req_msg
        entry.busy = None
        entry.state = DirState.UNOWNED
        entry.owner = None
        entry.sharers = set()
        self.dispatch(pending)

    # -- delegation (home side) --------------------------------------------------

    def _initiate_delegation(self, entry, producer, n_acks, hops=2):
        """Figure 4a: pack directory info and data into a DELEGATE message
        that doubles as the producer's exclusive reply."""
        self.stats.inc(S.DELEGATIONS)
        if self.tracer is not None:
            self.tracer.event("dele.initiate", self.node, entry.addr,
                              self.events.now, producer=producer)
        snapshot = {
            "state": DirState.EXCL,
            "owner": producer,
            "sharers": entry.sharers - {producer},
            "value": entry.value,
        }
        entry.state = DirState.DELE
        entry.delegate = producer
        entry.owner = None
        entry.sharers = set()
        self._send_after_dram(Message(
            MsgType.DELEGATE, src=self.node, dst=producer, addr=entry.addr,
            value=entry.value,
            payload={"dir": snapshot, "hops": hops, "n_acks": n_acks}))

    def _forward_to_delegate(self, entry, msg, requester):
        """Figure 4b: forward to the delegated home and hint the requester."""
        if requester == entry.delegate:
            self._nack(requester, entry.addr)
            return
        self.send(Message(msg.mtype, src=self.node, dst=entry.delegate,
                          addr=entry.addr,
                          payload={"requester": requester, "forwarded": True}))
        self.send(Message(MsgType.HOME_CHANGED, src=self.node, dst=requester,
                          addr=entry.addr,
                          payload={"delegate": entry.delegate}))

    def _on_undele(self, msg):
        """The producer returned directory authority (any undelegation)."""
        entry = self.home_memory.entry(msg.addr)
        if self.tracer is not None:
            self.tracer.event("dele.returned", self.node, msg.addr,
                              self.events.now, producer=msg.src)
        pending = entry.busy  # capture before restore() clears it
        entry.restore(msg.payload["dir"])
        entry.value = msg.value
        det = self.dircache.lookup(msg.addr, create=False)
        if det is not None:
            # Detection restarts from scratch, as if the entry was flushed.
            det.marked_pc = False
            det.write_repeat = 0
            det.reader_count = 0
        if pending is not None and pending.kind is BusyKind.UNDELEGATE:
            self.dispatch(pending.req_msg)

    def _home_recall_nacked(self, msg):
        """The producer NACKed our UNDELE_REQ."""
        entry = self.home_memory.entry(msg.addr)
        busy = entry.busy
        if busy is None or busy.kind is not BusyKind.UNDELEGATE:
            return
        if msg.payload.get("reason") == "gone":
            # A voluntary UNDELE is already in flight and will resolve this.
            return
        self.events.schedule(self.config.protocol.nack_retry_delay,
                             self._retry_recall, msg.addr)

    def _retry_recall(self, addr):
        entry = self.home_memory.entry(addr)
        busy = entry.busy
        if (busy is None or busy.kind is not BusyKind.UNDELEGATE
                or entry.state is not DirState.DELE):
            return
        self.send(Message(MsgType.UNDELE_REQ, src=self.node,
                          dst=entry.delegate, addr=addr))

    # -- helpers ---------------------------------------------------------------

    def _nack(self, requester, addr):
        self.send(Message(MsgType.NACK, self.node, requester, addr, 0,
                          _NACK_MISS))

    def _send_after_dram(self, msg):
        self.events.schedule(self.config.dram_latency, self.send, msg)
