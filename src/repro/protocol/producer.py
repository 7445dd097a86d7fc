"""Producer-side (delegated home) logic and the speculative update engine.

Once a line is delegated here, this node *is* the directory for it: the
producer table holds the line's DirectoryEntry and all coherence requests
are served locally (2-hop for remote requesters, local for the producer's
own writes).  The pinned RAC entry acts as surrogate main memory.

Speculative updates (paper §2.4): after each exclusive grant to the local
processor on a delegated line, a *delayed intervention* fires
``intervention_delay`` cycles later, downgrading the processor's copy to
SHARED, capturing the data in the RAC, and pushing UPDATE messages to the
previous sharing vector — the consumers of the last round, who are the
nodes most likely to read the new data.  Update recipients are registered
as sharers, so the next invalidation reaches their RAC copies; that is why
the mechanism stays sequentially consistent.
"""

from ..cache.line import LineState
from ..common import stats as S
from ..directory.state import DirectoryEntry, DirState
from ..network.message import Message, MsgType
from .transactions import BusyKind, BusyRecord, MissKind


class ProducerMixin:
    """Mixin for :class:`repro.protocol.hub.Hub`: delegated-home logic."""

    # -- delegation acceptance (Figure 4a, steps 6-8) -------------------------

    def _on_delegate(self, msg):
        addr = msg.addr
        snapshot = msg.payload["dir"]
        miss = self._active_miss(addr, MissKind.WRITE)
        if miss is None:
            raise self._protocol_error(
                "DELEGATE without an outstanding write miss: %r" % msg)
        if self._accept_delegation(addr, snapshot, msg.value):
            self.stats.inc("dele.accepted")
            if self.tracer is not None:
                self.tracer.delegation_begin(self.node, addr, self.events._now)
        else:
            # No room to act as home: take the exclusive grant but hand the
            # directory straight back (an accept-and-immediately-undelegate).
            self.stats.inc("dele.declined")
            self.stats.inc(S.UNDELEGATIONS + "declined")
            if self.tracer is not None:
                self.tracer.event("dele.declined", self.node, addr,
                                  self.events._now)
            self.send(Message(
                MsgType.UNDELE, src=self.node, dst=msg.src, addr=addr,
                value=msg.value,
                payload={"dir": {"state": DirState.EXCL, "owner": self.node,
                                 "sharers": set(snapshot["sharers"]),
                                 "value": msg.value}}))
        # Step 8: convert the delegate message into an exclusive reply.
        self._on_data_excl(msg)

    def _accept_delegation(self, addr, snapshot, value):
        """Install producer-table and pinned-RAC entries; False if no room."""
        victim = None
        if not self.producer_table.has_room:
            victim = self.producer_table.victim_if_full()
            if victim is None:
                return False  # every entry is mid-transaction
        if not self.rac.can_pin(addr):
            pinned_victim = self._evictable_pinned_line(addr)
            if pinned_victim is None:
                return False
            self._undelegate(pinned_victim, reason="capacity")
        if victim is not None:
            self._undelegate(victim.addr, reason="capacity")
        if not self.producer_table.has_room:
            # The victim (or the pinned line) did not actually free a slot —
            # its undelegation deferred, or the two eviction paths picked
            # the same line.  Decline rather than hit insert's full-table
            # ProtocolError: a declined delegation is always protocol-legal.
            return False
        entry = DirectoryEntry(addr=addr, state=snapshot["state"],
                               sharers=set(snapshot["sharers"]),
                               owner=snapshot["owner"],
                               value=snapshot["value"])
        # Stay busy until our own write miss completes, so remote requests
        # racing the delegation are NACKed and retried (§2.3.4).
        entry.busy = BusyRecord(BusyKind.INVALIDATING)
        self.producer_table.insert(addr, entry)
        self.rac.pin_delegated(addr, value=value)
        return True

    def _evictable_pinned_line(self, addr):
        """A delegated line pinned in ``addr``'s RAC set that could be
        undelegated to free a pin slot, or None."""
        for pinned_addr in self.rac.pinned_conflicts(addr):
            pentry = self.producer_table.lookup(pinned_addr, touch=False)
            if (pentry is not None and pentry.busy is None
                    and pentry.pending_updates == 0
                    and pentry.deferred_undelegate is None):
                return pinned_addr
        return None

    # -- acting-home request service -----------------------------------------

    def _acting_home_gets(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        hops = 3 if msg.payload.get("forwarded") else 2
        pentry = self.producer_table.lookup(addr)
        if pentry.busy is not None:
            self._nack(requester, addr)
            return
        if pentry.state is DirState.EXCL:
            if pentry.owner != self.node:
                raise self._protocol_error(
                    "delegated line 0x%x owned by remote node %r"
                    % (addr, pentry.owner))
            if self.hierarchy.state_of(addr).writable:
                value = self.hierarchy.downgrade(addr)
                self._cancel_intervention(addr)
                self.rac.update_value(addr, value, dirty=True)
            else:
                value = self.rac.probe(addr).value
            pentry.state = DirState.SHARED
            pentry.owner = None
            pentry.sharers = {self.node, requester}  # fresh read vector
            pentry.update_strikes.pop(requester, None)  # it reads again
        elif pentry.state is DirState.SHARED:
            rac_line = self.rac.probe(addr)
            value = rac_line.value if rac_line is not None else pentry.value
            pentry.sharers.add(requester)
            pentry.update_strikes.pop(requester, None)  # active reader
        else:
            raise self._protocol_error(
                "acting-home GETS in state %s" % pentry.state)
        reply = Message(MsgType.DATA_SHARED, src=self.node, dst=requester,
                        addr=addr, value=value,
                        payload={"hops": hops, "acting_home": True})
        self.events.schedule(self.rac.latency, self.send, reply)

    def _acting_home_getx(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        pentry = self.producer_table.lookup(addr)
        if pentry.busy is not None:
            self._nack(requester, addr)
            return
        if requester != self.node:
            if pentry.pending_updates > 0:
                # Updates still draining: the requester retries here until
                # the directory is allowed to move.
                self._nack(requester, addr)
                pentry.deferred_undelegate = "remote_getx"
                return
            # Undelegation reason 3, initiated here because the requester
            # reached us directly: bounce it to the real home and give the
            # directory back.
            self.send(Message(MsgType.NACK_NOT_HOME, src=self.node,
                              dst=requester, addr=addr))
            self._undelegate(addr, reason="remote_getx")
            return
        # The local producer is writing: a fully local directory operation,
        # plus one invalidation round trip if consumers hold copies.  The
        # delegated entry is stored in the same (possibly lossy) vector
        # encoding as the home directory, so invalidations act on the
        # format's observed set; the preserved sharing vector stays exact.
        targets = self.dir_format.invalidation_targets(
            pentry.sharers, self.node, self.config.num_nodes)
        pentry.busy = BusyRecord(BusyKind.INVALIDATING)
        self._invalidate_sharers(targets, addr, self.node)
        pentry.state = DirState.EXCL
        pentry.owner = self.node
        pentry.sharers = pentry.sharers - {self.node}  # preserved vector
        if self.hierarchy.state_of(addr) is LineState.SHARED:
            grant = Message(MsgType.ACK_X, src=self.node, dst=self.node,
                            addr=addr,
                            payload={"hops": 2, "n_acks": len(targets)})
        else:
            rac_line = self.rac.probe(addr)
            value = rac_line.value if rac_line is not None else pentry.value
            grant = Message(MsgType.DATA_EXCL, src=self.node, dst=self.node,
                            addr=addr, value=value,
                            payload={"hops": 2, "n_acks": len(targets)})
        self.events.schedule(self.rac.latency, self.send, grant)

    # -- undelegation (producer side) ------------------------------------------

    def _on_undele_req(self, msg):
        """Home-initiated recall (undelegation reason 3 at the home)."""
        pentry = self.producer_table.lookup(msg.addr, touch=False)
        if pentry is None:
            # No entry can mean two things.  If we hold an outstanding write
            # miss for the line, the home's DELEGATE may still be in flight
            # to us (it pays the DRAM latency; the recall does not), so the
            # home must keep retrying ("busy").  Only without such a miss is
            # the line truly gone — our voluntary UNDELE is already on its
            # way to the home and will resolve the recall.
            reason = ("busy" if self._active_miss(msg.addr, MissKind.WRITE)
                      is not None else "gone")
            self.send(Message(MsgType.NACK, src=self.node, dst=msg.src,
                              addr=msg.addr,
                              payload={"for": "recall", "reason": reason}))
            return
        if pentry.busy is not None or pentry.pending_updates > 0:
            self.send(Message(MsgType.NACK, src=self.node, dst=msg.src,
                              addr=msg.addr,
                              payload={"for": "recall", "reason": "busy"}))
            return
        self._undelegate(msg.addr, reason="recall")

    def _undelegate(self, addr, reason):
        """Flush local state for a delegated line and return the directory
        to the original home (paper §2.3.3).

        Deferred while pushed updates are unacknowledged: the directory must
        not move to the home before every update has landed, or a later INV
        from the home could be overtaken by a stale update (a race the model
        checker found; see MsgType.UPDATE_ACK).
        """
        pentry = self.producer_table.lookup(addr, touch=False)
        if pentry is None:
            return
        if pentry.pending_updates > 0:
            pentry.deferred_undelegate = reason
            self.stats.inc("dele.undelegate_deferred")
            return
        self.producer_table.remove(addr)
        if pentry.busy is not None:
            raise self._protocol_error(
                "undelegating busy line 0x%x (%s)" % (addr, reason))
        self.stats.inc(S.UNDELEGATIONS + reason)
        if self.tracer is not None:
            self.tracer.delegation_end(self.node, addr, self.events._now,
                                       reason)
        self._cancel_intervention(addr)
        notice = self.hierarchy.evict(addr)
        rac_line = self.rac.invalidate(addr)
        if notice is not None and notice.state is LineState.MODIFIED:
            value = notice.value
        elif rac_line is not None:
            value = rac_line.value
        elif notice is not None:
            value = notice.value
        else:
            value = pentry.value
        if pentry.state is DirState.EXCL:
            # Consumers were invalidated before our write: nobody else holds
            # a copy once our own is flushed.
            snapshot = {"state": DirState.UNOWNED, "owner": None,
                        "sharers": set(), "value": value}
        else:
            sharers = pentry.sharers - {self.node}
            snapshot = {
                "state": DirState.SHARED if sharers else DirState.UNOWNED,
                "owner": None, "sharers": sharers, "value": value,
            }
        self.send(Message(MsgType.UNDELE, src=self.node,
                          dst=self.address_map.home_of(addr), addr=addr,
                          value=value, payload={"dir": snapshot}))

    # -- delayed intervention + speculative updates (§2.4) -----------------------

    def _schedule_intervention(self, addr):
        """Arm the last-write predictor: after a fixed delay, assume the
        write burst is over and push the data out."""
        epoch = self._intervention_epoch.get(addr, 0) + 1
        self._intervention_epoch[addr] = epoch
        if self.tracer is not None:
            self.tracer.intervention_armed(self.node, addr, self.events._now)
        self.events.schedule(self.config.protocol.intervention_delay,
                             self._fire_intervention, addr, epoch)

    def _cancel_intervention(self, addr):
        if addr in self._intervention_epoch:
            self._intervention_epoch[addr] += 1
            if self.tracer is not None:
                self.tracer.intervention_resolved(
                    self.node, addr, self.events._now, "cancelled")

    def _fire_intervention(self, addr, epoch):
        if self._intervention_epoch.get(addr) != epoch:
            return
        entry = self._acting_home_entry(addr)
        if (entry is None or entry.busy is not None
                or entry.state is not DirState.EXCL
                or entry.owner != self.node
                or not self.hierarchy.state_of(addr).writable):
            if self.tracer is not None:
                self.tracer.intervention_resolved(self.node, addr,
                                                  self.events._now, "abandoned")
            return
        self.stats.inc(S.INTERVENTIONS)
        value = self.hierarchy.downgrade(addr)
        delegated = (self.producer_table is not None
                     and addr in self.producer_table)
        if delegated:
            self.rac.update_value(addr, value, dirty=True)
        # The hardware reads the consumer set out of its (possibly lossy)
        # vector encoding, so compressed formats widen the push — the extra
        # updates are the format's cost, and their recipients really do end
        # up holding RAC copies (hence they join the sharer set below).
        consumers = sorted(self.dir_format.observed_sharers(
            entry.sharers, self.config.num_nodes) - {self.node})
        # Selective-update pruning: consumers whose last two pushes went
        # unread stop receiving updates (they are still invalidated as
        # sharers; a fresh read re-enrols them).
        targets = [c for c in consumers
                   if entry.update_strikes.get(c, 0) < 2]
        pruned = len(consumers) - len(targets)
        if pruned:
            self.stats.inc("update.pruned", pruned)
        if self.tracer is not None:
            self.tracer.update_push(self.node, addr, self.events._now,
                                    targets=len(targets), pruned=pruned)
        entry.value = value
        entry.state = DirState.SHARED
        entry.owner = None
        entry.sharers = set(consumers) | {self.node}
        if delegated:
            # Undelegation must wait for these updates to drain (see
            # MsgType.UPDATE_ACK); home-self updates need no acks because
            # the home's later INVs share the update's FIFO channel.
            entry.pending_updates += len(targets)
        # Acks gate undelegation draining, so only *delegated* lines request
        # them; home-self updates (the common first-touch case) stay
        # single-message, matching the paper's traffic model.
        self._push_updates(targets, addr, value, ack=delegated)

    def _acting_home_entry(self, addr):
        """The directory entry this node controls for ``addr``, if any.

        Either a delegated producer-table entry, or — when the producer is
        the real home (the common first-touch outcome for boundary data) —
        the home-memory entry itself: speculative updates apply equally,
        no delegation needed (delegating a line to its own home is a no-op).
        """
        if self.producer_table is not None and addr in self.producer_table:
            return self.producer_table.lookup(addr, touch=False)
        if self.address_map.home_of(addr) == self.node:
            return self.home_memory.entry(addr)
        return None

    def _update_worthy_at_home(self, addr):
        """True when the home (=this node) should push updates for its own
        line after a local write: the detector marked it producer-consumer."""
        det = self.dircache.lookup(addr, create=False)
        return det is not None and det.marked_pc

    # -- consumer side of updates ---------------------------------------------

    def _on_update(self, msg):
        addr = msg.addr
        if msg.payload.get("ack"):
            # Receipt ack (regardless of whether the data is kept): the
            # producer counts these before letting a delegated line's
            # directory move back to the home.
            self.send(Message(MsgType.UPDATE_ACK, self.node, msg.src, addr))
        if self.consumer_table is not None:
            self.consumer_table.insert(addr, msg.src)
        miss = self._active_miss(addr, MissKind.READ)
        if miss is not None:
            # The paper treats an update that meets an outstanding read as
            # the response (§2.4.3).  We deliberately do NOT retire the miss
            # here: doing so orphans the real reply, and the model checker
            # showed an orphaned DATA_SHARED can later satisfy a *newer*
            # read with stale data.  The update still lands in the RAC, and
            # the in-flight reply (carrying the same data) completes the
            # miss moments later — every request keeps exactly one response.
            self.stats.inc("update.rendezvous")
            outcome = "rendezvous"
            if self.rac is not None:
                self.rac.insert_update(addr, msg.value)
        elif self.hierarchy.state_of(addr).readable:
            self.stats.inc("update.stale")
            outcome = "stale"
        else:
            outcome = "accepted"
            if self.rac is not None:
                self.rac.insert_update(addr, msg.value)
        if self.tracer is not None:
            self.tracer.event("update.recv", self.node, addr,
                              self.events._now, src=msg.src, outcome=outcome)

    def _on_update_ack(self, msg):
        entry = self._acting_home_entry(msg.addr)
        if entry is None or entry.pending_updates <= 0:
            return
        entry.pending_updates -= 1
        self._run_deferred_undelegation(msg.addr, entry)

    def _run_deferred_undelegation(self, addr, entry):
        """Execute an undelegation that waited for update acks (and for any
        local transaction) to finish."""
        if (entry.deferred_undelegate is None or entry.pending_updates > 0
                or entry.busy is not None):
            return
        if self.producer_table is None or addr not in self.producer_table:
            return
        reason = entry.deferred_undelegate
        entry.deferred_undelegate = None
        self._undelegate(addr, reason)
