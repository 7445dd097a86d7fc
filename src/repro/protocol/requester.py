"""Requester-side (cache-side) hub logic.

Handles processor misses from issue to completion: target resolution
through the delegate cache, the RAC fast path, reply/ack collection,
NACK/retry with backoff, and servicing of inbound invalidations and
interventions against the local caches.

Race handling follows the SGI idiom the paper adopts (§2.3.4):

* A request that finds its target busy is NACKed and retried.
* An INV that arrives while a read miss is outstanding for the same line is
  acknowledged immediately, and the eventually filled line is dropped right
  after its single use (the read it satisfies is ordered before the
  invalidating write, which is sequentially consistent).
* An INTERVENTION that arrives while a miss is outstanding for the same
  line is NACKed back to the home, which retries it.
"""

from types import MappingProxyType

from ..cache.line import LineState, RacKind
from ..common import stats as S
from ..network.message import Message, MsgType
from .transactions import MissKind, OutstandingMiss, PathClass

#: The two INV_ACK payloads, shared read-only by every ack: whether the
#: invalidated RAC copy was a pushed update that died unread.
_INV_ACK_USED = MappingProxyType({"wasted_update": False})
_INV_ACK_WASTED = MappingProxyType({"wasted_update": True})


class RequesterMixin:
    """Mixin for :class:`repro.protocol.hub.Hub`: processor-side logic."""

    # -- issue ------------------------------------------------------------

    def request_read(self, addr, callback):
        """Processor read miss.  ``callback(path_class)`` fires when the
        line is readable in the local hierarchy."""
        self._start_miss(MissKind.READ, addr, 0, callback)

    def request_write(self, addr, value, callback):
        """Processor write miss (cold or upgrade).  After the callback the
        line is writable locally and the processor replays its store."""
        self._start_miss(MissKind.WRITE, addr, value, callback)

    def _start_miss(self, kind, addr, value, callback):
        if self.miss is not None:
            raise self._protocol_error("second outstanding miss (blocking CPU)")
        now = self.events._now
        miss = OutstandingMiss(addr, kind, callback, value, now)
        self.miss = miss
        if self.tracer is not None:
            self.tracer.miss_begin(self.node, addr, kind.span_kind, now)
        if kind is MissKind.READ and self.rac is not None:
            rac_line = self.rac.lookup_data(addr)
            if rac_line is not None:
                self.stats.inc(S.HIT_RAC)
                if self.tracer is not None:
                    # ``_value_`` is the plain attribute behind Enum's
                    # Python-level ``value`` property.
                    self.tracer.event("rac.hit", self.node, addr,
                                      self.events._now,
                                      kind=rac_line.kind._value_)
                if rac_line.kind is RacKind.UPDATE:
                    self.stats.inc(S.HIT_RAC_UPDATE)
                miss.granted = True
                miss.grant_state = LineState.SHARED
                miss.grant_value = rac_line.value
                miss.acks_needed = 0
                self.events.schedule(self.rac.latency, self._complete_miss,
                                     miss, PathClass.LOCAL)
                return
        self._issue_miss(miss)

    def _issue_miss(self, miss):
        if miss.done:
            return
        target = self._resolve_target(miss.addr)
        miss.target = target
        payload = {"requester": self.node}
        if miss.kind is MissKind.WRITE:
            # A data-less upgrade (ACK_X) is only valid if our L2 really
            # holds the line; being a sharer through a RAC copy alone is
            # not enough, so tell the home what we have.
            payload["has_copy"] = (
                self.hierarchy.state_of(miss.addr) is LineState.SHARED)
            mtype = MsgType.GETX
        else:
            mtype = MsgType.GETS
        if self.tracer is not None:
            self.tracer.miss_issue(self.node, miss.addr, self.events._now,
                                   target, mtype.label)
        self.send(Message(mtype, self.node, target, miss.addr, 0, payload))

    def _resolve_target(self, addr):
        """Where to send a request: self if delegated here, the hinted
        delegated home, or the real home node."""
        if self.producer_table is not None and addr in self.producer_table:
            return self.node
        if self.consumer_table is not None:
            hint = self.consumer_table.lookup(addr)
            if hint is not None:
                return hint
        return self.address_map.home_of(addr)

    # -- replies ----------------------------------------------------------

    def _active_miss(self, addr, kind=None):
        miss = self.miss
        if miss is None or miss.done or miss.addr != addr:
            return None
        if kind is not None and miss.kind is not kind:
            return None
        return miss

    def _on_data_shared(self, msg):
        miss = self._active_miss(msg.addr, MissKind.READ)
        if miss is None:
            return  # duplicate reply (e.g. an UPDATE already completed us)
        miss.granted = True
        miss.grant_state = LineState.SHARED
        miss.grant_value = msg.value
        miss.acks_needed = 0
        if msg.payload.get("acting_home") and self.consumer_table is not None:
            self.consumer_table.insert(msg.addr, msg.src)
        self._complete_miss(miss, self._classify(msg))

    def _on_data_excl(self, msg):
        miss = self._active_miss(msg.addr)
        if miss is None:
            return
        miss.granted = True
        miss.grant_state = LineState.EXCLUSIVE
        miss.grant_value = msg.value
        miss.acks_needed = msg.payload.get("n_acks", 0)
        miss.path = self._classify(msg)
        self._maybe_finish_write(miss)

    def _on_ack_x(self, msg):
        miss = self._active_miss(msg.addr, MissKind.WRITE)
        if miss is None:
            return
        miss.granted = True
        miss.grant_state = LineState.EXCLUSIVE
        miss.grant_value = self.hierarchy.value_of(msg.addr)
        miss.acks_needed = msg.payload.get("n_acks", 0)
        miss.path = self._classify(msg)
        self._maybe_finish_write(miss)

    def _on_inv_ack(self, msg):
        miss = self._active_miss(msg.addr)
        if miss is None:
            raise self._protocol_error("INV_ACK with no outstanding miss: %r" % msg)
        if msg.payload.get("wasted_update"):
            entry = self._acting_home_entry(msg.addr)
            if entry is not None:
                entry.update_strikes[msg.src] = (
                    entry.update_strikes.get(msg.src, 0) + 1)
                self.stats.inc("update.strike")
        miss.acks_got += 1
        self._maybe_finish_write(miss)

    def _maybe_finish_write(self, miss):
        if miss.complete_when_ready():
            self._complete_miss(miss, miss.path)

    def _classify(self, msg):
        """Path class of a completed miss, from the responder's hop count."""
        hops = msg.payload.get("hops", 2)
        n_acks = msg.payload.get("n_acks", 0)
        if msg.src == self.node:
            # Served by our own hub (we are home or acting home).  Crossing
            # the network only for invalidations+acks is the paper's 2-hop
            # producer-side write; with no remote party at all it is local.
            return PathClass.TWO_HOP if n_acks else PathClass.LOCAL
        return PathClass.THREE_HOP if hops >= 3 else PathClass.TWO_HOP

    def _complete_miss(self, miss, path):
        if miss.done:
            return
        miss.done = True
        self.miss = None
        # Count the miss by hop class, and record its latency (by class)
        # and retries in the system's always-on distributions.
        now = self.events._now
        latency = now - miss.start_time
        counters = self.stats._counters
        if path is PathClass.LOCAL:
            counters[S.MISS_LOCAL] += 1
            self._latency_local[latency] += 1
        elif path is PathClass.TWO_HOP:
            counters[S.MISS_2HOP] += 1
            self._latency_2hop[latency] += 1
        elif path is PathClass.THREE_HOP:
            counters[S.MISS_3HOP] += 1
            self._latency_3hop[latency] += 1
        else:
            raise self._protocol_error("unclassified miss path %r" % path)
        self._retry_counts[miss.retries] += 1
        if self.tracer is not None:
            self.tracer.miss_end(self.node, miss.addr, now, path._value_,
                                 miss.retries)
        if miss.kind is MissKind.WRITE and self.rac is not None:
            # Any RAC copy of a line we now own exclusively is stale; pinned
            # delegated entries are refreshed by the delayed intervention.
            rac_line = self.rac.probe(miss.addr)
            if rac_line is not None and not rac_line.pinned:
                self.rac.invalidate(miss.addr)
        if miss.granted:
            if (miss.grant_state is LineState.EXCLUSIVE
                    and self.hierarchy.state_of(miss.addr) is LineState.SHARED):
                self.hierarchy.grant_exclusive(miss.addr)
            else:
                notice = self.hierarchy.fill(miss.addr, miss.grant_state,
                                             miss.grant_value)
                if notice is not None:
                    self._handle_eviction(notice)
        # An invalidation raced with this read: the fill above may use its
        # value exactly once (the blocked read), then the copy must go.
        if miss.kind is MissKind.READ and miss.pending_inv:
            self._drop_after_use(miss.addr)
        producer_entry = (self.producer_table.lookup(miss.addr, touch=True)
                          if self.producer_table is not None else None)
        if producer_entry is not None and producer_entry.busy is not None:
            producer_entry.busy = None
        if (producer_entry is not None
                and producer_entry.deferred_undelegate is not None):
            self._run_deferred_undelegation(miss.addr, producer_entry)
            if miss.addr not in self.producer_table:
                producer_entry = None  # undelegation happened; no updates
        if miss.kind is MissKind.WRITE and self._enable_updates:
            if producer_entry is not None:
                self._schedule_intervention(miss.addr)
            elif (self.address_map.home_of(miss.addr) == self.node
                    and self._update_worthy_at_home(miss.addr)):
                # Producer == home: no delegation needed, but the update
                # mechanism applies identically from the home directory.
                self._schedule_intervention(miss.addr)
        miss.callback(path)

    def _drop_after_use(self, addr):
        """Self-invalidate a line whose fill raced with an invalidation."""
        self.events.schedule(1, self._late_invalidate, addr)

    def _late_invalidate(self, addr):
        state = self.hierarchy.state_of(addr)
        self.hierarchy.invalidate(addr)
        if self.rac is not None:
            self.rac.invalidate(addr)
        if state is LineState.EXCLUSIVE:
            # The raced read was granted ownership (MESI E on a read to an
            # unowned line); dropping it is a clean eviction the directory
            # must hear about, or it will wait forever for our writeback.
            self.send(Message(MsgType.EVICT_CLEAN, src=self.node,
                              dst=self.address_map.home_of(addr), addr=addr))

    # -- flow control ---------------------------------------------------------

    def _on_nack(self, msg):
        purpose = msg.payload.get("for", "miss")
        if purpose == "intervention":
            self._home_intervention_nacked(msg)
            return
        if purpose == "recall":
            self._home_recall_nacked(msg)
            return
        miss = self._active_miss(msg.addr)
        if miss is None:
            return  # NACK for a transaction that already completed elsewhere
        self._retry_miss(miss)

    def _on_nack_not_home(self, msg):
        if self.consumer_table is not None:
            self.consumer_table.remove(msg.addr)
        miss = self._active_miss(msg.addr)
        if miss is None:
            return
        self._retry_miss(miss, reason="stale_hint")

    def _retry_miss(self, miss, reason="nack"):
        self.stats.inc(S.NACKS)
        if self.tracer is not None:
            self.tracer.miss_nack(self.node, miss.addr, self.events._now,
                                  reason)
        miss.retries += 1
        if miss.retries > self.config.protocol.max_retries:
            raise self._protocol_error(
                "miss for 0x%x exceeded %d retries (livelock?)"
                % (miss.addr, self.config.protocol.max_retries))
        self.stats.inc(S.RETRIES)
        self.events.schedule(self._retry_delay(miss.retries),
                             self._issue_miss, miss)

    def _retry_delay(self, attempt):
        """Back-off delay before re-issuing a miss after its ``attempt``-th
        NACK (1-based).

        The default ("fixed", no jitter) is the flat ``nack_retry_delay``
        the paper implies.  "exp" doubles per consecutive NACK up to
        ``retry_backoff_cap``; jitter adds a seeded random fraction on top.
        Either knob desynchronises two requesters whose flat retry periods
        would otherwise keep them NACKing each other in lock-step forever.
        """
        protocol = self.config.protocol
        delay = protocol.nack_retry_delay
        if protocol.retry_backoff == "exp":
            delay = min(delay << min(attempt - 1, 16),
                        protocol.retry_backoff_cap)
        if protocol.retry_jitter_frac:
            spread = int(delay * protocol.retry_jitter_frac)
            if spread:
                delay += self._retry_rng.randrange(spread + 1)
        return delay

    # -- inbound coherence actions against local caches -------------------------

    def _on_inv(self, msg):
        collector = msg.payload.get("collector", msg.src)
        miss = self._active_miss(msg.addr, MissKind.READ)
        if miss is not None:
            # Read outstanding for this very line: ack now, use the data at
            # most once when it arrives, then drop it (see module docstring).
            miss.pending_inv = True
        self.hierarchy.invalidate(msg.addr)
        payload = _INV_ACK_USED
        if self.rac is not None:
            rac_line = self.rac.invalidate(msg.addr)
            if (rac_line is not None and rac_line.kind is RacKind.UPDATE
                    and not rac_line.consumed):
                payload = _INV_ACK_WASTED
        # The ack reports a push that died unread — the producer's
        # selective-update filter prunes persistent non-consumers on it.
        # Positional arguments: every broadcast INV is answered here, and a
        # keyword call to Message costs twice a positional one.
        self.send(Message(MsgType.INV_ACK, self.node, collector, msg.addr, 0,
                          payload))

    def _on_intervention(self, msg):
        mode = msg.payload.get("mode", "shared")
        requester = msg.payload["requester"]
        home = msg.src
        if self._active_miss(msg.addr) is not None:
            # Our own transaction for this line is still in flight; tell the
            # home to retry the intervention once we have settled.
            self.send(Message(MsgType.NACK, src=self.node, dst=home,
                              addr=msg.addr,
                              payload={"for": "intervention",
                                       "reason": "busy"}))
            return
        state = self.hierarchy.state_of(msg.addr)
        if not state.writable:
            # Copy already evicted: the writeback/evict notice is in flight.
            self.send(Message(MsgType.NACK, src=self.node, dst=home,
                              addr=msg.addr,
                              payload={"for": "intervention",
                                       "reason": "no_copy"}))
            return
        hops = msg.payload.get("hops", 3)
        if mode == "shared":
            value = self.hierarchy.downgrade(msg.addr)
            self.send(Message(MsgType.SHARED_WB, self.node, home, msg.addr,
                              value))
            self.send(Message(MsgType.SHARED_RESP, self.node, requester,
                              msg.addr, value, {"hops": hops}))
        else:
            _had, value = self.hierarchy.invalidate(msg.addr)
            self.send(Message(MsgType.EXCL_RESP, src=self.node, dst=requester,
                              addr=msg.addr, value=value,
                              payload={"hops": hops, "n_acks": 0}))
            self.send(Message(MsgType.XFER_OWNER, src=self.node, dst=home,
                              addr=msg.addr, payload={"new_owner": requester}))

    def _on_excl_resp(self, msg):
        self._on_data_excl(msg)

    def _on_shared_resp(self, msg):
        self._on_data_shared(msg)

    def _on_wb_ack(self, msg):
        pass  # writebacks are fire-and-forget at the requester

    # -- evictions ----------------------------------------------------------

    def _handle_eviction(self, notice):
        """React to an L2 line falling out of the private hierarchy."""
        addr = notice.addr
        if self.producer_table is not None and addr in self.producer_table:
            # Paper undelegation reason 2: the delegated home flushed the
            # line from its local caches.
            if notice.state is LineState.MODIFIED:
                self.rac.update_value(addr, notice.value, dirty=True)
            self._undelegate(addr, reason="flush")
            return
        if notice.state is LineState.MODIFIED:
            self.send(Message(MsgType.WRITEBACK, src=self.node,
                              dst=self.address_map.home_of(addr), addr=addr,
                              value=notice.value))
        elif notice.state is LineState.EXCLUSIVE:
            self.send(Message(MsgType.EVICT_CLEAN, src=self.node,
                              dst=self.address_map.home_of(addr), addr=addr))
        else:  # SHARED: silent; remote data may be worth keeping in the RAC
            if (self.rac is not None
                    and self.address_map.home_of(addr) != self.node):
                self.rac.insert_victim(addr, notice.value)
