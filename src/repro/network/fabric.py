"""Message delivery engine.

The fabric owns traffic accounting (message and byte counters — the
evaluation's "network messages" metric) and delivery timing: topology
latency plus hub port contention at the receiver.  Each hub drains its
ingress port serially, one message per ``hub_occupancy`` cycles, matching
the paper's "we do not model contention within the routers, but do model
hub port contention".

This is the hottest module in the simulator (every message crosses
:meth:`Fabric.send` or :meth:`Fabric.send_all`), so per-send work is
precomputed at construction: wire sizes and stats-counter keys per message
type, lazily materialised per-source latency rows, and a flat
``busy_until`` list instead of port objects.  Deliveries are appended
straight onto the event queue's per-cycle calendar, skipping the validated
:meth:`EventQueue.schedule`, and each names the destination hub's
handler for its message type, looked up in the node's pre-bound table
(indexed by ``MsgType.index``) at send time.  The vocabulary is closed —
every message is a :class:`MsgType` — so that lookup is the one delivery
rule.  Only remote messages the chaos policy can bounce (GETS, GETX,
INTERVENTION and UNDELE_REQ, when forced NACKs are on) go through
:meth:`Fabric._deliver` instead, because their forced-NACK draw must
happen at delivery; the policy draws nothing for any other type, so
those, duplicates included, go straight to their handler as they do
without chaos.

:meth:`Fabric.send_all` is the one-to-many form: a write's INVs to every
sharer, a producer's UPDATEs to every consumer.  A 256-node broadcast is
255 messages from one source of one type, so the fan-out reads the
source's latency row, the port table and the calendar once and bumps the
traffic counters once, by the remote count; the schedule it builds is the
one 255 :meth:`Fabric.send` calls would build.  The tracer and the chaos
policy are optional hooks that live only in :meth:`Fabric.send`, each one
``is None`` branch when absent.  The tracer is called only when it
captures messages (``TraceConfig.capture_messages``); with such a tracer
or a chaos policy installed, ``send_all`` hands every message to
``send``, so traces and chaos draws (and the ``msg_id`` of a chaos
duplicate) keep their per-message order.
"""

from heapq import heappush

from ..common.stats import MSG_BYTES
from .message import Message, MsgType
from .topology import FatTree


class Fabric:
    """Connects hubs; delivers messages with latency + port contention."""

    def __init__(self, config, events, stats, tracer=None, chaos=None):
        self.config = config
        self.events = events
        self.stats = stats
        self._tracer = tracer
        # The tracer is called per send only when it records messages.
        self._msg_tracer = (tracer if tracer is not None
                            and tracer.config.capture_messages else None)
        self._chaos = chaos  # None = no fault injection
        self.topology = FatTree(config.num_nodes, config.network)
        num_nodes = config.num_nodes
        self._occupancy = config.network.hub_occupancy
        self._busy_until = [0] * num_nodes
        # Per-node pre-bound handler tables indexed by MsgType.index (see
        # Hub._handler_array): sends put the handler itself on the
        # calendar, skipping any dispatch frame.  A node nothing attached
        # to raises at delivery.
        unattached = [self._unattached] * len(MsgType)
        self._tables = [unattached] * num_nodes
        # Per-type precomputation, indexed by the dense MsgType.index.
        header = config.network.header_bytes
        line = config.line_size
        self._size_by_type = [
            header + (line if mtype.data_bearing else 0) for mtype in MsgType
        ]
        self._sent_key_by_type = [mtype.sent_counter for mtype in MsgType]
        # Latency rows are filled on first use per source node: an
        # all-pairs matrix would be O(nodes^2) up-front for the 1024-node
        # goal, but each run only exercises the rows of active nodes.
        self._latency_rows = [None] * num_nodes
        self._counters = stats._counters

    # Read-only: the hooks are wired at construction, so a late
    # ``fabric.tracer = ...`` fails loudly instead of being half-applied.

    @property
    def tracer(self):
        return self._tracer

    @property
    def chaos(self):
        return self._chaos

    def attach(self, node, table):
        """Register ``node``'s handlers: ``table`` holds one callable per
        :class:`MsgType`, indexed by ``MsgType.index``.

        A message's handler is chosen when it is sent, so re-attaching a
        node affects only messages sent afterwards.
        """
        self._tables[node] = table

    @staticmethod
    def _unattached(msg):
        raise RuntimeError("no handler attached for node %d" % msg.dst)

    def _latency_row(self, src):
        row = self.topology.latency_row(src)
        self._latency_rows[src] = row
        return row

    def send(self, msg):
        """Put ``msg`` on the wire; it will be handled at the destination
        after topology latency and port serialisation.

        Node-local sends (src == dst) are legal — e.g. a node whose home is
        itself — and are delivered after port occupancy only, without
        counting as network traffic or passing through the chaos policy.
        """
        src = msg.src
        dst = msg.dst
        index = msg.mtype.index
        events = self.events
        if self._msg_tracer is not None:
            self._msg_tracer.msg_send(msg, events._now, src != dst)
        row = self._latency_rows[src]
        if row is None:
            row = self._latency_row(src)
        arrival = events._now + row[dst]
        handler = self._tables[dst][index]
        chaos = None
        if src != dst:
            counters = self._counters
            counters[self._sent_key_by_type[index]] += 1
            counters[MSG_BYTES] += self._size_by_type[index]
            chaos = self._chaos
            if chaos is not None:
                arrival = chaos.arrival(msg, arrival)
                if chaos.bounceable[index]:
                    handler = self._deliver
        busy = self._busy_until
        start = busy[dst]
        if arrival > start:
            start = arrival
        deliver_at = start + self._occupancy
        busy[dst] = deliver_at
        # Unchecked push onto the calendar: arrival is now plus a
        # non-negative latency (chaos only adds to it) and busy_until never
        # moves backwards, so the timestamp can never be in the past.
        calendar = events._calendar
        bucket = calendar.get(deliver_at)
        if bucket is None:
            calendar[deliver_at] = [(handler, (msg,))]
            heappush(events._times, deliver_at)
        else:
            bucket.append((handler, (msg,)))
        if chaos is not None and chaos.duplicable[index]:
            dup_arrival = chaos.duplicate_arrival(msg, arrival)
            if dup_arrival is not None:
                # A fresh copy so the two deliveries never share a mutable
                # payload dict (handlers write into payloads).
                dup = Message(msg.mtype, src=src, dst=dst,
                              addr=msg.addr, value=msg.value,
                              payload=dict(msg.payload))
                start = busy[dst]
                if dup_arrival > start:
                    start = dup_arrival
                dup_at = start + self._occupancy
                busy[dst] = dup_at
                bucket = calendar.get(dup_at)
                if bucket is None:
                    calendar[dup_at] = [(handler, (dup,))]
                    heappush(events._times, dup_at)
                else:
                    bucket.append((handler, (dup,)))

    def send_all(self, msgs):
        """Put every message of ``msgs`` on the wire, in order, exactly as
        one :meth:`send` per message would.

        All messages must share one source and one :class:`MsgType` (a
        fan-out); anything else raises ``ValueError``.  ``msgs`` may be a
        generator: each message is scheduled before the next is drawn, so
        ``msg_id`` order follows the send order whichever path is taken.
        """
        if self._msg_tracer is not None or self._chaos is not None:
            send = self.send
            for msg in msgs:
                send(msg)
            return
        events = self.events
        now = events._now
        busy = self._busy_until
        occupancy = self._occupancy
        calendar = events._calendar
        times = events._times
        tables = self._tables
        src = mtype = row = None
        remote = 0
        for msg in msgs:
            if row is None:
                src = msg.src
                mtype = msg.mtype
                if mtype.__class__ is not MsgType:
                    raise ValueError("send_all: %r is not a MsgType"
                                     % (mtype,))
                index = mtype.index
                row = self._latency_rows[src]
                if row is None:
                    row = self._latency_row(src)
            elif msg.src != src or msg.mtype is not mtype:
                raise ValueError(
                    "send_all: %r is not a %s from node %d"
                    % (msg, mtype.label, src))
            dst = msg.dst
            if dst != src:
                remote += 1
            arrival = now + row[dst]
            start = busy[dst]
            if arrival > start:
                start = arrival
            deliver_at = start + occupancy
            busy[dst] = deliver_at
            handler = tables[dst][index]
            bucket = calendar.get(deliver_at)
            if bucket is None:
                calendar[deliver_at] = [(handler, (msg,))]
                heappush(times, deliver_at)
            else:
                bucket.append((handler, (msg,)))
        if remote:
            counters = self._counters
            counters[self._sent_key_by_type[index]] += remote
            counters[MSG_BYTES] += remote * self._size_by_type[index]

    def _deliver(self, msg):
        """Deliver a remote message of a type the chaos policy can bounce;
        the policy may send a forced NACK instead."""
        nack = self._chaos.forced_nack(msg)
        if nack is None:
            self._tables[msg.dst][msg.mtype.index](msg)
        else:
            self.send(nack)
