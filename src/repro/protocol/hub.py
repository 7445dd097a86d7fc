"""The per-node hub controller.

The hub is the node's external directory controller (Figure 2): it owns the
RAC, the directory (home memory + directory cache with detector bits), the
delegate cache, and the network interface.  All of the paper's mechanisms
live here — nothing requires processor changes, exactly as the paper
stipulates.

The class is assembled from three mixins that mirror the protocol roles:

* :class:`~repro.protocol.requester.RequesterMixin` — cache-side logic
  (processor misses, replies, NACK/retry, inbound INV/INTERVENTION).
* :class:`~repro.protocol.home.HomeMixin` — home-directory logic (base
  write-invalidate protocol, delegation initiation, DELE forwarding).
* :class:`~repro.protocol.producer.ProducerMixin` — delegated-home logic
  (acting-home service, undelegation, delayed intervention, updates).
"""

from types import MappingProxyType

from ..cache.hierarchy import PrivateCacheHierarchy
from ..cache.rac import RemoteAccessCache
from ..common import stats as S
from ..common.errors import (ConfigError, ProtocolError,
                             UnhandledMessageError)
from ..common.rng import stream
from ..directory.dircache import DirectoryCache
from ..directory.formats import DirectoryFormat
from ..directory.state import HomeMemory
from ..network.message import Message, MsgType
from .delegate_cache import ConsumerTable, ProducerTable
from .detector import BlindDetector
from .home import HomeMixin
from .predictors import make_detector
from .producer import ProducerMixin
from .requester import RequesterMixin


class Hub(RequesterMixin, HomeMixin, ProducerMixin):
    """One node's directory/coherence controller."""

    #: ``ProtocolConfig`` flags this hub class needs on, whatever its spec's
    #: features say (read by ``Protocol.normalize_config``).
    requires = ()

    def __init__(self, node, system):
        self.node = node
        self.system = system
        self.config = system.config
        self.events = system.events
        self.fabric = system.fabric
        self.stats = system.stats
        self.address_map = system.address_map
        self.tracer = getattr(system, "tracer", None)
        # The system's always-on miss statistics, bound per hop class so
        # the requester's completion path is one dict bump each.
        misses = system.misses
        self._latency_local = misses.latency["local"]
        self._latency_2hop = misses.latency["2hop"]
        self._latency_3hop = misses.latency["3hop"]
        self._retry_counts = misses.retries

        protocol = self.config.protocol
        self.hierarchy = PrivateCacheHierarchy(self.config)
        self.rac = None
        if protocol.enable_rac:
            self.rac = RemoteAccessCache(
                self.config.rac,
                rng=stream(self.config.seed, "rac-%d" % node),
                stats=self.stats)
        self.home_memory = HomeMemory(node)
        self.dir_format = DirectoryFormat.parse(self.config.directory_format)
        # The detector counts consumers from the sharing vector a GETX
        # preserves (§2.4.2); a spec without that vector gets neither.
        self._consumer_vector = ("consumer_vector"
                                 in system.protocol.features)
        if self._consumer_vector:
            self.detector = make_detector(protocol, self.stats)
        else:
            self.detector = BlindDetector(protocol, self.stats)
        self.dircache = DirectoryCache(self.config.directory_cache_entries,
                                       self.detector.new_entry)
        self.producer_table = None
        self.consumer_table = None
        if protocol.enable_delegation:
            self.producer_table = ProducerTable(self.config.delegate.entries)
            self.consumer_table = ConsumerTable(
                self.config.delegate,
                rng=stream(self.config.seed, "ct-%d" % node),
                line_size=self.config.line_size)

        self.miss = None
        self._retry_rng = stream(self.config.seed, "retry-%d" % node)
        self._intervention_epoch = {}
        self._enable_updates = protocol.enable_updates

        # The one MsgType -> method map (repro.lint's protocol-graph
        # extractor parses it).  The protocol's spec decides which of these
        # this hub serves: the pre-bound dispatch array, indexed by the
        # dense MsgType.index, keeps the handled types and maps the rest
        # to _unhandled, so receiving one raises the structured
        # UnhandledMessageError instead of doing another protocol's work.
        self._handlers = {
            MsgType.GETS: self._route_request,
            MsgType.GETX: self._route_request,
            MsgType.DATA_SHARED: self._on_data_shared,
            MsgType.DATA_EXCL: self._on_data_excl,
            MsgType.ACK_X: self._on_ack_x,
            MsgType.INV: self._on_inv,
            MsgType.INV_ACK: self._on_inv_ack,
            MsgType.INTERVENTION: self._on_intervention,
            MsgType.SHARED_WB: self._on_shared_wb,
            MsgType.SHARED_RESP: self._on_shared_resp,
            MsgType.EXCL_RESP: self._on_excl_resp,
            MsgType.XFER_OWNER: self._on_xfer_owner,
            MsgType.WRITEBACK: self._home_writeback,
            MsgType.EVICT_CLEAN: self._home_writeback,
            MsgType.WB_ACK: self._on_wb_ack,
            MsgType.NACK: self._on_nack,
            MsgType.NACK_NOT_HOME: self._on_nack_not_home,
            MsgType.DELEGATE: self._on_delegate,
            MsgType.UNDELE: self._on_undele,
            MsgType.UNDELE_REQ: self._on_undele_req,
            MsgType.HOME_CHANGED: self._on_home_changed,
            MsgType.UPDATE: self._on_update,
            MsgType.UPDATE_ACK: self._on_update_ack,
        }
        handled = system.protocol.handled
        missing = handled.difference(mtype.name for mtype in self._handlers)
        if missing:
            raise ConfigError(
                "the %s spec handles %s, which Hub has no handler for"
                % (system.protocol.name, ", ".join(sorted(missing))))
        self._handler_array = [
            self._handlers[mtype] if mtype.name in handled else self._unhandled
            for mtype in MsgType
        ]
        self.send = self.fabric.send
        self.fabric.attach(node, self._handler_array)

    # -- plumbing -----------------------------------------------------------

    # Bound through to the fabric in __init__ (one frame per message saved
    # on the hottest call in the simulator); the def remains as the
    # class-level fallback and documentation of the interface.
    def send(self, msg):
        self.fabric.send(msg)

    # The two one-to-many sends.  Each builds its messages in a generator
    # (so ``msg_id`` order is the send order and ``repro lint`` sees the
    # emission) around one read-only payload shared by the whole fan-out.
    # Message arguments are positional: a keyword call costs twice as much.

    def _invalidate_sharers(self, targets, addr, collector):
        """INV every node in ``targets`` (ascending); acks go to
        ``collector``."""
        node = self.node
        payload = MappingProxyType({"collector": collector})
        self.fabric.send_all(
            Message(MsgType.INV, node, target, addr, 0, payload)
            for target in sorted(targets))

    def _push_updates(self, targets, addr, value, ack):
        """Speculatively push ``value`` to every consumer in ``targets``, in
        order; ``ack`` asks each for an UPDATE_ACK."""
        if not targets:
            return
        self.stats.inc(S.UPDATES_SENT, len(targets))
        node = self.node
        payload = MappingProxyType({"hops": 2, "ack": ack})
        self.fabric.send_all(
            Message(MsgType.UPDATE, node, consumer, addr, value, payload)
            for consumer in targets)

    def dispatch(self, msg):
        """Handle ``msg`` here and now, as its delivery would (the fabric
        calls the handler table directly; protocol code re-dispatches a
        buffered request through this)."""
        self._handler_array[msg.mtype.index](msg)

    def _unhandled(self, msg):
        dir_state = None
        if self.address_map.home_of(msg.addr) == self.node:
            dir_state = self.home_memory.entry(msg.addr).state.value
        raise UnhandledMessageError(self.node, msg.mtype, dir_state,
                                    msg, cycle=self.events.now)

    def _route_request(self, msg):
        """GETS/GETX routing: acting home, real home, or stale-hint bounce."""
        addr = msg.addr
        if self.producer_table is not None and addr in self.producer_table:
            if msg.mtype is MsgType.GETS:
                self._acting_home_gets(msg)
            else:
                self._acting_home_getx(msg)
        elif self.address_map.home_of(addr) == self.node:
            if msg.mtype is MsgType.GETS:
                self._home_gets(msg)
            else:
                self._home_getx(msg)
        else:
            # A stale consumer-table hint pointed here; the requester drops
            # its hint and retries at the real home.
            self.send(Message(MsgType.NACK_NOT_HOME, src=self.node,
                              dst=msg.payload["requester"], addr=addr))

    def _on_home_changed(self, msg):
        if self.consumer_table is not None:
            self.consumer_table.insert(msg.addr, msg.payload["delegate"])

    def _protocol_error(self, text):
        return ProtocolError("[node %d @ cycle %d] %s"
                             % (self.node, self.events.now, text))
