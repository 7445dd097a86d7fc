"""The pluggable protocol arena: baselines the adaptive protocol races.

The paper's headline claim is that adaptive delegation/update beats plain
write-invalidate on producer-consumer sharing.  This module supplies the
competitors, each behind one small :class:`Protocol` interface:

``adaptive``
    The paper's protocol — delegation, speculative updates, the detector —
    exactly as :class:`~repro.protocol.hub.Hub` implements it.  Its spec,
    like MESI's, compiles into the model checker (``repro.spec.mcgen``).
``wi``
    Explicit write-invalidate: the implicit ``enable_updates=False``
    baseline promoted to a first-class protocol.  Delegation and updates
    are stripped from the config; the RAC (if configured) stays.  Its
    spec is adaptive's with both features projected away.
``mesi``
    Textbook directory MESI: no RAC, no detector, and no preserved
    sharing vector — a GETX clears the old reader set instead of keeping
    it as the paper's "most recent consumer" approximation (§2.4.2).
``dragon``
    A Dragon-style update protocol adapted to this directory fabric:
    writes still invalidate (the memory model is checked against
    sequential consistency, so consumers may never observe a store early),
    but after every write commits the writer pushes the new value to the
    just-invalidated readers, ack-gated so an update can never be
    overtaken by a later invalidation.  Unconditional updates — no
    producer-consumer detector, no pruning.

The spec decides dispatch, in the simulator as in the model checker:
:class:`~repro.protocol.hub.Hub` holds the one ``MsgType`` -> method map
and serves exactly the types its protocol's spec handles
(:attr:`Protocol.handled`).  Every other type (e.g. DELEGATE under
``wi``) maps to ``_unhandled`` and raises the structured
:class:`~repro.common.errors.UnhandledMessageError` — receiving one is a
protocol violation, not a silent no-op.  ``wi`` therefore needs no hub
class of its own; ``mesi`` and ``dragon`` subclass ``Hub`` only for the
behaviour they change.

This file is deliberately *not* in ``repro.lint``'s
``SIM_PROTOCOL_FILES``: the lint graph models the adaptive protocol;
arena baselines are covered by their own specs and the per-protocol
status in the lint report instead (see :func:`repro.lint.run_lint`).
"""

from ..common import stats as S
from ..common.errors import ConfigError
from ..directory.state import DirState
from ..network.message import Message, MsgType
from .hub import Hub
from .transactions import MissKind


class Protocol:
    """One pluggable coherence protocol.

    ``normalize_config`` maps an arbitrary :class:`SystemConfig` onto the
    feature set the protocol actually implements (e.g. ``wi`` strips
    delegation); the identity for ``adaptive``, so default configs are
    byte-for-byte untouched.  ``make_hub`` builds the per-node controller.
    ``handled`` is the set of message names the protocol's spec
    (``repro.spec.protocols``) handles; it is the hub's dispatch set.
    Whether a protocol has a model-checker twin is its spec's business
    (``mc_model``), not the registry's.
    """

    def __init__(self, name, hub_class, description, normalize=None):
        self.name = name
        self.hub_class = hub_class
        self.description = description
        self._normalize = normalize
        self._handled = None

    @property
    def handled(self):
        # Loaded on first use (the first hub built in the process), not
        # at import: loading the specs is a cost runs that build no
        # System should not pay.
        if self._handled is None:
            from ..spec.registry import get_spec
            self._handled = get_spec(self.name).handled()
        return self._handled

    def normalize_config(self, config):
        if self._normalize is None:
            return config
        return self._normalize(config)

    def make_hub(self, node, system):
        return self.hub_class(node, system)

    def __repr__(self):
        return "Protocol(%r)" % self.name


# ---------------------------------------------------------------------------
# Write-invalidate: the promoted baseline.
# ---------------------------------------------------------------------------


def _normalize_wi(config):
    protocol = config.protocol
    if not (protocol.enable_delegation or protocol.enable_updates):
        return config
    return config.with_protocol(enable_delegation=False,
                                enable_updates=False)


# ---------------------------------------------------------------------------
# MESI: the textbook reference point.
# ---------------------------------------------------------------------------


class MesiHub(Hub):
    """Textbook directory MESI.  Differs from ``wi`` in what the home
    *remembers*: a GETX over a SHARED line clears the sharing vector
    (invalidated readers are forgotten), where the paper's protocols keep
    it as the predicted consumer set.  The detector never observes
    requests, so no line is ever marked producer-consumer."""

    # -- home side, without the detector or the preserved vector ----------

    def _home_gets(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        entry = self.home_memory.entry(addr)
        if entry.busy is not None:
            self._nack(requester, addr)
            return
        if entry.state is DirState.UNOWNED:
            # The E state: exclusive-clean grant on a read to an unowned
            # line, exactly as the base protocol does.
            entry.state = DirState.EXCL
            entry.owner = requester
            entry.sharers = set()
            self._send_after_dram(Message(
                MsgType.DATA_EXCL, src=self.node, dst=requester, addr=addr,
                value=entry.value, payload={"hops": 2, "n_acks": 0}))
        elif entry.state is DirState.SHARED:
            entry.sharers.add(requester)
            self._send_after_dram(Message(
                MsgType.DATA_SHARED, src=self.node, dst=requester, addr=addr,
                value=entry.value, payload={"hops": 2}))
        elif entry.state is DirState.EXCL:
            self._home_gets_from_owner_state(entry, msg, requester)
        else:
            raise self._protocol_error("GETS in state %s" % entry.state)

    def _home_getx(self, msg):
        addr, requester = msg.addr, msg.payload["requester"]
        entry = self.home_memory.entry(addr)
        if entry.busy is not None:
            self._nack(requester, addr)
            return
        if entry.state is DirState.UNOWNED:
            entry.state = DirState.EXCL
            entry.owner = requester
            self._send_after_dram(Message(
                MsgType.DATA_EXCL, src=self.node, dst=requester, addr=addr,
                value=entry.value, payload={"hops": 2, "n_acks": 0}))
        elif entry.state is DirState.SHARED:
            targets = self.dir_format.invalidation_targets(
                entry.sharers, requester, self.config.num_nodes)
            upgrade = (requester in entry.sharers
                       and msg.payload.get("has_copy", False))
            for target in sorted(targets):
                self.send(Message(MsgType.INV, src=self.node, dst=target,
                                  addr=addr,
                                  payload={"collector": requester}))
            hops = 3 if targets else 2
            entry.state = DirState.EXCL
            entry.owner = requester
            entry.sharers = set()  # MESI forgets invalidated readers
            if upgrade:
                self.send(Message(MsgType.ACK_X, src=self.node,
                                  dst=requester, addr=addr,
                                  payload={"hops": hops,
                                           "n_acks": len(targets)}))
            else:
                self._send_after_dram(Message(
                    MsgType.DATA_EXCL, src=self.node, dst=requester,
                    addr=addr, value=entry.value,
                    payload={"hops": hops, "n_acks": len(targets)}))
        elif entry.state is DirState.EXCL:
            self._home_getx_from_owner_state(entry, msg, requester)
        else:
            raise self._protocol_error("GETX in state %s" % entry.state)


def _normalize_mesi(config):
    protocol = config.protocol
    if not (protocol.enable_rac or protocol.enable_delegation
            or protocol.enable_updates):
        return config
    return config.with_protocol(enable_rac=False, enable_delegation=False,
                                enable_updates=False)


# ---------------------------------------------------------------------------
# Dragon-style updates: invalidate on write, publish after commit.
# ---------------------------------------------------------------------------


class DragonHub(Hub):
    """A Dragon-style update protocol on the directory fabric.

    Classic snooping Dragon never invalidates — every write broadcasts the
    new word to all sharers.  On this fabric stores commit only after all
    invalidation acks (that is what the online SC checker enforces), so
    the adaptation keeps the invalidate-on-write backbone and recovers
    Dragon's character by *publishing* after commit, unconditionally:

    * home-local writes reuse the adaptive delayed-intervention push
      (``_update_worthy_at_home`` returns True for every line — no
      detector gate, no strike pruning for remote writers);
    * a remote writer records which nodes acked its invalidations, and
      ``intervention_delay`` cycles after the write commits it downgrades
      its own copy and pushes the value to exactly those nodes;
    * each push demands an UPDATE_ACK; only when all consumers have acked
      does the writer report the downgrade home (a ``publish`` SHARED_WB
      that flips the directory EXCL->SHARED and replays any waiting
      request).  The ack gate is what makes a stale update unable to
      overtake a later invalidation: the home cannot invalidate the
      consumers again before it has heard the publish, which exists only
      after every consumer holds the pushed value.
    """

    def __init__(self, node, system):
        super().__init__(node, system)
        self._enable_updates = True  # config keeps delegation off; see below
        self._dragon_acks = {}    # addr -> nodes that acked our INVs
        self._publish_wait = {}   # addr -> {"missing": n, "value": v}
        self._publish_epoch = {}  # addr -> generation of scheduled publish

    # -- home-local writes: the adaptive push, ungated ---------------------

    def _update_worthy_at_home(self, addr):
        return True  # Dragon updates unconditionally; no detector gate

    # -- remote writes: record the invalidated readers ---------------------

    def _on_inv_ack(self, msg):
        miss = self._active_miss(msg.addr, MissKind.WRITE)
        if miss is not None:
            self._dragon_acks.setdefault(msg.addr, set()).add(msg.src)
        super()._on_inv_ack(msg)

    def _complete_miss(self, miss, path):
        if miss.done:
            return
        addr, kind = miss.addr, miss.kind
        super()._complete_miss(miss, path)
        if kind is not MissKind.WRITE:
            return
        targets = self._dragon_acks.pop(addr, None)
        if not targets or self.address_map.home_of(addr) == self.node:
            return  # home-local writes publish via _fire_intervention
        epoch = self._publish_epoch.get(addr, 0) + 1
        self._publish_epoch[addr] = epoch
        self.events.schedule(self.config.protocol.intervention_delay,
                             self._dragon_publish, addr, sorted(targets),
                             epoch)

    def _dragon_publish(self, addr, targets, epoch):
        if self._publish_epoch.get(addr) != epoch:
            return
        if not self.hierarchy.state_of(addr).writable:
            # Evicted (writeback in flight) or intervened away: the home
            # learns the value through that path instead.
            return
        self.stats.inc(S.INTERVENTIONS)
        value = self.hierarchy.downgrade(addr)
        if self.tracer is not None:
            self.tracer.update_push(self.node, addr, self.events.now,
                                    targets=len(targets), pruned=0)
        self._publish_wait[addr] = {"missing": len(targets), "value": value}
        for consumer in targets:
            self.stats.inc(S.UPDATES_SENT)
            self.send(Message(MsgType.UPDATE, src=self.node, dst=consumer,
                              addr=addr, value=value,
                              payload={"hops": 2, "ack": True}))

    def _on_update_ack(self, msg):
        wait = self._publish_wait.get(msg.addr)
        if wait is None:
            super()._on_update_ack(msg)
            return
        wait["missing"] -= 1
        if wait["missing"] <= 0:
            del self._publish_wait[msg.addr]
            self.send(Message(
                MsgType.SHARED_WB, src=self.node,
                dst=self.address_map.home_of(msg.addr), addr=msg.addr,
                value=wait["value"], payload={"publish": True}))

    # -- home side of a publish --------------------------------------------

    def _on_shared_wb(self, msg):
        if not msg.payload.get("publish"):
            super()._on_shared_wb(msg)
            return
        entry = self.home_memory.entry(msg.addr)
        entry.value = msg.value
        if entry.state is not DirState.EXCL or entry.owner != msg.src:
            return  # ownership moved on; the new owner's path carries truth
        entry.state = DirState.SHARED
        # The preserved vector (inherited _home_getx) is exactly the set
        # the writer just updated; they hold fresh copies again.
        entry.sharers = set(entry.sharers) | {msg.src}
        entry.owner = None
        busy = entry.busy
        if busy is not None:
            # An intervention raced the publish window (the writer NACKed
            # it "no_copy" after downgrading): the publish resolves it.
            pending = busy.req_msg
            entry.busy = None
            self.dispatch(pending)

    def _home_intervention_nacked(self, msg):
        entry = self.home_memory.entry(msg.addr)
        if entry.busy is not None and entry.owner != msg.src:
            # A stale NACK from a previous owner whose publish already
            # resolved that busy record; the current busy belongs to a
            # newer transaction with a different owner.
            return
        super()._home_intervention_nacked(msg)


def _normalize_dragon(config):
    protocol = config.protocol
    if (protocol.enable_rac and not protocol.enable_delegation
            and not protocol.enable_updates):
        return config
    # The RAC is where consumers keep pushed values; delegation stays off
    # (the hub re-enables the update machinery internally).
    return config.with_protocol(enable_rac=True, enable_delegation=False,
                                enable_updates=False)


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

PROTOCOLS = {
    "adaptive": Protocol(
        "adaptive", Hub,
        "paper's adaptive delegation/update protocol (mc-model twin)"),
    "wi": Protocol(
        "wi", Hub,
        "explicit write-invalidate baseline (no delegation, no updates)",
        normalize=_normalize_wi),
    "mesi": Protocol(
        "mesi", MesiHub,
        "textbook directory MESI (no RAC, no preserved sharing vector)",
        normalize=_normalize_mesi),
    "dragon": Protocol(
        "dragon", DragonHub,
        "Dragon-style update protocol (unconditional ack-gated publish)",
        normalize=_normalize_dragon),
}

#: Arena sweep order: the paper's protocol first, then the baselines.
ARENA_PROTOCOLS = ("adaptive", "wi", "mesi", "dragon")


def protocol_names():
    return list(PROTOCOLS)


def resolve_protocol(name):
    """Look up a protocol by name; raises ConfigError on unknown names."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigError("unknown protocol %r (known: %s)"
                          % (name, ", ".join(sorted(PROTOCOLS)))) from None


__all__ = [
    "ARENA_PROTOCOLS", "DragonHub", "MesiHub", "PROTOCOLS", "Protocol",
    "protocol_names", "resolve_protocol",
]
