"""The pluggable protocol arena: baselines the adaptive protocol races.

The paper's headline claim is that adaptive delegation/update beats plain
write-invalidate on producer-consumer sharing.  This module supplies the
competitors, one :class:`Protocol` per spec in
:data:`repro.spec.registry.SPEC_NAMES`:

``adaptive``
    The paper's protocol — delegation, speculative updates, the detector —
    exactly as :class:`~repro.protocol.hub.Hub` implements it.
``wi``
    Explicit write-invalidate: adaptive's spec without delegation and
    updates, so the config loses both; the RAC (if configured) stays.
``mesi``
    Textbook directory MESI: adaptive's spec also without the RAC and the
    preserved sharing vector, so a GETX clears the old reader set instead
    of keeping it as the paper's "most recent consumer" approximation
    (§2.4.2), and the detector, which counts from that vector, observes
    nothing.
``dragon``
    A Dragon-style update protocol adapted to this directory fabric:
    writes still invalidate (the memory model is checked against
    sequential consistency, so consumers may never observe a store early),
    but after every write commits the writer pushes the new value to the
    just-invalidated readers, ack-gated so an update can never be
    overtaken by a later invalidation.  Unconditional updates — no
    producer-consumer detector, no pruning.

The spec is the only place the simulator learns what a protocol leaves
out.  Its handled set is the hub's dispatch set: :class:`~repro.protocol.
hub.Hub` holds the one ``MsgType`` -> method map and maps every type the
spec does not handle (e.g. DELEGATE under ``wi``) to ``_unhandled``,
which raises the structured
:class:`~repro.common.errors.UnhandledMessageError`.  Its features
(:attr:`Protocol.features`) turn configuration flags off
(:data:`FEATURE_FLAGS`), and the hub reads ``consumer_vector`` itself.
Only ``dragon`` needs a hub class of its own, for the behaviour it adds.

This file is deliberately *not* in ``repro.lint``'s
``SIM_PROTOCOL_FILES``: the lint graph models the adaptive protocol;
``DragonHub``'s overrides are covered by its spec and the per-protocol
status in the lint report instead (see :func:`repro.lint.run_lint`).
"""

from functools import cached_property

from ..common import stats as S
from ..common.errors import ConfigError
from ..directory.state import DirState
from ..network.message import Message, MsgType
from ..spec.registry import SPEC_NAMES, get_spec
from .hub import Hub
from .transactions import MissKind

#: Spec feature -> the ``ProtocolConfig`` flag that switches it on.  A
#: protocol whose spec lacks the feature runs with the flag off.
FEATURE_FLAGS = (("rac", "enable_rac"),
                 ("delegation", "enable_delegation"),
                 ("updates", "enable_updates"))


class Protocol:
    """One pluggable coherence protocol: a spec name and a hub class.

    ``handled`` (the spec's handled messages, the hub's dispatch set) and
    ``features`` (the names of the spec's features) are loaded on first
    use — the first hub built in the process — not at import: loading the
    specs is a cost runs that build no System should not pay.
    """

    def __init__(self, name, hub_class=Hub):
        self.name = name
        self.hub_class = hub_class

    @cached_property
    def _spec(self):
        return get_spec(self.name)

    @cached_property
    def handled(self):
        return self._spec.handled()

    @cached_property
    def features(self):
        return frozenset(feature.name for feature in self._spec.features)

    def normalize_config(self, config):
        """``config`` with each flag whose feature the spec lacks turned
        off and each flag the hub class ``requires`` turned on; ``config``
        itself when nothing moves, so adaptive's is byte-for-byte
        untouched."""
        protocol = config.protocol
        changes = {flag: False for feature, flag in FEATURE_FLAGS
                   if feature not in self.features
                   and getattr(protocol, flag)}
        changes.update((flag, True) for flag in self.hub_class.requires
                       if not getattr(protocol, flag))
        return config.with_protocol(**changes) if changes else config

    def __repr__(self):
        return "Protocol(%r)" % self.name


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

    #: Consumers keep pushed values in the RAC.
    requires = ("enable_rac",)

    def __init__(self, node, system):
        super().__init__(node, system)
        # The spec has no ``updates`` feature, so the config's flag is off
        # (with delegation); the publish path below drives the pushes.
        self._enable_updates = True
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
            self.tracer.update_push(self.node, addr, self.events._now,
                                    targets=len(targets), pruned=0)
        self._publish_wait[addr] = {"missing": len(targets), "value": value}
        self._push_updates(targets, addr, value, ack=True)

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
        # The writer pushed to every node that acked its INVs: the format's
        # observed set of the preserved vector (inherited _home_getx), so
        # under coarse or limited formats copies sit outside the vector.
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


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

PROTOCOLS = {name: Protocol(name, DragonHub if name == "dragon" else Hub)
             for name in SPEC_NAMES}


def resolve_protocol(name):
    """Look up a protocol by name; raises ConfigError on unknown names."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigError("unknown protocol %r (known: %s)"
                          % (name, ", ".join(sorted(PROTOCOLS)))) from None


__all__ = ["DragonHub", "FEATURE_FLAGS", "PROTOCOLS", "Protocol",
           "resolve_protocol"]
