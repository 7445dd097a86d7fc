"""Fault injection at the network layer (the fuzz subsystem's chaos hook).

A :class:`ChaosPolicy` plugs into :class:`~repro.network.fabric.Fabric` and
perturbs message delivery without touching any protocol handler:

* **Delay jitter** — every remote message may arrive up to ``delay_jitter``
  cycles later than the topology says.
* **Bounded reordering** — with probability ``reorder_prob`` a message gets
  an extra bump of up to ``reorder_window`` cycles, letting it fall behind
  messages sent later on *other* channels.
* **Duplication** — idempotent messages are occasionally delivered twice.
* **Forced NACKs** — a retried request (GETS/GETX, INTERVENTION,
  UNDELE_REQ) is occasionally bounced with a protocol-legal NACK instead
  of being delivered, as if the target had been busy.

Two properties keep every perturbation *protocol-legal* (hostile schedules,
never impossible ones):

1. **Pairwise FIFO is preserved.**  The protocol relies on per-(src, dst)
   channel ordering (see the UPDATE_ACK note in
   :mod:`repro.spec.protocols.adaptive`): jittered arrivals are clamped to be
   non-decreasing per channel, so reordering only happens *across*
   channels — exactly the freedom a real fat-tree has.
2. **Only genuinely idempotent/retried traffic is duplicated or bounced.**
   Duplicating a NACK would double a requester's retry stream (two
   requests in flight for one miss); duplicating an INV_ACK would complete
   a write early.  The safe duplication set is WB_ACK, HOME_CHANGED and
   ack-less UPDATE; the safe bounce set is the three request types whose
   NACK paths the protocol already retries.  Forced NACKs use the reasons
   that mean "retry later" ("miss"/"busy"), never "no_copy"/"gone" (those
   make the home wait for a writeback that will never come).

A total ``force_nack_budget`` bounds injected NACKs so every run still
terminates; delay and reordering are finite by construction.
"""

from collections import defaultdict
from dataclasses import asdict, dataclass

from ..common.errors import ConfigError
from ..common.rng import stream
from .message import Message, MsgType

#: Message types that are safe to deliver twice.  WB_ACK is ignored by the
#: requester; HOME_CHANGED re-inserts the same hint; an ack-less UPDATE
#: re-lands the same value in the RAC (ack-bearing UPDATEs are excluded:
#: a doubled UPDATE_ACK would release an undelegation early).
_DUPLICABLE = frozenset({MsgType.WB_ACK, MsgType.HOME_CHANGED, MsgType.UPDATE})

#: Request types whose delivery may be replaced by a protocol-legal NACK.
_NACKABLE = frozenset({MsgType.GETS, MsgType.GETX, MsgType.INTERVENTION,
                       MsgType.UNDELE_REQ})


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one fault-injection policy (all JSON-safe scalars).

    The all-zero default injects nothing; :attr:`enabled` is False then and
    the simulator installs no policy at all.
    """

    seed: int = 0
    delay_jitter: int = 0        # max extra arrival delay per remote message
    reorder_prob: float = 0.0    # P(a message gets an extra reorder bump)
    reorder_window: int = 0      # max size of that bump, in cycles
    duplicate_prob: float = 0.0  # P(an idempotent message is delivered twice)
    force_nack_prob: float = 0.0  # P(a request delivery becomes a NACK)
    force_nack_budget: int = 64  # total forced NACKs per run (progress bound)

    def __post_init__(self):
        for name in ("delay_jitter", "reorder_window", "force_nack_budget"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0" % name)
        for name in ("reorder_prob", "duplicate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError("%s must be in [0, 1]" % name)
        # A NACK probability of 1.0 would starve a single-target workload
        # outright; cap it so forward progress only leans on the budget.
        if not 0.0 <= self.force_nack_prob <= 0.9:
            raise ConfigError("force_nack_prob must be in [0, 0.9]")
        if self.reorder_prob and not self.reorder_window:
            raise ConfigError("reorder_prob needs a reorder_window")

    @property
    def enabled(self):
        return bool(self.delay_jitter or self.reorder_prob
                    or self.duplicate_prob or self.force_nack_prob)


def chaos_to_dict(config):
    """JSON-safe dict form of a :class:`ChaosConfig` (None passes through)."""
    return None if config is None else asdict(config)


def chaos_from_dict(doc):
    """Inverse of :func:`chaos_to_dict`."""
    return None if doc is None else ChaosConfig(**doc)


class ChaosPolicy:
    """Stateful per-run fault injector driven by one :class:`ChaosConfig`.

    The fabric consults it at two points: :meth:`arrival` when a remote
    message is put on the wire (jitter/reorder + the FIFO clamp, and, for
    :attr:`duplicable` types, the duplication decision via
    :meth:`duplicate_arrival`), and :meth:`forced_nack` when a
    :attr:`bounceable` message is about to be handed to the destination
    hub.  All randomness comes from one named stream off the chaos seed,
    so a (config, workload) pair replays identically.
    """

    def __init__(self, config, stats=None):
        self.config = config
        self._rng = stream(config.seed, "chaos")
        self._channel_floor = {}  # (src, dst) -> latest arrival booked
        self._nack_budget = config.force_nack_budget
        # The knobs read per message, off the frozen config once.
        self._delay_jitter = config.delay_jitter
        self._reorder_prob = config.reorder_prob
        self._reorder_window = config.reorder_window
        self._duplicate_prob = config.duplicate_prob
        self._force_nack_prob = config.force_nack_prob
        # Which types this policy can bounce or duplicate, indexed by
        # MsgType.index (a list read, not an Enum hash).  The fabric sends
        # only bounceable types through its delivery hook and asks for a
        # duplicate only of duplicable ones: for every other type the
        # hooks return None before any draw.
        self.bounceable = [bool(config.force_nack_prob) and mtype in _NACKABLE
                           for mtype in MsgType]
        self.duplicable = [bool(config.duplicate_prob)
                           and mtype in _DUPLICABLE for mtype in MsgType]
        # Injected events are counted in place; without a Stats they land
        # in a private sink.
        self._counters = (defaultdict(int) if stats is None
                          else stats._counters)

    @classmethod
    def resolve(cls, chaos, stats=None):
        """Normalise ``chaos`` (None | ChaosConfig | ChaosPolicy) to a
        policy or None; an all-zero config resolves to None (no policy)."""
        if chaos is None:
            return None
        if isinstance(chaos, ChaosConfig):
            return cls(chaos, stats=stats) if chaos.enabled else None
        return chaos

    # -- send-time hooks ----------------------------------------------------

    def arrival(self, msg, arrival):
        """Perturbed arrival time for ``msg``, clamped so arrivals on the
        (src, dst) channel stay non-decreasing (pairwise FIFO)."""
        if self._delay_jitter:
            extra = self._rng.randrange(self._delay_jitter + 1)
            if extra:
                self._counters["chaos.delayed"] += 1
            arrival += extra
        if self._reorder_prob and self._rng.random() < self._reorder_prob:
            arrival += self._rng.randrange(self._reorder_window + 1)
            self._counters["chaos.reordered"] += 1
        return self._book(msg, arrival)

    def duplicate_arrival(self, msg, arrival):
        """Arrival time for an injected duplicate of ``msg``, or None.

        Only idempotent types are duplicated; the duplicate trails the
        original and raises the channel floor so later traffic on the same
        channel cannot overtake it.
        """
        if not self.duplicable[msg.mtype.index]:
            return None
        if msg.mtype is MsgType.UPDATE and msg.payload.get("ack"):
            return None  # a doubled UPDATE_ACK would undercount pending pushes
        if self._rng.random() >= self._duplicate_prob:
            return None
        self._counters["chaos.duplicated"] += 1
        return self._book(msg, arrival + 1 + self._rng.randrange(8))

    def _book(self, msg, arrival):
        key = (msg.src, msg.dst)
        floor = self._channel_floor.get(key)
        if floor is not None and arrival < floor:
            arrival = floor
        self._channel_floor[key] = arrival
        return arrival

    # -- delivery-time hook -------------------------------------------------

    def forced_nack(self, msg):
        """A NACK to send *instead of* delivering ``msg``, or None.

        Models the destination hub bouncing a request exactly as it would
        had the line been busy: the home/delegate never sees the request,
        the existing retry machinery takes it from there.
        """
        mtype = msg.mtype
        if not self.bounceable[mtype.index] or self._nack_budget <= 0:
            return None
        if mtype is MsgType.GETS or mtype is MsgType.GETX:
            victim = msg.payload.get("requester")
            payload = {"for": "miss", "chaos": True}
        elif mtype is MsgType.INTERVENTION:
            victim = msg.src
            payload = {"for": "intervention", "reason": "busy", "chaos": True}
        else:  # UNDELE_REQ
            victim = msg.src
            payload = {"for": "recall", "reason": "busy", "chaos": True}
        if victim is None or self._rng.random() >= self._force_nack_prob:
            return None
        self._nack_budget -= 1
        self._counters["chaos.forced_nack"] += 1
        return Message(MsgType.NACK, src=msg.dst, dst=victim, addr=msg.addr,
                       payload=payload)
