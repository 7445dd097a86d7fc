"""Transaction records used by the hub controller.

Two kinds of in-flight bookkeeping exist:

* :class:`OutstandingMiss` — the requester side.  Processors are in-order
  and blocking, so each node has at most one processor-initiated miss in
  flight, plus possibly one local producer-side write transaction (which
  is the same record, since the processor is blocked on it).
* :class:`BusyRecord` — the home/acting-home side, attached to a directory
  entry while a multi-message transaction (intervention, undelegation) is
  pending.  Requests that find a BusyRecord are NACKed.
"""

import enum


class MissKind(enum.Enum):
    READ = "read"
    WRITE = "write"


# Each kind's trace span name ("miss.read", "miss.write"), a plain member
# attribute so the requester's traced branch neither formats it per miss
# nor calls Enum's Python-level ``value`` property.
for _kind in MissKind:
    _kind.span_kind = "miss." + _kind.value
del _kind


class PathClass(enum.Enum):
    """Critical-path classification of a completed miss (paper's taxonomy)."""

    LOCAL = "local"       # no network messages on the critical path
    TWO_HOP = "2hop"      # requester <-> (acting) home only
    THREE_HOP = "3hop"    # a third party (owner/sharer/forward) intervened


class OutstandingMiss:
    """One processor-initiated miss from issue to completion.

    Slotted: one is allocated per processor miss and its fields are read
    on every reply/ack/NACK on the miss path.
    """

    __slots__ = ("addr", "kind", "callback", "store_value", "start_time",
                 "target", "acks_needed", "acks_got", "granted",
                 "grant_state", "grant_value", "path", "retries", "done",
                 "pending_inv")

    def __init__(self, addr, kind, callback, store_value=0, start_time=0,
                 target=None, acks_needed=None, acks_got=0, granted=False,
                 grant_state=None, grant_value=0, path=PathClass.TWO_HOP,
                 retries=0, done=False, pending_inv=False):
        self.addr = addr
        self.kind = kind
        self.callback = callback  # invoked as callback(path_class) when done
        self.store_value = store_value
        self.start_time = start_time
        self.target = target
        self.acks_needed = acks_needed  # None until the grant arrives
        self.acks_got = acks_got
        self.granted = granted
        self.grant_state = grant_state  # LineState to fill with
        self.grant_value = grant_value
        self.path = path
        self.retries = retries
        self.done = done
        self.pending_inv = pending_inv  # an INV raced this read; drop line after use

    def complete_when_ready(self):
        """True when both the grant and every expected ack have arrived."""
        return (self.granted and self.acks_needed is not None
                and self.acks_got >= self.acks_needed)


class BusyKind(enum.Enum):
    INTERVENTION = "intervention"   # waiting for owner downgrade/transfer
    WB_RACE = "wb_race"             # owner's copy gone; waiting for writeback
    UNDELEGATE = "undelegate"       # waiting for the producer's UNDELE
    INVALIDATING = "invalidating"   # producer collecting INV acks locally


class BusyRecord:
    """Attached to a DirectoryEntry while a home-side transaction runs."""

    __slots__ = ("kind", "requester", "req_msg", "acks_needed", "acks_got",
                 "info")

    def __init__(self, kind, requester=None, req_msg=None, acks_needed=0,
                 acks_got=0, info=None):
        self.kind = kind
        self.requester = requester
        self.req_msg = req_msg   # buffered request to replay
        self.acks_needed = acks_needed
        self.acks_got = acks_got
        self.info = {} if info is None else info
