"""Coherence message vocabulary.

Every inter-node interaction in the protocol is one of these message types.
Wire sizes follow the paper's NUMALink model: a 32-byte minimum
(header-only) packet, plus a full 128-byte cache line for data-bearing
messages.  :class:`~repro.network.fabric.Fabric` does that accounting; the
evaluation's "network messages" and traffic-byte figures count exactly what
goes through :meth:`~repro.network.fabric.Fabric.send`.

``Message`` is a plain slotted class: the sim core allocates one per hop of
every transaction, so it carries no per-instance dict.  ``msg_id``
numbering is a pure function of construction order since the last
:func:`reset_msg_ids`, so reprs, traces and ``ProtocolError`` text replay
byte-for-byte.
"""

import enum
import itertools
from types import MappingProxyType


class MsgType(enum.Enum):
    """All network message types, with ``data`` marking data-bearing ones."""

    # -- processor-initiated requests
    GETS = ("GETS", False)                # read-shared request
    GETX = ("GETX", False)                # read-exclusive / upgrade request

    # -- home/owner replies
    DATA_SHARED = ("DATA_SHARED", True)   # shared data reply
    DATA_EXCL = ("DATA_EXCL", True)       # exclusive data reply ("spec reply")
    ACK_X = ("ACK_X", False)              # exclusive grant without data (upgrade)

    # -- invalidation / intervention
    INV = ("INV", False)                  # invalidate a shared copy
    INV_ACK = ("INV_ACK", False)          # invalidation acknowledgement
    INTERVENTION = ("INTERVENTION", False)  # downgrade owner to SHARED
    SHARED_WB = ("SHARED_WB", True)       # owner -> home: downgraded data
    SHARED_RESP = ("SHARED_RESP", True)   # owner -> requester: shared data
    EXCL_RESP = ("EXCL_RESP", True)       # owner -> requester: ownership + data
    XFER_OWNER = ("XFER_OWNER", False)    # owner -> home: ownership moved

    # -- writeback
    WRITEBACK = ("WRITEBACK", True)       # dirty eviction, carries data
    EVICT_CLEAN = ("EVICT_CLEAN", False)  # clean-exclusive eviction notice
    WB_ACK = ("WB_ACK", False)

    # -- flow control
    NACK = ("NACK", False)                # busy, retry at same target
    NACK_NOT_HOME = ("NACK_NOT_HOME", False)  # stale delegation hint, retry at home

    # -- delegation (paper §2.3)
    DELEGATE = ("DELEGATE", True)         # home -> producer: dir info + data
    UNDELE = ("UNDELE", True)             # producer -> home: dir info + data
    UNDELE_REQ = ("UNDELE_REQ", False)    # home -> producer: recall delegation
    HOME_CHANGED = ("HOME_CHANGED", False)  # home -> requester: delegation hint

    # -- speculative updates (paper §2.4)
    UPDATE = ("UPDATE", True)             # producer -> consumer: pushed data
    UPDATE_ACK = ("UPDATE_ACK", False)    # consumer -> producer: receipt ack
    # UPDATE_ACK exists for a correctness reason the model checker found:
    # undelegation must not return the directory to the home while pushed
    # updates are still in flight, or a later INV from the *home* (a
    # different FIFO channel) can be overtaken by a stale update.

    def __init__(self, label, data_bearing):
        self.label = label
        self.data_bearing = data_bearing


# Dense per-type attributes for the hot path, assigned after the enum is
# sealed (enum members reject new attributes only during class creation):
#   index        — 0..N-1 position, used by the hub's pre-bound handler
#                  array and the fabric's per-type size table
#   sent_counter — the fully-formed "msg.sent.<LABEL>" stats key, so the
#                  fabric does not rebuild the string per send
for _i, _member in enumerate(MsgType):
    _member.index = _i
    _member.sent_counter = "msg.sent." + _member.label
del _i, _member

NUM_MSG_TYPES = len(MsgType)

#: Shared immutable empty payload.  Header-only messages (the majority —
#: every NACK, INV, ack...) used to allocate a fresh dict each; now they
#: share this sentinel.  It supports the full read API (``.get``,
#: ``[...]``, ``dict(...)``, truthiness) and raises on mutation, which is
#: exactly the aliasing guarantee a per-message empty dict gave us.
EMPTY_PAYLOAD = MappingProxyType({})


_msg_ids = itertools.count()


def reset_msg_ids():
    """Restart the message-id sequence.

    ``System`` calls this at construction so message numbering — which
    appears in reprs, traces and ``ProtocolError`` text — is a pure
    function of the run, not of how many messages earlier simulations in
    the same process happened to allocate.  Without the reset, a fuzz
    repro artifact whose failure message embeds a ``Msg#`` would never
    replay byte-for-byte.
    """
    global _msg_ids
    _msg_ids = itertools.count()


class Message:
    """One network packet.

    ``payload`` carries protocol metadata that would ride in real packet
    fields: requester identity, directory snapshots for DELEGATE/UNDELE,
    pending-request info, etc.  ``value`` is the cache-line data image for
    data-bearing types.  A fresh ``msg_id`` is drawn unless the caller
    pins one.
    """

    __slots__ = ("mtype", "src", "dst", "addr", "value", "payload", "msg_id")

    def __init__(self, mtype, src, dst, addr, value=0, payload=EMPTY_PAYLOAD,
                 msg_id=None):
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.addr = addr
        self.value = value
        self.payload = payload
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id

    def __repr__(self):
        return "Msg#%d(%s %d->%d 0x%x)" % (
            self.msg_id, self.mtype.label, self.src, self.dst, self.addr)
