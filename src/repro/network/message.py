"""Coherence message vocabulary.

Every inter-node interaction in the protocol is one of these message types.
The vocabulary is declared once, by ``MESSAGES`` in the adaptive protocol's
spec (:mod:`repro.spec.protocols.adaptive`): :data:`MsgType` is built from
it, one member per ``Msg`` in spec order, so the simulator, ``repro lint``
and the model checker cannot disagree on which messages exist or which
carry data.  Wire sizes follow the paper's NUMALink model: a 32-byte minimum
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

from ..spec.protocols.adaptive import MESSAGES


class _MsgTypeBase(enum.Enum):
    def __init__(self, label, data_bearing):
        self.label = label
        self.data_bearing = data_bearing


#: All network message types, in the adaptive spec's declaration order:
#: each member's value is ``(Msg.name, Msg.data)``, so ``data_bearing``
#: marks the data-bearing ones.
MsgType = _MsgTypeBase("MsgType", [(msg.name, (msg.name, msg.data))
                                   for msg in MESSAGES],
                       module=__name__, qualname="MsgType")

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
