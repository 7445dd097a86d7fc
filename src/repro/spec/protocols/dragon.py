"""Guarded-action spec for the Dragon-style update arena baseline.

Dragon is the ``wi`` baseline plus an update pair: a producer that
regains exclusivity pushes ``UPDATE`` messages to its reader set instead
of letting them re-miss, collects ``UPDATE_ACK`` replies, and publishes
the line back to the Shared directory state with ``SHARED_WB`` once the
acknowledgement count drains.  This module declares only those parts;
the registry composes them onto ``wi`` (:meth:`~repro.spec.lang.
ProtocolSpec.plus`), so the invalidate backbone has one encoding, in
``adaptive.py``.  The four ``SHARED_WB`` arms replace wi's single stale
arm, since a publish arrives at a home that is not waiting for one.

No model twin exists (``mc_model=""``): these transitions name no
kernels.  The composed spec feeds the SPC static checks and decides the
simulator's dispatch: the hub serves exactly the messages some
transition handles, so a delegation message raises
``UnhandledMessageError`` on delivery.
"""

from repro.spec.lang import Extension, Msg, T

_UPDATE_WHY = ("completing a write miss can trigger the update push to "
               "the recorded reader set")

TRANSITIONS = (
    # -- the push, after a write miss completes --------------------------
    T("producer", "DATA_EXCL", emit=("UPDATE",),
      label="data_e_update_push", tags=("also",), why=_UPDATE_WHY),
    T("producer", "ACK_X", emit=("UPDATE",),
      label="ack_x_update_push", tags=("also",), why=_UPDATE_WHY),
    T("producer", "INV_ACK", emit=("UPDATE",),
      label="inv_ack_update_push", tags=("also",), why=_UPDATE_WHY),

    # -- the update pair --------------------------------------------------
    T("node", "UPDATE", emit=("UPDATE_ACK",), label="update_apply"),
    T("producer", "UPDATE_ACK", (("pend", ("some",)),),
      label="update_ack_count"),
    T("producer", "UPDATE_ACK", (("pend", ("zero",)),),
      emit=("SHARED_WB",), goes=(("cache", "S"),),
      label="update_ack_drain_publish"),

    # -- the publish at the home -----------------------------------------
    T("home", "SHARED_WB", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("yes",))),
      goes=(("dir", "S"),), label="sh_wb_publish"),
    T("home", "SHARED_WB", (("busy", ("none",)), ("dir", ("U", "S"))),
      label="sh_wb_stale_dir"),
    T("home", "SHARED_WB", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("no",))),
      label="sh_wb_stale_owner"),
    T("home", "SHARED_WB", (("busy", ("int_x", "wb")),),
      label="sh_wb_stale_busy"),
)

SPEC = Extension(
    name="dragon",
    base="wi",
    description="Dragon-style update baseline: WI plus an UPDATE / "
                "UPDATE_ACK push pair that republishes the line as "
                "Shared when the ack count drains",
    messages=(
        Msg("UPDATE", mc=("UPDATE",), data=True, role="request"),
        Msg("UPDATE_ACK", mc=("UPDATE_ACK",), role="ack",
            reply_to=("UPDATE",)),
    ),
    domains={"pend": ("zero", "some")},
    transitions=TRANSITIONS,
    replaces=("sh_wb_stale",),
)
