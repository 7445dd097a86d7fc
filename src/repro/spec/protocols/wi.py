"""Guarded-action spec for the writer-invalidate (WI) arena baseline.

WI is the paper's non-adaptive invalidation baseline: MESI semantics plus
the shared hub router's stale-home bounce path (``NACK_NOT_HOME``), which
the protocol inherits from the common hub code even though WI never
migrates the home — those transitions are ``latent``-tagged.

No model-checker twin exists for WI (``mc_model=""``); the spec feeds the
SPC static checks and decides the simulator's dispatch: the hub serves
exactly the messages some transition here handles, so a delegation or
update message raises ``UnhandledMessageError`` on delivery.  The ``mc``
token names document the mapping a twin would use and let the
payload-discriminated NACK family split into per-token ``via`` groups
for the guard analyses.
"""

from repro.spec.lang import Msg, ProtocolSpec, T

_LATENT_WHY = ("the shared hub router exposes the stale-home bounce to "
               "every arena protocol; WI never migrates the home, so the "
               "path is statically present but cannot fire")
_WB_ACK_WHY = "sim-internal ack round-trip; WI has no model twin"

MESSAGES = (
    Msg("GETS", mc=("GETS",), role="request"),
    Msg("GETX", mc=("GETX",), role="request"),
    Msg("DATA_SHARED", mc=("DATA_S",), data=True, role="reply",
        reply_to=("GETS",)),
    Msg("DATA_EXCL", mc=("DATA_E",), data=True, role="reply",
        reply_to=("GETS", "GETX")),
    Msg("ACK_X", mc=("ACK_X",), role="ack", reply_to=("GETX",)),
    Msg("INV", mc=("INV",), role="request"),
    Msg("INV_ACK", mc=("INV_ACK",), role="ack", reply_to=("INV",)),
    Msg("WRITEBACK", mc=("WB",), data=True, role="request"),
    Msg("EVICT_CLEAN", mc=("EVC",), role="request"),
    Msg("WB_ACK", mc=(), role="ack", reply_to=("WRITEBACK", "EVICT_CLEAN"),
        note=_WB_ACK_WHY),
    Msg("NACK", mc=("NACK", "NACKI"), role="reply",
        reply_to=("GETS", "GETX", "INTERVENTION")),
    Msg("NACK_NOT_HOME", mc=("NACKNH",), role="reply",
        reply_to=("GETS", "GETX")),
    Msg("INTERVENTION", mc=("INT",), role="request"),
    Msg("SHARED_WB", mc=("SH_WB",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("SHARED_RESP", mc=("SH_RESP",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("EXCL_RESP", mc=("EX_RESP",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("XFER_OWNER", mc=("XFER",), role="reply",
        reply_to=("INTERVENTION",)),
)

DOMAINS = {
    "at": ("home", "stale"),
    "busy": ("none", "int_s", "int_x", "wb"),
    "dir": ("U", "S", "E"),
    "cpu": ("idle", "R", "W"),
    "cache": ("I", "S", "E", "M"),
    "raced": ("yes", "no"),
    "upgrade": ("yes", "no"),
    "owner_is_requester": ("yes", "no"),
    "owner_is_src": ("yes", "no"),
    "ireason": ("busy", "no_copy"),
    "wb_flag": ("yes", "no"),
    "mode": ("s", "x"),
}

TRANSITIONS = (
    # -- GETS -------------------------------------------------------------
    T("home", "GETS", (("at", ("stale",)),), emit=("NACK_NOT_HOME",),
      label="gets_stale_bounce", tags=("latent",), why=_LATENT_WHY),
    T("home", "GETS", (("at", ("home",)),
                       ("busy", ("int_s", "int_x", "wb"))),
      emit=("NACK",), label="gets_busy_nack"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="gets_unowned"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",))),
      emit=("DATA_SHARED",), label="gets_shared"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="gets_own_wb_race"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_s"),),
      label="gets_intervene"),

    # -- GETX -------------------------------------------------------------
    T("home", "GETX", (("at", ("stale",)),), emit=("NACK_NOT_HOME",),
      label="getx_stale_bounce", tags=("latent",), why=_LATENT_WHY),
    T("home", "GETX", (("at", ("home",)),
                       ("busy", ("int_s", "int_x", "wb"))),
      emit=("NACK",), label="getx_busy_nack"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="getx_unowned"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",)), ("upgrade", ("yes",))),
      emit=("INV", "ACK_X"), goes=(("dir", "E"),), label="getx_upgrade"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",)), ("upgrade", ("no",))),
      emit=("INV", "DATA_EXCL"), goes=(("dir", "E"),),
      label="getx_shared"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="getx_own_wb_race"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_x"),),
      label="getx_intervene"),

    # -- data replies -----------------------------------------------------
    T("node", "DATA_SHARED", (("cpu", ("idle", "W")),),
      label="data_s_stale"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "S"),), label="data_s_install"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("yes",))),
      label="data_s_raced_drop"),
    T("node", "DATA_EXCL", (("cpu", ("idle",)),), label="data_e_stale"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="data_e_install"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="data_e_raced_drop"),
    T("node", "DATA_EXCL", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="data_e_grant"),
    T("node", "ACK_X", (("cpu", ("idle", "R")),), label="ack_x_stale"),
    T("node", "ACK_X", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="ack_x_grant"),

    # -- invalidation -----------------------------------------------------
    T("node", "INV", emit=("INV_ACK",), goes=(("cache", "I"),),
      label="inv_apply"),
    T("node", "INV_ACK", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="inv_ack_count"),
    T("node", "INV_ACK", (("cpu", ("idle", "R")),),
      label="inv_ack_stale", tags=("unreachable",)),

    # -- interventions ----------------------------------------------------
    T("node", "INTERVENTION", (("cpu", ("R", "W")),),
      emit=("NACK",), label="int_busy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("I", "S"))),
      emit=("NACK",), label="int_no_copy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("s",))),
      emit=("SHARED_WB", "SHARED_RESP"), goes=(("cache", "S"),),
      label="int_serve_shared"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("x",))),
      emit=("EXCL_RESP", "XFER_OWNER"), goes=(("cache", "I"),),
      label="int_serve_excl"),

    # -- NACK family ------------------------------------------------------
    T("node", "NACK", (("cpu", ("R",)),), emit=("GETS",),
      via="NACK", label="nack_retry_read"),
    T("node", "NACK", (("cpu", ("W",)),), emit=("GETX",),
      via="NACK", label="nack_retry_write"),
    T("node", "NACK", (("cpu", ("idle",)),), via="NACK",
      label="nack_stale"),
    T("home", "NACK", (("busy", ("none",)),), via="NACKI",
      label="nacki_stale"),
    T("home", "NACK", (("busy", ("int_s", "int_x", "wb")),
                       ("ireason", ("busy",))),
      emit=("INTERVENTION",), via="NACKI",
      label="nacki_owner_busy_retry"),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("yes",))),
      emit=("GETS", "GETX"), via="NACKI", label="nacki_wb_race_resolve",
      replay="_resolve_wb_race",
      why="buffered miss re-dispatched internally by the sim"),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("no",))),
      via="NACKI", label="nacki_wait_writeback"),
    T("home", "NACK", (("busy", ("wb",)), ("ireason", ("no_copy",))),
      via="NACKI", label="nacki_rebuffer"),
    T("node", "NACK_NOT_HOME", (("cpu", ("R",)),), emit=("GETS",),
      label="nacknh_retry_read", tags=("latent",), why=_LATENT_WHY),
    T("node", "NACK_NOT_HOME", (("cpu", ("W",)),), emit=("GETX",),
      label="nacknh_retry_write", tags=("latent",), why=_LATENT_WHY),
    T("node", "NACK_NOT_HOME", (("cpu", ("idle",)),),
      label="nacknh_stale", tags=("latent",), why=_LATENT_WHY),

    # -- writebacks -------------------------------------------------------
    T("home", "WRITEBACK", emit=("WB_ACK",), label="wb_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "WRITEBACK", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="wb_resolve_buffered",
      replay="_resolve_wb_race",
      why="buffered miss re-dispatched internally by the sim"),
    T("home", "WRITEBACK", (("busy", ("int_s", "int_x")),),
      label="wb_during_intervention"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="wb_apply"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("U", "S"))),
      label="wb_stale_dir"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("no",))),
      label="wb_stale_owner"),
    T("home", "EVICT_CLEAN", emit=("WB_ACK",), label="evc_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "EVICT_CLEAN", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="evc_resolve_buffered",
      replay="_resolve_wb_race",
      why="buffered miss re-dispatched internally by the sim"),
    T("home", "EVICT_CLEAN", (("busy", ("int_s", "int_x")),),
      label="evc_during_intervention"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("E",)),
                              ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="evc_apply"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("U", "S"))),
      label="evc_stale_dir"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("E",)),
                              ("owner_is_src", ("no",))),
      label="evc_stale_owner"),
    T("node", "WB_ACK", label="wb_ack_retire", only="sim",
      why=_WB_ACK_WHY),

    # -- intervention replies at the home --------------------------------
    T("home", "SHARED_WB", (("busy", ("int_s",)),),
      goes=(("dir", "S"),), label="sh_wb_apply"),
    T("home", "SHARED_WB", (("busy", ("none", "int_x", "wb")),),
      label="sh_wb_stale"),
    T("node", "SHARED_RESP", (("cpu", ("idle", "W")),),
      label="sh_resp_stale"),
    T("node", "SHARED_RESP", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "S"),), label="sh_resp_install"),
    T("node", "SHARED_RESP", (("cpu", ("R",)), ("raced", ("yes",))),
      label="sh_resp_raced_drop"),
    T("node", "EXCL_RESP", (("cpu", ("idle",)),), label="ex_resp_stale"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="ex_resp_install"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="ex_resp_raced_drop"),
    T("node", "EXCL_RESP", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="ex_resp_grant"),
    T("home", "XFER_OWNER", (("busy", ("int_x",)),),
      goes=(("dir", "E"),), label="xfer_apply"),
    T("home", "XFER_OWNER", (("busy", ("none", "int_s", "wb")),),
      label="xfer_stale"),

    # -- spontaneous entry rules -----------------------------------------
    T("node", "!cpu_read", emit=("GETS",), label="cpu_read"),
    T("node", "!cpu_write", emit=("GETX",), label="cpu_write"),
    T("node", "!evict", emit=("WRITEBACK", "EVICT_CLEAN"), label="evict"),
)

SPEC = ProtocolSpec(
    name="wi",
    description="writer-invalidate baseline: MESI plus the shared hub "
                "router's stale-home bounce path",
    messages=MESSAGES,
    dir_states=("U", "S", "E"),
    cache_states=("I", "S", "E", "M"),
    domains=DOMAINS,
    transitions=TRANSITIONS,
    mc_model="",
)
