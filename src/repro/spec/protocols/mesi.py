"""Guarded-action spec for the MESI arena baseline.

Like the adaptive spec, this spec *is* the model: :mod:`repro.spec.mcgen`
compiles its transitions into executable ``repro.mc`` rules, giving the
MESI baseline a generated model-checker twin.  Guards are load-bearing —
the generated model dispatches a delivered message to exactly the
transitions whose guards admit the concrete state, and raises
``SpecExecutionError`` if none (or a spec-declared-unreachable one)
matches.  Each transition's ``effect`` names a kernel primitive in
:data:`repro.spec.mcgen.EFFECTS`; every message the kernel sends is
checked at runtime against the transition's declared ``emit`` set.

The spec also decides dispatch in the simulator: the arena's hubs serve
exactly the messages some transition here handles, so a message this
spec leaves out (DELEGATE, NACK_NOT_HOME, ...) raises
``UnhandledMessageError`` on delivery.

MESI deltas from the adaptive base (mirrored from ``MesiHub``):

* no delegation, updates, or read-ahead consumption — no transition
  handles those messages;
* evicting a Shared line is a silent drop (no victim RAC entry);
* granting exclusivity from the Shared directory state *forgets* the
  invalidated readers (``entry.sharers = set()``) instead of preserving
  them as the paper's predicted-consumer set.
"""

from repro.spec.lang import Msg, ProtocolSpec, T

_EVICT_WHY = ("completing a miss can evict a victim line; the generated "
              "model explores evictions as the spontaneous rule_evict")
_WB_RACE_WHY = ("the owner's copy left via a writeback; the sim "
                "re-dispatches the buffered miss internally, the model "
                "re-queues it")
_WB_ACK_WHY = "the model applies writebacks atomically; no ack round-trip"

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
    T("home", "GETS", (("busy", ("int_s", "int_x", "wb")),),
      emit=("NACK",), label="gets_busy_nack", effect="nack_requester"),
    T("home", "GETS", (("busy", ("none",)), ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="gets_unowned",
      effect="gets_unowned"),
    T("home", "GETS", (("busy", ("none",)), ("dir", ("S",))),
      emit=("DATA_SHARED",), label="gets_shared", effect="gets_shared"),
    T("home", "GETS", (("busy", ("none",)), ("dir", ("E",)),
                       ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="gets_own_wb_race", effect="nack_requester"),
    T("home", "GETS", (("busy", ("none",)), ("dir", ("E",)),
                       ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_s"),),
      label="gets_intervene", effect="gets_intervene"),

    # -- GETX -------------------------------------------------------------
    T("home", "GETX", (("busy", ("int_s", "int_x", "wb")),),
      emit=("NACK",), label="getx_busy_nack", effect="nack_requester"),
    T("home", "GETX", (("busy", ("none",)), ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="getx_unowned",
      effect="getx_unowned"),
    T("home", "GETX", (("busy", ("none",)), ("dir", ("S",)),
                       ("upgrade", ("yes",))),
      emit=("INV", "ACK_X"), goes=(("dir", "E"),), label="getx_upgrade",
      effect="getx_upgrade_forget"),
    T("home", "GETX", (("busy", ("none",)), ("dir", ("S",)),
                       ("upgrade", ("no",))),
      emit=("INV", "DATA_EXCL"), goes=(("dir", "E"),),
      label="getx_shared", effect="getx_shared_forget"),
    T("home", "GETX", (("busy", ("none",)), ("dir", ("E",)),
                       ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="getx_own_wb_race", effect="nack_requester"),
    T("home", "GETX", (("busy", ("none",)), ("dir", ("E",)),
                       ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_x"),),
      label="getx_intervene", effect="getx_intervene"),

    # -- data replies -----------------------------------------------------
    T("node", "DATA_SHARED", (("cpu", ("idle", "W")),),
      label="data_s_stale", effect="stale_drop"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "S"),), label="data_s_install",
      effect="install_shared"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("yes",))),
      label="data_s_raced_drop", effect="raced_drop"),
    T("node", "DATA_SHARED", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="data_s_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "DATA_EXCL", (("cpu", ("idle",)),), label="data_e_stale",
      effect="stale_drop"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="data_e_install",
      effect="install_excl"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="data_e_raced_drop",
      effect="raced_excl_drop"),
    T("node", "DATA_EXCL", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="data_e_grant", effect="grant_excl"),
    T("node", "DATA_EXCL", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="data_e_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "ACK_X", (("cpu", ("idle", "R")),), label="ack_x_stale",
      effect="stale_drop"),
    T("node", "ACK_X", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="ack_x_grant", effect="grant_ack"),
    T("node", "ACK_X", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="ack_x_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),

    # -- invalidation -----------------------------------------------------
    T("node", "INV", emit=("INV_ACK",), goes=(("cache", "I"),),
      label="inv_apply", effect="apply_inv"),
    T("node", "INV_ACK", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="inv_ack_count",
      effect="count_inv_ack"),
    T("node", "INV_ACK", (("cpu", ("idle", "R")),),
      label="inv_ack_stale", tags=("unreachable",)),

    # -- interventions ----------------------------------------------------
    T("node", "INTERVENTION", (("cpu", ("R", "W")),),
      emit=("NACK",), label="int_busy_nack", effect="int_busy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("I", "S"))),
      emit=("NACK",), label="int_no_copy_nack",
      effect="int_no_copy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("s",))),
      emit=("SHARED_WB", "SHARED_RESP"), goes=(("cache", "S"),),
      label="int_serve_shared", effect="serve_int_shared"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("x",))),
      emit=("EXCL_RESP", "XFER_OWNER"), goes=(("cache", "I"),),
      label="int_serve_excl", effect="serve_int_excl"),

    # -- NACK family ------------------------------------------------------
    T("node", "NACK", (("cpu", ("R",)),), emit=("GETS",),
      via="NACK", label="nack_retry_read", effect="retry_read"),
    T("node", "NACK", (("cpu", ("W",)),), emit=("GETX",),
      via="NACK", label="nack_retry_write", effect="retry_write"),
    T("node", "NACK", (("cpu", ("idle",)),), via="NACK",
      label="nack_stale", effect="stale_drop"),
    T("home", "NACK", (("busy", ("none",)),), via="NACKI",
      label="nacki_stale", effect="stale_drop"),
    T("home", "NACK", (("busy", ("int_s", "int_x", "wb")),
                       ("ireason", ("busy",))),
      emit=("INTERVENTION",), via="NACKI",
      label="nacki_owner_busy_retry", effect="int_retry"),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("yes",))),
      emit=("GETS", "GETX"), via="NACKI", label="nacki_wb_race_resolve",
      replay="_resolve_wb_race", why=_WB_RACE_WHY,
      effect="wb_race_resolve"),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("no",))),
      via="NACKI", label="nacki_wait_writeback",
      effect="int_await_writeback"),
    T("home", "NACK", (("busy", ("wb",)), ("ireason", ("no_copy",))),
      via="NACKI", label="nacki_rebuffer", effect="stale_drop"),

    # -- writebacks -------------------------------------------------------
    T("home", "WRITEBACK", emit=("WB_ACK",), label="wb_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "WRITEBACK", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="wb_resolve_buffered",
      replay="_resolve_wb_race", why=_WB_RACE_WHY, effect="wb_resolve"),
    T("home", "WRITEBACK", (("busy", ("int_s", "int_x")),),
      label="wb_during_intervention", effect="wb_mark_during_int"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="wb_apply", effect="wb_apply"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("U", "S"))),
      label="wb_stale_dir", effect="wb_stale"),
    T("home", "WRITEBACK", (("busy", ("none",)), ("dir", ("E",)),
                            ("owner_is_src", ("no",))),
      label="wb_stale_owner", effect="wb_stale"),
    T("home", "EVICT_CLEAN", emit=("WB_ACK",), label="evc_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "EVICT_CLEAN", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="evc_resolve_buffered",
      replay="_resolve_wb_race", why=_WB_RACE_WHY, effect="wb_resolve"),
    T("home", "EVICT_CLEAN", (("busy", ("int_s", "int_x")),),
      label="evc_during_intervention", effect="wb_mark_during_int"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("E",)),
                              ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="evc_apply", effect="evc_apply"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("U", "S"))),
      label="evc_stale_dir", effect="stale_drop"),
    T("home", "EVICT_CLEAN", (("busy", ("none",)), ("dir", ("E",)),
                              ("owner_is_src", ("no",))),
      label="evc_stale_owner", effect="stale_drop"),
    T("node", "WB_ACK", label="wb_ack_retire", only="sim",
      why=_WB_ACK_WHY),

    # -- intervention replies at the home --------------------------------
    T("home", "SHARED_WB", (("busy", ("int_s",)),),
      goes=(("dir", "S"),), label="sh_wb_apply", effect="sh_wb_apply"),
    T("home", "SHARED_WB", (("busy", ("none", "int_x", "wb")),),
      label="sh_wb_stale", effect="stale_drop"),
    T("node", "SHARED_RESP", (("cpu", ("idle", "W")),),
      label="sh_resp_stale", effect="stale_drop"),
    T("node", "SHARED_RESP", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "S"),), label="sh_resp_install",
      effect="install_shared"),
    T("node", "SHARED_RESP", (("cpu", ("R",)), ("raced", ("yes",))),
      label="sh_resp_raced_drop", effect="raced_drop"),
    T("node", "SHARED_RESP", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="sh_resp_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "EXCL_RESP", (("cpu", ("idle",)),), label="ex_resp_stale",
      effect="stale_drop"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="ex_resp_install",
      effect="install_excl"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="ex_resp_raced_drop",
      effect="raced_excl_drop"),
    T("node", "EXCL_RESP", (("cpu", ("W",)),),
      goes=(("cache", "M"),), label="ex_resp_grant",
      effect="grant_excl"),
    T("node", "EXCL_RESP", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="ex_resp_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("home", "XFER_OWNER", (("busy", ("int_x",)),),
      goes=(("dir", "E"),), label="xfer_apply", effect="xfer_apply"),
    T("home", "XFER_OWNER", (("busy", ("none", "int_s", "wb")),),
      label="xfer_stale", effect="stale_drop"),

    # -- spontaneous entry rules -----------------------------------------
    T("node", "!cpu_read", emit=("GETS",), mc_rule="rule_cpu_read",
      label="cpu_read", effect="cpu_read"),
    T("node", "!cpu_write", emit=("GETX",), mc_rule="rule_cpu_write",
      label="cpu_write", effect="cpu_write"),
    T("node", "!evict", emit=("WRITEBACK", "EVICT_CLEAN"),
      mc_rule="rule_evict", label="evict", effect="evict"),
)

SPEC = ProtocolSpec(
    name="mesi",
    description="textbook MESI directory baseline: no delegation, no "
                "updates, invalidated readers are forgotten",
    messages=MESSAGES,
    dir_states=("U", "S", "E"),
    cache_states=("I", "S", "E", "M"),
    domains=DOMAINS,
    transitions=TRANSITIONS,
    mc_model="generated",
)
