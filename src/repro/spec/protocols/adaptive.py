"""Guarded-action spec for the paper's adaptive producer-consumer protocol.

This file is the adaptive protocol's single declarative encoding.  The
static verifier diffs the simulator (``repro.protocol``) against it, and
:mod:`repro.spec.mcgen` compiles it into the model checker's twin: every
dispatching transition names the kernel ``effect`` that executes it.  The
annotations (``hoist``/``replay``/``only``/``note``) carry the structured
justifications for where the simulator and the model legitimately differ.
``MESSAGES`` is the simulator's message vocabulary as well:
:mod:`repro.network.message` builds ``MsgType`` from it.

Reading guide: transitions are grouped by triggering message; ``via``
splits payload-discriminated dispatch (the NACK family); ``also``-tagged
transitions are accompanying consequences (victim evictions, speculative
update timers, voluntary undelegation) rather than competing outcomes;
``nondet`` marks the home's delegation decision, where every matching
transition fires.
"""

from repro.spec.lang import Feature, Msg, ProtocolSpec, T

_EVICT_WHY = ("completing a miss can evict a victim line; the model "
              "explores evictions as the spontaneous rule_evict")
_UPDATE_WHY = ("a producer completing a miss may arm the speculative "
               "update timer; the model explores the firing point as "
               "rule_intervention_fire")
_UNDELE_WHY = ("miss completion can trigger a voluntary undelegation "
               "flush; the model explores it as rule_voluntary_undelegate")
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
    Msg("NACK", mc=("NACK", "NACKI", "NACKR"), role="reply",
        reply_to=("GETS", "GETX", "INTERVENTION", "UNDELE_REQ")),
    Msg("NACK_NOT_HOME", mc=("NACKNH",), role="reply",
        reply_to=("GETS", "GETX")),
    Msg("DELEGATE", mc=("DELEGATE",), data=True, role="reply",
        reply_to=("GETX",)),
    Msg("UNDELE", mc=("UNDELE",), data=True, role="reply",
        reply_to=("UNDELE_REQ",)),
    Msg("UNDELE_REQ", mc=("UNDELE_REQ",), role="request"),
    Msg("HOME_CHANGED", mc=("HC",), role="hint"),
    Msg("INTERVENTION", mc=("INT",), role="request"),
    Msg("SHARED_WB", mc=("SH_WB",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("SHARED_RESP", mc=("SH_RESP",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("EXCL_RESP", mc=("EX_RESP",), data=True, role="reply",
        reply_to=("INTERVENTION",)),
    Msg("XFER_OWNER", mc=("XFER",), role="reply",
        reply_to=("INTERVENTION",)),
    Msg("UPDATE", mc=("UPDATE",), data=True, role="request"),
    # UPDATE_ACK exists for a correctness reason the model checker found:
    # undelegation must not return the directory to the home while pushed
    # updates are still in flight, or a later INV from the *home* (a
    # different FIFO channel) can be overtaken by a stale update.
    Msg("UPDATE_ACK", mc=("UPDATE_ACK",), role="ack",
        reply_to=("UPDATE",)),
)

DOMAINS = {
    "at": ("home", "delegate", "stale"),
    "busy": ("none", "int_s", "int_x", "wb", "undele"),
    "dir": ("U", "S", "E", "DELE"),
    "cpu": ("idle", "R", "W"),
    "cache": ("I", "S", "E", "M"),
    "raced": ("yes", "no"),
    "upgrade": ("yes", "no"),
    "self_req": ("yes", "no"),
    "owner_is_requester": ("yes", "no"),
    "owner_is_src": ("yes", "no"),
    "ireason": ("busy", "no_copy"),
    "rreason": ("gone", "busy"),
    "wb_flag": ("yes", "no"),
    "mode": ("s", "x"),
    "dbusy": ("yes", "no"),
    "pend": ("zero", "some"),
    "deleg_here": ("yes", "no"),
    "avail": ("yes", "no"),
}

TRANSITIONS = (
    # -- GETS: read miss at the home (or at an acting delegate) ----------
    T("home", "GETS", (("at", ("stale",)),),
      emit=("NACK_NOT_HOME",), label="gets_stale_hint",
      effect="bounce_not_home"),
    T("home", "GETS", (("at", ("home",)),
                       ("busy", ("int_s", "int_x", "wb", "undele"))),
      emit=("NACK",), label="gets_busy_nack", effect="nack_requester"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("DELE",)), ("self_req", ("yes",))),
      emit=("NACK",), label="gets_dele_self_nack", effect="nack_requester"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("DELE",)), ("self_req", ("no",))),
      emit=("GETS", "HOME_CHANGED"), label="gets_forward",
      effect="forward_to_delegate", tags=("bounded",),
      why="one-hop forward to the delegate, which serves the miss or "
          "bounces NACK_NOT_HOME; the forward cannot chain"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="gets_unowned",
      effect="gets_unowned"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",))),
      emit=("DATA_SHARED",), label="gets_shared", effect="gets_shared"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="gets_own_wb_race", effect="nack_requester"),
    T("home", "GETS", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_s"),),
      label="gets_intervene", effect="gets_intervene"),
    T("producer", "GETS", (("at", ("delegate",)), ("dbusy", ("yes",))),
      emit=("NACK",), label="acting_gets_busy", effect="nack_requester"),
    T("producer", "GETS", (("at", ("delegate",)), ("dbusy", ("no",))),
      emit=("DATA_SHARED",), label="acting_gets_serve",
      effect="acting_gets_serve"),

    # -- GETX: write miss; delegation decided here -----------------------
    T("home", "GETX", (("at", ("stale",)),),
      emit=("NACK_NOT_HOME",), label="getx_stale_hint",
      effect="bounce_not_home"),
    T("home", "GETX", (("at", ("home",)),
                       ("busy", ("int_s", "int_x", "wb", "undele"))),
      emit=("NACK",), label="getx_busy_nack", effect="nack_requester"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("DELE",)), ("self_req", ("yes",))),
      emit=("NACK",), label="getx_dele_self_nack", effect="nack_requester"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("DELE",)), ("self_req", ("no",))),
      emit=("UNDELE_REQ",), goes=(("busy", "undele"),),
      label="getx_recall", effect="recall_delegate"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("U",))),
      emit=("DATA_EXCL",), goes=(("dir", "E"),), label="getx_unowned",
      effect="getx_unowned", tags=("nondet",)),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("U",))),
      emit=("DELEGATE",), goes=(("dir", "DELE"),),
      label="getx_delegate_unowned",
      effect="delegate_unowned", tags=("nondet",)),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",)), ("upgrade", ("yes",))),
      emit=("INV", "ACK_X"), goes=(("dir", "E"),), label="getx_upgrade",
      effect="getx_upgrade", tags=("nondet",)),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",)), ("upgrade", ("no",))),
      emit=("INV", "DATA_EXCL"), goes=(("dir", "E"),),
      label="getx_shared", effect="getx_shared", tags=("nondet",)),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("S",))),
      emit=("INV", "DELEGATE"), goes=(("dir", "DELE"),),
      label="getx_delegate_shared",
      effect="delegate_shared", tags=("nondet",)),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("yes",))),
      emit=("NACK",), label="getx_own_wb_race", effect="nack_requester"),
    T("home", "GETX", (("at", ("home",)), ("busy", ("none",)),
                       ("dir", ("E",)), ("owner_is_requester", ("no",))),
      emit=("INTERVENTION",), goes=(("busy", "int_x"),),
      label="getx_intervene", effect="getx_intervene"),
    T("producer", "GETX", (("at", ("delegate",)), ("dbusy", ("yes",))),
      emit=("NACK",), label="acting_getx_busy", effect="nack_requester"),
    T("producer", "GETX", (("at", ("delegate",)), ("dbusy", ("no",)),
                           ("self_req", ("no",)), ("pend", ("some",))),
      emit=("NACK",), label="acting_getx_deferred",
      effect="acting_getx_deferred"),
    T("producer", "GETX", (("at", ("delegate",)), ("dbusy", ("no",)),
                           ("self_req", ("no",)), ("pend", ("zero",))),
      emit=("NACK_NOT_HOME", "UNDELE"), label="acting_getx_release",
      effect="acting_getx_release"),
    T("producer", "GETX", (("at", ("delegate",)), ("dbusy", ("no",)),
                           ("self_req", ("yes",))),
      emit=("INV", "UNDELE"), goes=(("cache", "M"),),
      label="acting_getx_local", effect="acting_getx_local"),

    # -- DATA_SHARED ------------------------------------------------------
    T("node", "DATA_SHARED", (("cpu", ("idle", "W")),),
      label="data_s_stale", effect="stale_reply"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "S"),), label="data_s_install", effect="install_shared"),
    T("node", "DATA_SHARED", (("cpu", ("R",)), ("raced", ("yes",))),
      label="data_s_raced_drop", effect="raced_drop"),
    T("node", "DATA_SHARED", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="data_s_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "DATA_SHARED", emit=("UPDATE",),
      label="data_s_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),
    T("node", "DATA_SHARED", emit=("UNDELE",),
      label="data_s_undele_chain", tags=("also",),
      hoist="rule_voluntary_undelegate", why=_UNDELE_WHY),

    # -- DATA_EXCL --------------------------------------------------------
    T("node", "DATA_EXCL", (("cpu", ("idle",)),), label="data_e_stale",
      effect="stale_drop"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="data_e_install", effect="install_excl"),
    T("node", "DATA_EXCL", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="data_e_raced_drop",
      effect="raced_excl_drop"),
    T("node", "DATA_EXCL", (("cpu", ("W",)),),
      emit=("UNDELE",), goes=(("cache", "M"),), label="data_e_grant",
      effect="grant_excl"),
    T("node", "DATA_EXCL", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="data_e_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "DATA_EXCL", emit=("UPDATE",),
      label="data_e_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),

    # -- ACK_X ------------------------------------------------------------
    T("node", "ACK_X", (("cpu", ("idle", "R")),), label="ack_x_stale",
      effect="stale_drop"),
    T("node", "ACK_X", (("cpu", ("W",)),),
      emit=("UNDELE",), goes=(("cache", "M"),), label="ack_x_grant",
      effect="grant_ack"),
    T("node", "ACK_X", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="ack_x_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "ACK_X", emit=("UPDATE",),
      label="ack_x_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),

    # -- INV / INV_ACK ----------------------------------------------------
    T("node", "INV", emit=("INV_ACK",), goes=(("cache", "I"),),
      label="inv_apply", effect="apply_inv"),
    T("node", "INV_ACK", (("cpu", ("W",)),),
      emit=("UNDELE",), goes=(("cache", "M"),), label="inv_ack_count",
      effect="count_inv_ack"),
    T("node", "INV_ACK", (("cpu", ("idle", "R")),),
      label="inv_ack_stale", tags=("unreachable",)),
    T("node", "INV_ACK", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="inv_ack_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "INV_ACK", emit=("UPDATE",),
      label="inv_ack_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),

    # -- INTERVENTION -----------------------------------------------------
    T("node", "INTERVENTION", (("cpu", ("R", "W")),),
      emit=("NACK",), label="int_busy_nack", effect="int_busy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("I", "S"))),
      emit=("NACK",), label="int_no_copy_nack", effect="int_no_copy_nack"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("s",))),
      emit=("SHARED_WB", "SHARED_RESP"), goes=(("cache", "S"),),
      label="int_serve_shared", effect="serve_int_shared"),
    T("node", "INTERVENTION", (("cpu", ("idle",)), ("cache", ("E", "M")),
                               ("mode", ("x",))),
      emit=("EXCL_RESP", "XFER_OWNER"), goes=(("cache", "I"),),
      label="int_serve_excl", effect="serve_int_excl"),

    # -- NACK family (payload-discriminated; via names the mc token) -----
    T("node", "NACK", (("cpu", ("R",)),), emit=("GETS",),
      via="NACK", label="nack_retry_read", effect="retry_read"),
    T("node", "NACK", (("cpu", ("W",)),), emit=("GETX",),
      via="NACK", label="nack_retry_write", effect="retry_write"),
    T("node", "NACK", (("cpu", ("idle",)),), via="NACK",
      label="nack_stale", effect="stale_drop"),
    T("home", "NACK", (("busy", ("none", "undele")),), via="NACKI",
      label="nacki_stale", effect="stale_drop"),
    T("home", "NACK", (("busy", ("int_s", "int_x", "wb")),
                       ("ireason", ("busy",))),
      emit=("INTERVENTION",), via="NACKI",
      label="nacki_owner_busy_retry", effect="int_retry"),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("yes",))),
      emit=("GETS", "GETX"), via="NACKI", label="nacki_wb_race_resolve",
      effect="wb_race_resolve",
      replay="_resolve_wb_race", why=_WB_RACE_WHY),
    T("home", "NACK", (("busy", ("int_s", "int_x")),
                       ("ireason", ("no_copy",)), ("wb_flag", ("no",))),
      via="NACKI", label="nacki_wait_writeback", effect="int_await_writeback"),
    T("home", "NACK", (("busy", ("wb",)), ("ireason", ("no_copy",))),
      via="NACKI", label="nacki_rebuffer", effect="stale_drop"),
    T("home", "NACK", (("busy", ("undele",)), ("rreason", ("gone",))),
      via="NACKR", label="nackr_gone_wait", effect="stale_drop"),
    T("home", "NACK", (("busy", ("undele",)), ("rreason", ("busy",))),
      emit=("UNDELE_REQ",), via="NACKR", label="nackr_retry",
      effect="recall_retry"),
    T("home", "NACK", (("busy", ("none", "int_s", "int_x", "wb")),),
      via="NACKR", label="nackr_stale", effect="stale_drop"),

    # -- NACK_NOT_HOME: stale-hint bounce, clear hint and retry ----------
    T("node", "NACK_NOT_HOME", (("cpu", ("R",)),), emit=("GETS",),
      label="nacknh_retry_read", effect="forget_hint_retry_read"),
    T("node", "NACK_NOT_HOME", (("cpu", ("W",)),), emit=("GETX",),
      label="nacknh_retry_write", effect="forget_hint_retry_write"),
    T("node", "NACK_NOT_HOME", (("cpu", ("idle",)),),
      label="nacknh_stale", effect="forget_hint"),

    # -- WRITEBACK / EVICT_CLEAN -----------------------------------------
    T("home", "WRITEBACK", emit=("WB_ACK",), label="wb_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "WRITEBACK", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="wb_resolve_buffered", effect="wb_resolve",
      replay="_resolve_wb_race", why=_WB_RACE_WHY),
    T("home", "WRITEBACK", (("busy", ("int_s", "int_x")),),
      label="wb_during_intervention", effect="wb_mark_during_int"),
    T("home", "WRITEBACK", (("busy", ("none", "undele")), ("dir", ("E",)),
                            ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="wb_apply", effect="wb_apply"),
    T("home", "WRITEBACK", (("busy", ("none", "undele")),
                            ("dir", ("U", "S", "DELE"))),
      label="wb_stale_dir", effect="wb_stale"),
    T("home", "WRITEBACK", (("busy", ("none", "undele")), ("dir", ("E",)),
                            ("owner_is_src", ("no",))),
      label="wb_stale_owner", effect="wb_stale"),
    T("home", "EVICT_CLEAN", emit=("WB_ACK",), label="evc_ack_sim",
      tags=("also",), only="sim", why=_WB_ACK_WHY),
    T("home", "EVICT_CLEAN", (("busy", ("wb",)),),
      emit=("GETS", "GETX"), label="evc_resolve_buffered", effect="wb_resolve",
      replay="_resolve_wb_race", why=_WB_RACE_WHY),
    T("home", "EVICT_CLEAN", (("busy", ("int_s", "int_x")),),
      label="evc_during_intervention", effect="wb_mark_during_int"),
    T("home", "EVICT_CLEAN", (("busy", ("none", "undele")),
                              ("dir", ("E",)),
                              ("owner_is_src", ("yes",))),
      goes=(("dir", "U"),), label="evc_apply", effect="evc_apply"),
    T("home", "EVICT_CLEAN", (("busy", ("none", "undele")),
                              ("dir", ("U", "S", "DELE"))),
      label="evc_stale_dir", effect="stale_drop"),
    T("home", "EVICT_CLEAN", (("busy", ("none", "undele")),
                              ("dir", ("E",)),
                              ("owner_is_src", ("no",))),
      label="evc_stale_owner", effect="stale_drop"),
    T("node", "WB_ACK", label="wb_ack_retire", only="sim",
      why=_WB_ACK_WHY),

    # -- hints ------------------------------------------------------------
    T("node", "HOME_CHANGED", label="home_changed_hint", effect="take_hint"),

    # -- delegation -------------------------------------------------------
    T("node", "DELEGATE", (("cpu", ("W",)),),
      emit=("UNDELE",), goes=(("cache", "M"),), label="delegate_accept",
      effect="delegate_accept"),
    T("node", "DELEGATE", (("cpu", ("idle", "R")),),
      label="delegate_unexpected", tags=("unreachable",)),
    T("node", "DELEGATE", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="delegate_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "DELEGATE", emit=("UPDATE",),
      label="delegate_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),
    T("home", "UNDELE", (("busy", ("undele",)),),
      emit=("GETX",), label="undele_apply_recalled",
      effect="undele_apply_replay",
      replay="_on_undele",
      why="the sim re-dispatches the recalled exclusive miss internally; "
          "the model re-queues the buffered GETX"),
    T("home", "UNDELE", (("busy", ("none", "int_s", "int_x", "wb")),),
      label="undele_apply", effect="undele_apply"),
    T("producer", "UNDELE_REQ", (("deleg_here", ("no",)),),
      emit=("NACK",), label="undele_req_gone", effect="recall_nack_gone"),
    T("producer", "UNDELE_REQ", (("deleg_here", ("yes",)),
                                 ("avail", ("no",))),
      emit=("NACK",), label="undele_req_busy", effect="recall_nack_busy"),
    T("producer", "UNDELE_REQ", (("deleg_here", ("yes",)),
                                 ("avail", ("yes",))),
      emit=("UNDELE",), label="undele_req_grant", effect="undelegate"),

    # -- intervention replies at the home --------------------------------
    T("home", "SHARED_WB", (("busy", ("int_s",)),),
      goes=(("dir", "S"),), label="sh_wb_apply", effect="sh_wb_apply"),
    T("home", "SHARED_WB", (("busy", ("none", "int_x", "wb", "undele")),),
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
    T("node", "SHARED_RESP", emit=("UPDATE",),
      label="sh_resp_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),
    T("node", "SHARED_RESP", emit=("UNDELE",),
      label="sh_resp_undele_chain", tags=("also",),
      hoist="rule_voluntary_undelegate", why=_UNDELE_WHY),
    T("node", "EXCL_RESP", (("cpu", ("idle",)),), label="ex_resp_stale",
      effect="stale_drop"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("no",))),
      goes=(("cache", "E"),), label="ex_resp_install", effect="install_excl"),
    T("node", "EXCL_RESP", (("cpu", ("R",)), ("raced", ("yes",))),
      emit=("EVICT_CLEAN",), label="ex_resp_raced_drop",
      effect="raced_excl_drop"),
    T("node", "EXCL_RESP", (("cpu", ("W",)),),
      emit=("UNDELE",), goes=(("cache", "M"),), label="ex_resp_grant",
      effect="grant_excl"),
    T("node", "EXCL_RESP", emit=("WRITEBACK", "EVICT_CLEAN"),
      label="ex_resp_victim_evict", tags=("also",),
      hoist="rule_evict", why=_EVICT_WHY),
    T("node", "EXCL_RESP", emit=("UPDATE",),
      label="ex_resp_update_chain", tags=("also",),
      hoist="rule_intervention_fire", why=_UPDATE_WHY),
    T("home", "XFER_OWNER", (("busy", ("int_x",)),),
      goes=(("dir", "E"),), label="xfer_apply", effect="xfer_apply"),
    T("home", "XFER_OWNER", (("busy", ("none", "int_s", "wb", "undele")),),
      label="xfer_stale", effect="stale_drop"),

    # -- speculative updates ---------------------------------------------
    T("node", "UPDATE", (("cpu", ("R",)),), emit=("UPDATE_ACK",),
      label="update_during_read", effect="update_rac_fill"),
    T("node", "UPDATE", (("cpu", ("idle", "W")), ("cache", ("S", "E", "M"))),
      emit=("UPDATE_ACK",), label="update_stale_copy",
      effect="update_ack_only"),
    T("node", "UPDATE", (("cpu", ("idle", "W")), ("cache", ("I",))),
      emit=("UPDATE_ACK",), label="update_rac_fill", effect="update_rac_fill"),
    T("producer", "UPDATE_ACK", (("deleg_here", ("no",)),),
      label="update_ack_stale", effect="stale_drop"),
    T("producer", "UPDATE_ACK", (("deleg_here", ("yes",)),),
      emit=("UNDELE",), label="update_ack_drain", effect="update_ack_drain"),

    # -- spontaneous entry rules -----------------------------------------
    T("node", "!cpu_read", emit=("GETS",), mc_rule="rule_cpu_read",
      label="cpu_read", effect="cpu_read"),
    T("node", "!cpu_write", emit=("GETX",), mc_rule="rule_cpu_write",
      label="cpu_write", effect="cpu_write"),
    T("node", "!evict", emit=("WRITEBACK", "EVICT_CLEAN", "UNDELE"),
      mc_rule="rule_evict", label="evict", effect="evict_to_rac"),
    T("node", "!rac_evict", mc_rule="rule_rac_evict", label="rac_evict",
      effect="rac_evict"),
    T("producer", "!intervention_fire", emit=("UPDATE",),
      mc_rule="rule_intervention_fire", label="intervention_fire",
      effect="intervention_fire"),
    T("producer", "!voluntary_undelegate", emit=("UNDELE",),
      mc_rule="rule_voluntary_undelegate",
      label="voluntary_undelegate", effect="voluntary_undelegate"),
)

#: What the paper adds to a textbook directory protocol.  The registry
#: derives the ``wi`` baseline by projecting delegation and updates away
#: (§2.3, §2.4), and the ``mesi`` baseline by projecting all four away.
#: The simulator reads these features too: a protocol runs with the
#: config flag of each feature its spec lacks turned off (``rac``,
#: ``delegation`` and ``updates``; see ``repro.protocol.arena``), and the
#: hub reads ``consumer_vector``.  For MESI that means:
#:
#: ``rac``
#:     A remote Shared victim moves into the remote access cache, which
#:     evicts on its own.  Without the RAC, evicting a Shared line is a
#:     silent drop.
#: ``consumer_vector``
#:     Granting exclusivity from the Shared state keeps the invalidated
#:     readers as the predicted-consumer set (§2.4.2).  Without it the hub
#:     forgets them (``entry.sharers = set()``), and its detector, which
#:     counts consumers from that set, observes nothing.
FEATURES = (
    Feature("delegation",
            messages=("DELEGATE", "UNDELE", "UNDELE_REQ", "HOME_CHANGED",
                      "NACK_NOT_HOME"),
            tokens=("NACKR",),
            values=(("at", ("delegate", "stale")), ("busy", ("undele",)),
                    ("dir", ("DELE",))),
            rules=("rule_voluntary_undelegate",),
            implies=("updates",)),
    Feature("updates", messages=("UPDATE", "UPDATE_ACK"),
            rules=("rule_intervention_fire",)),
    Feature("rac", rules=("rule_rac_evict",),
            effects=(("evict_to_rac", "evict"),)),
    Feature("consumer_vector",
            effects=(("getx_upgrade", "getx_upgrade_forget"),
                     ("getx_shared", "getx_shared_forget"))),
)

SPEC = ProtocolSpec(
    name="adaptive",
    description="paper's adaptive protocol: write-invalidate base plus "
                "directory delegation and speculative updates",
    messages=MESSAGES,
    dir_states=("U", "S", "E", "DELE"),
    cache_states=("I", "S", "E", "M"),
    domains=DOMAINS,
    transitions=TRANSITIONS,
    mc_model="generated",
    features=FEATURES,
)
