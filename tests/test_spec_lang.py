"""The guarded-action spec IR (repro.spec.lang) and the registry."""

import dataclasses

import pytest

from repro.spec import (Extension, Msg, ProtocolSpec, SpecError, T,
                        all_specs, get_spec, load_spec_tree)
from repro.spec.lang import Feature, guard_allows, guards_overlap
from repro.spec.registry import DERIVED

DOMAINS = {"dir": ("U", "S", "E"), "cpu": ("idle", "R", "W")}


def tiny_spec(**overrides):
    base = dict(
        name="tiny", description="test spec",
        messages=(Msg("PING", mc=("PING",), role="request"),
                  Msg("PONG", mc=("PONG",), role="reply",
                      reply_to=("PING",))),
        dir_states=("U", "S", "E"), cache_states=("I", "S"),
        domains=DOMAINS,
        transitions=(
            T("home", "PING", when=(("dir", ("U",)),), emit=("PONG",),
              goes=(("dir", "S"),), label="ping_u"),
            T("home", "PING", when=(("dir", ("S", "E")),), label="ping_rest"),
            T("node", "PONG", label="pong"),
            T("node", "!cpu_read", emit=("PING",), label="read"),
        ))
    base.update(overrides)
    return ProtocolSpec(**base)


class TestValidation:
    def test_tiny_spec_validates(self):
        tiny_spec().validate()

    def test_duplicate_message_rejected(self):
        spec = tiny_spec(messages=(Msg("PING"), Msg("PING")))
        with pytest.raises(SpecError, match="duplicate message"):
            spec.validate()

    def test_duplicate_mc_token_rejected(self):
        spec = tiny_spec(messages=(Msg("PING", mc=("X",)),
                                   Msg("PONG", mc=("X",))))
        with pytest.raises(SpecError, match="claimed by both"):
            spec.validate()

    def test_unmodeled_message_requires_note(self):
        # With a model, mc=() needs a justifying note (the in-spec
        # replacement for an allowlist entry)...
        spec = tiny_spec(
            messages=(Msg("PING", mc=("PING",), role="request"),
                      Msg("PONG", role="reply", reply_to=("PING",))),
            transitions=(T("home", "PING", label="ping"),
                         T("node", "PONG", label="pong")),
            mc_model="generated")
        with pytest.raises(SpecError, match="no justifying note"):
            spec.validate()
        # ... and the note satisfies the bar.
        dataclasses.replace(spec, messages=(
            spec.messages[0],
            dataclasses.replace(spec.messages[1], note="sim-only ack"),
        )).validate()

    def test_unknown_guard_variable_rejected(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", when=(("nope", ("x",)),), label="bad"),))
        with pytest.raises(SpecError, match="no declared domain"):
            spec.validate()

    def test_guard_value_outside_domain_rejected(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", when=(("dir", ("Z",)),), label="bad"),))
        with pytest.raises(SpecError, match="outside"):
            spec.validate()

    def test_emit_of_undeclared_message_rejected(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", emit=("ZZZ",), label="bad"),))
        with pytest.raises(SpecError, match="undeclared message ZZZ"):
            spec.validate()

    def test_unknown_tag_rejected(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", tags=("wat",), label="bad"),))
        with pytest.raises(SpecError, match="unknown tag"):
            spec.validate()

    def test_annotations_require_why(self):
        for kwargs in ({"hoist": "rule_x"}, {"replay": "_f"},
                       {"only": "sim"}, {"tags": ("latent",)}):
            spec = tiny_spec(transitions=(
                T("home", "PING", label="bad", **kwargs),))
            with pytest.raises(SpecError, match="require a 'why'"):
                spec.validate()

    def test_via_must_be_an_mc_token_of_the_trigger(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", via="NOPE", label="bad"),))
        with pytest.raises(SpecError, match="via token"):
            spec.validate()

    def test_install_of_undeclared_state_rejected(self):
        spec = tiny_spec(transitions=(
            T("home", "PING", goes=(("dir", "Z"),), label="bad"),))
        with pytest.raises(SpecError, match="undeclared dir state"):
            spec.validate()

    def test_unknown_mc_model_rejected(self):
        # Models are compiled from specs; there is no hand-written kind.
        with pytest.raises(SpecError, match="mc_model='hand'"):
            tiny_spec(mc_model="hand").validate()


class TestGuards:
    def test_empty_guard_is_catch_all(self):
        assert guard_allows((), {"dir": "U"})
        assert guard_allows((), {})

    def test_mentioned_variable_missing_from_env_fails(self):
        assert not guard_allows((("dir", ("U",)),), {})

    def test_conjunction(self):
        when = (("dir", ("U", "S")), ("cpu", ("idle",)))
        assert guard_allows(when, {"dir": "S", "cpu": "idle"})
        assert not guard_allows(when, {"dir": "E", "cpu": "idle"})
        assert not guard_allows(when, {"dir": "S", "cpu": "W"})

    def test_overlap_detection(self):
        a = T("home", "PING", when=(("dir", ("U", "S")),), label="a")
        b = T("home", "PING", when=(("dir", ("S", "E")),), label="b")
        c = T("home", "PING", when=(("dir", ("E",)),), label="c")
        assert guards_overlap(a, b, DOMAINS)       # share dir=S
        assert not guards_overlap(a, c, DOMAINS)   # disjoint
        # A catch-all overlaps everything.
        assert guards_overlap(T("home", "PING", label="any"), a, DOMAINS)


class TestLookups:
    def test_handled_excludes_entries(self):
        spec = tiny_spec()
        assert spec.handled() == frozenset({"PING", "PONG"})
        assert [t.label for t in spec.entry_transitions()] == ["read"]

    def test_sim_name_of_resolves_tokens(self):
        spec = get_spec("adaptive")
        assert spec.sim_name_of("NACKI") == "NACK"
        assert spec.sim_name_of("SH_WB") == "SHARED_WB"
        assert spec.sim_name_of("NOT_A_TOKEN") is None

    def test_mc_token_map_matches_model_dispatch(self):
        # The compiled model dispatches exactly the spec's mc tokens.
        from repro.spec.mcgen import SpecModel
        spec = get_spec("adaptive")
        tokens = {token for mc in spec.mc_token_map().values()
                  for token in mc}
        assert set(SpecModel(spec)._dispatch) == tokens


def featured_spec():
    """``tiny`` plus an optional ``echo`` feature: the ECHO message, a
    PONGE token on PONG, the dir value E and the rule that drives it;
    ``loud`` implies ``echo``."""
    return tiny_spec(
        messages=(Msg("PING", mc=("PING",), role="request"),
                  Msg("PONG", mc=("PONG", "PONGE"), role="reply",
                      reply_to=("PING", "ECHO")),
                  Msg("ECHO", mc=("ECHO",), role="request")),
        transitions=(
            T("home", "PING", when=(("dir", ("U",)),),
              emit=("PONG", "ECHO"), goes=(("dir", "S"),), label="ping_u"),
            T("home", "PING", when=(("dir", ("S", "E")),), label="ping_rest"),
            T("home", "PING", when=(("dir", ("E",)), ("cpu", ("R",))),
              label="ping_e"),
            T("node", "PONG", via="PONG", label="pong"),
            T("node", "PONG", via="PONGE", label="pong_echo"),
            T("node", "PONG", emit=("ECHO",), tags=("also",),
              hoist="rule_echo", why="fired by the echo rule",
              label="pong_hoisted"),
            T("node", "ECHO", label="echo"),
            T("node", "!cpu_read", emit=("PING",), label="read"),
            T("node", "!cpu_write", emit=("PING",), goes=(("dir", "E"),),
              label="write"),
            T("node", "!echo", emit=("ECHO",), mc_rule="rule_echo",
              label="echo_fire"),
        ),
        features=(
            Feature("echo", messages=("ECHO",), tokens=("PONGE",),
                    values=(("dir", ("E",)),), rules=("rule_echo",)),
            Feature("loud", implies=("echo",)),
        ))


class TestProjection:
    def test_without_drops_what_the_feature_owns(self):
        spec = featured_spec()
        spec.validate()
        bare = spec.without("echo")
        bare.validate()
        labels = {t.label: t for t in bare.transitions}
        # Dropped: the ECHO trigger, the PONGE token, the hoist into and
        # the entry for rule_echo, the guard left with no value, and
        # the transition installing dir=E.
        assert sorted(labels) == ["ping_rest", "ping_u", "pong", "read"]
        assert labels["ping_u"].emit == ("PONG",)
        assert labels["ping_rest"].when == (("dir", ("S",)),)
        assert [m.name for m in bare.messages] == ["PING", "PONG"]
        assert bare.message("PONG").mc == ("PONG",)
        assert bare.message("PONG").reply_to == ("PING",)
        assert bare.dir_states == ("U", "S")
        assert dict(bare.domains) == {"dir": ("U", "S")}  # cpu unused
        assert bare.features == (Feature("loud"),)

    def test_dropping_a_feature_drops_what_it_implies(self):
        spec = featured_spec()
        assert spec.without("loud") == spec.without("echo", "loud")
        assert spec.without("loud").features == ()

    def test_derived_spec_points_at_its_source(self):
        bare = featured_spec().without("echo")
        assert bare.name == "tiny" and bare.derived_from == "tiny"
        assert bare.source_file == "spec/protocols/tiny.py"
        assert bare.without("loud").derived_from == "tiny"

    def test_unknown_feature_rejected(self):
        with pytest.raises(SpecError, match="tiny has no feature 'echo' "
                           r"\(has: none\)"):
            tiny_spec().without("echo")

    def test_feature_naming_undeclared_parts_rejected(self):
        spec = tiny_spec(features=(
            Feature("echo", messages=("ECHO",), values=(("dir", ("Z",)),),
                    effects=(("no_such_kernel", "x"),)),))
        with pytest.raises(SpecError, match="names undeclared ECHO, dir=Z, "
                                            "no_such_kernel"):
            spec.validate()

    def test_without_swaps_the_dropped_feature_kernels(self):
        spec = tiny_spec(
            transitions=tuple(dataclasses.replace(t, effect="loud_" + t.label)
                              for t in tiny_spec().transitions),
            features=(Feature("loud", effects=(("loud_ping_u", "quiet"),
                                               ("loud_read", "hush"))),))
        spec.validate()
        effects = {t.label: t.effect for t in spec.without("loud").transitions}
        assert effects == {"ping_u": "quiet", "ping_rest": "loud_ping_rest",
                           "pong": "loud_pong", "read": "hush"}

    def test_without_drops_a_nondet_tag_left_with_no_rival(self):
        # ping_u and ping_grow are the nondet choice on dir=U; dropping
        # echo removes ping_grow (it installs dir=E), so ping_u's tag
        # excuses nothing any more and would hide a later overlap.
        spec = tiny_spec(
            transitions=tiny_spec().transitions[1:] + (
                T("home", "PING", when=(("dir", ("U",)),), emit=("PONG",),
                  goes=(("dir", "S"),), tags=("nondet",), label="ping_u"),
                T("home", "PING", when=(("dir", ("U",)),),
                  goes=(("dir", "E"),), tags=("nondet",),
                  label="ping_grow")),
            features=(Feature("echo", values=(("dir", ("E",)),)),))
        bare = spec.without("echo")
        tags = {t.label: t.tags for t in bare.transitions}
        assert tags["ping_u"] == ()
        assert "ping_grow" not in tags
        # A choice that survives the projection keeps its tags.
        kept = dataclasses.replace(
            spec, features=(Feature("echo"),)).without("echo")
        assert {t.label: t.tags for t in kept.transitions}["ping_u"] == \
            ("nondet",)


def echo_extension(**overrides):
    """Adds an ECHO request to ``tiny``, answered by PONG, and swaps
    tiny's ping_rest for two arms."""
    base = dict(
        name="tiny_echo", base="tiny", description="tiny plus echo",
        messages=(Msg("ECHO", mc=("ECHO",), role="request"),),
        domains={"pend": ("zero", "some")},
        transitions=(
            T("node", "ECHO", (("pend", ("zero", "some")),),
              emit=("PONG",), label="echo"),
            T("node", "!echo", emit=("ECHO",), label="echo_fire"),
            T("home", "PING", (("dir", ("S",)),), label="ping_s"),
            T("home", "PING", (("dir", ("E",)),), label="ping_e"),
        ),
        replaces=("ping_rest",))
    base.update(overrides)
    return Extension(**base)


class TestComposition:
    def test_plus_adds_the_extension_and_drops_what_it_replaces(self):
        spec = tiny_spec(mc_model="generated").plus(echo_extension())
        spec.validate()
        assert spec.name == "tiny_echo"
        assert spec.description == "tiny plus echo"
        assert [t.label for t in spec.transitions] == [
            "ping_u", "pong", "read", "echo", "echo_fire", "ping_s",
            "ping_e"]
        assert [m.name for m in spec.messages] == ["PING", "PONG", "ECHO"]
        assert dict(spec.domains) == {**DOMAINS, "pend": ("zero", "some")}
        assert spec.handled() == {"PING", "PONG", "ECHO"}
        # The extension's transitions name no kernels: no model twin.
        assert spec.mc_model == ""

    def test_findings_name_the_module_that_encodes_their_subject(self):
        spec = tiny_spec().plus(echo_extension())
        assert spec.derived_from == "tiny"
        assert spec.source_file == "spec/protocols/tiny.py"
        assert spec.source_of("ping_u", "pong") == "spec/protocols/tiny.py"
        assert spec.source_of("ping_u", "ping_s") == \
            "spec/protocols/tiny_echo.py"
        assert spec.source_of("ECHO") == "spec/protocols/tiny_echo.py"
        # A hand-written spec encodes all of itself.
        assert tiny_spec().source_of("ping_u") == "spec/protocols/tiny.py"

    def test_replacing_an_absent_label_is_rejected(self):
        with pytest.raises(SpecError, match="tiny_echo replaces ping_gone, "
                                            "which tiny lacks"):
            tiny_spec().plus(echo_extension(replaces=("ping_gone",)))

    def test_redeclaring_a_kept_label_is_rejected(self):
        with pytest.raises(SpecError, match="tiny_echo redeclares ping_u of "
                                            "tiny without replacing it"):
            tiny_spec().plus(echo_extension(transitions=(
                T("home", "PING", (("dir", ("U",)),), label="ping_u"),)))


#: The messages the wi and MESI hubs dispatch.
WI_HANDLED = frozenset({
    "GETS", "GETX", "DATA_SHARED", "DATA_EXCL", "ACK_X", "INV", "INV_ACK",
    "WRITEBACK", "EVICT_CLEAN", "WB_ACK", "NACK", "INTERVENTION",
    "SHARED_WB", "SHARED_RESP", "EXCL_RESP", "XFER_OWNER"})


class TestRegistry:
    def test_all_four_specs_load_and_validate(self):
        specs = all_specs()
        assert sorted(specs) == ["adaptive", "dragon", "mesi", "wi"]
        assert specs["adaptive"].mc_model == "generated"
        assert specs["mesi"].mc_model == "generated"
        assert specs["wi"].mc_model == "generated"
        assert specs["dragon"].mc_model == ""

    def test_unknown_spec_name_rejected(self):
        with pytest.raises(SpecError, match="no spec for protocol"):
            get_spec("moesi")

    def test_load_spec_tree_from_installed_sources(self):
        from repro.lint import default_root
        specs = load_spec_tree(default_root())
        assert sorted(specs) == ["adaptive", "dragon", "mesi", "wi"]

    def test_wi_is_adaptive_without_delegation_and_updates(self):
        adaptive, wi = get_spec("adaptive"), get_spec("wi")
        assert dataclasses.replace(
            wi, name="adaptive", description=adaptive.description) == \
            adaptive.without("delegation", "updates")
        # What wi keeps of adaptive, and what MESI drops on top.
        assert [f.name for f in wi.features] == ["rac", "consumer_vector"]
        assert wi.source_file == "spec/protocols/adaptive.py"
        # What the hubs dispatch under wi: the hand-written wi spec's
        # set minus its latent NACK_NOT_HOME arms.
        assert wi.handled() == WI_HANDLED

    def test_mesi_is_wi_without_the_rac_and_consumer_vector(self):
        wi, mesi = get_spec("wi"), get_spec("mesi")
        assert dataclasses.replace(
            mesi, name="wi", description=wi.description) == \
            wi.without("rac", "consumer_vector")
        assert mesi.features == ()
        assert mesi.source_file == "spec/protocols/adaptive.py"
        effects = {t.label: t.effect for t in mesi.transitions}
        assert effects["evict"] == "evict"
        assert effects["getx_upgrade"] == "getx_upgrade_forget"
        assert effects["getx_shared"] == "getx_shared_forget"
        assert "rac_evict" not in effects
        # Equal to the hand-written MESI spec's set.
        assert mesi.handled() == WI_HANDLED

    def test_dragon_is_wi_plus_its_update_pair(self):
        wi, dragon = get_spec("wi"), get_spec("dragon")
        own = {"data_e_update_push", "ack_x_update_push",
               "inv_ack_update_push", "update_apply", "update_ack_count",
               "update_ack_drain_publish", "sh_wb_publish",
               "sh_wb_stale_dir", "sh_wb_stale_owner", "sh_wb_stale_busy"}
        labels = [t.label for t in dragon.transitions]
        assert labels == [t.label for t in wi.transitions
                          if t.label != "sh_wb_stale"] + [
            t.label for t in dragon.transitions if t.label in own]
        assert dragon.own == own | {"UPDATE", "UPDATE_ACK"}
        assert dragon.mc_model == ""
        # The hand-written Dragon spec's set minus the NACK_NOT_HOME of
        # its latent stale-home arms.
        assert dragon.handled() == WI_HANDLED | {"UPDATE", "UPDATE_ACK"}

    @pytest.mark.parametrize("name", ["wi", "mesi", "dragon"])
    def test_tree_builds_from_its_adaptive(self, name):
        from repro.lint import default_root
        specs = load_spec_tree(default_root())
        assert specs[name] == get_spec(name)

    def test_tree_composes_dragon_from_its_own_adaptive(self, tmp_path):
        from repro.lint import default_root
        spec_dir = tmp_path / "spec" / "protocols"
        spec_dir.mkdir(parents=True)
        for name in ("adaptive.py", "dragon.py"):
            source = (default_root() / "spec" / "protocols" / name
                      ).read_text()
            if name == "adaptive.py":
                source = source.replace('label="inv_apply"',
                                        'label="inv_apply_tree"')
            (spec_dir / name).write_text(source)
        labels = {t.label for t in load_spec_tree(tmp_path)["dragon"]
                  .transitions}
        assert "inv_apply_tree" in labels and "inv_apply" not in labels

    def test_tree_extension_needs_its_base(self, tmp_path):
        from repro.lint import default_root
        spec_dir = tmp_path / "spec" / "protocols"
        spec_dir.mkdir(parents=True)
        (spec_dir / "dragon.py").write_text(
            (default_root() / "spec" / "protocols" / "dragon.py").read_text())
        with pytest.raises(SpecError, match="extends wi, which the tree "
                                            "does not define"):
            load_spec_tree(tmp_path)

    @pytest.mark.parametrize("name", sorted(DERIVED))
    def test_tree_module_may_not_define_a_derived_spec(self, tmp_path, name):
        spec_dir = tmp_path / "spec" / "protocols"
        spec_dir.mkdir(parents=True)
        (spec_dir / ("%s.py" % name)).write_text(
            "import dataclasses\n"
            "from repro.spec.protocols.adaptive import SPEC as ADAPTIVE\n"
            "SPEC = dataclasses.replace(ADAPTIVE, name=%r)\n" % name)
        with pytest.raises(SpecError, match="defines %s, which is derived "
                                            "from adaptive" % name):
            load_spec_tree(tmp_path)

    def test_legacy_tree_without_specs_yields_empty(self, tmp_path):
        assert load_spec_tree(tmp_path) == {}
