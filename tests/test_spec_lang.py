"""The guarded-action spec IR (repro.spec.lang) and the registry."""

import dataclasses

import pytest

from repro.spec import (Msg, ProtocolSpec, SpecError, T, all_specs,
                        get_spec, load_spec_tree)
from repro.spec.lang import guard_allows, guards_overlap

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


class TestRegistry:
    def test_all_four_specs_load_and_validate(self):
        specs = all_specs()
        assert sorted(specs) == ["adaptive", "dragon", "mesi", "wi"]
        assert specs["adaptive"].mc_model == "generated"
        assert specs["mesi"].mc_model == "generated"
        assert specs["wi"].mc_model == ""
        assert specs["dragon"].mc_model == ""

    def test_unknown_spec_name_rejected(self):
        with pytest.raises(SpecError, match="no spec for protocol"):
            get_spec("moesi")

    def test_load_spec_tree_from_installed_sources(self):
        from repro.lint import default_root
        specs = load_spec_tree(default_root())
        assert sorted(specs) == ["adaptive", "dragon", "mesi", "wi"]

    def test_legacy_tree_without_specs_yields_empty(self, tmp_path):
        assert load_spec_tree(tmp_path) == {}
