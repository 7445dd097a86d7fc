"""Mutation probes for the spec analyses (SPC) and the spec-driven
conformance checks (CON).

Two mutation styles:

* the SPC checks operate on a :class:`ProtocolSpec` alone, so those
  probes seed defects with ``dataclasses.replace`` on the installed
  specs — no tree copying needed;
* the conformance checks diff a spec against the AST-extracted simulator
  graph, so those probes copy the sources (the ``test_lint_mutation``
  idiom), mutate one side, and run the full ``run_lint`` pipeline; the
  model-checker side is the spec compiled, so its probes build a
  ``SpecModel`` from the mutated spec and expect it to refuse.

Plus the golden SARIF snapshot: a clean ``repro lint`` run over the real
tree must produce a byte-stable SARIF document (rule inventory included),
so CI artifact diffs show exactly when the check surface changes.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.mc import ALL_INVARIANTS, ModelChecker
from repro.spec import Msg, T, get_spec
from repro.spec.analyze import run_spec_checks
from repro.spec.mcgen import SpecExecutionError, SpecModel

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(SRC, root,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return root


def mutate(root, rel, old, new):
    path = root / rel
    text = path.read_text()
    assert old in text, "mutation anchor %r not found in %s" % (old, rel)
    path.write_text(text.replace(old, new))


def finding_map(root):
    from repro.lint import run_lint
    report = run_lint(root=root, use_allowlist=False)
    return {f.key: f.severity for f in report.findings}


def spc_keys(spec):
    return {f.key for f in run_spec_checks(spec)}


def replace_transition(spec, label, **changes):
    ts = tuple(dataclasses.replace(t, **changes) if t.label == label else t
               for t in spec.transitions)
    assert any(t.label == label for t in spec.transitions), label
    return dataclasses.replace(spec, transitions=ts)


def run_model(spec):
    model = SpecModel(spec)
    ModelChecker(model.initial_states(), model.rules(), ALL_INVARIANTS,
                 quiescent=model.quiescent, track_traces=False,
                 canonicalize=model.canonical).run()


def drop_transition(spec, label):
    ts = tuple(t for t in spec.transitions if t.label != label)
    assert len(ts) < len(spec.transitions), label
    return dataclasses.replace(spec, transitions=ts)


class TestSpecChecksClean:
    @pytest.mark.parametrize("name", ["adaptive", "wi", "mesi", "dragon"])
    def test_installed_specs_are_clean(self, name):
        assert spc_keys(get_spec(name)) == set()


class TestSpcMutations:
    def test_spc001_overlapping_guards(self):
        # Widen gets_shared to dir in {S, E}: it now competes with the
        # dir=E transitions in the GETS trigger group.
        spec = replace_transition(
            get_spec("mesi"), "gets_shared",
            when=(("busy", ("none",)), ("dir", ("S", "E"))))
        keys = spc_keys(spec)
        assert "SPC001:GETS:gets_intervene+gets_shared" in keys

    def test_spc002_non_exhaustive_guards(self):
        # Drop the unowned-GETS handler: busy=none & dir=U now matches
        # nothing, so the message would be dropped on the floor.
        # MESI inherits adaptive's at=home guard with the rest of GETS.
        keys = spc_keys(drop_transition(get_spec("mesi"), "gets_unowned"))
        assert any(k.startswith("SPC002:GETS:at=home&busy=none&dir=U")
                   for k in keys), keys

    @pytest.mark.parametrize("name", ["wi", "mesi"])
    def test_spc001_survives_the_projection(self, name):
        # Widen getx_shared to dir in {S, E} and any upgrade flag.  In
        # adaptive it is one side of the nondet delegation choice; the
        # projections drop that choice, so the tag must go with it or
        # the overlaps would pass unseen.
        spec = replace_transition(
            get_spec(name), "getx_shared",
            when=(("busy", ("none",)), ("dir", ("S", "E"))))
        found = {f.key: f.file for f in run_spec_checks(spec)}
        assert found == {
            "SPC001:GETX:%s" % pair: "spec/protocols/adaptive.py"
            for pair in ("getx_intervene+getx_shared",
                         "getx_own_wb_race+getx_shared",
                         "getx_shared+getx_upgrade")}

    def test_spc003_never_installed_state(self):
        spec = get_spec("mesi")
        spec = dataclasses.replace(
            spec, dir_states=spec.dir_states + ("ZOMBIE",))
        assert "SPC003:dir:ZOMBIE" in spc_keys(spec)

    def test_spc004_orphan_message(self):
        spec = get_spec("mesi")
        spec = dataclasses.replace(
            spec, messages=spec.messages + (
                Msg("PONG", note="orphan probe"),))
        keys = spc_keys(spec)
        assert "SPC004:PONG:never-emitted" in keys
        assert "SPC004:PONG:never-handled" in keys

    def test_spc005_emission_cycle_without_nack(self):
        # A GETS handler that re-emits GETS with no 'bounded' tag is the
        # spec-level livelock shape.
        spec = get_spec("mesi")
        spec = dataclasses.replace(
            spec, transitions=spec.transitions + (
                T("home", "GETS", (("busy", ("wb",)),), emit=("GETS",),
                  label="fwd_probe"),))
        assert "SPC005:cycle:GETS" in spc_keys(spec)

    def test_spc005_bounded_tag_excuses_self_loop(self):
        spec = get_spec("mesi")
        spec = dataclasses.replace(
            spec, transitions=spec.transitions + (
                T("home", "GETS", (("busy", ("wb",)),), emit=("GETS",),
                  tags=("bounded",), why="one-shot forward probe",
                  label="fwd_probe"),))
        assert not any(k.startswith("SPC005") for k in spc_keys(spec))

    def test_spc006_unpaired_request(self):
        # Strip INV_ACK's reply_to: the INV request now has no declared
        # reply, so a requester waiting on it would hang.
        spec = get_spec("mesi")
        msgs = tuple(dataclasses.replace(m, reply_to=())
                     if m.name == "INV_ACK" else m for m in spec.messages)
        keys = spc_keys(dataclasses.replace(spec, messages=msgs))
        assert "SPC006:INV:unpaired-request" in keys

    def test_spc006_reply_to_non_request(self):
        spec = get_spec("mesi")
        msgs = tuple(dataclasses.replace(m, reply_to=("INV_ACK",))
                     if m.name == "ACK_X" else m for m in spec.messages)
        keys = spc_keys(dataclasses.replace(spec, messages=msgs))
        assert "SPC006:ACK_X:reply-to-non-request" in keys


class TestConformanceMutations:
    def test_dropped_spec_transition_flags_both_sides(self, tree):
        # Remove the adaptive spec's unowned-GETS edge: the sim still
        # serves it, so it emits DATA_EXCL with no licensing spec
        # transition; the model compiled from that spec has nothing to
        # dispatch the first read miss to.
        mutate(tree, "spec/protocols/adaptive.py",
               '    T("home", "GETS", (("at", ("home",)), ("busy", '
               '("none",)),\n'
               '                       ("dir", ("U",))),\n'
               '      emit=("DATA_EXCL",), goes=(("dir", "E"),), '
               'label="gets_unowned",\n'
               '      effect="gets_unowned"),\n',
               '')
        found = finding_map(tree)
        assert "CON003:GETS->DATA_EXCL" in found
        with pytest.raises(SpecExecutionError,
                           match="0 spec transitions match GETS"):
            run_model(drop_transition(get_spec("adaptive"),
                                      "gets_unowned"))

    def test_phantom_spec_emission_is_flagged(self, tree):
        # Claim SHARED_WB handling can emit INV: the sim has no such
        # edge, so the spec's requirement is unmet.
        mutate(tree, "spec/protocols/adaptive.py",
               'goes=(("dir", "S"),), label="sh_wb_apply"',
               'emit=("INV",), goes=(("dir", "S"),), label="sh_wb_apply"')
        found = finding_map(tree)
        assert "CON005:SHARED_WB->INV" in found

    def test_derived_spec_findings_name_its_source_module(self, tree):
        # Widen adaptive's gets_shared to dir in {S, E}.  The projections
        # and Dragon keep the transition, so the overlap shows in all
        # four specs, and each finding points at the one module that
        # encodes it.
        mutate(tree, "spec/protocols/adaptive.py",
               '("dir", ("S",))),\n      emit=("DATA_SHARED",), '
               'label="gets_shared"',
               '("dir", ("S", "E"))),\n      emit=("DATA_SHARED",), '
               'label="gets_shared"')
        from repro.lint import run_lint
        report = run_lint(root=tree, use_allowlist=False)
        overlaps = {f.message.split(":")[0]: f.file for f in report.findings
                    if f.key == "SPC001:GETS:gets_intervene+gets_shared"}
        assert overlaps == {name: "spec/protocols/adaptive.py"
                            for name in ("adaptive", "wi", "mesi",
                                         "dragon")}

    def test_dragon_findings_on_its_own_transitions_name_dragon(self, tree):
        # Widen Dragon's publish arm to any owner: it now overlaps the
        # stale-owner arm, both declared in dragon.py.
        mutate(tree, "spec/protocols/dragon.py",
               '("owner_is_src", ("yes",))),\n      goes=(("dir", "S"),), '
               'label="sh_wb_publish"',
               '("owner_is_src", ("yes", "no"))),\n      '
               'goes=(("dir", "S"),), label="sh_wb_publish"')
        from repro.lint import run_lint
        report = run_lint(root=tree, use_allowlist=False)
        files = {f.key: f.file for f in report.findings
                 if f.key.startswith("SPC")}
        assert files == {"SPC001:SHARED_WB:sh_wb_publish+sh_wb_stale_owner":
                         "spec/protocols/dragon.py"}

    def test_bogus_replay_function_is_flagged(self, tree):
        mutate(tree, "spec/protocols/adaptive.py",
               'replay="_resolve_wb_race"', 'replay="_no_such_func"')
        found = finding_map(tree)
        assert "CON005:replay:_no_such_func" in found

    def test_renamed_model_rule_is_flagged(self):
        # The spec names the model rule each entry transition stands for;
        # a rule the compiler does not know is refused.
        spec = replace_transition(get_spec("adaptive"), "intervention_fire",
                                  mc_rule="rule_intervention_gone")
        with pytest.raises(SpecExecutionError,
                           match="rule_intervention_gone, which does not "
                                 "exist"):
            SpecModel(spec)

    def test_dangling_hoist_is_flagged(self):
        # Hoisted update emissions need the rule that realises them.
        spec = drop_transition(get_spec("adaptive"), "intervention_fire")
        with pytest.raises(SpecExecutionError,
                           match="hoists emissions into "
                                 "rule_intervention_fire"):
            SpecModel(spec)


class TestGoldenSarif:
    def test_clean_spec_run_matches_golden_sarif(self, capsys, tmp_path):
        from repro.cli import main
        out_path = tmp_path / "lint.sarif"
        assert main(["lint", "--sarif", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.read_text() == (
            GOLDEN / "spec_clean.sarif").read_text()

    def test_golden_sarif_carries_the_spc_rule_inventory(self):
        doc = json.loads((GOLDEN / "spec_clean.sarif").read_text())
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        for rule_id in ("SPC001", "SPC002", "SPC003", "SPC004", "SPC005",
                        "SPC006", "CON001", "CON003", "CON005"):
            assert rule_id in rules
        # Retired: a surviving check catches each of their mutants
        # (tests/test_lint_mutation.py).
        for rule_id in ("COV001", "COV002", "COV003", "DLK001"):
            assert rule_id not in rules
        assert doc["runs"][0]["results"] == []
