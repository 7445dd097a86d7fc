"""The check registry, allowlist semantics, and report renderers —
exercised on small synthetic graphs so each rule's trigger condition is
pinned down independently of the real protocol."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.lint import run_lint
from repro.lint.checks import (check_conformance, check_coverage,
                               check_deadlock, check_reachability)
from repro.lint.extract import Emission, FuncInfo, Graph, Item, MsgDecl
from repro.lint.findings import Allowlist, Finding, LintReport, Severity
from repro.lint.report import render_json, render_sarif, render_text
from repro.spec import Msg, ProtocolSpec, T


def make_graph(side, messages=(), handlers=None, funcs=None,
               entry_points=()):
    graph = Graph(side)
    for name in messages:
        graph.messages[name] = MsgDecl(name=name, file="f.py", line=1)
    graph.handlers = dict(handlers or {})
    graph.funcs = dict(funcs or {})
    graph.entry_points = list(entry_points)
    return graph


def func(name, emits=(), calls=(), retry_guard=False):
    items = [Item(kind="emit",
                  emission=Emission(mtype=m, dst="", func=name,
                                    file="f.py", line=1))
             for m in emits]
    items += [Item(kind="call", callee=c) for c in calls]
    return FuncInfo(name=name, file="f.py", line=1, items=items,
                    has_retry_guard=retry_guard)


def keys(findings):
    return {f.key for f in findings}


class TestCoverage:
    def test_emitted_but_unhandled(self):
        sim = make_graph("sim", ["GETS", "NACK"],
                         handlers={"GETS": ["h"]},
                         funcs={"h": func("h", emits=["NACK"])})
        found = keys(check_coverage(sim))
        assert "COV001:sim:NACK" in found

    def test_dead_message(self):
        sim = make_graph("sim", ["GETS"], handlers={"GETS": ["h"]},
                         funcs={"h": func("h")})
        found = keys(check_coverage(sim))
        assert "COV002:sim:GETS" in found

    def test_member_without_dispatch_entry(self):
        sim = make_graph("sim", ["GETS", "GETX"],
                         handlers={"GETS": ["h"]},
                         funcs={"h": func("h", emits=["GETX"])})
        found = keys(check_coverage(sim))
        assert "COV003:GETX" in found
        assert "COV003:GETS" not in found


def tiny_spec(*transitions, extra=()):
    """A minimal adaptive spec: GETS answered with DATA_SHARED, plus INV."""
    messages = (Msg("GETS", mc=("GETS",), role="request"),
                Msg("DATA_SHARED", mc=("DATA_S",), role="reply",
                    reply_to=("GETS",)),
                Msg("INV", mc=("INV",))) + tuple(extra)
    return ProtocolSpec(name="adaptive", description="", messages=messages,
                        dir_states=("U",), cache_states=("I",), domains={},
                        transitions=tuple(transitions))


class TestConformance:
    """The simulator graph against the spec (the model checker is the
    spec, compiled, so there is no model graph to diff)."""

    def _run(self, sim_emits, spec_emits, extra=()):
        sim = make_graph("sim", ["GETS", "DATA_SHARED", "INV"],
                         handlers={"GETS": ["h"]},
                         funcs={"h": func("h", emits=sim_emits)})
        spec = tiny_spec(T("home", "GETS", emit=tuple(spec_emits),
                           label="serve"), extra=extra)
        return keys(check_conformance(sim, specs={"adaptive": spec}))

    def test_agreeing_transitions_are_silent(self):
        found = self._run(["DATA_SHARED"], ["DATA_SHARED"])
        assert not any(k.startswith(("CON003", "CON005")) for k in found)

    def test_sim_transition_missing_from_model(self):
        # The spec (which the model is compiled from) has no GETS edge
        # emitting DATA_SHARED, yet the simulator's handler sends one.
        assert "CON003:GETS->DATA_SHARED" in self._run(["DATA_SHARED"], [])

    def test_model_transition_missing_from_sim(self):
        found = self._run(["DATA_SHARED"], ["DATA_SHARED", "INV"])
        assert "CON005:GETS->INV" in found

    def test_unmapped_sim_message(self):
        sim = make_graph("sim", ["PING"])
        found = {f.key: f for f in check_conformance(
            sim, specs={"adaptive": tiny_spec()})}
        assert found["CON001:PING"].severity is Severity.ERROR

    def test_unmapped_mc_token(self):
        # A spec message (and its model token) the simulator never
        # declares.
        found = self._run(["DATA_SHARED"], ["DATA_SHARED"],
                          extra=(Msg("ZZZ", mc=("ZZZ",)),))
        assert "CON001:spec:ZZZ" in found


class TestDeadlock:
    def test_self_loop_flagged(self):
        sim = make_graph("sim", ["GETS"], handlers={"GETS": ["h"]},
                         funcs={"h": func("h", emits=["GETS"])})
        assert "DLK001:cycle:GETS" in keys(check_deadlock(sim))

    def test_cycle_without_nack_flagged(self):
        sim = make_graph(
            "sim", ["INV", "INV_ACK"],
            handlers={"INV": ["a"], "INV_ACK": ["b"]},
            funcs={"a": func("a", emits=["INV_ACK"]),
                   "b": func("b", emits=["INV"])})
        assert "DLK001:cycle:INV>INV_ACK" in keys(check_deadlock(sim))

    def test_cycle_through_nack_exempt(self):
        sim = make_graph(
            "sim", ["GETS", "NACK"],
            handlers={"GETS": ["a"], "NACK": ["b"]},
            funcs={"a": func("a", emits=["NACK"]),
                   "b": func("b", emits=["GETS"], retry_guard=True)})
        assert not any(k.startswith("DLK001")
                       for k in keys(check_deadlock(sim)))

    def test_unbounded_retry_flagged_bounded_not(self):
        sim = make_graph(
            "sim", ["GETS", "GETX", "NACK"],
            handlers={"NACK": ["retry"]},
            funcs={"retry": func("retry", calls=["good", "bad"]),
                   "good": func("good", emits=["GETS"], retry_guard=True),
                   "bad": func("bad", emits=["GETX"])})
        found = keys(check_deadlock(sim))
        assert "DLK002:NACK->GETX@bad" in found
        assert "DLK002:NACK->GETS@good" not in found


class TestReachability:
    def _usage(self, stores, reads):
        from repro.lint.extract import StateUsage
        usage = StateUsage(enum="DirState", file="d.py")
        usage.add_member("X", 1)
        usage.members["X"]["stores"] = [("d.py", 2)] * stores
        usage.members["X"]["reads"] = [("d.py", 3)] * reads
        return {"DirState": usage}

    def test_never_entered_is_an_error(self):
        found = {f.key: f
                 for f in check_reachability(self._usage(0, 2))}
        assert found["RCH001:DirState.X"].severity is Severity.ERROR

    def test_never_examined_is_a_warning(self):
        found = {f.key: f
                 for f in check_reachability(self._usage(2, 0))}
        assert found["RCH002:DirState.X"].severity is Severity.WARNING

    def test_live_member_is_silent(self):
        assert not list(check_reachability(self._usage(1, 1)))


class TestAllowlist:
    def test_missing_justification_rejected(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("COV001:sim:GETS\n")
        with pytest.raises(ConfigError):
            Allowlist.load(path)

    def test_malformed_key_rejected(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("justaword  # but why\n")
        with pytest.raises(ConfigError):
            Allowlist.load(path)

    def test_glob_patterns_match_within_one_check(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("CON003:*->UPDATE  # hoisted into a rule\n")
        allowlist = Allowlist.load(path)
        hit = Finding(check_id="CON003", severity=Severity.WARNING,
                      message="", fingerprint="ACK_X->UPDATE")
        other_check = Finding(check_id="CON004",
                              severity=Severity.WARNING,
                              message="", fingerprint="ACK_X->UPDATE")
        assert allowlist.match(hit)
        assert not allowlist.match(other_check)

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text("COV001:sim:NOPE  # obsolete\n")
        allowlist = Allowlist.load(path)
        assert [e.key for e in allowlist.stale_entries()] \
            == ["COV001:sim:NOPE"]


class TestReportAndRenderers:
    def _report(self):
        return LintReport(findings=[
            Finding(check_id="COV001", severity=Severity.ERROR,
                    message="boom", fingerprint="sim:X", file="f.py",
                    line=3),
            Finding(check_id="DLK002", severity=Severity.WARNING,
                    message="spin", fingerprint="NACK->X@f"),
        ], root="src/repro")

    def test_exit_code_thresholds(self):
        report = self._report()
        assert report.exit_code(Severity.ERROR) == 1
        report.findings = [f for f in report.findings
                           if f.severity is not Severity.ERROR]
        assert report.exit_code(Severity.ERROR) == 0
        assert report.exit_code(Severity.WARNING) == 1

    def test_text_lists_fingerprints_errors_first(self):
        text = render_text(self._report())
        assert text.index("COV001") < text.index("DLK002")
        assert "COV001:sim:X" in text

    def test_json_round_trips(self):
        doc = json.loads(render_json(self._report()))
        assert doc["summary"] == {"errors": 1, "warnings": 1, "notes": 0}
        assert doc["findings"][0]["key"] == "COV001:sim:X"

    def test_sarif_shape(self):
        doc = json.loads(render_sarif(self._report()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        results = run["results"]
        assert len(results) == 2
        assert results[0]["level"] == "error"
        for result in results:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        located = results[0]["locations"][0]["physicalLocation"]
        assert located["artifactLocation"]["uri"] == "src/repro/f.py"


class TestSelfAudit:
    def test_repo_is_clean_under_its_allowlist(self):
        report = run_lint()
        assert report.findings == []
        assert report.stale_allowlist == []
        # The allowlist must actually be in play, not silently missing.
        assert report.allowlist_path is not None
        assert report.allowlisted
