"""Mutation probes for the static protocol analyzer.

Each test copies the real sources into a temp tree, seeds one defect of a
kind the linter promises to detect (a deleted handler entry, an orphaned
MsgType, a dropped spec transition, a stripped retry bound, an
unreachable state), and asserts ``repro.lint`` flags it with the right
check id and severity.  This is what proves the checks detect — rather
than merely describe — their defect classes.
"""

import shutil
from pathlib import Path

import pytest

from repro.lint import Severity, run_lint
from repro.mc import ALL_INVARIANTS, ModelChecker
from repro.spec import load_spec_tree
from repro.spec.mcgen import SpecExecutionError, SpecModel

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def tree(tmp_path):
    """A private, mutable copy of the repro sources."""
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
    """``{finding key: severity}`` for a raw (un-allowlisted) run."""
    report = run_lint(root=root, use_allowlist=False)
    return {f.key: f.severity for f in report.findings}


class TestBaseline:
    def test_unmutated_tree_is_clean_under_repo_allowlist(self, tree):
        allowlist = SRC.parent.parent / "lint_allowlist.txt"
        report = run_lint(root=tree, allowlist_path=allowlist)
        assert report.findings == []
        assert report.stale_allowlist == []


class TestHandlerCoverage:
    def test_deleted_handler_entry_is_flagged(self, tree):
        # Probe: drop HOME_CHANGED from the hub dispatch table.
        mutate(tree, "protocol/hub.py",
               "            MsgType.HOME_CHANGED: self._on_home_changed,\n",
               "")
        found = finding_map(tree)
        assert found["COV003:HOME_CHANGED"] is Severity.ERROR
        assert found["COV001:sim:HOME_CHANGED"] is Severity.ERROR

    def test_orphaned_msgtype_is_flagged(self, tree):
        # Probe: declare a MsgType nothing ever sends or handles.
        mutate(tree, "network/message.py",
               '    GETS = ("GETS", False)',
               '    GETS = ("GETS", False)\n    PING = ("PING", False)')
        found = finding_map(tree)
        assert found["COV002:sim:PING"] is Severity.ERROR   # never emitted
        assert found["COV003:PING"] is Severity.ERROR       # never handled
        # ... and it has no decided model-checker status either.
        assert found["CON001:PING"] is Severity.ERROR


class TestConformance:
    def test_dropped_mc_transition_is_flagged(self, tree):
        # Probe: drop the spec transition the model checker compiles into
        # its HC handler.  Lint flags the spec (the hub still handles the
        # message); the compiled model refuses the first hint delivered.
        mutate(tree, "spec/protocols/adaptive.py",
               '    T("node", "HOME_CHANGED", label="home_changed_hint", '
               'effect="take_hint"),\n', "")
        found = finding_map(tree)
        assert found["SPC004:HOME_CHANGED:never-handled"] is Severity.ERROR
        assert (found["SPC007:adaptive:HOME_CHANGED:unspecified-handler"]
                is Severity.ERROR)
        model = SpecModel(load_spec_tree(tree)["adaptive"])
        checker = ModelChecker(model.initial_states(), model.rules(),
                               ALL_INVARIANTS, quiescent=model.quiescent,
                               canonicalize=model.canonical)
        with pytest.raises(SpecExecutionError,
                           match="HC, which no adaptive spec transition"):
            checker.run()

    def test_dropped_sim_emission_is_flagged(self, tree):
        # Probe: the sim's GETS path stops publishing the delegation hint
        # while the model's still does -> a model transition with no sim
        # counterpart.
        mutate(tree, "protocol/hub.py",
               "            MsgType.HOME_CHANGED: self._on_home_changed,\n",
               "")
        found = finding_map(tree)
        assert found["COV001:sim:HOME_CHANGED"] is Severity.ERROR


class TestDeadlockHeuristics:
    def test_stripped_retry_bound_is_flagged(self, tree):
        # Probe: neuter the livelock guard in _retry_miss.
        mutate(tree, "protocol/requester.py",
               "if miss.retries > self.config.protocol.max_retries:",
               "if False:")
        found = finding_map(tree)
        assert found["DLK002:NACK->GETS@_issue_miss"] is Severity.WARNING
        assert found["DLK002:NACK->GETX@_issue_miss"] is Severity.WARNING
        # The stale-hint NACK funnels into the same unbounded reissue.
        assert (found["DLK002:NACK_NOT_HOME->GETS@_issue_miss"]
                is Severity.WARNING)

    def test_intact_retry_bound_is_not_flagged(self, tree):
        found = finding_map(tree)
        assert "DLK002:NACK->GETS@_issue_miss" not in found
        assert "DLK002:NACK->GETX@_issue_miss" not in found


class TestReachability:
    def test_unreachable_state_is_flagged(self, tree):
        # Probe: a directory state no transition ever enters.
        mutate(tree, "directory/state.py",
               '    EXCL = "EXCL"',
               '    EXCL = "EXCL"\n    ZOMBIE = "ZOMBIE"')
        found = finding_map(tree)
        assert found["RCH001:DirState.ZOMBIE"] is Severity.ERROR

    def test_write_only_state_is_flagged(self, tree):
        # Probe: a line state that is assigned but never examined.  Seed a
        # store site for it so it is reachable yet undistinguishable.
        mutate(tree, "cache/line.py",
               '    MODIFIED = "M"',
               '    MODIFIED = "M"\n    TRANSIENT = "T"')
        mutate(tree, "cache/rac.py",
               "            line.kind = RacKind.VICTIM",
               "            line.kind = RacKind.VICTIM\n"
               "            line.state = LineState.TRANSIENT")
        found = finding_map(tree)
        assert found["RCH002:LineState.TRANSIENT"] is Severity.WARNING
