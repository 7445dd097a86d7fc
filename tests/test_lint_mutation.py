"""The kill matrix for the static layer.

Each row copies the real sources into a temp checkout, seeds one
plausible defect, and asserts exactly what catches it: the findings
``repro lint`` reports above the repo's allowlist (the unmutated tree has
none), and whether building a ``System`` from the mutated tree raises the
hub's dispatch ``ConfigError``.  A check that no row needs is redundant;
that is how handler coverage (COV001-003) and the dependency-cycle
heuristic (DLK001) went: every mutant they caught, a surviving check
catches too (``was`` names the retired checks).  The SPC spec analyses
have their rows in ``tests/test_spec_checks.py``; the published matrix
is in docs/verification.md.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Tuple

import pytest

from repro.lint import Severity, run_lint
from repro.lint.report import RULE_DESCRIPTIONS
from repro.mc import ALL_INVARIANTS, ModelChecker
from repro.spec import load_spec_tree
from repro.spec.mcgen import SpecExecutionError, SpecModel

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWLIST = SRC.parent.parent / "lint_allowlist.txt"

#: Every check reports at one fixed severity (the two spec analyses
#: here are the ones a new message trips).
SEVERITY = {"CON001": Severity.ERROR, "CON003": Severity.WARNING,
            "CON005": Severity.ERROR, "DLK002": Severity.WARNING,
            "RCH001": Severity.ERROR, "RCH002": Severity.WARNING,
            "EXT001": Severity.NOTE, "ALW001": Severity.WARNING,
            "SPC004": Severity.ERROR, "SPC006": Severity.ERROR}


@dataclass(frozen=True)
class Row:
    """One mutant and the checks that catch it."""

    edits: Tuple[Tuple[str, str, str], ...]  # (file, old, new) in the package
    finds: FrozenSet[str] = frozenset()  # finding keys above the allowlist
    config_error: str = ""   # System() raises a ConfigError naming this
    allow: str = ""          # line appended to the allowlist copy
    was: Tuple[str, ...] = ()  # retired checks that also caught it


HUB = "protocol/hub.py"
ADAPTIVE = "spec/protocols/adaptive.py"
HOME = "protocol/home.py"
REQUESTER = "protocol/requester.py"

HOME_CHANGED_SEND = (
    "        self.send(Message(MsgType.HOME_CHANGED, src=self.node, "
    "dst=requester,\n")
NO_COPY_NACK = (
    "            # Copy already evicted: the writeback/evict notice is in "
    "flight.\n"
    "            self.send(Message(MsgType.NACK,")
#: The handlers that complete a miss: each can evict a dirty victim and
#: push updates for the line it fills.
COMPLETIONS = ("ACK_X", "DATA_EXCL", "DATA_SHARED", "DELEGATE", "EXCL_RESP",
               "INV_ACK", "SHARED_RESP")

MATRIX = {
    # -- the hub's dispatch check -------------------------------------------
    "handler-entry-dropped": Row(
        ((HUB, "            MsgType.HOME_CHANGED: self._on_home_changed,\n",
          ""),),
        config_error="adaptive spec handles HOME_CHANGED",
        was=("COV001", "COV003")),
    # -- the vocabulary: MsgType is the adaptive spec's MESSAGES --------------
    "msgtype-added": Row(
        ((ADAPTIVE, '    Msg("GETS", mc=("GETS",), role="request"),\n',
          '    Msg("GETS", mc=("GETS",), role="request"),\n'
          '    Msg("PING", mc=("PING",), role="request"),\n'),),
        finds=frozenset({"SPC004:PING:never-emitted",
                         "SPC004:PING:never-handled",
                         "SPC006:PING:unpaired-request"}),
        was=("CON001",)),
    # -- CON001: an emitted name that is no MsgType ---------------------------
    "home-changed-typo": Row(
        ((HOME, HOME_CHANGED_SEND, HOME_CHANGED_SEND.replace(
            "HOME_CHANGED", "HOME_CHANGD")),),
        finds=frozenset({"CON001:emit:HOME_CHANGD",
                         "CON005:GETS->HOME_CHANGED"}),
        was=("COV001", "COV002")),
    "no-copy-nack-typo": Row(
        ((REQUESTER, NO_COPY_NACK, NO_COPY_NACK.replace("NACK,", "NAKC,")),),
        finds=frozenset({"CON001:emit:NAKC"}), was=("COV001",)),
    # -- CON003: an edge the spec does not allow ------------------------------
    "dele-getx-resent": Row(
        ((HOME, "            self.send(Message(MsgType.UNDELE_REQ, "
                "src=self.node,\n"
                "                              dst=entry.delegate, "
                "addr=addr))\n            return\n",
          "            self.send(Message(MsgType.UNDELE_REQ, "
          "src=self.node,\n"
          "                              dst=entry.delegate, addr=addr))\n"
          "            self.send(Message(MsgType.GETX, src=self.node,\n"
          "                              dst=entry.delegate, addr=addr))\n"
          "            return\n"),),
        finds=frozenset({"CON003:GETX->GETX"}), was=("DLK001",)),
    "inv-sends-getx": Row(
        ((REQUESTER, "        self.hierarchy.invalidate(msg.addr)\n"
                     "        payload = _INV_ACK_USED\n",
          "        self.hierarchy.invalidate(msg.addr)\n"
          "        self.send(Message(MsgType.GETX, src=self.node, "
          "dst=msg.src,\n"
          "                          addr=msg.addr))\n"
          "        payload = _INV_ACK_USED\n"),),
        finds=frozenset({"CON003:INV->GETX"})),
    # -- CON005: an edge the spec requires ------------------------------------
    "home-changed-send-dropped": Row(
        ((HOME, HOME_CHANGED_SEND + "                          "
                "addr=entry.addr,\n                          "
                'payload={"delegate": entry.delegate}))\n', ""),),
        finds=frozenset({"CON005:GETS->HOME_CHANGED"}),
        was=("COV002",)),
    "updates-never-pushed": Row(
        ((HUB, "        self.fabric.send_all(\n"
               "            Message(MsgType.UPDATE, node, consumer, addr, "
               "value, payload)\n"
               "            for consumer in targets)\n", ""),),
        finds=frozenset("CON005:%s->UPDATE" % m for m in COMPLETIONS),
        was=("COV002",)),
    "eviction-writeback-dropped": Row(
        ((REQUESTER, "            self.send(Message(MsgType.WRITEBACK, "
                     "src=self.node,\n"
                     "                              dst=self.address_map."
                     "home_of(addr), addr=addr,\n"
                     "                              value=notice.value))\n",
          "            pass\n"),),
        finds=frozenset("CON005:%s->WRITEBACK" % m for m in COMPLETIONS),
        was=("COV002",)),
    # -- DLK002: an unbounded NACK retry --------------------------------------
    "retry-bound-stripped": Row(
        ((REQUESTER, "if miss.retries > self.config.protocol.max_retries:",
          "if False:"),),
        finds=frozenset("DLK002:%s->%s@_issue_miss" % (nack, request)
                        for nack in ("NACK", "NACK_NOT_HOME")
                        for request in ("GETS", "GETX"))),
    # -- RCH001/RCH002: state reachability ------------------------------------
    "state-never-entered": Row(
        (("directory/state.py", '    EXCL = "EXCL"',
          '    EXCL = "EXCL"\n    ZOMBIE = "ZOMBIE"'),),
        finds=frozenset({"RCH001:DirState.ZOMBIE"})),
    "state-never-examined": Row(
        (("cache/line.py", '    MODIFIED = "M"',
          '    MODIFIED = "M"\n    TRANSIENT = "T"'),
         ("cache/rac.py", "            line.dirty = dirty",
          "            line.dirty = dirty\n"
          "            line.state = LineState.TRANSIENT")),
        finds=frozenset({"RCH002:LineState.TRANSIENT"})),
    # -- EXT001: an emission the extractor cannot see through -----------------
    "reply-type-at-run-time": Row(
        ((REQUESTER, "        pass  # writebacks are fire-and-forget at the "
                     "requester\n",
          '        self.send(Message(msg.payload["reply"], src=self.node,\n'
          "                          dst=msg.src, addr=msg.addr))\n"),),
        finds=frozenset({"EXT001:sim:_on_wb_ack"})),
    # -- ALW001: an allowlist entry that suppresses nothing -------------------
    "allowlist-entry-stale": Row(
        (), allow="DLK001:cycle:GETS  # the retired cycle heuristic",
        finds=frozenset({"ALW001:DLK001:cycle:GETS"})),
}

#: Rows that predate the matrix run under their historic test names below.
NAMED_ROWS = {"handler-entry-dropped", "msgtype-added",
              "home-changed-send-dropped", "retry-bound-stripped",
              "state-never-entered", "state-never-examined"}


@pytest.fixture
def tree(tmp_path):
    """A private, mutable checkout: ``src/repro`` plus the allowlist."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(SRC, root,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ALLOWLIST, tmp_path / ALLOWLIST.name)
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


def build_system(root):
    """Build one adaptive ``System`` from the tree at ``root``, in a fresh
    interpreter; the completed process (stderr holds any traceback)."""
    code = ("from repro.common.params import small\n"
            "from repro.sim.system import System\n"
            "System(small(num_nodes=4))\n")
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root.parent)), timeout=120)


def assert_caught(root, row_id):
    row = MATRIX[row_id]
    for rel, old, new in row.edits:
        mutate(root, rel, old, new)
    if row.allow:
        with open(root.parent.parent / ALLOWLIST.name, "a") as fileobj:
            fileobj.write(row.allow + "\n")
    report = run_lint(root=root)
    assert {f.key for f in report.findings} == row.finds
    for finding in report.findings:
        assert finding.severity is SEVERITY[finding.check_id], finding.key
    built = build_system(root)
    if row.config_error:
        assert built.returncode != 0
        assert "ConfigError" in built.stderr
        assert row.config_error in built.stderr
    else:
        assert built.returncode == 0, built.stderr


class TestBaseline:
    def test_unmutated_tree_is_clean_under_repo_allowlist(self, tree):
        report = run_lint(root=tree)
        assert report.allowlist_path == str(tree.parent.parent
                                            / ALLOWLIST.name)
        assert report.findings == []
        assert report.stale_allowlist == []
        assert build_system(tree).returncode == 0


@pytest.mark.parametrize("row_id", sorted(set(MATRIX) - NAMED_ROWS))
def test_kill_matrix(tree, row_id):
    assert_caught(tree, row_id)


def test_every_surviving_check_has_a_row():
    caught = {key.partition(":")[0] for row in MATRIX.values()
              for key in row.finds}
    static = {rule for rule in RULE_DESCRIPTIONS
              if not rule.startswith("SPC")}
    assert caught == static | {"SPC004", "SPC006"} == set(SEVERITY)
    assert any(row.config_error for row in MATRIX.values())
    # Every retired check has mutants here, each with a surviving catcher.
    # CON001 survives as its emit:NAME arm only; its vocabulary-diff arms
    # went when MsgType became the spec's MESSAGES.
    retired = {check for row in MATRIX.values() for check in row.was}
    assert retired == {"COV001", "COV002", "COV003", "DLK001", "CON001"}
    assert retired & set(RULE_DESCRIPTIONS) == {"CON001"}


class TestHandlerCoverage:
    def test_deleted_handler_entry_is_flagged(self, tree):
        # Drop HOME_CHANGED from the hub dispatch table: no lint finding,
        # but no System can be built.
        assert_caught(tree, "handler-entry-dropped")

    def test_orphaned_msgtype_is_flagged(self, tree):
        # Declare a message (and so a MsgType) that nothing sends and no
        # transition handles.
        assert_caught(tree, "msgtype-added")


class TestConformance:
    def test_dropped_mc_transition_is_flagged(self, tree):
        # Probe: drop the spec transition the model checker compiles into
        # its HC handler.  Lint flags the spec; the compiled model refuses
        # the first hint delivered (as the simulator's hubs, which serve
        # only what the spec handles, would).
        mutate(tree, "spec/protocols/adaptive.py",
               '    T("node", "HOME_CHANGED", label="home_changed_hint", '
               'effect="take_hint"),\n', "")
        found = finding_map(tree)
        assert found["SPC004:HOME_CHANGED:never-handled"] is Severity.ERROR
        model = SpecModel(load_spec_tree(tree)["adaptive"])
        checker = ModelChecker(model.initial_states(), model.rules(),
                               ALL_INVARIANTS, quiescent=model.quiescent,
                               canonicalize=model.canonical)
        with pytest.raises(SpecExecutionError,
                           match="HC, which no adaptive spec transition"):
            checker.run()

    def test_dropped_sim_emission_is_flagged(self, tree):
        # The home's DELE forward stops hinting the requester while the
        # spec's forward still does.
        assert_caught(tree, "home-changed-send-dropped")


class TestDeadlockHeuristics:
    def test_stripped_retry_bound_is_flagged(self, tree):
        # Neuter the livelock guard in _retry_miss; the stale-hint NACK
        # funnels into the same unbounded reissue.
        assert_caught(tree, "retry-bound-stripped")

    def test_intact_retry_bound_is_not_flagged(self, tree):
        found = finding_map(tree)
        assert "DLK002:NACK->GETS@_issue_miss" not in found
        assert "DLK002:NACK->GETX@_issue_miss" not in found


class TestReachability:
    def test_unreachable_state_is_flagged(self, tree):
        # A directory state no transition ever enters.
        assert_caught(tree, "state-never-entered")

    def test_write_only_state_is_flagged(self, tree):
        # A line state that is assigned but never examined.
        assert_caught(tree, "state-never-examined")
