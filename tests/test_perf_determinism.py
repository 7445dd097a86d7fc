"""Determinism guarantees of the sim-core hot-path rewrite.

The slotted message, pre-bound dispatch, inlined event-queue pushes and
the per-cycle calendar that replaced the event heap must be *invisible*:
a fixed seed produces the same stats dict, the same trace bytes, the same
``Msg#`` numbering and the same fuzz digests as the pre-rewrite
simulator.  The golden file ``tests/golden/perf_rewrite_golden.json`` was
captured from the tree immediately before the first rewrite; these tests
replay against it.
"""

import hashlib
import json
import os
import pytest

from repro.common import params
from repro.directory import DirState
from repro.fuzz.engine import replay_artifact
from repro.fuzz.runner import run_case
from repro.fuzz.scenarios import FuzzScenario
from repro.harness import run_app
from repro.network.message import (EMPTY_PAYLOAD, Message, MsgType,
                                   reset_msg_ids)
from repro.obs import TraceConfig, Tracer, export_jsonl
from repro.sim import System

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(GOLDEN_DIR, "perf_rewrite_golden.json")) as fileobj:
        return json.load(fileobj)


class TestGoldenRuns:
    """Fixed-seed stats dicts and cycle counts match the pre-rewrite tree."""

    def test_fast_golden_run(self, golden):
        rec = golden["runs"][0]
        cfg = params.EVALUATED_SYSTEMS[rec["system"]]()
        run = run_app(rec["app"], cfg, seed=rec["seed"], scale=rec["scale"])
        assert run.metrics.cycles == rec["cycles"]
        assert run.stats == rec["stats"]

    @pytest.mark.slow
    @pytest.mark.parametrize("index", [1, 2])
    def test_remaining_golden_runs(self, golden, index):
        rec = golden["runs"][index]
        cfg = params.EVALUATED_SYSTEMS[rec["system"]]()
        run = run_app(rec["app"], cfg, seed=rec["seed"], scale=rec["scale"])
        assert run.metrics.cycles == rec["cycles"]
        assert run.stats == rec["stats"]

    @staticmethod
    def jsonl_digest(rec, tmp_path):
        cfg = params.EVALUATED_SYSTEMS[rec["system"]]()
        tracer = Tracer(TraceConfig(capture_messages=rec["capture_messages"]))
        run_app(rec["app"], cfg, seed=rec["seed"], scale=rec["scale"],
                trace=tracer)
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_trace_jsonl_digest(self, golden, tmp_path):
        rec = golden["trace"]
        assert self.jsonl_digest(rec, tmp_path) == rec["jsonl_sha256"]

    def test_trace_jsonl_digest_without_messages(self, golden, tmp_path):
        # The tracer the fuzz runner installs: no per-message events, so
        # the fabric skips the tracer on every send.
        rec = golden["trace_without_messages"]
        assert not rec["capture_messages"]
        assert self.jsonl_digest(rec, tmp_path) == rec["jsonl_sha256"]


class TestGoldenFuzz:
    """Fuzz case digests (which embed stats, cycles, event counts and any
    ``Msg#``-bearing failure text) are byte-for-byte stable.  Seed 10 is
    the pinned seed whose chaos policy duplicates messages (4 duplicates,
    29 forced NACKs at scale 0.25)."""

    def test_case_digests(self, golden):
        for rec in golden["fuzz"]:
            scenario = FuzzScenario.from_seed(rec["seed"], scale=rec["scale"])
            result = run_case(scenario)
            assert result.ok == rec["ok"]
            assert result.digest == rec["digest"], (
                "fuzz seed %d digest drifted" % rec["seed"])

    def test_committed_artifact_replays(self):
        path = os.path.join(GOLDEN_DIR, "fuzz_artifact_seed3.json")
        report = replay_artifact(path)
        assert report.reproduced, (
            "expected %s, got %s" % (report.expected_digest,
                                     report.actual_digest))


class TestMsgIdSequencing:
    """``msg_id`` numbering and repr text restart with each run."""

    def test_reset_restarts_at_zero(self):
        reset_msg_ids()
        msg = Message(MsgType.GETS, 0, 1, 0x80)
        assert msg.msg_id == 0
        assert repr(msg) == "Msg#0(GETS 0->1 0x80)"

    def test_explicit_msg_id_does_not_consume_counter(self):
        reset_msg_ids()
        probe = Message(MsgType.GETS, 0, 0, 0, msg_id=-1)
        assert probe.msg_id == -1
        assert Message(MsgType.GETS, 0, 1, 0).msg_id == 0


class TestPayloadAliasing:
    """Header-only messages share one immutable empty payload; no message
    can observe another's payload mutations."""

    def test_default_payload_is_shared_empty(self):
        a = Message(MsgType.NACK, 0, 1, 0)
        b = Message(MsgType.INV, 1, 0, 0)
        assert a.payload is EMPTY_PAYLOAD
        assert b.payload is EMPTY_PAYLOAD
        assert dict(a.payload) == {}
        assert a.payload.get("requester") is None

    def test_empty_payload_rejects_mutation(self):
        msg = Message(MsgType.NACK, 0, 1, 0)
        with pytest.raises(TypeError):
            msg.payload["x"] = 1

    def test_distinct_payloads_never_alias(self):
        a = Message(MsgType.GETS, 0, 1, 0, payload={"requester": 0})
        b = Message(MsgType.GETS, 2, 1, 0, payload={"requester": 2})
        a.payload["tag"] = "a"
        assert "tag" not in b.payload

    LINE = 0x100000

    @staticmethod
    def scheduled(system, mtype):
        """Messages of ``mtype`` waiting on the event calendar."""
        return [args[0] for bucket in system.events._calendar.values()
                for _callback, args in bucket
                if args and isinstance(args[0], Message)
                and args[0].mtype is mtype]

    def broadcast(self):
        """A write by node 1 to a line all eight nodes share: the home
        (node 0) INVs the other seven in one fan-out."""
        system = System(params.baseline(num_nodes=8), check_coherence=False)
        system.address_map.place_range(self.LINE, 128, 0)
        entry = system.hubs[0].home_memory.entry(self.LINE)
        entry.state = DirState.SHARED
        entry.sharers = set(range(8))
        system.hubs[0]._home_getx(Message(
            MsgType.GETX, 1, 0, self.LINE,
            payload={"requester": 1, "has_copy": True}))
        return system, self.scheduled(system, MsgType.INV)

    def test_broadcast_inv_payload_is_read_only(self):
        _system, invs = self.broadcast()
        assert [inv.dst for inv in invs] == [0, 2, 3, 4, 5, 6, 7]
        assert all(inv.payload is invs[0].payload for inv in invs)
        with pytest.raises(TypeError):
            invs[0].payload["collector"] = 5
        assert all(inv.payload["collector"] == 1 for inv in invs)

    def test_inv_ack_payload_is_read_only(self):
        system, invs = self.broadcast()
        for inv in invs[1:3]:
            system.hubs[inv.dst]._on_inv(inv)
        acks = self.scheduled(system, MsgType.INV_ACK)
        assert [ack.dst for ack in acks] == [1, 1]
        assert acks[0].payload is acks[1].payload
        with pytest.raises(TypeError):
            acks[0].payload["wasted_update"] = True
        assert acks[1].payload["wasted_update"] is False

