"""Arena protocols and the fast-path/pool lifecycle regressions.

Covers the PR's two bugfixes and the pluggable-protocol arena:

* fabric fast paths are bound at construction — late tracer/chaos
  attachment must raise instead of silently running un-instrumented, and
  traced runs must be stat-identical to untraced ones;
* the message free list survives exception and redispatch paths (no
  leak into the pool, no double release), audited by
  :meth:`Message.pool_audit`;
* every arena protocol (adaptive/wi/mesi/dragon) passes the full fuzz
  oracle set on shared seeds, and the ``wi`` baseline reproduces the
  no-updates (``base``) golden stats bit-for-bit;
* each ``directory_format`` runs a coherence-checked app through the
  newly wired ``SystemConfig`` knob;
* ``run_arena`` renders the multi-protocol comparison report.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.common import params
from repro.common.errors import ConfigError
from repro.fuzz.runner import run_case
from repro.fuzz.scenarios import FuzzScenario
from repro.harness import run_app
from repro.harness.arena import run_arena
from repro.lint import run_lint
from repro.lint.checks import check_arena
from repro.lint.extract import ProtocolDecl, extract_protocols, extract_sim
from repro.network.message import Message, MsgType
from repro.obs import TraceConfig, Tracer
from repro.protocol.arena import ARENA_PROTOCOLS, PROTOCOLS
from repro.sim import Read, System

LINE = 0x100000

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "perf_rewrite_golden.json")


class TestFabricLateBinding:
    """The traced/untraced and chaos/chaos-free send paths are chosen at
    ``Fabric.__init__``; attaching instrumentation later must be loud."""

    def test_late_tracer_attach_raises(self, base4):
        system = System(base4)
        with pytest.raises(RuntimeError, match="bound at __init__"):
            system.fabric.tracer = Tracer(TraceConfig())

    def test_late_chaos_attach_raises(self, base4):
        system = System(base4)
        with pytest.raises(RuntimeError, match="bound at __init__"):
            system.fabric.chaos = object()

    def test_idempotent_reassignment_is_legal(self, base4):
        tracer = Tracer(TraceConfig())
        system = System(base4, tracer=tracer)
        system.fabric.tracer = tracer          # same object: a no-op
        system.fabric.chaos = system.fabric.chaos
        with pytest.raises(RuntimeError):
            system.fabric.tracer = Tracer(TraceConfig())

    def test_traced_run_is_stat_identical_to_untraced(self):
        cfg = params.small(num_nodes=8)
        plain = run_app("em3d", cfg, seed=4, scale=0.05)
        tracer = Tracer(TraceConfig(capture_messages=True))
        traced = run_app("em3d", cfg, seed=4, scale=0.05, trace=tracer)
        assert traced.metrics.cycles == plain.metrics.cycles
        assert traced.stats == plain.stats
        assert tracer.spans  # the tracer really was wired in


class TestMessagePoolLifecycle:
    """Free-list regressions: double release raises, exception paths
    leave the pool sound, and ``pool_audit`` catches corruption."""

    def test_double_release_raises(self):
        msg = Message(MsgType.GETS, 0, 1, 0x80)
        msg.release()
        with pytest.raises(ValueError, match="double release"):
            msg.release()

    def test_pool_audit_clean_after_release(self):
        Message.clear_pool()
        Message(MsgType.GETS, 0, 1, 0x80, payload={"requester": 2}).release()
        assert Message.pool_audit() == []

    def test_pool_audit_flags_aliased_entry(self):
        Message.clear_pool()
        msg = Message(MsgType.GETS, 0, 1, 0x80)
        msg.release()
        # Simulate the old double-release bug: the same instance pushed
        # onto the free list twice.
        Message._pool.append(msg)
        problems = Message.pool_audit()
        assert any("alias" in problem for problem in problems)
        Message.clear_pool()

    def test_pool_audit_flags_unreleased_entry(self):
        Message.clear_pool()
        msg = Message(MsgType.GETS, 0, 1, 0x80, payload={"requester": 2})
        # Pushed without going through release(): flag and payload retained.
        Message._pool.append(msg)
        assert Message.pool_audit()
        Message.clear_pool()

    def test_handler_exception_leaves_pool_sound(self, base4):
        Message.clear_pool()
        system = System(base4)
        system.address_map.place_range(LINE, 128, 3)

        def boom(msg):
            raise RuntimeError("injected handler failure")

        system.hubs[3]._handler_array[MsgType.GETS.index] = boom
        with pytest.raises(RuntimeError, match="injected handler failure"):
            system.run([[Read(LINE)]])
        # The in-flight message is abandoned to the GC, never recycled
        # into the free list with live state.
        assert Message.pool_audit() == []


class TestWiGoldenParity:
    """The wi baseline is the adaptive protocol minus delegation/updates —
    on configs where those are already off it must be bit-for-bit."""

    def test_wi_reproduces_no_updates_golden(self):
        with open(GOLDEN_PATH) as fileobj:
            golden = json.load(fileobj)
        rec = next(r for r in golden["runs"] if r["system"] == "base")
        cfg = params.EVALUATED_SYSTEMS[rec["system"]](protocol_name="wi")
        run = run_app(rec["app"], cfg, seed=rec["seed"], scale=rec["scale"])
        assert run.metrics.cycles == rec["cycles"]
        assert run.stats == rec["stats"]

    def test_wi_matches_adaptive_on_update_free_config(self):
        cfg = params.rac_only(num_nodes=8)
        adaptive = run_app("em3d", cfg, seed=9, scale=0.05)
        wi = run_app("em3d", replace(cfg, protocol_name="wi"),
                     seed=9, scale=0.05)
        assert wi.metrics.cycles == adaptive.metrics.cycles
        assert wi.stats == adaptive.stats


class TestProtocolFuzzSmoke:
    """Every arena protocol passes the full oracle set (spans, single
    writer, directory agreement, lost update, pool invariant) on the
    shared golden seeds."""

    @pytest.mark.parametrize("protocol", ARENA_PROTOCOLS)
    def test_seeded_cases_pass_all_oracles(self, protocol):
        for seed in (0, 3, 11):
            scenario = FuzzScenario.from_seed(seed, scale=0.25,
                                              protocol=protocol)
            assert scenario.config.protocol_name == protocol
            result = run_case(scenario)
            assert result.ok, ("seed %d under %s: %s"
                               % (seed, protocol, result.message))

    def test_protocol_pin_changes_only_protocol_name(self):
        base = FuzzScenario.from_seed(5)
        pinned = FuzzScenario.from_seed(5, protocol="mesi")
        assert pinned.config == replace(base.config, protocol_name="mesi")
        assert pinned.chaos == base.chaos
        assert pinned.workloads == base.workloads


class TestDirectoryFormatSmoke:
    """The directory_format knob reaches the sim through SystemConfig and
    every format completes a coherence-checked app run."""

    @pytest.mark.parametrize("spec", ["full", "coarse:4", "limited:2"])
    def test_format_runs_coherence_checked(self, spec):
        cfg = params.small(num_nodes=8, directory_format=spec)
        run = run_app("em3d", cfg, seed=3, scale=0.05, check_coherence=True)
        assert run.metrics.cycles > 0


class TestArenaReport:
    def test_run_arena_renders_comparison(self):
        report = run_arena(apps=("em3d",), protocols=("adaptive", "wi"),
                           base_name="small", seed=5, scale=0.05)
        text = report.render_text()
        assert "[em3d]" in text
        assert "adaptive" in text and "wi" in text
        doc = report.to_json()
        rows = doc["rows"]["em3d"]
        assert [row["protocol"] for row in rows] == ["adaptive", "wi"]
        for row in rows:
            assert row["cycles"] > 0
            assert row["traffic_bytes"] > 0

    def test_unknown_protocol_fails_before_any_run(self):
        with pytest.raises(ConfigError, match="unknown protocol"):
            run_arena(apps=("em3d",), protocols=("adaptive", "nope"))


class TestLintProtocolAwareness:
    """Lint reports how it covers each protocol and guards the baseline
    handler tables (ARN001)."""

    def test_registry_extraction_matches_runtime(self):
        from repro.lint import default_root
        extracted = extract_protocols(default_root())
        assert set(extracted) == set(PROTOCOLS)
        for name, decl in extracted.items():
            # The adaptive hub's table lives in hub.py, the baselines'
            # in arena.py.
            assert bool(decl.handlers) == (name != "adaptive")

    def test_conformance_status_in_stats(self):
        report = run_lint()
        statuses = report.stats["protocols"]
        for name in ("adaptive", "mesi"):
            assert statuses[name] == \
                "conformance-checked (generated mc twin)"
        for name in ("wi", "dragon"):
            assert statuses[name] == "spec-checked (no mc twin)"
        assert report.stats["conformance"]["specs"] == \
            ["adaptive", "dragon", "mesi", "wi"]

    def test_arn001_fires_on_unknown_msgtype(self):
        from repro.lint import default_root
        sim = extract_sim(default_root())
        bad = {"bogus": ProtocolDecl(name="bogus", line=1,
                                     handlers={"NOT_A_MSG": ["_x"]})}
        findings = list(check_arena(sim, bad))
        assert [f.check_id for f in findings] == ["ARN001"]

    def test_real_tables_are_clean(self):
        from repro.lint import default_root
        root = default_root()
        assert list(check_arena(extract_sim(root),
                                extract_protocols(root))) == []
