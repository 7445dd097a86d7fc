"""Arena protocols and the fabric's hook wiring.

Covers the fabric's construction-time hooks and the pluggable-protocol
arena:

* the tracer and chaos hooks are fixed at ``Fabric.__init__`` —
  late attachment must raise instead of silently running
  un-instrumented, and traced runs must be stat-identical to untraced
  ones, with and without chaos;
* every arena protocol (adaptive/wi/mesi/dragon) passes the full fuzz
  oracle set on shared seeds, and the ``wi`` baseline reproduces the
  no-updates (``base``) golden stats bit-for-bit;
* each ``directory_format`` runs a coherence-checked app through the
  newly wired ``SystemConfig`` knob;
* ``run_arena`` renders the multi-protocol comparison report;
* the spec decides dispatch: each protocol's hubs serve exactly the
  messages its spec handles and raise ``UnhandledMessageError`` on any
  other type.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.common import params
from repro.common.errors import ConfigError, UnhandledMessageError
from repro.fuzz.runner import run_case
from repro.fuzz.scenarios import FuzzScenario
from repro.harness import run_app
from repro.harness.arena import run_arena
from repro.lint import default_root, run_lint
from repro.lint.extract import extract_sim
from repro.network import ChaosConfig, Message, MsgType
from repro.obs import TraceConfig, Tracer
from repro.protocol import Hub
from repro.protocol.arena import ARENA_PROTOCOLS, PROTOCOLS, Protocol
from repro.sim import System
from repro.spec import Msg, get_spec
from repro.spec.conformance import run_conformance
from repro.spec.registry import SPEC_NAMES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "perf_rewrite_golden.json")


class TestFabricLateBinding:
    """The tracer and chaos hooks are read-only properties of the fabric;
    attaching instrumentation after construction must be loud."""

    def test_late_tracer_attach_raises(self, base4):
        system = System(base4)
        with pytest.raises(AttributeError):
            system.fabric.tracer = Tracer(TraceConfig())

    def test_late_chaos_attach_raises(self, base4):
        system = System(base4)
        with pytest.raises(AttributeError):
            system.fabric.chaos = object()

    @pytest.mark.parametrize("chaos", [
        None,
        ChaosConfig(seed=3, delay_jitter=50, reorder_prob=0.2,
                    reorder_window=100, duplicate_prob=0.2,
                    force_nack_prob=0.2),
    ], ids=["plain", "chaos"])
    def test_traced_run_is_stat_identical_to_untraced(self, chaos):
        cfg = params.small(num_nodes=8)
        plain = run_app("em3d", cfg, seed=4, scale=0.05, chaos=chaos)
        tracer = Tracer(TraceConfig(capture_messages=True))
        traced = run_app("em3d", cfg, seed=4, scale=0.05, trace=tracer,
                         chaos=chaos)
        assert traced.metrics.cycles == plain.metrics.cycles
        assert traced.stats == plain.stats
        assert tracer.spans  # the tracer really was wired in
        # Latency histograms are always on and identical either way; the
        # tracer's copies are those same counts, not a second recording.
        assert plain.latency["miss_latency"]["2hop"]["count"] > 0
        assert traced.latency == plain.latency
        assert plain.obs is None
        assert traced.obs["miss_latency"] == traced.latency["miss_latency"]
        assert traced.obs["retries"] == traced.latency["retries"]


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


class TestDispatchContract:
    """The spec decides dispatch: every protocol's hubs serve exactly the
    messages its spec handles, and refuse every other type."""

    LINE = 0x100000

    @staticmethod
    def system(name):
        return System(params.small(num_nodes=4, protocol_name=name),
                      check_coherence=False)

    def deliver(self, system, mtype):
        system.address_map.place_range(self.LINE, 128, 0)
        system.fabric.send(Message(mtype, src=0, dst=1, addr=self.LINE,
                                   payload={"requester": 0}))
        system.events.run()

    def test_every_protocol_has_a_spec(self):
        assert set(PROTOCOLS) == set(SPEC_NAMES)

    def test_hub_method_map_covers_every_msgtype(self):
        hub = self.system("adaptive").hubs[0]
        assert set(hub._handlers) == set(MsgType)

    @pytest.mark.parametrize("name", ARENA_PROTOCOLS)
    def test_unhandled_types_raise_on_delivery(self, name):
        handled = get_spec(name).handled()
        hub = self.system(name).hubs[1]
        for mtype in MsgType:
            served = hub._handler_array[mtype.index] != hub._unhandled
            assert served == (mtype.name in handled), mtype
        stripped = [m for m in MsgType if m.name not in handled]
        assert (stripped == []) == (name == "adaptive")
        for mtype in stripped:
            system = self.system(name)
            with pytest.raises(UnhandledMessageError) as excinfo:
                self.deliver(system, mtype)
            assert excinfo.value.node == 1
            assert excinfo.value.mtype is mtype

    @pytest.fixture
    def fresh_adaptive(self, monkeypatch):
        """A registry entry for ``adaptive`` with no cached handled set."""
        fresh = Protocol("adaptive", Hub, "adaptive, spec edited")
        monkeypatch.setitem(PROTOCOLS, "adaptive", fresh)
        return fresh

    def test_spec_edit_changes_the_dispatch(self, fresh_adaptive,
                                            monkeypatch):
        from repro.spec.protocols import adaptive
        spec = adaptive.SPEC
        monkeypatch.setattr(adaptive, "SPEC", replace(
            spec, transitions=tuple(t for t in spec.transitions
                                    if t.on != "HOME_CHANGED")))
        system = self.system("adaptive")
        hub = system.hubs[1]
        assert hub._handler_array[MsgType.HOME_CHANGED.index] == \
            hub._unhandled
        assert hub._handler_array[MsgType.UPDATE.index] != hub._unhandled
        with pytest.raises(UnhandledMessageError):
            self.deliver(system, MsgType.HOME_CHANGED)

    def test_spec_message_without_a_hub_method_fails_construction(
            self, fresh_adaptive):
        fresh_adaptive._handled = get_spec("adaptive").handled() | {"PING"}
        with pytest.raises(ConfigError, match="adaptive spec handles PING"):
            self.system("adaptive")


class TestLintProtocolAwareness:
    """Lint reports how it covers each protocol."""

    def test_conformance_status_in_stats(self):
        report = run_lint()
        statuses = report.stats["protocols"]
        assert statuses["adaptive"] == \
            "conformance-checked (generated mc twin)"
        for name in ("wi", "mesi"):
            assert statuses[name] == "spec-checked (generated mc twin)"
        assert statuses["dragon"] == "spec-checked (no mc twin)"
        assert report.stats["conformance"]["specs"] == \
            ["adaptive", "dragon", "mesi", "wi"]

    def test_conformance_status_matches_what_is_diffed(self):
        # A spec message the simulator lacks is a CON001 finding exactly
        # when that spec is diffed against the simulator graph.
        sim = extract_sim(default_root())
        statuses = run_lint().stats["protocols"]
        for name in SPEC_NAMES:
            spec = get_spec(name)
            ping = replace(spec, messages=spec.messages + (
                Msg("PING", note="not a MsgType"),))
            diffed = any(f.check_id == "CON001" and "PING" in f.fingerprint
                         for f in run_conformance({name: ping}, sim))
            assert statuses[name].startswith("conformance-checked") == \
                diffed, name
