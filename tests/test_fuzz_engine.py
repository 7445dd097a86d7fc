"""The fuzz pipeline: scenario generation, oracle-checked runs, the greedy
shrinker, repro artifacts with byte-for-byte replay, and the CLI.

The mutation tests are the subsystem's reason to exist: seed a coherence
bug into the requester (skip invalidation on INV), run a small corpus, and
check that an oracle fires, the failure shrinks without changing oracle,
the artifact replays bit-identically while the bug exists — and reports
"no longer reproduces" once it is fixed.
"""

import json
import os
from dataclasses import replace

import pytest

from repro import cli
from repro.cache.line import LineState
from repro.cache.rac import RemoteAccessCache
from repro.common import baseline
from repro.common.errors import ConfigError, ProtocolError
from repro.directory.state import DirState
from repro.fuzz import (
    CaseResult,
    ChaosConfig,
    FuzzEngine,
    FuzzScenario,
    build_workload,
    replay_artifact,
    run_case,
    scenario_from_dict,
    scenario_to_dict,
    shrink_scenario,
)
from repro.fuzz import engine as engine_mod
from repro.fuzz import runner as runner_mod
from repro.fuzz import oracles
from repro.harness.sweep import SweepEngine, SweepJob, job_key
from repro.network.message import Message, MsgType
from repro.obs import Tracer
from repro.protocol.hub import Hub
from repro.protocol.requester import RequesterMixin
from repro.protocol.transactions import MissKind
from repro.sim.system import System


class TestScenarios:
    def test_from_seed_deterministic(self):
        for seed in range(10):
            assert (FuzzScenario.from_seed(seed)
                    == FuzzScenario.from_seed(seed))

    def test_seeds_cover_the_space(self):
        scenarios = [FuzzScenario.from_seed(s) for s in range(40)]
        assert len({s.config.num_nodes for s in scenarios}) > 1
        assert any(s.chaos is None for s in scenarios)
        assert any(s.chaos is not None for s in scenarios)
        assert len({s.config.line_size for s in scenarios}) == 2
        kinds = {kind for s in scenarios for kind, _ in s.workloads}
        assert kinds == {"pc", "migratory"}
        for s in scenarios:
            assert s.config.seed == s.seed
            if s.chaos is not None:
                assert s.chaos.seed == s.seed

    def test_scale_passes_through(self):
        assert FuzzScenario.from_seed(0, scale=0.5).scale == 0.5

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_json_roundtrip(self, seed):
        scenario = FuzzScenario.from_seed(seed)
        doc = json.loads(json.dumps(scenario_to_dict(scenario)))
        restored = scenario_from_dict(doc)
        assert restored == scenario
        assert job_key(SweepJob(app="fuzz", config=restored.config)) \
            == job_key(SweepJob(app="fuzz", config=scenario.config))

    def test_unknown_format_rejected(self):
        doc = scenario_to_dict(FuzzScenario.from_seed(0))
        doc["format"] = 999
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    def test_mixed_workload_merges(self):
        scenario = next(FuzzScenario.from_seed(s) for s in range(100)
                        if len(FuzzScenario.from_seed(s).workloads) > 1)
        build = build_workload(scenario)
        assert "+" in build.name
        assert len(build.per_cpu_ops) == scenario.num_cpus


class TestRunCase:
    def test_clean_seed_passes_and_digests_stably(self):
        a = run_case(FuzzScenario.from_seed(1))
        b = run_case(FuzzScenario.from_seed(1))
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert a.cycles > 0 and a.events > 0

    def test_digest_tracks_content(self):
        base = CaseResult(seed=1, ok=True, cycles=10)
        assert base.digest == CaseResult(seed=1, ok=True, cycles=10).digest
        assert base.digest != CaseResult(seed=1, ok=True, cycles=11).digest

    def test_message_ids_restart_per_system(self):
        # Message numbering appears in reprs and therefore in the
        # ProtocolError text the digest covers; if the id sequence were
        # process-global, a protocol-oracle failure recorded mid-corpus
        # would never replay byte-for-byte.  System construction must
        # restart it.
        from repro.network.message import Message, MsgType
        from repro.sim.system import System

        for _ in range(2):
            Message(MsgType.GETS, src=0, dst=1, addr=0x80)  # pollute
            System(baseline(num_nodes=4), check_coherence=False)
            fresh = Message(MsgType.GETS, src=0, dst=1, addr=0x80)
            assert fresh.msg_id == 0
            assert repr(fresh) == "Msg#0(GETS 0->1 0x80)"


def run_seed(seed, tracer):
    """One fuzz seed at scale 0.5, traced and online-checked."""
    scenario = FuzzScenario.from_seed(seed, scale=0.5)
    build = build_workload(scenario)
    system = System(scenario.config, check_coherence=True,
                    tracer=tracer, chaos=scenario.chaos)
    system.run(build.per_cpu_ops, placements=build.placements,
               max_cycles=scenario.max_cycles,
               max_events=scenario.max_events)
    return system


def drop_update_ack(self, msg):
    """The producer never hears its update acks."""


def keep_stale_memory(self, msg, serve=Hub._on_shared_wb):
    """The home takes the downgrade but drops a SHARED_WB's data."""
    entry = self.home_memory.entry(msg.addr)
    stale = entry.value
    serve(self, msg)
    entry.value = stale


def known_lines(system):
    """Every line a home directory knows, with its home hub."""
    for hub in system.hubs:
        for line in hub.home_memory.known_lines():
            yield hub, line


def add_listed_sharer(system):
    """Post-run edit: a node an EXCL entry still lists as a sharer gains
    an S copy of the owner's value beside the owner's copy."""
    for hub, line in known_lines(system):
        entry = hub.home_memory.entry(line)
        if entry.state is DirState.EXCL:
            listed = hub.dir_format.observed_sharers(
                entry.sharers, len(system.hubs)) - {entry.owner}
            if listed:
                system.hubs[min(listed)].hierarchy.l2.insert(
                    line, state=LineState.SHARED,
                    value=system.hubs[entry.owner].hierarchy.value_of(line))
                return
    raise AssertionError("no EXCL line lists a sharer besides its owner")


def add_unlisted_sharer(system):
    """Post-run edit: a node outside a shared line's sharer set gains an
    S copy holding the current value."""
    for hub, line in known_lines(system):
        entry = hub.home_memory.entry(line)
        if entry.state in (DirState.UNOWNED, DirState.SHARED):
            listed = hub.dir_format.observed_sharers(entry.sharers,
                                                     len(system.hubs))
            outside = [other for other in system.hubs
                       if other.node not in listed]
            if outside:
                outside[0].hierarchy.l2.insert(
                    line, state=LineState.SHARED, value=entry.value)
                return
    raise AssertionError("every shared line is listed at every node")


def drop_owner_copy(system):
    """Post-run edit: an EXCL line's value is written to home memory and
    the owner's copy invalidated, the directory left naming the owner."""
    for hub, line in known_lines(system):
        entry = hub.home_memory.entry(line)
        if entry.state is DirState.EXCL:
            owner = system.hubs[entry.owner].hierarchy
            entry.value = owner.value_of(line)
            owner.invalidate(line)
            return
    raise AssertionError("no EXCL line at quiescence")


def add_second_writer(system):
    """Post-run edit: a second node gains a writable copy of an owned
    line, holding the writer's value."""
    for _hub, line in known_lines(system):
        writers = [hub for hub in system.hubs
                   if hub.hierarchy.state_of(line).writable]
        if writers:
            other = system.hubs[(writers[0].node + 1) % len(system.hubs)]
            other.hierarchy.l2.insert(
                line, state=LineState.MODIFIED,
                value=writers[0].hierarchy.value_of(line))
            return
    raise AssertionError("no line has a writer at quiescence")


def pin_unpinned(self, addr, value, dirty=False,
                 pin=RemoteAccessCache.pin_delegated):
    """The delegate's surrogate-memory RAC entry is left unpinned."""
    evicted = pin(self, addr, value, dirty)
    self.probe(addr).pinned = False
    return evicted


#: The quiescence invariants' kill matrix: (row, seed, class attribute to
#: replace and its replacement, post-run state edit, the invariants that
#: fire).  Each invariant fuzz runs has a row where it alone fires.  The
#: online coherence checker stops every second-writer handler mutant at
#: the committed write, so some rows edit the final state instead, which
#: also isolates one invariant.  The last two rows are the mutants of
#: deleted checks (the hand-written single-writer oracle, the model's
#: delegation_wellformed) with the invariants that still catch them.
QUIESCENCE_MATRIX = [
    ("single_writer", 0, None, add_listed_sharer, {"single_writer"}),
    ("directory_consistency", 1, None, add_unlisted_sharer,
     {"directory_consistency"}),
    ("value_coherence", 3, (Hub, "_on_shared_wb", keep_stale_memory),
     None, {"value_coherence"}),
    ("at_rest", 1, (Hub, "_on_update_ack", drop_update_ack), None,
     {"at_rest"}),
    ("owner_holds_copy", 0, None, drop_owner_copy, {"owner_holds_copy"}),
    ("second_writer", 0, None, add_second_writer,
     {"single_writer", "directory_consistency"}),
    ("unpinned_surrogate", 1,
     (RemoteAccessCache, "pin_delegated", pin_unpinned), None,
     {"value_coherence"}),
]


class TestQuiescenceOracleKillMatrix:
    """Each row's mutant makes exactly its listed invariants fail on some
    projected line, ``check_quiescence`` reports one of them, and the span
    oracles stay clean.  The two oracles that read tracer spans have a
    test each below; they are called directly, not through
    ``check_quiescence``, so an earlier oracle cannot hide them."""

    SPAN_SEED = 1  # NACKs at scale 0.5, so some miss span has retries

    @pytest.mark.parametrize("row", QUIESCENCE_MATRIX, ids=lambda r: r[0])
    def test_row(self, row, monkeypatch):
        _name, seed, mutation, edit, expected = row
        if mutation is not None:
            monkeypatch.setattr(*mutation)
        tracer = Tracer()
        system = run_seed(seed, tracer)
        if edit is not None:
            edit(system)
        states = [oracles.project_line(system, line)
                  for _hub, line in known_lines(system)]
        fired = {inv.__name__ for inv in oracles.INVARIANTS
                 if not all(inv(state) for state in states)}
        assert fired == expected
        assert oracles._check_spans(system, tracer) is None
        assert oracles.check_quiescence(system, tracer)[0] in expected

    def test_every_quiescence_oracle_has_a_row(self):
        alone = {next(iter(row[4])) for row in QUIESCENCE_MATRIX
                 if len(row[4]) == 1 and row[0] in row[4]}
        assert alone == {inv.__name__ for inv in oracles.INVARIANTS}

    def test_home_entry_with_delegated_bookkeeping_raises(self):
        system = run_seed(0, Tracer())
        hub, line = next(known_lines(system))
        hub.home_memory.entry(line).pending_updates = 1
        with pytest.raises(ProtocolError, match="delegated update"):
            oracles.project_line(system, line)

    def test_bounded_retry_fires(self, monkeypatch):
        tracer = Tracer()
        system = run_seed(self.SPAN_SEED, tracer)
        assert system.stats.get("protocol.nack") > 0
        assert oracles._check_spans(system, tracer) is None
        monkeypatch.setattr(oracles, "RETRY_BOUND", 0)
        oracle, message = oracles._check_spans(system, tracer)
        assert oracle == "bounded-retry"
        assert "(bound 0)" in message

    def test_txn_terminate_fires(self):
        class MissNeverEnds(Tracer):
            def miss_end(self, node, addr, now, path, retries):
                pass

        tracer = MissNeverEnds()
        system = run_seed(self.SPAN_SEED, tracer)
        oracle, message = oracles._check_spans(system, tracer)
        assert oracle == "txn-terminate"
        assert "never completed" in message


# -- shrinker (unit, with an injectable fake rerun) -------------------------


def shrinkable_scenario():
    return FuzzScenario(
        seed=1, config=baseline(num_nodes=6, seed=1),
        chaos=ChaosConfig(seed=1, delay_jitter=100, reorder_prob=0.3,
                          reorder_window=50, duplicate_prob=0.5,
                          force_nack_prob=0.2),
        workloads=(("pc", {"iterations": 8, "lines_per_producer": 4}),
                   ("migratory", {"lines": 4, "iterations": 8})))


def failing(oracle="coherence", seed=1):
    return CaseResult(seed=seed, ok=False, oracle=oracle, message="boom")


class TestShrinker:
    def test_everything_shrinkable_composes_monotonically(self):
        scenario = shrinkable_scenario()
        calls = []

        def rerun(candidate):
            calls.append(candidate)
            return failing()

        best, result, attempts = shrink_scenario(scenario, failing(), rerun)
        # Faults dropped entirely, one workload left, sizes at their
        # floors, node count cut — every accepted step built on the last.
        assert best.chaos is None
        assert best.workloads == (("pc", {"iterations": 4,
                                          "lines_per_producer": 1}),)
        assert best.config.num_nodes == 3
        assert result.oracle == "coherence"
        assert attempts == len(calls) == 10

    def test_different_oracle_rejected(self):
        scenario = shrinkable_scenario()
        best, result, attempts = shrink_scenario(
            scenario, failing("coherence"),
            rerun=lambda c: failing("protocol"))
        assert best == scenario
        assert result is None
        assert attempts == 11  # rejections don't compose, so one extra step

    def test_passing_candidates_rejected(self):
        scenario = shrinkable_scenario()
        best, result, _ = shrink_scenario(
            scenario, failing(),
            rerun=lambda c: CaseResult(seed=1, ok=True))
        assert best == scenario
        assert result is None

    def test_budget_caps_attempts(self):
        calls = []

        def rerun(candidate):
            calls.append(candidate)
            return failing()

        best, _result, attempts = shrink_scenario(
            shrinkable_scenario(), failing(), rerun, budget=3)
        assert attempts == len(calls) == 3
        assert best.chaos is not None  # only the first knobs got zeroed

    def test_unrunnable_candidates_skipped(self):
        def rerun(candidate):
            raise ConfigError("nope")

        best, result, attempts = shrink_scenario(
            shrinkable_scenario(), failing(), rerun)
        assert best == shrinkable_scenario()
        assert result is None
        assert attempts == 11

    def test_nothing_to_shrink(self):
        scenario = FuzzScenario(
            seed=1, config=baseline(num_nodes=3, seed=1),
            workloads=(("pc", {"iterations": 4,
                               "lines_per_producer": 1}),))
        best, result, attempts = shrink_scenario(
            scenario, failing(), rerun=lambda c: failing())
        assert best == scenario
        assert result is None
        assert attempts == 0


# -- engine + artifacts (unit, with a stubbed run_case) ---------------------


def stub_run_case(monkeypatch, stub):
    """Replace the case runner of corpus runs (which reach it through
    the sweep runner ``run_seed_payload``) and of replays alike."""
    monkeypatch.setattr(runner_mod, "run_case", stub)
    monkeypatch.setattr(engine_mod, "run_case", stub)


class TestEngineUnit:
    def test_failure_artifact_and_replay_lifecycle(self, tmp_path,
                                                   monkeypatch):
        stub_run_case(monkeypatch, lambda s: failing(seed=s.seed))
        engine = FuzzEngine(jobs=1, out_dir=str(tmp_path), shrink=False)
        progressed = []
        report = engine.run_corpus([3], progress=lambda seed, result:
                                   progressed.append((seed, result.ok)))
        assert progressed == [(3, False)]
        assert not report.ok and report.passed == 0
        failure = report.failures[0]
        assert failure.shrink_attempts == 0
        with open(failure.artifact_path) as fileobj:
            doc = json.load(fileobj)
        assert doc["format"] == engine_mod.ARTIFACT_FORMAT
        assert doc["seed"] == 3
        assert doc["shrunk"] == doc["original"]  # shrinking disabled
        assert doc["shrunk_digest"] == failure.shrunk_result.digest
        # Replay under the same (still-broken) runner: bit-identical.
        replay = replay_artifact(failure.artifact_path)
        assert replay.reproduced
        assert replay.expected_oracle == "coherence"
        # "Fix the bug" (runner passes now): no longer reproduces.
        stub_run_case(monkeypatch, lambda s: CaseResult(seed=s.seed, ok=True))
        replay = replay_artifact(failure.artifact_path)
        assert not replay.reproduced
        assert replay.actual.ok

    def test_passing_corpus_writes_nothing(self, tmp_path, monkeypatch):
        stub_run_case(monkeypatch, lambda s: CaseResult(seed=s.seed, ok=True))
        report = FuzzEngine(jobs=1, out_dir=str(tmp_path)).run_corpus([0, 1])
        assert report.ok and report.passed == 2
        assert os.listdir(str(tmp_path)) == []

    def test_unknown_artifact_format_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fileobj:
            json.dump({"format": 999}, fileobj)
        with pytest.raises(ValueError):
            replay_artifact(path)


# -- mutation acceptance (the real pipeline end to end) ---------------------


def broken_on_inv(self, msg):
    """The seeded bug: acknowledge the INV without invalidating anything —
    the node keeps serving stale data, a classic lost-invalidation fault."""
    collector = msg.payload.get("collector", msg.src)
    miss = self._active_miss(msg.addr, MissKind.READ)
    if miss is not None:
        miss.pending_inv = True
    self.send(Message(MsgType.INV_ACK, src=self.node, dst=collector,
                      addr=msg.addr, payload={"wasted_update": False}))


class TestMutationAcceptance:
    def test_seeded_coherence_bug_is_caught_shrunk_and_replayable(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(RequesterMixin, "_on_inv", broken_on_inv)
        engine = FuzzEngine(jobs=1, out_dir=str(tmp_path), shrink_budget=8)
        report = engine.run_corpus(range(4))
        assert not report.ok
        failure = next(f for f in report.failures
                       if f.result.oracle == "coherence")
        # Shrinking never trades the oracle for another one.
        assert failure.shrunk_result.oracle == "coherence"
        assert os.path.exists(failure.artifact_path)
        # While the bug exists the artifact replays byte-for-byte.
        replay = replay_artifact(failure.artifact_path)
        assert replay.reproduced
        assert replay.actual_digest == replay.expected_digest
        # Fix the bug: same artifact now reports a clean fresh run.
        monkeypatch.undo()
        replay = replay_artifact(failure.artifact_path)
        assert not replay.reproduced
        assert replay.actual.ok


# -- pooled execution + sweep-engine hooks ----------------------------------


class TestSweepIntegration:
    def test_pooled_corpus_matches_serial(self, tmp_path):
        seeds = [0, 1]
        serial = FuzzEngine(jobs=1, out_dir=str(tmp_path)).run_corpus(seeds)
        pooled = FuzzEngine(jobs=2, out_dir=str(tmp_path)).run_corpus(seeds)
        assert serial.ok and pooled.ok
        assert serial.passed == pooled.passed == 2

    def test_custom_runner_returns_raw_payloads(self):
        engine = SweepEngine(jobs=1, cache=False,
                             runner=_echo_runner)
        out = engine.run_many({"a": SweepJob(app="x", config=baseline(),
                                             seed=7)})
        assert out == {"a": {"seed": 7, "app": "x"}}

    def test_custom_runner_shares_cache_keyed_by_identity(self, tmp_path):
        """Runner identity is part of job_key: cached custom-runner
        payloads replay, and never alias the default runner's entries."""
        the_job = SweepJob(app="x", config=baseline(), seed=7)
        engine = SweepEngine(jobs=1, cache=True, cache_dir=str(tmp_path),
                             runner=_echo_runner)
        first = engine.run_many({"a": the_job})
        assert engine.last_report.executed == 1
        second = engine.run_many({"a": the_job})
        assert engine.last_report.executed == 0
        assert engine.last_report.cached == 1
        assert second == first
        assert job_key(the_job, _echo_runner) != job_key(the_job)

    def test_cached_fuzz_corpus_replays(self, tmp_path):
        seeds = [0, 1]
        cold = FuzzEngine(jobs=1, out_dir=str(tmp_path), cache=True,
                          cache_dir=str(tmp_path / "cache"))
        first = cold.run_corpus(seeds)
        warm = FuzzEngine(jobs=1, out_dir=str(tmp_path), cache=True,
                          cache_dir=str(tmp_path / "cache"))
        second = warm.run_corpus(seeds)
        assert first.passed == second.passed
        assert [f.seed for f in first.failures] == \
               [f.seed for f in second.failures]

    def test_chaos_is_part_of_job_identity(self):
        base = SweepJob(app="x", config=baseline(), seed=1)
        chaotic = replace(base, chaos=ChaosConfig(seed=1, delay_jitter=5))
        assert job_key(base) != job_key(chaotic)
        assert job_key(chaotic) == job_key(replace(
            base, chaos=ChaosConfig(seed=1, delay_jitter=5)))


def _echo_runner(job):
    return {"seed": job.seed, "app": job.app}


# -- CLI --------------------------------------------------------------------


class TestCli:
    def test_fuzz_corpus_clean(self, tmp_path, capsys):
        code = cli.main(["fuzz", "--seeds", "2", "--out-dir",
                         str(tmp_path)])
        assert code == 0
        assert "2/2 seeds clean" in capsys.readouterr().out

    def test_fuzz_json_output(self, tmp_path, capsys):
        code = cli.main(["fuzz", "--seeds", "1", "--json", "--out-dir",
                         str(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] == 1
        assert doc["failures"] == []

    def test_fuzz_failure_exit_code_and_replay(self, tmp_path, capsys,
                                               monkeypatch):
        stub_run_case(monkeypatch, lambda s: failing(seed=s.seed))
        code = cli.main(["fuzz", "--seeds", "1", "--no-shrink",
                         "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out and "--replay" in out
        artifact = os.path.join(str(tmp_path), "0.json")
        assert cli.main(["fuzz", "--replay", artifact]) == 1  # still broken
        assert "REPRODUCED" in capsys.readouterr().out
        stub_run_case(monkeypatch, lambda s: CaseResult(seed=s.seed, ok=True))
        assert cli.main(["fuzz", "--replay", artifact]) == 0  # fixed
        assert "no longer reproduces" in capsys.readouterr().out
