"""Sweep engine: job keys, on-disk cache, worker pool, crash capture.

The parallel tests use the real ``spawn`` multiprocessing path at tiny
workload scales, so they exercise exactly the code the artefact sweeps
run — including the determinism-under-process-isolation guarantee the
cache relies on, and workers that really die.
"""

import hashlib
import io
import json
import os
import shutil
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import pytest

from repro.common import baseline, small
from repro.common.params import config_digest
from repro.fuzz.runner import CaseResult, FuzzJob
from repro.harness import run_app, sweep
from repro.harness.runner import AppRun
from repro.harness.scale import StormJob
from repro.harness.sweep import (
    CACHE_FORMAT,
    ResultCache,
    SweepEngine,
    SweepError,
    SweepJob,
    SweepProgress,
    _execute_job,
    job_key,
)
from repro.network.chaos import chaos_to_dict

SCALE = 0.1

#: Environment variable naming the marker file :class:`CrashOnceJob`
#: creates; set before the pool spawns, so every worker inherits it.
CRASH_MARKER = "REPRO_TEST_CRASH_MARKER"


@dataclass(frozen=True)
class CrashOnceJob:
    """Kills its worker on the first run across all workers (the marker
    file is created exclusively), then returns a tiny payload."""

    seed: int

    def run(self):
        try:
            os.close(os.open(os.environ[CRASH_MARKER],
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return {"seed": self.seed}
        os._exit(1)

    def load(self, payload):
        return payload

    def describe(self):
        return "%s seed=%d" % (type(self).__name__, self.seed)


@dataclass(frozen=True)
class AlwaysCrashJob(CrashOnceJob):
    """Kills its worker on every run."""

    def run(self):
        os._exit(1)


def job(app="ocean", config=None, **kwargs):
    return SweepJob(app=app,
                    config=config if config is not None
                    else baseline(num_nodes=4),
                    scale=kwargs.pop("scale", SCALE), **kwargs)


class TestJobKey:
    def test_stable_across_instances(self):
        assert job_key(job()) == job_key(job())

    def test_key_is_hex_sha256(self):
        key = job_key(job())
        assert len(key) == 64
        int(key, 16)

    def test_every_field_matters(self):
        base = job_key(job())
        assert job_key(job(app="lu")) != base
        assert job_key(job(seed=99)) != base
        assert job_key(job(scale=0.2)) != base
        assert job_key(job(num_cpus=2)) != base
        assert job_key(job(check_coherence=False)) != base
        assert job_key(job(config=small(num_nodes=4))) != base

    def test_directory_format_folds_into_config_and_key(self):
        """Regression: an experiment's ``directory_format`` is part of
        the content hash, so a coarse:4 run can never replay a full run's
        cache entry."""
        from repro.harness.experiments import _metrics

        class Echo:
            """Hands each submitted job back as its run's metrics."""

            def run_many(self, jobs):
                return {key: SimpleNamespace(metrics=submitted)
                        for key, submitted in jobs.items()}

        def _job(app, config, seed, scale, directory_format=None):
            return _metrics({app: (app, config)}, seed, scale, Echo(),
                            directory_format)[app]

        config = baseline(num_nodes=4)
        plain = _job("ocean", config, 12345, SCALE, "full")
        coarse = _job("ocean", config, 12345, SCALE, "coarse:4")
        assert coarse.config.directory_format == "coarse:4"
        assert coarse.config != plain.config
        assert job_key(coarse) != job_key(plain)
        # The override and a config carrying the same value are the SAME
        # content: cache entries are shared, not duplicated.
        direct = _job("ocean", replace(config, directory_format="coarse:4"),
                      12345, SCALE)
        assert direct.config == coarse.config
        assert job_key(coarse) == job_key(direct)

    def test_protocol_name_folds_into_config_and_key(self):
        # The config is the only place that names the protocol.
        wi = job(config=baseline(num_nodes=4, protocol_name="wi"))
        assert job_key(wi) != job_key(job())


class TestSourceDigest:
    """Cached results belong to the simulator source that produced them."""

    @pytest.fixture
    def source_copy(self, tmp_path, monkeypatch):
        root = tmp_path / "repro"
        shutil.copytree(sweep.SOURCE_ROOT, str(root),
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(sweep, "SOURCE_ROOT", str(root))
        yield root
        sweep.source_digest.cache_clear()

    @staticmethod
    def edit(path):
        with open(str(path), "a") as fileobj:
            fileobj.write("\n# edited\n")
        sweep.source_digest.cache_clear()

    def test_copied_tree_keys_like_the_original(self, source_copy):
        original = sweep.source_digest(sweep.SOURCE_ROOT)
        assert sweep.source_digest(str(source_copy)) == original

    def test_simulator_edit_changes_the_key(self, source_copy):
        before = job_key(job())
        self.edit(source_copy / "protocol" / "requester.py")
        assert job_key(job()) != before

    def test_new_simulator_module_changes_the_key(self, source_copy):
        before = job_key(job())
        (source_copy / "sim" / "extra.py").write_text("X = 1\n")
        sweep.source_digest.cache_clear()
        assert job_key(job()) != before

    def test_front_end_and_checker_edits_keep_the_key(self, source_copy):
        before = job_key(job())
        for rel in ("cli.py", "lint/checks.py"):
            self.edit(source_copy / rel)
        assert job_key(job()) == before

    def test_invariant_edit_changes_the_key(self, source_copy):
        # The fuzz oracles run the model checker's invariants, so a cached
        # fuzz verdict belongs to them too.
        before = job_key(job())
        self.edit(source_copy / "mc" / "invariants.py")
        assert job_key(job()) != before

    def test_spec_edit_changes_the_key(self, source_copy):
        # The specs decide which messages the hubs dispatch.
        before = job_key(job())
        self.edit(source_copy / "spec" / "protocols" / "adaptive.py")
        assert job_key(job()) != before

    def test_digest_is_computed_once_per_process(self):
        sweep.source_digest.cache_clear()
        job_key(job())
        job_key(job(seed=3))
        assert sweep.source_digest.cache_info().misses == 1


class TestSerialEngine:
    def test_matches_direct_run_app(self):
        direct = run_app("ocean", baseline(num_nodes=4), scale=SCALE)
        swept = SweepEngine().run_many([job()])[0]
        assert swept.metrics == direct.metrics
        assert swept.consumer_hist == direct.consumer_hist
        assert swept.stats == direct.stats
        assert swept.latency == direct.latency
        assert swept.latency["miss_latency"]["2hop"]["count"] > 0

    def test_list_input_keyed_by_index(self):
        runs = SweepEngine().run_many([job(), job(app="lu")])
        assert set(runs) == {0, 1}
        assert runs[0].app == "ocean"
        assert runs[1].app == "lu"

    def test_identical_jobs_deduped(self):
        engine = SweepEngine()
        runs = engine.run_many({"a": job(), "b": job()})
        assert engine.last_report.total == 2
        assert engine.last_report.unique == 1
        assert engine.last_report.executed == 1
        assert runs["a"].stats == runs["b"].stats

    def test_crash_carries_key_and_traceback(self):
        bad = job(app="no_such_app")
        with pytest.raises(SweepError) as err:
            SweepEngine().run_many([bad])
        assert err.value.key == job_key(bad)
        assert "no_such_app" in err.value.worker_traceback

    def test_one_batch_mixes_job_types(self):
        """Each job shapes its own result, and the job type is part of
        the key: one engine runs any mix."""
        jobs = {"sim": job(), "storm": StormJob(seed=0, num_nodes=8,
                                                scale=0.1),
                "fuzz": FuzzJob(seed=0, scale=0.2)}
        engine = SweepEngine()
        out = engine.run_many(jobs)
        assert isinstance(out["sim"], AppRun)
        assert isinstance(out["storm"], dict) and out["storm"]["cycles"] > 0
        assert isinstance(out["fuzz"], CaseResult) and out["fuzz"].seed == 0
        assert len({job_key(j) for j in jobs.values()}) == 3
        assert engine.last_report.unique == engine.last_report.executed == 3

    def test_gc_state_restored_after_serial_batch(self):
        import gc
        assert gc.isenabled()
        SweepEngine().run_many([job()])
        assert gc.isenabled()


class TestWorkerClamp:
    def test_clamped_to_cpu_count(self):
        import os
        cores = os.cpu_count() or 1
        engine = SweepEngine(jobs=cores + 7)
        assert engine.jobs == cores + 7       # requested width is kept
        assert engine.effective_jobs == cores  # pool width is not

    def test_width_kept_up_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert SweepEngine(jobs=64).effective_jobs == 64

    def test_serial_engine_unaffected(self):
        assert SweepEngine(jobs=1).effective_jobs == 1


class TestCache:
    def test_second_run_executes_nothing(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        first = engine.run_many([job()])
        assert engine.last_report.executed == 1
        second = engine.run_many([job()])
        assert engine.last_report.executed == 0
        assert engine.last_report.cached == 1
        assert second[0].metrics == first[0].metrics
        assert second[0].stats == first[0].stats
        assert second[0].latency == first[0].latency

    def test_entry_layout_is_sharded_json(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([job()])
        key = job_key(job())
        path = tmp_path / key[:2] / (key + ".json")
        assert path.is_file()
        doc = json.loads(path.read_text())
        assert doc["format"] == CACHE_FORMAT
        assert doc["job"]["app"] == "ocean"
        assert doc["result"]["cycles"] > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([job()])
        key = job_key(job())
        (tmp_path / key[:2] / (key + ".json")).write_text("{not json")
        engine.run_many([job()])
        assert engine.last_report.executed == 1

    def test_format_mismatch_is_a_miss(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([job()])
        key = job_key(job())
        path = tmp_path / key[:2] / (key + ".json")
        doc = json.loads(path.read_text())
        doc["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(doc))
        engine.run_many([job()])
        assert engine.last_report.executed == 1

    def test_format_3_entry_misses(self, tmp_path):
        """Entries written before payloads carried latency histograms (and
        before keys carried the source digest) are never replayed."""
        assert CACHE_FORMAT > 3
        the_job = job()
        old_spec = {
            "format": 3, "app": the_job.app,
            "config": config_digest(the_job.config), "seed": the_job.seed,
            "scale": the_job.scale, "num_cpus": the_job.num_cpus,
            "check_coherence": the_job.check_coherence,
            "chaos": chaos_to_dict(the_job.chaos), "runner": None,
        }
        old_key = hashlib.sha256(json.dumps(
            old_spec, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert old_key != job_key(the_job)
        stale = {"format": 3, "result": {"cycles": 1, "stats": {}}}
        for key in (old_key, job_key(the_job)):
            (tmp_path / key[:2]).mkdir(exist_ok=True)
            (tmp_path / key[:2] / (key + ".json")).write_text(
                json.dumps(dict(stale, key=key)))
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        run = engine.run_many([the_job])[0]
        assert engine.last_report.executed == 1
        assert run.metrics.cycles > 1 and run.latency is not None

    def test_format_4_entry_misses(self, tmp_path):
        """Entries keyed before jobs carried their own type (a ``runner``
        tag and a config digest instead) are never replayed."""
        assert CACHE_FORMAT > 4
        the_job = job()
        old_spec = {
            "format": 4, "source": sweep.source_digest(sweep.SOURCE_ROOT),
            "app": the_job.app, "config": config_digest(the_job.config),
            "seed": the_job.seed, "scale": the_job.scale,
            "num_cpus": the_job.num_cpus,
            "check_coherence": the_job.check_coherence,
            "chaos": chaos_to_dict(the_job.chaos), "runner": None,
        }
        old_key = hashlib.sha256(json.dumps(
            old_spec, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert old_key != job_key(the_job)
        stale = {"format": 4, "key": old_key,
                 "result": {"cycles": 1, "stats": {}, "latency": None}}
        (tmp_path / old_key[:2]).mkdir()
        (tmp_path / old_key[:2] / (old_key + ".json")).write_text(
            json.dumps(stale))
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        run = engine.run_many([the_job])[0]
        assert engine.last_report.executed == 1
        assert run.metrics.cycles > 1

    def test_entry_records_the_job_fields(self, tmp_path):
        """An entry records the job's fields, as its key hashes them."""
        the_job = job()
        SweepEngine(cache=True, cache_dir=str(tmp_path)).run_many([the_job])
        key = job_key(the_job)
        doc = json.loads((tmp_path / key[:2] / (key + ".json")).read_text())
        assert doc["job"] == json.loads(json.dumps(asdict(the_job)))
        assert doc["job"]["config"]["num_nodes"] == 4

    def test_cache_disabled_writes_nothing(self, tmp_path):
        engine = SweepEngine(cache=False, cache_dir=str(tmp_path))
        engine.run_many([job()])
        assert list(tmp_path.iterdir()) == []

    def test_get_missing_returns_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get("0" * 64) is None


class RecordingProgress:
    def __init__(self):
        self.events = []

    def sweep_started(self, total):
        self.events.append(("started", total))

    def job_finished(self, key, job, elapsed, cached):
        self.events.append(("job", cached))

    def sweep_finished(self, report):
        self.events.append(("finished", report.executed, report.cached))


class TestProgressHooks:
    def test_hooks_fire_in_order(self):
        progress = RecordingProgress()
        SweepEngine(progress=progress).run_many([job(), job(app="lu")])
        assert progress.events[0] == ("started", 2)
        assert progress.events[1:3] == [("job", False), ("job", False)]
        assert progress.events[3] == ("finished", 2, 0)

    def test_cached_jobs_reported_as_cached(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([job()])
        progress = RecordingProgress()
        engine.progress = progress
        engine.run_many([job()])
        assert progress.events == [("started", 1), ("job", True),
                                   ("finished", 0, 1)]

    def test_console_counts_each_cached_job_once(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([job(), job(app="lu")])
        stream = io.StringIO()
        engine.progress = SweepProgress(stream=stream)
        engine.run_many([job(), job(app="lu")])
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("sweep: 2/2 jobs (2 cached)")


@pytest.fixture
def two_cores(monkeypatch):
    """Report two cores, so ``jobs=2`` gets a real two-worker spawn pool
    whatever the machine has."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.slow
@pytest.mark.usefixtures("two_cores")
class TestParallel:
    """Real spawn-based pool; slow because workers re-import the package."""

    def batch(self):
        return {(app, name): SweepJob(app=app, config=config, scale=SCALE)
                for app in ("ocean", "lu")
                for name, config in {"base": baseline(num_nodes=4),
                                     "small": small(num_nodes=4)}.items()}

    def test_parallel_identical_to_serial(self):
        serial = SweepEngine(jobs=1).run_many(self.batch())
        parallel = SweepEngine(jobs=2).run_many(self.batch())
        assert set(serial) == set(parallel)
        for key in serial:
            assert parallel[key].metrics == serial[key].metrics
            assert parallel[key].stats == serial[key].stats
            assert parallel[key].consumer_hist == serial[key].consumer_hist

    def test_parallel_crash_carries_key_and_traceback(self):
        jobs = dict(self.batch())
        bad = SweepJob(app="no_such_app", config=baseline(num_nodes=4),
                       scale=SCALE)
        jobs["bad"] = bad
        with pytest.raises(SweepError) as err:
            SweepEngine(jobs=2).run_many(jobs)
        assert err.value.key == job_key(bad)
        assert "no_such_app" in err.value.worker_traceback

    def test_parallel_populates_shared_cache(self, tmp_path):
        engine = SweepEngine(jobs=2, cache=True, cache_dir=str(tmp_path))
        engine.run_many(self.batch())
        assert engine.last_report.executed == 4
        engine.run_many(self.batch())
        assert engine.last_report.executed == 0
        assert engine.last_report.cached == 4


@pytest.mark.slow
@pytest.mark.usefixtures("two_cores")
class TestWorkerDeath:
    """Workers that die hard (``os._exit``) break the pool; the engine
    retries on a rebuilt pool and names the job when it gives up."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(sweep, "RETRY_BASE", 0.0)

    @staticmethod
    def batch(job_type):
        return [job_type(seed=1), job_type(seed=2)]

    def test_death_is_retried_on_a_rebuilt_pool(self, tmp_path,
                                                monkeypatch):
        marker = tmp_path / "crashed"
        monkeypatch.setenv(CRASH_MARKER, str(marker))
        engine = SweepEngine(jobs=2)
        assert engine.run_many(self.batch(CrashOnceJob)) == {
            0: {"seed": 1}, 1: {"seed": 2}}
        assert marker.exists()
        assert engine.last_report.crashes == 1
        assert engine.last_report.retries == 1

    def test_repeated_death_gives_up_naming_the_job(self):
        engine = SweepEngine(jobs=2)
        with pytest.raises(SweepError) as err:
            engine.run_many(self.batch(AlwaysCrashJob))
        keys = {job_key(j) for j in self.batch(AlwaysCrashJob)}
        assert err.value.key in keys
        assert err.value.key[:16] in str(err.value)
        assert "gave up after 2 retries" in err.value.worker_traceback


@pytest.mark.slow
class TestProcessIsolationDeterminism:
    """The cache's core assumption: a simulation's results depend only on
    the job content, not on which process runs it."""

    def test_subprocess_matches_in_process(self):
        the_job = job()
        status, local = _execute_job(the_job)
        assert status == "ok"

        import multiprocessing
        from concurrent import futures

        context = multiprocessing.get_context("spawn")
        with futures.ProcessPoolExecutor(max_workers=1,
                                         mp_context=context) as pool:
            status, remote = pool.submit(_execute_job, the_job).result()
        assert status == "ok"
        assert remote == local
        assert remote["stats"] == local["stats"]
