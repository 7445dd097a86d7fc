"""JobService semantics: dedupe, budgets, retries, cancellation, events.

Everything here runs with ``workers=0`` (the worker pool on threads) so
the tier-1 lane stays fast; real worker processes are covered by the
sweep engine's slow lane and the smoke layer.
"""

import asyncio
import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness import sweep
from repro.harness.sweep import SweepError, WorkerPool, job_key
from repro.serve.jobspec import parse_job
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import JobService, ServiceConfig

SIM = {"kind": "sim", "app": "ocean", "system": "base", "nodes": 4,
       "scale": 0.05}
SWEEP = {"kind": "sweep", "apps": ["ocean"],
         "systems": ["base", "rac32k", "dele32_rac32k", "dele1k_rac32k"],
         "nodes": 4, "scale": 0.05}


def make_service(tmp_path, **overrides):
    options = dict(workers=0, cache_dir=str(tmp_path / "cache"),
                   cache_budget=None)
    options.update(overrides)
    return JobService(ServiceConfig(**options))


def run(coro):
    return asyncio.run(coro)


async def finish(service, *jobs):
    await asyncio.gather(*[job.task for job in jobs])


class TestDedupe:
    def test_concurrent_identical_jobs_execute_once(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            first = service.submit(SIM, client="alice")
            second = service.submit(SIM, client="bob")
            await finish(service, first, second)
            return service, first, second

        service, first, second = run(scenario())
        assert first.state == "done" and second.state == "done"
        assert service.metrics.units_executed == 1
        assert service.metrics.units_shared == 1
        shared = [u for job in (first, second) for u in job.units
                  if u.shared]
        assert len(shared) == 1
        key = first.units[0].key
        assert second.units[0].key == key
        assert service.result(key) is not None

    def test_sequential_repeat_hits_cache(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            first = service.submit(SIM)
            await finish(service, first)
            second = service.submit(SIM)
            await finish(service, second)
            return service, second

        service, second = run(scenario())
        assert service.metrics.units_executed == 1
        assert service.metrics.units_cached == 1
        assert second.units[0].cached
        assert service.cache.stats()["hit_rate"] > 0

    def test_executed_entry_records_elapsed(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            job = service.submit(SIM)
            await finish(service, job)
            return job

        key = run(scenario()).units[0].key
        path = tmp_path / "cache" / key[:2] / (key + ".json")
        assert json.loads(path.read_text())["elapsed_s"] > 0


class FakeWork:
    """Scriptable stand-in for the pool's ``_execute_job``: records every
    job it starts and the peak concurrency, and fails chosen units."""

    def __init__(self, delay=0.02, fail_labels=()):
        self.delay = delay
        self.fail_keys = {unit.key for unit in parse_job(SWEEP).units
                          if unit.label in fail_labels}
        self.started = []
        self.concurrent = 0
        self.max_concurrent = 0
        self._lock = threading.Lock()

    def __call__(self, job):
        key = job_key(job)
        with self._lock:
            self.started.append(key)
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
        try:
            time.sleep(self.delay)
            if key in self.fail_keys:
                return "error", "Traceback: boom in %s" % job.describe()
            return "ok", {"cycles": 1}
        finally:
            with self._lock:
                self.concurrent -= 1


@pytest.fixture
def fake_work(monkeypatch):
    work = FakeWork()
    monkeypatch.setattr(sweep, "_execute_job", work)
    return work


class TestBudgetsAndFailures:
    def test_client_budget_caps_concurrency(self, tmp_path, fake_work):
        async def scenario():
            service = make_service(tmp_path, client_budget=2)
            job = service.submit(SWEEP, client="alice")
            await finish(service, job)
            return job

        job = run(scenario())
        assert job.state == "done"
        assert len(fake_work.started) == 4
        assert fake_work.max_concurrent <= 2

    def test_budgets_are_per_client(self, tmp_path, fake_work):
        async def scenario():
            service = make_service(tmp_path, client_budget=1)
            alice = service.submit(SIM, client="alice")
            bob = service.submit({**SIM, "seed": 99}, client="bob")
            await finish(service, alice, bob)

        run(scenario())
        # Distinct keys, distinct clients: both could run at once.
        assert fake_work.max_concurrent == 2

    def test_failed_unit_fails_job_with_capture(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "_execute_job",
                            FakeWork(fail_labels={"ocean/rac32k"}))

        async def scenario():
            service = make_service(tmp_path)
            job = service.submit(SWEEP)
            await finish(service, job)
            return service, job

        service, job = run(scenario())
        assert job.state == "failed"
        assert "boom" in job.error
        states = sorted(u.state for u in job.units)
        assert states == ["done", "done", "done", "failed"]
        assert service.metrics.units_failed == 1
        # The siblings still completed and are cached.
        done = [u for u in job.units if u.state == "done"]
        assert all(service.result(u.key) is not None for u in done)


class TestRetries:
    """The worker pool's crash handling, with simulated pool breaks on
    the thread pool (real worker deaths: tests/test_sweep.py)."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(sweep, "RETRY_BASE", 0.0)

    def run_unit(self, pool):
        try:
            return pool.submit("k", None).result(timeout=30)
        finally:
            pool.shutdown()

    def test_pool_crash_is_retried_with_rebuild(self, monkeypatch):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] < 3:
                raise BrokenProcessPool("worker died")
            return "ok", {"cycles": 5}

        monkeypatch.setattr(sweep, "_execute_job", flaky)
        pool = WorkerPool(0, max_retries=2)
        assert self.run_unit(pool) == {"cycles": 5}
        assert pool.crashes == 2
        assert pool.retries == 2
        assert pool.running == 0

    def test_crashes_beyond_retry_budget_surface(self, monkeypatch):
        def always_broken(job):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(sweep, "_execute_job", always_broken)
        pool = WorkerPool(0, max_retries=1)
        with pytest.raises(SweepError) as err:
            self.run_unit(pool)
        assert "gave up after 1 retries" in str(err.value)
        assert pool.crashes == 2
        assert pool.running == 0

    def test_deterministic_failure_is_not_retried(self, monkeypatch):
        calls = {"n": 0}

        def failing(job):
            calls["n"] += 1
            return "error", "Traceback: deterministic boom"

        monkeypatch.setattr(sweep, "_execute_job", failing)
        pool = WorkerPool(0, max_retries=2)
        with pytest.raises(SweepError):
            self.run_unit(pool)
        assert calls["n"] == 1
        assert pool.retries == 0


class TestCancellation:
    def test_cancel_skips_queued_units(self, tmp_path, fake_work):
        fake_work.delay = 0.05

        async def scenario():
            service = make_service(tmp_path, client_budget=1)
            job = service.submit(SWEEP)
            await asyncio.sleep(0.01)       # first unit starts
            service.cancel_job(job.id)
            await finish(service, job)
            return job

        job = run(scenario())
        assert job.state == "cancelled"
        states = {u.state for u in job.units}
        assert "cancelled" in states
        # Not every unit ran: the budget serialized them and the cancel
        # landed before the queue drained.
        assert len(fake_work.started) < len(job.units)

    def test_cancel_unknown_job_is_none(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            return service.cancel_job("j999")

        assert run(scenario()) is None

    def test_shared_waiter_survives_owner_cancellation(self, tmp_path,
                                                       fake_work):
        fake_work.delay = 0.05

        async def scenario():
            service = make_service(tmp_path, client_budget=1)
            owner = service.submit(SIM, client="alice")
            await asyncio.sleep(0.01)
            waiter = service.submit(SIM, client="bob")
            await asyncio.sleep(0.01)
            service.cancel_job(owner.id)
            await finish(service, owner, waiter)
            return waiter

        waiter = run(scenario())
        # The owner's execution completed (running units finish) or the
        # waiter retried and executed itself; either way bob gets a result.
        assert waiter.state == "done"
        assert waiter.units[0].state == "done"


class TestEventsAndMetrics:
    def test_job_lifecycle_publishes_events(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            queue = service.hub.subscribe("*")
            job = service.submit(SIM)
            await finish(service, job)
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            service.hub.unsubscribe("*", queue)
            return job, events

        job, events = run(scenario())
        kinds = [event for event, _ in events]
        assert "job" in kinds and "unit" in kinds and "progress" in kinds
        final = [data for event, data in events if event == "job"][-1]
        assert final["state"] == "done"
        assert final["id"] == job.id
        assert final["job_id"] == job.id    # hub stamps the topic

    def test_metrics_snapshot_shape(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            job = service.submit(SIM)
            await finish(service, job)
            return service.metrics.snapshot(service)

        snap = run(scenario())
        assert snap["jobs"]["accepted"] == 1
        assert snap["jobs"]["completed"] == 1
        assert snap["units"]["executed"] == 1
        assert snap["latency_ms"]["job"]["count"] == 1
        assert snap["latency_ms"]["job"]["p50"] >= 0
        assert 0.0 <= snap["cache"]["hit_rate"] <= 1.0

    def test_quantiles_helper(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.job_latency_ms.record(value)
        quantiles = metrics.job_latency_ms.quantiles((0.5, 0.95))
        assert quantiles["p50"] <= quantiles["p95"]
