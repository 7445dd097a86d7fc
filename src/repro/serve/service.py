"""The job service: registry, dedupe, budgets, retries, cache, events.

:class:`JobService` is the hub every HTTP handler talks to.  A submitted
spec becomes a :class:`Job` whose units flow through one funnel:

1. **cache** — the shared :class:`~repro.harness.sweep.ResultCache` is
   consulted first; a hit finishes the unit without touching a worker.
2. **in-flight dedupe** — a miss whose content key is already executing
   (for any client) awaits that execution's future instead of submitting
   a duplicate: two clients posting the same sweep share one simulation,
   the way DLS's directoryless LLC replaces per-requester bookkeeping
   with one shared structure.
3. **budgeted execution** — new work acquires the client's concurrency
   semaphore, runs on the persistent
   :class:`~repro.harness.sweep.WorkerPool` (crash retries with backoff
   live there), and lands in the cache for every later requester.

Progress flows through :class:`~repro.serve.events.SSEProgress` — the
sweep engine's hook surface — into the :class:`~repro.serve.events.EventHub`,
so SSE subscribers see ``progress`` / ``unit`` / ``job`` events live.
"""

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

from ..harness.sweep import CACHE_DIR, ResultCache, SweepError, WorkerPool
from .events import EventHub, SSEProgress
from .jobspec import parse_job
from .metrics import ServiceMetrics

#: Default cap on simultaneously-executing units per client.
DEFAULT_CLIENT_BUDGET = 4

#: Default cache budget: 256 MB of result payloads.
DEFAULT_CACHE_BUDGET = 256 * 1024 * 1024

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2                # 0 = inline threads (tests)
    cache_dir: str = CACHE_DIR
    cache_budget: Optional[int] = DEFAULT_CACHE_BUDGET
    client_budget: int = DEFAULT_CLIENT_BUDGET
    max_retries: int = 2


@dataclass
class UnitState:
    """One unit's service-side bookkeeping."""

    key: str
    label: str
    state: str = "queued"           # queued/running/done/failed/cancelled
    cached: bool = False            # served from the on-disk cache
    shared: bool = False            # coalesced onto another job's execution
    elapsed_s: float = 0.0
    error: Optional[str] = None


@dataclass
class Job:
    """One submitted job and its lifecycle."""

    id: str
    kind: str
    client: str
    units: list = field(default_factory=list)       # [UnitState]
    state: str = "queued"
    created: float = field(default_factory=time.time)
    elapsed_s: float = 0.0
    error: Optional[str] = None
    cancel: Optional[object] = None                 # asyncio.Event
    task: Optional[object] = None                   # the driving task

    def to_dict(self, verbose=True):
        done = sum(1 for u in self.units
                   if u.state in ("done", "failed", "cancelled"))
        doc = {
            "id": self.id,
            "kind": self.kind,
            "client": self.client,
            "state": self.state,
            "created": self.created,
            "elapsed_s": self.elapsed_s,
            "units_total": len(self.units),
            "units_done": done,
            "error": self.error,
        }
        if verbose:
            doc["units"] = [{
                "key": u.key, "label": u.label, "state": u.state,
                "cached": u.cached, "shared": u.shared,
                "elapsed_s": u.elapsed_s, "error": u.error,
                "result": "/results/" + u.key,
            } for u in self.units]
        return doc


class JobService:
    """The service core (transport-free: the API layer adapts HTTP)."""

    def __init__(self, config=None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_dir,
                                 budget_bytes=self.config.cache_budget)
        self.pool = WorkerPool(self.config.workers,
                               max_retries=self.config.max_retries)
        self.hub = EventHub()
        self.metrics = ServiceMetrics()
        self.jobs = {}              # id -> Job
        self._inflight = {}         # content key -> asyncio.Future
        self._client_sems = {}      # client -> asyncio.Semaphore
        self._ids = itertools.count(1)

    # -- submission ---------------------------------------------------------

    def submit(self, doc, client="anonymous"):
        """Validate and enqueue one job document; returns the Job.

        Raises :class:`~repro.serve.jobspec.SpecError` on a bad spec.
        """
        spec = parse_job(doc)
        job = Job(id="j%d" % next(self._ids), kind=spec.kind, client=client,
                  cancel=asyncio.Event())
        job.units = [UnitState(key=u.key, label=u.label)
                     for u in spec.units]
        self.jobs[job.id] = job
        self.metrics.jobs_accepted += 1
        self.metrics.units_total += len(spec.units)
        job.task = asyncio.create_task(self._run_job(job, spec.units))
        return job

    def _client_sem(self, client):
        sem = self._client_sems.get(client)
        if sem is None:
            sem = asyncio.Semaphore(self.config.client_budget)
            self._client_sems[client] = sem
        return sem

    # -- lifecycle ----------------------------------------------------------

    async def _run_job(self, job, units):
        started = time.monotonic()
        job.state = "running"
        progress = SSEProgress(self.hub, job.id)
        self._publish_state(job)
        progress.sweep_started(len(units), 0)
        sem = self._client_sem(job.client)
        # return_exceptions: one unit's failure (or a cancellation's
        # CancelledError) must not tear down its siblings mid-flight.
        await asyncio.gather(*[
            self._run_unit(job, unit, state, sem, progress)
            for unit, state in zip(units, job.units)],
            return_exceptions=True)
        job.elapsed_s = time.monotonic() - started
        failed = [u for u in job.units if u.state == "failed"]
        cancelled = job.cancel.is_set()
        if cancelled:
            job.state = "cancelled"
        elif failed:
            job.state = "failed"
            job.error = job.error or failed[0].error
        else:
            job.state = "done"
        self.metrics.record_job(job.elapsed_s, failed=bool(failed),
                                cancelled=cancelled)
        progress.sweep_finished(None)
        self._publish_state(job)

    async def _run_unit(self, job, unit, state, sem, progress):
        unit_started = time.monotonic()
        if job.cancel.is_set():
            state.state = "cancelled"
            return
        try:
            payload, how = await self._obtain(job, unit, sem)
        except SweepError as err:
            state.state = "failed"
            state.error = str(err)
            self.metrics.units_failed += 1
            self.hub.publish(job.id, "unit", {
                "key": unit.key, "label": unit.label, "state": "failed",
                "error": state.error[:2000]})
            return
        except asyncio.CancelledError:
            state.state = "cancelled"
            raise
        state.elapsed_s = time.monotonic() - unit_started
        state.state = "done"
        state.cached = how == "cache"
        state.shared = how == "shared"
        self.metrics.record_unit(state.elapsed_s)
        progress.job_finished(unit.key, unit.job, state.elapsed_s,
                              how != "executed")

    async def _obtain(self, job, unit, sem):
        """One payload for the unit: cache, shared in-flight, or execute.

        Loops because a shared execution can be *aborted* (its owning job
        was cancelled before the worker ran): the waiter then retries —
        re-checking the cache, re-sharing, or becoming the executor.
        """
        while True:
            hit = self.cache.get(unit.key)
            if hit is not None:
                self.metrics.units_cached += 1
                return hit, "cache"

            shared = self._inflight.get(unit.key)
            if shared is not None:
                try:
                    # shield(): cancelling *this* waiter must not kill the
                    # execution other clients are waiting on.
                    payload = await asyncio.shield(shared)
                except SweepError as err:
                    if getattr(err, "aborted", False):
                        continue  # owner bailed before executing: retry
                    raise
                self.metrics.units_shared += 1
                return payload, "shared"

            future = asyncio.get_running_loop().create_future()
            self._inflight[unit.key] = future
            try:
                async with sem:
                    if job.cancel.is_set():
                        raise asyncio.CancelledError()
                    started = time.monotonic()
                    payload = await asyncio.wrap_future(self.pool.submit(
                        unit.key, unit.job))
                    elapsed = time.monotonic() - started
                self.metrics.units_executed += 1
                self.cache.put(unit.key, unit.job, payload, elapsed)
                future.set_result(payload)
                return payload, "executed"
            except BaseException as err:
                if isinstance(err, SweepError):
                    future.set_exception(err)
                else:
                    # Aborted before execution (cancellation/teardown):
                    # waiters must retry, not inherit the abort.
                    abort = SweepError(unit.key, unit.job,
                                       "execution aborted: %r" % (err,))
                    abort.aborted = True
                    future.set_exception(abort)
                future.exception()  # consumed; waiters re-raise their copy
                raise
            finally:
                self._inflight.pop(unit.key, None)

    def _publish_state(self, job):
        self.hub.publish(job.id, "job", job.to_dict(verbose=False))

    # -- queries / control --------------------------------------------------

    def get_job(self, job_id):
        return self.jobs.get(job_id)

    def list_jobs(self):
        return [job.to_dict(verbose=False)
                for job in sorted(self.jobs.values(),
                                  key=lambda j: j.created, reverse=True)]

    def cancel_job(self, job_id):
        """Request cancellation; queued units are skipped, running units
        finish (their results still land in the shared cache)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state in ("queued", "running"):
            job.cancel.set()
        return job

    def result(self, key):
        """The raw cached payload for a content key, or None."""
        return self.cache.get(key)

    async def shutdown(self):
        for job in self.jobs.values():
            if job.task is not None and not job.task.done():
                job.cancel.set()
                job.task.cancel()
        await asyncio.gather(*[job.task for job in self.jobs.values()
                               if job.task is not None],
                             return_exceptions=True)
        self.pool.shutdown()
