"""Parallel sweep engine with an on-disk result cache.

Every paper artefact is a matrix of independent ``run_app`` simulations
(Figure 7 alone is 42), each a deterministic, self-contained
:class:`~repro.sim.System`.  This module turns those serial chains into
*jobs*:

* a :class:`SweepJob` names one simulation by content — app name,
  :class:`~repro.common.params.SystemConfig`, seed, scale, num_cpus — and
  :func:`job_key` hashes its type and that content, plus a digest of the
  simulator's own source (:func:`source_digest`), into a stable
  identifier.  Other job types (the scaling study's
  :class:`~repro.harness.scale.StormJob`, the fuzz corpus's
  :class:`~repro.fuzz.runner.FuzzJob`, the service's traced sim job) have
  the same shape and run through the same engine;
* a :class:`SweepEngine` fans a batch of jobs out over a
  :class:`WorkerPool` (``jobs=1`` runs in-process), dedupes identical
  jobs within the batch, and replays finished simulations from an
  on-disk cache under ``.repro_cache/`` so re-running an experiment only
  executes what changed;
* worker failures are captured and re-raised as :class:`SweepError`
  carrying the failing job's key and the worker traceback, instead of
  hanging the pool; a worker that dies hard is retried on a rebuilt
  pool (the same :class:`WorkerPool` runs the ``repro serve`` units);
* progress/ETA reporting plugs in through the same hook style the obs
  subsystem uses for tracer callbacks, with per-job wall-times kept in an
  :class:`~repro.obs.metrics.Histogram`.

Because each simulation is deterministic, parallel results are identical
to serial ones: the cache stores each job's JSON-safe payload (for a
:class:`SweepJob`, the raw ``RunResult`` counters) and the job's ``load``
rebuilds what the caller sees (the evaluation-facing
:class:`~repro.harness.runner.AppRun`, exactly as ``run_app`` builds it).

Typical use::

    from repro.common import params
    from repro.harness.sweep import SweepEngine, SweepJob

    engine = SweepEngine(jobs=4, cache=True)
    runs = engine.run_many({
        (app, name): SweepJob(app=app, config=config, scale=0.25)
        for app in ("em3d", "lu")
        for name, config in params.EVALUATED_SYSTEMS.items()
    })
    print(runs[("em3d", "base")].metrics.cycles)
"""

import functools
import gc
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
import traceback
from concurrent import futures
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..common.errors import ReproError
from ..obs.metrics import Histogram, exponential_bounds

#: Bump when the cached payload layout changes; old entries stop matching.
#: (Simulator code changes need no bump: :func:`source_digest` is keyed.)
#: 2: job content grew a ``chaos`` field (fault injection, repro.fuzz).
#: 3: job content grew a ``runner`` identity tag, so custom-runner jobs
#:    (fuzz corpora, the repro.serve traced runner) can share the cache
#:    without replaying another runner's output.
#: 4: payloads carry the always-on ``latency`` histograms, and keys the
#:    simulator source digest.
#: 5: jobs carry their own behaviour: keys hash the job's type and all of
#:    its fields (the ``runner`` tag is gone), and entries record the same
#:    fields.
CACHE_FORMAT = 5

#: The ``repro`` package whose source :func:`source_digest` hashes.
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Entries under :data:`SOURCE_ROOT` no simulation executes (front end,
#: static analysis); editing them keeps cached results.  ``spec`` is not
#: among them: the specs decide the hubs' dispatch; nor is ``mc``: the
#: fuzz oracles run its invariants.
NOT_RUN = frozenset({"__main__.py", "cli.py", "lint"})

#: Default cache location, relative to the current working directory.
CACHE_DIR = ".repro_cache"

#: A lock older than this is presumed abandoned (a crashed holder) and is
#: reclaimed.  Cache critical sections are file scans + unlinks, far below
#: this.
STALE_LOCK_SECONDS = 30.0

#: Seconds before a unit whose worker died is first retried; each further
#: retry doubles the wait.
RETRY_BASE = 0.25


class SweepError(ReproError):
    """A sweep job failed in a worker; carries the job key and traceback."""

    def __init__(self, key, job, worker_traceback):
        self.key = key
        self.job = job
        self.worker_traceback = worker_traceback
        super().__init__(
            "sweep job %s (%s) failed in worker:\n%s"
            % (key[:16], job.describe() if job is not None else "?",
               worker_traceback))


@dataclass(frozen=True)
class SweepJob:
    """One ``run_app`` simulation, named by content (what :func:`job_key`
    hashes).

    The config carries every machine knob the key must see, the
    protocol (``config.protocol_name``) and the directory format
    included, so a ``coarse:4`` run never aliases a ``full`` one.

    Every job type the engine runs has this shape: a frozen dataclass
    whose fields are its whole content, defined at module level (the
    pool's spawn workers unpickle it by reference), with three methods —
    ``run()`` executes it worker-side and returns a JSON-safe payload
    (what the cache stores), ``load(payload)`` turns a payload into what
    :meth:`SweepEngine.run_many` returns, and ``describe()`` names it in
    errors.
    """

    app: str
    config: object  # SystemConfig
    seed: int = 12345
    scale: float = 1.0
    num_cpus: Optional[int] = None
    check_coherence: bool = True
    chaos: Optional[object] = None  # ChaosConfig (fault injection) or None

    def run(self, trace=None):
        """The cacheable core of the :class:`~repro.harness.runner.AppRun`:
        raw RunResult counters and the always-on miss-latency/retry
        histograms.  ``trace`` is an obs tracer to record into, or None."""
        from .runner import run_app

        run = run_app(self.app, self.config, num_cpus=self.num_cpus,
                      seed=self.seed, scale=self.scale,
                      check_coherence=self.check_coherence,
                      chaos=self.chaos, trace=trace)
        return {
            "cycles": run.metrics.cycles,
            "stats": dict(run.stats),
            "latency": run.latency,
        }

    def load(self, payload):
        """Rebuild the AppRun from a payload exactly as ``run_app`` builds
        it."""
        from ..analysis.metrics import consumer_histogram, metrics_from_result
        from ..sim.system import RunResult
        from .runner import AppRun

        result = RunResult(cycles=payload["cycles"],
                           stats=dict(payload["stats"]),
                           cpu_finish_times=[], ops_executed=0,
                           events_processed=0)
        return AppRun(app=self.app,
                      metrics=metrics_from_result(result),
                      consumer_hist=consumer_histogram(result),
                      stats=result.stats,
                      latency=payload["latency"])

    def describe(self):
        return "%s seed=%d scale=%g cpus=%s" % (
            self.app, self.seed, self.scale,
            self.num_cpus if self.num_cpus is not None
            else self.config.num_nodes)


@functools.lru_cache(maxsize=None)
def source_digest(root):
    """sha256 over the sorted relative paths and bytes of every ``.py``
    module under ``root`` that a simulation runs (all but :data:`NOT_RUN`).
    Cached per root: computed once per process."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in NOT_RUN]
        for name in filenames:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if name.endswith(".py") and rel not in NOT_RUN:
                paths.append(rel.replace(os.sep, "/"))
    digest = hashlib.sha256()
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as fileobj:
            body = fileobj.read()
        digest.update(b"%s\0%d\0" % (rel.encode("utf-8"), len(body)))
        digest.update(body)
    return digest.hexdigest()


def job_key(job):
    """Deterministic content hash of a job.

    Built from the canonical JSON of the job's type and fields
    (``dataclasses.asdict``), the cache format and the simulator source
    digest, then folded through sha256 — stable across processes,
    sessions and machines running the same source.  The type is
    ``module:qualname``, what the pickle channel sends to workers: it
    keeps two job types with equal fields (a traced and a plain sim)
    apart.  The source digest means any simulator edit misses instead of
    replaying results of the code as it was.
    """
    cls = type(job)
    spec = {
        "format": CACHE_FORMAT,
        "source": source_digest(SOURCE_ROOT),
        "type": "%s:%s" % (cls.__module__, cls.__qualname__),
        "job": asdict(job),
    }
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json_atomic(path, doc, **dump_args):
    """Write ``doc`` as JSON to ``path`` via a temporary file in the same
    directory and ``os.replace``, so a reader never sees a torn document
    and a failed write leaves no temporary behind."""
    handle, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                        suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as fileobj:
            json.dump(doc, fileobj, sort_keys=True, **dump_args)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _execute_job(job):
    """Run one job worker-side (in the pool process, or in-process when
    jobs=1); never raises: errors come back as structured tuples."""
    try:
        return ("ok", job.run())
    except BaseException:
        return ("error", traceback.format_exc())


class WorkerPool:
    """The one worker pool: runs jobs (through :func:`_execute_job`) for
    the sweep engine and the ``repro serve`` job service.

    ``width`` > 0 is a spawn process pool of that many workers; 0 runs
    units on threads (``repro serve --workers 0``).  The executor is built
    on the first :meth:`submit`.

    A worker that dies hard (segfault, OOM-kill) breaks the whole pool:
    every unit in it fails with ``BrokenProcessPool`` (``crashes`` counts
    breaks).  Each failed unit is resubmitted after a :data:`RETRY_BASE`
    exponential backoff to a freshly built pool (``retries`` counts those
    rebuilds), and gives up with a :class:`SweepError` after
    ``max_retries``.  A deterministic failure (the simulation itself
    raised) is not retried.
    """

    def __init__(self, width, max_retries=2):
        self.width = width
        self.max_retries = max_retries
        self.running = 0            # units submitted and not yet resolved
        self.crashes = 0            # pool breaks: a worker died hard
        self.retries = 0            # pools rebuilt to retry crashed units
        self._executor = None
        self._closed = False
        self._lock = threading.Lock()

    def submit(self, key, job):
        """A future resolving to the job's payload or to a SweepError."""
        outer = futures.Future()
        outer.set_running_or_notify_cancel()  # not cancellable by callers
        with self._lock:
            self.running += 1
        self._attempt(outer, key, job, 0)
        return outer

    def _attempt(self, outer, key, job, attempt):
        with self._lock:
            if self._executor is None and not self._closed:
                if attempt:
                    self.retries += 1
                if self.width > 0:
                    import multiprocessing

                    self._executor = futures.ProcessPoolExecutor(
                        max_workers=self.width,
                        mp_context=multiprocessing.get_context("spawn"))
                else:
                    self._executor = futures.ThreadPoolExecutor()
            executor = self._executor
            try:
                if executor is None:
                    raise RuntimeError("worker pool is shut down")
                inner = executor.submit(_execute_job, job)
            except RuntimeError as exc:  # closed, or broken before the drop
                inner = futures.Future()
                inner.set_exception(exc)
        inner.add_done_callback(functools.partial(
            self._settle, outer, executor, key, job, attempt))

    def _settle(self, outer, executor, key, job, attempt, inner):
        from concurrent.futures.process import BrokenProcessPool

        try:
            status, payload = inner.result()
            error = None if status == "ok" else SweepError(key, job, payload)
        except BrokenProcessPool:
            # The broken pool has already shut itself down; the first unit
            # to see the break drops it, so the next attempt builds anew.
            with self._lock:
                if self._executor is executor:
                    self._executor = None
                    self.crashes += 1
            if attempt < self.max_retries:
                threading.Timer(RETRY_BASE * 2 ** attempt, self._attempt,
                                (outer, key, job, attempt + 1)).start()
                return
            error = SweepError(key, job, "worker process died (pool broken);"
                               " gave up after %d retries" % attempt)
        except Exception as exc:  # cancelled or abandoned by shutdown()
            error = exc
        with self._lock:
            self.running -= 1
        if error is None:
            outer.set_result(payload)
        else:
            outer.set_exception(error)

    def shutdown(self, wait=False):
        """Stop the pool: queued units are cancelled, retries abandoned."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


# ---------------------------------------------------------------------------
# On-disk result cache.
# ---------------------------------------------------------------------------


class CacheLock:
    """A multi-process mutex: an ``os.O_EXCL``-created lockfile.

    ``acquire`` spins (with a small sleep) until it wins the exclusive
    create.  A lock whose file is older than ``stale_after`` seconds —
    a holder that crashed mid-eviction — is *reclaimed*: the reclaimer
    atomically renames the stale file aside (only one racer can win the
    rename) and retries the create, so two processes can never both
    believe they hold the lock.
    """

    def __init__(self, path, stale_after=STALE_LOCK_SECONDS, timeout=30.0,
                 poll=0.01):
        self.path = path
        self.stale_after = stale_after
        self.timeout = timeout
        self.poll = poll
        self._fd = None

    def acquire(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(self._fd, b"%d\n" % os.getpid())
                return self
            except FileExistsError:
                self._reclaim_if_stale()
            if time.monotonic() >= deadline:
                raise TimeoutError("could not acquire cache lock %s within "
                                   "%.1fs" % (self.path, self.timeout))
            time.sleep(self.poll)

    def _reclaim_if_stale(self):
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return  # released (or reclaimed) under us: just retry acquire
        if age < self.stale_after:
            return
        aside = "%s.stale.%d" % (self.path, os.getpid())
        try:
            os.replace(self.path, aside)  # one racer wins the rename
        except OSError:
            return
        try:
            os.unlink(aside)
        except OSError:
            pass

    def release(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


class ResultCache:
    """Content-addressed store of finished-job payloads under ``root``.

    Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON document per
    finished simulation, atomically written (tmp file + ``os.replace``)
    so a crashed writer never leaves a torn entry.  Invalidation is by
    key construction: keys hash the full job content plus
    :data:`CACHE_FORMAT` and the simulator's source digest, so changing
    any input, the payload layout or the simulator simply misses.

    The cache is safe to share between processes: entry reads and writes
    are lock-free (atomic replace means a reader sees either the old or
    the new complete document), while eviction — the only multi-file
    critical section — runs under an ``os.O_EXCL`` lockfile with
    stale-lock reclamation (:class:`CacheLock`).

    ``budget_bytes`` caps the total entry size: every ``put`` beyond the
    budget evicts least-recently-used entries (hits bump an entry's
    mtime) until the cache fits.  ``hits`` / ``misses`` / ``evictions``
    counters feed the serving layer's metrics endpoint.
    """

    def __init__(self, root=CACHE_DIR, budget_bytes=None,
                 stale_lock_after=STALE_LOCK_SECONDS):
        self.root = root
        self.budget_bytes = budget_bytes
        self.stale_lock_after = stale_lock_after
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def _lock(self):
        os.makedirs(self.root, exist_ok=True)
        return CacheLock(os.path.join(self.root, ".evict.lock"),
                         stale_after=self.stale_lock_after)

    def get(self, key):
        """The cached payload for ``key``, or None (corrupt entries miss)."""
        path = self._path(key)
        try:
            with open(path) as fileobj:
                doc = json.load(fileobj)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if doc.get("format") != CACHE_FORMAT:
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # bump recency for LRU eviction
        except OSError:
            pass  # entry evicted between read and touch: the read stands
        return doc.get("result")

    def put(self, key, job, payload, elapsed):
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_json_atomic(path, {
            "format": CACHE_FORMAT,
            "key": key,
            "job": asdict(job),
            "elapsed_s": elapsed,
            "result": payload,
        })
        if self.budget_bytes is not None:
            self._evict_over_budget(keep=key)

    # -- eviction ----------------------------------------------------------

    def _entries(self):
        """[(mtime, size, path)] for every entry currently on disk."""
        entries = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return entries
        for shard in shards:
            if len(shard) != 2:
                continue
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # evicted by a racer mid-scan
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def size_bytes(self):
        """Total bytes of cache entries on disk (scans the tree)."""
        return sum(size for _, size, _ in self._entries())

    def _evict_over_budget(self, keep=None):
        """Unlink oldest-mtime entries until the cache fits the budget.

        ``keep`` names the just-written key: it is never evicted, so a
        budget smaller than one entry still serves the current job.
        """
        keep_path = self._path(keep) if keep is not None else None
        with self._lock():
            entries = sorted(self._entries())
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                if total <= self.budget_bytes:
                    break
                if path == keep_path:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue  # already gone: a racer evicted it
                total -= size
                self.evictions += 1

    def stats(self):
        """Hit/miss/eviction counters (this process's view of the cache)."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


# ---------------------------------------------------------------------------
# Progress hooks (the obs-style callback surface).
# ---------------------------------------------------------------------------


class SweepProgress:
    """Console progress/ETA reporter.

    Implements the engine's hook surface the same way the obs tracer
    exposes per-event callbacks, and keeps per-job wall-times in an obs
    :class:`~repro.obs.metrics.Histogram` (milliseconds, exponential
    buckets) so the ETA comes from the running mean without storing
    per-job samples.
    """

    def __init__(self, stream=None, min_interval=0.5):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.job_ms = Histogram(exponential_bounds(1, 2, 24))  # 1ms..~2.3h
        self._total = 0
        self._done = 0
        self._cached = 0
        self._last_report = 0.0

    # -- hook surface (called by SweepEngine) ------------------------------

    def sweep_started(self, total):
        # Cache hits are counted as they are reported, one
        # job_finished(..., cached=True) each.
        self._total = total
        self._done = 0
        self._cached = 0

    def job_finished(self, key, job, elapsed, cached):
        self._done += 1
        if cached:
            self._cached += 1
        else:
            self.job_ms.record(max(1, int(elapsed * 1000)))
        self._emit(force=self._done == self._total)

    def sweep_finished(self, report):
        self._emit(force=True)
        self.stream.write("\n")
        self.stream.flush()

    # -- rendering ---------------------------------------------------------

    def _eta_seconds(self):
        remaining = self._total - self._done
        if not remaining or not self.job_ms.count:
            return 0.0
        return remaining * self.job_ms.mean / 1000.0

    def _emit(self, force=False):
        now = time.monotonic()
        if not force and now - self._last_report < self.min_interval:
            return
        self._last_report = now
        eta = self._eta_seconds()
        self.stream.write(
            "\rsweep: %d/%d jobs (%d cached)  mean %.1fs/job  ETA %ds   "
            % (self._done, self._total, self._cached,
               self.job_ms.mean / 1000.0, int(round(eta))))
        self.stream.flush()


class _NullProgress:
    """The no-op hook target (mirrors the tracer's disabled fast path)."""

    def sweep_started(self, total):
        pass

    def job_finished(self, key, job, elapsed, cached):
        pass

    def sweep_finished(self, report):
        pass


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """What one :meth:`SweepEngine.run_many` call did."""

    total: int = 0          # caller-visible jobs (before dedup)
    unique: int = 0         # distinct simulations
    executed: int = 0       # simulations actually run
    cached: int = 0         # served from the on-disk cache
    elapsed: float = 0.0    # wall-clock seconds for the batch
    job_seconds: dict = field(default_factory=dict)  # key -> worker seconds
    crashes: int = 0        # worker pool breaks survived (see WorkerPool)
    retries: int = 0        # pools rebuilt to retry the crashed jobs


class SweepEngine:
    """Runs batches of jobs with caching and a worker pool.

    ``jobs`` is the worker-pool width; 1 (the default) executes in-process
    with no multiprocessing involved.  More spawn workers than cores is
    pure overhead (~0.5-1s python start-up per worker) on top of zero
    parallel speedup, so the pool width (``effective_jobs``) is clamped to
    ``os.cpu_count()``.  ``cache`` turns the on-disk result
    cache on; ``cache_dir`` relocates it.  ``progress`` is a hook object
    (see :class:`SweepProgress`); None disables reporting.

    Any job type runs here (see :class:`SweepJob`), and one batch may
    mix them: the engine only keys, dedupes, caches and executes, and
    each job's own ``load`` shapes its result.
    """

    def __init__(self, jobs=1, cache=False, cache_dir=CACHE_DIR,
                 progress=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %r" % jobs)
        self.jobs = jobs
        self.effective_jobs = max(1, min(jobs, os.cpu_count() or 1))
        self.cache = ResultCache(cache_dir) if cache else None
        self.progress = progress if progress is not None else _NullProgress()
        self.last_report = SweepReport()

    # -- public API --------------------------------------------------------

    def run_many(self, jobs):
        """Execute a batch and return results under the caller's keys.

        ``jobs`` maps arbitrary hashable caller keys to jobs (a
        list/tuple works too: indexes become the keys).  Identical jobs
        (same content hash) are deduped and executed once.  Returns a dict
        of caller key -> ``job.load(payload)`` (for a :class:`SweepJob`,
        an :class:`~repro.harness.runner.AppRun`).
        """
        if not isinstance(jobs, dict):
            jobs = dict(enumerate(jobs))
        started = time.monotonic()
        content = {caller: job_key(job) for caller, job in jobs.items()}
        unique = {}
        for caller, job in jobs.items():
            unique.setdefault(content[caller], job)

        payloads, times = {}, {}
        if self.cache is not None:
            for key in unique:
                lookup_started = time.monotonic()
                hit = self.cache.get(key)
                if hit is not None:
                    payloads[key] = hit
                    # Hits land in job_seconds too (as replay time), so
                    # per-job latency views cover the whole batch.
                    times[key] = time.monotonic() - lookup_started
        misses = {key: job for key, job in unique.items()
                  if key not in payloads}

        self.progress.sweep_started(len(unique))
        for key in payloads:
            self.progress.job_finished(key, unique[key],
                                       times.get(key, 0.0), True)

        report = SweepReport(
            total=len(jobs), unique=len(unique), executed=len(misses),
            cached=len(unique) - len(misses), job_seconds=times)
        if misses:
            self._execute(misses, payloads, times, report)
        report.elapsed = time.monotonic() - started
        self.last_report = report
        self.progress.sweep_finished(report)
        return {caller: job.load(payloads[content[caller]])
                for caller, job in jobs.items()}

    # -- execution ---------------------------------------------------------

    def _execute(self, misses, payloads, times, report):
        if self.effective_jobs == 1 or len(misses) == 1:
            # Serial in-process runs pause the cyclic GC: simulations
            # allocate heavily (events, messages, payload dicts), which
            # triggers collections constantly, yet reference counting
            # frees all of it, finished Systems included, since the
            # jobs close them (System.close breaks their cycles).  The
            # collect at the end reclaims whatever cycles a job leaves.
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                for key, job in misses.items():
                    job_started = time.monotonic()
                    status, payload = _execute_job(job)
                    self._finish(key, job, status, payload, payloads, times,
                                 time.monotonic() - job_started)
            finally:
                if gc_was_enabled:
                    gc.enable()
                    gc.collect()
            return
        pool = WorkerPool(min(self.effective_jobs, len(misses)))
        try:
            pending = {}
            for key, job in misses.items():
                pending[pool.submit(key, job)] = (
                    key, job, time.monotonic())
            for future in futures.as_completed(pending):
                key, job, job_started = pending[future]
                self._finish(key, job, "ok", future.result(), payloads,
                             times, time.monotonic() - job_started)
        finally:
            pool.shutdown(wait=True)
            report.crashes, report.retries = pool.crashes, pool.retries

    def _finish(self, key, job, status, payload, payloads, times, elapsed):
        if status != "ok":
            raise SweepError(key, job, payload)
        payloads[key] = payload
        times[key] = elapsed
        if self.cache is not None:
            self.cache.put(key, job, payload, elapsed)
        self.progress.job_finished(key, job, elapsed, False)


#: The default engine behind experiments called without an explicit one:
#: serial, uncached — byte-identical behaviour to the old direct run_app
#: chain (and no surprise disk writes from tests or library users).
_DEFAULT_ENGINE = None


def default_engine():
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = SweepEngine(jobs=1, cache=False)
    return _DEFAULT_ENGINE
