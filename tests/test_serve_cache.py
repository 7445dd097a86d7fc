"""The hardened shared ResultCache: locks, LRU eviction, process races.

The multi-process stress tests use the real ``spawn`` context — the same
isolation the worker pool runs under — racing ``put``/``get`` on the
same key.  The invariants: a reader sees either a miss or one complete,
valid payload (never a torn mix), nobody deadlocks, and a stale lock
left by a crashed evictor is reclaimed instead of wedging the cache.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.common import baseline
from repro.harness.sweep import (
    CacheLock,
    ResultCache,
    SweepEngine,
    SweepJob,
    job_key,
)

SCALE = 0.1


def make_job(seed=1):
    return SweepJob(app="ocean", config=baseline(num_nodes=4), seed=seed,
                    scale=SCALE)


def payload(tag, pad=0):
    return {"cycles": tag, "stats": {"who": tag, "pad": "x" * pad}}


class TestCacheLock:
    def test_exclusion(self, tmp_path):
        path = str(tmp_path / "lock")
        with CacheLock(path):
            racer = CacheLock(path, timeout=0.2, stale_after=60.0)
            with pytest.raises(TimeoutError):
                racer.acquire()
        # Released: immediately acquirable again.
        with CacheLock(path, timeout=0.2):
            pass

    def test_stale_lock_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "lock")
        with open(path, "w") as fileobj:
            fileobj.write("999999\n")
        old = time.time() - 3600
        os.utime(path, (old, old))   # a holder that died an hour ago
        started = time.monotonic()
        with CacheLock(path, stale_after=5.0, timeout=5.0):
            pass
        assert time.monotonic() - started < 2.0

    def test_fresh_foreign_lock_is_respected(self, tmp_path):
        path = str(tmp_path / "lock")
        with open(path, "w") as fileobj:
            fileobj.write("999999\n")
        with pytest.raises(TimeoutError):
            CacheLock(path, stale_after=60.0, timeout=0.2).acquire()


class TestCounters:
    def test_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = job_key(make_job())
        assert cache.get(key) is None
        cache.put(key, make_job(), payload(1), elapsed=0.1)
        assert cache.get(key) == payload(1)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestLRUEviction:
    def keys(self, count):
        return [job_key(make_job(seed)) for seed in range(count)]

    def test_budget_evicts_oldest(self, tmp_path):
        cache = ResultCache(str(tmp_path), budget_bytes=6000)
        keys = self.keys(4)
        for index, key in enumerate(keys):
            cache.put(key, make_job(index), payload(index, pad=1500),
                      elapsed=0.0)
            time.sleep(0.02)        # distinct mtimes for LRU ordering
        assert cache.size_bytes() <= 6000
        assert cache.get(keys[0]) is None          # oldest went first
        assert cache.get(keys[-1]) is not None     # newest survives
        assert cache.evictions >= 1

    def test_hit_bumps_recency(self, tmp_path):
        cache = ResultCache(str(tmp_path), budget_bytes=6500)
        first, second, third = self.keys(3)
        cache.put(first, make_job(0), payload(0, pad=1500), elapsed=0.0)
        time.sleep(0.02)
        cache.put(second, make_job(1), payload(1, pad=1500), elapsed=0.0)
        time.sleep(0.02)
        assert cache.get(first) is not None        # bump: first is now MRU
        time.sleep(0.02)
        cache.put(third, make_job(2), payload(2, pad=2500), elapsed=0.0)
        assert cache.get(second) is None           # LRU fell out
        assert cache.get(first) is not None
        assert cache.get(third) is not None

    def test_just_written_key_never_self_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path), budget_bytes=10)
        key = job_key(make_job())
        cache.put(key, make_job(), payload(7, pad=4000), elapsed=0.0)
        assert cache.get(key) is not None

    def test_engine_passes_budget_through(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path),
                             cache_budget=123)
        assert engine.cache.budget_bytes == 123


class TestJobSecondsIncludesHits:
    def test_cache_hits_land_in_job_seconds(self, tmp_path):
        engine = SweepEngine(cache=True, cache_dir=str(tmp_path))
        engine.run_many([make_job()])
        key = job_key(make_job())
        assert key in engine.last_report.job_seconds
        engine.run_many([make_job()])
        report = engine.last_report
        assert report.cached == 1
        # The satellite fix: hits populate times too (as replay time).
        assert key in report.job_seconds
        assert report.job_seconds[key] >= 0.0


# ---------------------------------------------------------------------------
# Multi-process races (the spawn context, as the worker pool uses).
# ---------------------------------------------------------------------------


def _writer_proc(root, key, tag, iterations, budget):
    cache = ResultCache(root, budget_bytes=budget)
    job = make_job()
    for index in range(iterations):
        cache.put(key, job, payload(tag, pad=200 + index % 7), elapsed=0.0)


def _reader_proc(root, key, tags, iterations, out_queue):
    cache = ResultCache(root)
    bad = 0
    for _ in range(iterations):
        doc = cache.get(key)
        if doc is None:
            continue
        if doc.get("cycles") not in tags or "stats" not in doc:
            bad += 1
    out_queue.put(bad)


def _evictor_proc(root, budget, iterations):
    cache = ResultCache(root, budget_bytes=budget)
    job = make_job()
    for seed in range(iterations):
        cache.put(job_key(make_job(seed + 1000)), job,
                  payload(seed, pad=300), elapsed=0.0)


class TestConcurrentAccess:
    TIMEOUT = 60

    def _join_all(self, procs):
        deadline = time.monotonic() + self.TIMEOUT
        for proc in procs:
            proc.join(max(0.1, deadline - time.monotonic()))
        stuck = [p for p in procs if p.is_alive()]
        for proc in stuck:
            proc.terminate()
        assert not stuck, "cache access deadlocked: %s" % stuck
        assert all(p.exitcode == 0 for p in procs), \
            [p.exitcode for p in procs]

    def test_racing_put_get_never_corrupts(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        root = str(tmp_path)
        key = job_key(make_job())
        out_queue = context.Queue()
        procs = [
            context.Process(target=_writer_proc,
                            args=(root, key, 111, 60, None)),
            context.Process(target=_writer_proc,
                            args=(root, key, 222, 60, None)),
            context.Process(target=_reader_proc,
                            args=(root, key, (111, 222), 120, out_queue)),
        ]
        for proc in procs:
            proc.start()
        self._join_all(procs)
        assert out_queue.get(timeout=5) == 0    # no torn/corrupt reads
        final = ResultCache(root).get(key)
        assert final is not None and final["cycles"] in (111, 222)

    def test_racing_eviction_with_stale_lock(self, tmp_path):
        """Two budgeted writers race eviction while a pre-seeded stale
        lock sits in the root: both must finish (reclaiming, not
        deadlocking) and leave the cache within budget."""
        context = multiprocessing.get_context("spawn")
        root = str(tmp_path)
        lock_path = os.path.join(root, ".evict.lock")
        os.makedirs(root, exist_ok=True)
        with open(lock_path, "w") as fileobj:
            fileobj.write("999999\n")
        old = time.time() - 3600
        os.utime(lock_path, (old, old))
        budget = 4000
        procs = [
            context.Process(target=_evictor_proc, args=(root, budget, 25)),
            context.Process(target=_evictor_proc, args=(root, budget, 25)),
        ]
        for proc in procs:
            proc.start()
        self._join_all(procs)
        cache = ResultCache(root, budget_bytes=budget)
        # Within budget modulo one in-flight entry, and entries readable.
        entries = cache._entries()
        assert entries, "eviction removed everything"
        for _, _, path in entries:
            with open(path) as fileobj:
                json.load(fileobj)   # every surviving entry parses
