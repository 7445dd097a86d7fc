"""Service-level metrics: the numbers behind ``GET /metrics``.

Latency distributions ride the obs subsystem's streaming
:class:`~repro.obs.metrics.Histogram` (milliseconds, exponential
buckets), so p50/p95 come from the same machinery that summarises miss
latency inside the simulator.  Counters are plain ints; the cache's
hit/miss/eviction counters are read straight off the shared
:class:`~repro.harness.sweep.ResultCache`.
"""

import time

from ..obs.metrics import Histogram, exponential_bounds

#: 1ms .. ~2.3h, the same span the sweep progress reporter uses.
LATENCY_BOUNDS = exponential_bounds(1, 2, 24)


class ServiceMetrics:
    """Everything the ``/metrics`` endpoint reports."""

    def __init__(self):
        self.started = time.monotonic()
        self.job_latency_ms = Histogram(LATENCY_BOUNDS)
        self.unit_latency_ms = Histogram(LATENCY_BOUNDS)
        self.jobs_accepted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.units_total = 0
        self.units_executed = 0
        self.units_cached = 0       # served from the on-disk cache
        self.units_shared = 0       # coalesced onto an in-flight execution
        self.units_failed = 0
        self.requests = 0

    def record_job(self, elapsed_s, failed=False, cancelled=False):
        self.job_latency_ms.record(max(1, int(elapsed_s * 1000)))
        if cancelled:
            self.jobs_cancelled += 1
        elif failed:
            self.jobs_failed += 1
        else:
            self.jobs_completed += 1

    def record_unit(self, elapsed_s):
        self.unit_latency_ms.record(max(1, int(elapsed_s * 1000)))

    def snapshot(self, service):
        """The JSON document ``GET /metrics`` serves."""
        pool = service.pool
        cache_stats = service.cache.stats() if service.cache else {}
        queued = sum(1 for job in service.jobs.values()
                     if job.state == "queued")
        running = sum(1 for job in service.jobs.values()
                      if job.state == "running")
        return {
            "uptime_s": time.monotonic() - self.started,
            "requests": self.requests,
            "queue": {
                "queued_jobs": queued,
                "running_jobs": running,
                "depth": queued + running,
            },
            "jobs": {
                "accepted": self.jobs_accepted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "cancelled": self.jobs_cancelled,
            },
            "units": {
                "total": self.units_total,
                "executed": self.units_executed,
                "cached": self.units_cached,
                "shared_inflight": self.units_shared,
                "failed": self.units_failed,
            },
            "cache": cache_stats,
            "workers": {
                "fleet": pool.width,
                "running_units": pool.running,
                # Running units per worker (thread mode: running units).
                "utilization": pool.running / float(pool.width or 1),
                "crashes": pool.crashes,
                "retries": pool.retries,
            },
            "latency_ms": {
                "job": dict(self.job_latency_ms.quantiles((0.5, 0.95)),
                            count=self.job_latency_ms.count,
                            mean=self.job_latency_ms.mean),
                "unit": dict(self.unit_latency_ms.quantiles((0.5, 0.95)),
                             count=self.unit_latency_ms.count,
                             mean=self.unit_latency_ms.mean),
            },
            "events_published": service.hub.published,
        }
