"""``repro.serve`` — the async sweep/fuzz job service.

An asyncio HTTP JSON API (``POST /jobs`` …) over a persistent worker
pool, deduplicating identical work across concurrent clients through
the sweep engine's content-addressed job keys and the shared
multi-process-safe result cache, with live SSE progress and a browsable
dashboard.  See ``docs/serving.md``.

Typical embedded use (tests; the CLI equivalent is ``repro serve``)::

    import asyncio
    from repro.serve import JobService, ServiceConfig, serve

    service = JobService(ServiceConfig(port=0, workers=2))
    asyncio.run(serve(service, ready=lambda port: print(port)))
"""

from .api import build_router, build_server, serve
from .client import ServeAPIError, ServeClient
from .events import EventHub, SSEProgress
from .jobspec import JobSpec, SpecError, TracedSweepJob, WorkUnit, parse_job
from .metrics import ServiceMetrics
from .service import Job, JobService, ServiceConfig, UnitState

__all__ = [
    "EventHub",
    "Job",
    "JobService",
    "JobSpec",
    "SSEProgress",
    "ServeAPIError",
    "ServeClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SpecError",
    "TracedSweepJob",
    "UnitState",
    "WorkUnit",
    "build_router",
    "build_server",
    "parse_job",
    "serve",
]
