"""The scaling study: storm traffic on 256-1024-node machines.

The paper evaluates 16 nodes; this harness answers "what breaks first
when the machine grows" by sweeping node count x directory format x
protocol over the canonical storm workload
(:func:`repro.fuzz.scenarios.storm_workload_kwargs` — the same traffic
the fuzz audit replays, so the report and the oracles measure identical
runs).  Per cell it reports end-to-end cycles, network traffic, update
fan-out, NACK/retry pressure and miss-latency p50/p95; the interesting
curve is how the compressed directory formats (``coarse:G``,
``limited:K``) trade their constant-area vectors for invalidation and
speculative-update storms as the machine grows.

Every cell is one :class:`~repro.harness.sweep.SweepJob` submitted
through a :class:`~repro.harness.sweep.SweepEngine`, so scale sweeps
parallelise and cache like every other experiment; node count, format
and protocol all ride in the config and therefore in the cache key.
:func:`run_scale` builds each cell's row once, with :func:`_row`, and
returns the arena's report shape, a
:class:`~repro.analysis.tables.MatrixReport`.
"""

from dataclasses import replace

from ..analysis.tables import MatrixReport
from ..common import stats as S
from ..common.errors import ConfigError
from ..directory.formats import DirectoryFormat
from ..fuzz.runner import build_workload
from ..fuzz.scenarios import FuzzScenario
from ..obs.metrics import miss_percentiles
from ..protocol.arena import resolve_protocol
from ..sim.system import System
from .sweep import SweepJob

#: Default sweep axes: small enough that the default invocation finishes
#: in minutes, while still crossing the coarse/limited break-even points.
DEFAULT_NODES = (16, 64, 256)
DEFAULT_FORMATS = ("full", "coarse:8", "coarse:16", "limited:2", "limited:4")
DEFAULT_PROTOCOLS = ("adaptive",)

#: Report columns: (header, :func:`_row` key).
COLUMNS = [("format", "format"), ("protocol", "protocol"),
           ("cycles", "cycles"), ("traffic B", "traffic_bytes"),
           ("INVs", "invalidations"), ("updates", "updates_sent"),
           ("fanout", "update_fanout"), ("NACKs", "nacks"),
           ("retries", "retries"), ("lat p50", "miss_p50"),
           ("lat p95", "miss_p95"), ("dir b/entry", "dir_bits_per_entry")]


def scale_runner(job):
    """Worker-side runner for scale cells (module-level so it pickles by
    reference).  Rebuilds the canonical storm workload for the job's node
    count, runs it untraced under the job's exact config — format and
    protocol included — and returns counters plus the always-on
    miss-latency histograms.  (The storm is not a registered app, so the
    default ``run_app`` runner cannot build it.)
    """
    scenario = FuzzScenario.storm(job.seed, num_nodes=job.config.num_nodes,
                                  scale=job.scale)
    # The job's config is authoritative (it is what the cache key hashed);
    # the scenario only contributes the workload and the run caps.
    scenario = replace(scenario, config=job.config)
    build = build_workload(scenario)
    with System(job.config, check_coherence=job.check_coherence,
                chaos=job.chaos) as system:
        result = system.run(build.per_cpu_ops, placements=build.placements,
                            max_cycles=scenario.max_cycles,
                            max_events=scenario.max_events)
    return {
        "cycles": result.cycles,
        "events": result.events_processed,
        "stats": dict(result.stats),
        "latency": result.extras["latency"],
    }


def _row(num_nodes, fmt, protocol, payload):
    """The report row for one cell's :func:`scale_runner` payload."""
    stats = payload["stats"]
    p50, p95 = miss_percentiles(payload["latency"])
    updates = stats.get(S.UPDATES_SENT, 0)
    pushes = stats.get(S.INTERVENTIONS, 0)
    return {
        "nodes": num_nodes,
        "format": fmt,
        "protocol": protocol,
        "cycles": payload["cycles"],
        "events": payload["events"],
        "traffic_bytes": stats.get(S.MSG_BYTES, 0),
        "invalidations": stats.get("msg.sent.INV", 0),
        "updates_sent": updates,
        "update_fanout": round(updates / pushes, 2) if pushes else 0.0,
        "nacks": stats.get(S.NACKS, 0),
        "retries": stats.get(S.RETRIES, 0),
        "miss_p50": p50,
        "miss_p95": p95,
        "dir_bits_per_entry":
            DirectoryFormat.parse(fmt).bits_per_entry(num_nodes),
    }


def run_scale(nodes=DEFAULT_NODES, formats=DEFAULT_FORMATS,
              protocols=DEFAULT_PROTOCOLS, seed=0, scale=1.0,
              check_coherence=True, engine=None):
    """Sweep ``nodes`` x ``formats`` x ``protocols`` storm runs and
    return a :class:`~repro.analysis.tables.MatrixReport`: one table per
    node count, ``cells[(nodes, fmt, proto)] -> payload``, and a flat,
    node-major ``rows`` list in the JSON document.

    Every cell shares the storm scenario's config recipe — only the axis
    under study varies — and runs with online coherence checking unless
    ``check_coherence`` is off (the report doubles as a scaled-up oracle
    pass).  ``engine`` must have been built with ``runner=scale_runner``
    (CLI and :func:`scale_engine` do); the default is serial, uncached.
    """
    for name in protocols:
        resolve_protocol(name)  # fail fast on typos, before any sim runs
    for fmt in formats:
        DirectoryFormat.parse(fmt)
    for num_nodes in nodes:
        if num_nodes < 2:
            raise ConfigError("the storm needs a producer and a consumer: "
                              "node counts must be >= 2, got %d" % num_nodes)
    if engine is None:
        engine = scale_engine()
    jobs = {}
    for num_nodes in nodes:
        for fmt in formats:
            for proto in protocols:
                scenario = FuzzScenario.storm(
                    seed, num_nodes=num_nodes, directory_format=fmt,
                    protocol=proto, scale=scale)
                jobs[(num_nodes, fmt, proto)] = SweepJob(
                    app="storm", config=scenario.config, seed=seed,
                    scale=scale, check_coherence=check_coherence)
    cells = engine.run_many(jobs)
    groups = [("[%d nodes]" % num_nodes,
               [_row(num_nodes, fmt, proto, cells[(num_nodes, fmt, proto)])
                for fmt in formats for proto in protocols])
              for num_nodes in nodes]
    return MatrixReport(
        "scaling study  (storm workload, seed %d, scale %g)" % (seed, scale),
        COLUMNS, groups,
        {"seed": seed, "scale": scale, "nodes": list(nodes),
         "formats": list(formats), "protocols": list(protocols),
         "rows": [row for _, rows in groups for row in rows]},
        cells)


def scale_engine(jobs=1, cache=False, **kwargs):
    """A :class:`SweepEngine` wired for scale payloads (a custom-runner
    engine returns each payload as the runner built it)."""
    from .sweep import SweepEngine

    return SweepEngine(jobs=jobs, cache=cache, runner=scale_runner,
                       **kwargs)


__all__ = ["DEFAULT_FORMATS", "DEFAULT_NODES", "DEFAULT_PROTOCOLS",
           "run_scale", "scale_engine", "scale_runner"]
