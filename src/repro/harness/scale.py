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
"""

from dataclasses import replace

from ..analysis.tables import render_matrix
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

#: Report columns: (header, :meth:`ScaleReport.row` key).
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
    system = System(job.config, check_coherence=job.check_coherence,
                    chaos=job.chaos)
    result = system.run(build.per_cpu_ops, placements=build.placements,
                        max_cycles=scenario.max_cycles,
                        max_events=scenario.max_events)
    return {
        "cycles": result.cycles,
        "events": result.events_processed,
        "stats": dict(result.stats),
        "latency": result.extras["latency"],
    }


class ScaleReport:
    """Results of one scaling sweep: ``cells[(nodes, fmt, proto)]``."""

    def __init__(self, nodes, formats, protocols, cells, seed, scale):
        self.nodes = list(nodes)
        self.formats = list(formats)
        self.protocols = list(protocols)
        self.cells = cells
        self.seed = seed
        self.scale = scale

    def row(self, num_nodes, fmt, protocol):
        """The report row for one cell, as a plain dict."""
        payload = self.cells[(num_nodes, fmt, protocol)]
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

    def rows(self):
        """Every cell's row, node-count-major (the breakdown curves)."""
        return [self.row(n, fmt, proto)
                for n in self.nodes
                for fmt in self.formats
                for proto in self.protocols]

    def render_text(self):
        """The scaling breakdown: one table per node count."""
        return render_matrix(
            "scaling study  (storm workload, seed %d, scale %g)"
            % (self.seed, self.scale), COLUMNS,
            [("[%d nodes]" % num_nodes,
              [self.row(num_nodes, fmt, proto)
               for fmt in self.formats for proto in self.protocols])
             for num_nodes in self.nodes])

    def to_json(self):
        """JSON-safe document of every cell's report row."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "nodes": self.nodes,
            "formats": self.formats,
            "protocols": self.protocols,
            "rows": self.rows(),
        }


def run_scale(nodes=DEFAULT_NODES, formats=DEFAULT_FORMATS,
              protocols=DEFAULT_PROTOCOLS, seed=0, scale=1.0,
              check_coherence=True, engine=None):
    """Sweep ``nodes`` x ``formats`` x ``protocols`` storm runs and
    return a :class:`ScaleReport`.

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
    return ScaleReport(nodes=nodes, formats=formats, protocols=protocols,
                       cells=cells, seed=seed, scale=scale)


def scale_engine(jobs=1, cache=False, **kwargs):
    """A :class:`SweepEngine` wired for scale payloads (the engine's
    default decoder is the identity when a custom runner is set)."""
    from .sweep import SweepEngine

    return SweepEngine(jobs=jobs, cache=cache, runner=scale_runner,
                       **kwargs)


__all__ = ["DEFAULT_FORMATS", "DEFAULT_NODES", "DEFAULT_PROTOCOLS",
           "ScaleReport", "run_scale", "scale_engine", "scale_runner"]
