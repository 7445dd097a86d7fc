"""The protocol arena: race the adaptive protocol against its baselines.

The paper's claim is comparative — adaptive delegation/update beats plain
write-invalidate on producer-consumer sharing — so the arena runs the same
workloads over every protocol with a spec (``SPEC_NAMES``; see
:mod:`repro.protocol.arena`) and renders the comparison: traffic bytes,
hop-class miss breakdown, and miss-latency p50/p95 per workload per
protocol.

Every (workload, protocol) cell is one :class:`~repro.harness.sweep.
SweepJob` submitted through a plain :class:`~repro.harness.sweep.
SweepEngine` (the default ``run_app`` runner, whose runs carry the
always-on latency histograms), so arena sweeps parallelise and cache
exactly like every other experiment; ``protocol_name`` rides in the
config and therefore in the cache key.  All cells share one *base*
config — each protocol then normalises it onto its spec's features
(``wi`` turns delegation and updates off, ``mesi`` also the RAC...),
which is the point: equal hardware budget, the protocol is the only
variable.
"""

from dataclasses import replace

from ..analysis.tables import render_matrix
from ..common import params
from ..common import stats as S
from ..obs.metrics import miss_percentiles
from ..protocol.arena import resolve_protocol
from ..spec.registry import SPEC_NAMES
from .sweep import SweepJob, default_engine

#: Default arena workloads: the two apps with the strongest
#: producer-consumer signature (Table 2), so the default report actually
#: shows the protocols apart.
DEFAULT_APPS = ("em3d", "ocean")

#: Report columns: (header, :meth:`ArenaReport.row` key).
COLUMNS = [("protocol", "protocol"), ("cycles", "cycles"),
           ("traffic B", "traffic_bytes"), ("miss local", "miss_local"),
           ("2hop", "miss_2hop"), ("3hop", "miss_3hop"),
           ("updates", "updates_sent"), ("lat p50", "miss_p50"),
           ("lat p95", "miss_p95")]


class ArenaReport:
    """Results of one arena sweep: ``cells[(app, protocol)] -> AppRun``."""

    def __init__(self, apps, protocols, cells, base_name, seed, scale):
        self.apps = list(apps)
        self.protocols = list(protocols)
        self.cells = cells
        self.base_name = base_name
        self.seed = seed
        self.scale = scale

    def row(self, app, protocol):
        """The report row for one cell, as a plain dict."""
        run = self.cells[(app, protocol)]
        stats = run.stats
        p50, p95 = miss_percentiles(run.latency)
        return {
            "protocol": protocol,
            "cycles": run.metrics.cycles,
            "traffic_bytes": stats.get(S.MSG_BYTES, 0),
            "miss_local": stats.get(S.MISS_LOCAL, 0),
            "miss_2hop": stats.get(S.MISS_2HOP, 0),
            "miss_3hop": stats.get(S.MISS_3HOP, 0),
            "updates_sent": stats.get(S.UPDATES_SENT, 0),
            "miss_p50": p50,
            "miss_p95": p95,
        }

    def render_text(self):
        """The full comparison: one table per workload."""
        return render_matrix(
            "protocol arena  (base config %s, seed %d, scale %g)"
            % (self.base_name, self.seed, self.scale), COLUMNS,
            [("[%s]" % app, [self.row(app, protocol)
                             for protocol in self.protocols])
             for app in self.apps])

    def to_json(self):
        """JSON-safe document of every cell's report row."""
        return {
            "base_config": self.base_name,
            "seed": self.seed,
            "scale": self.scale,
            "apps": self.apps,
            "protocols": self.protocols,
            "rows": {app: [self.row(app, protocol)
                           for protocol in self.protocols]
                     for app in self.apps},
        }


def run_arena(apps=DEFAULT_APPS, protocols=SPEC_NAMES, base=None,
              base_name="small", seed=12345, scale=0.5, engine=None):
    """Sweep ``apps`` x ``protocols`` and return an :class:`ArenaReport`.

    ``base`` is the shared base :class:`SystemConfig` (default: the named
    preset ``base_name`` from :mod:`repro.common.params`); every protocol
    runs ``replace(base, protocol_name=...)`` and normalises it itself at
    System construction.  ``engine`` is any default-runner
    :class:`~repro.harness.sweep.SweepEngine`; the default is serial and
    uncached.
    """
    if base is None:
        base = getattr(params, base_name)()
    for name in protocols:
        resolve_protocol(name)  # fail fast on typos, before any sim runs
    if engine is None:
        engine = default_engine()
    jobs = {
        (app, protocol): SweepJob(
            app=app, config=replace(base, protocol_name=protocol),
            seed=seed, scale=scale)
        for app in apps for protocol in protocols
    }
    cells = engine.run_many(jobs)
    return ArenaReport(apps=apps, protocols=protocols, cells=cells,
                       base_name=base_name, seed=seed, scale=scale)


__all__ = ["ArenaReport", "DEFAULT_APPS", "run_arena"]
