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
variable.  :func:`run_arena` builds each cell's row once, with
:func:`_row`, and returns the scaling study's report shape, a
:class:`~repro.analysis.tables.MatrixReport`.
"""

from dataclasses import replace

from ..analysis.tables import MatrixReport
from ..common import params
from ..common import stats as S
from ..common.errors import ConfigError
from ..obs.metrics import miss_percentiles
from ..protocol.arena import resolve_protocol
from ..spec.registry import SPEC_NAMES
from .sweep import SweepJob, default_engine

#: Default arena workloads: the two apps with the strongest
#: producer-consumer signature (Table 2), so the default report actually
#: shows the protocols apart.
DEFAULT_APPS = ("em3d", "ocean")

#: Report columns: (header, :func:`_row` key).
COLUMNS = [("protocol", "protocol"), ("cycles", "cycles"),
           ("traffic B", "traffic_bytes"), ("miss local", "miss_local"),
           ("2hop", "miss_2hop"), ("3hop", "miss_3hop"),
           ("updates", "updates_sent"), ("lat p50", "miss_p50"),
           ("lat p95", "miss_p95")]


#: The shared base configs the arena accepts, by name: the Figure-7
#: systems plus the ``small``, ``large`` and ``baseline`` presets.
BASE_PRESETS = {**params.EVALUATED_SYSTEMS, "small": params.small,
                "large": params.large, "baseline": params.baseline}


def base_preset(name):
    """The arena base config named ``name`` (a :data:`BASE_PRESETS` key);
    ``ConfigError`` for any other name."""
    if name not in BASE_PRESETS:
        raise ConfigError("unknown arena base config %r (have: %s)"
                          % (name, ", ".join(sorted(BASE_PRESETS))))
    return BASE_PRESETS[name]()


def _row(protocol, run):
    """The report row for one cell's :class:`AppRun`, as a plain dict."""
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


def run_arena(apps=DEFAULT_APPS, protocols=SPEC_NAMES, base=None,
              base_name="small", seed=12345, scale=0.5, engine=None):
    """Sweep ``apps`` x ``protocols`` and return a
    :class:`~repro.analysis.tables.MatrixReport`: one table per app, one
    row per protocol, ``cells[(app, protocol)] -> AppRun``.

    ``base`` is the shared base :class:`SystemConfig` (default:
    :func:`base_preset` of ``base_name``); every protocol
    runs ``replace(base, protocol_name=...)`` and normalises it itself at
    System construction.  The report names the base ``base_name``, or
    ``base_name/FORMAT`` when its directory format is not ``full``.
    ``engine`` is any default-runner
    :class:`~repro.harness.sweep.SweepEngine`; the default is serial and
    uncached.
    """
    if base is None:
        base = base_preset(base_name)
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
    rows = {app: [_row(protocol, cells[(app, protocol)])
                  for protocol in protocols] for app in apps}
    if base.directory_format != "full":
        base_name = "%s/%s" % (base_name, base.directory_format)
    return MatrixReport(
        "protocol arena  (base config %s, seed %d, scale %g)"
        % (base_name, seed, scale), COLUMNS,
        [("[%s]" % app, rows[app]) for app in apps],
        {"base_config": base_name, "seed": seed, "scale": scale,
         "apps": list(apps), "protocols": list(protocols), "rows": rows},
        cells)


__all__ = ["BASE_PRESETS", "DEFAULT_APPS", "base_preset", "run_arena"]
