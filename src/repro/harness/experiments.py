"""One experiment definition per paper table/figure.

Each ``figureN()`` / ``tableN()`` function runs the necessary simulations
and returns a dict with the regenerated rows/series plus a rendered ASCII
form under ``"text"``.  The paper's reported values are kept alongside in
``PAPER`` so EXPERIMENTS.md (and the benches' printed output) can show
paper-vs-measured for every artefact.

All functions accept ``scale`` (workload shrink factor) so tests can run
them quickly; published numbers in EXPERIMENTS.md use ``scale=1.0``.

Every function also accepts ``engine`` — a
:class:`~repro.harness.sweep.SweepEngine` — and submits its whole
simulation matrix as one batch of jobs, so ``repro sweep figure7
--jobs 8`` runs the 42 independent sims in parallel and replays cached
ones.  Without an explicit engine a serial, uncached one is used, which
behaves exactly like the old direct ``run_app`` chain.
"""

from dataclasses import replace

from ..analysis import compare
from ..analysis.tables import render_series, render_table
from ..common import params
from ..workloads.registry import application_names
from .sweep import SweepJob, default_engine

#: Paper-reported values used for side-by-side comparison.
PAPER = {
    # Table 3: % of producer-consumer patterns with N consumers.
    "table3": {
        "barnes": {"1": 13.9, "2": 6.8, "3": 9.4, "4": 8.1, "4+": 61.7},
        "ocean": {"1": 97.7, "2": 1.8, "3": 0.5, "4": 0.0, "4+": 0.0},
        "em3d": {"1": 67.8, "2": 32.2, "3": 0.0, "4": 0.0, "4+": 0.0},
        "lu": {"1": 99.4, "2": 0.0, "3": 0.0, "4": 0.4, "4+": 0.1},
        "cg": {"1": 0.1, "2": 0.2, "3": 0.0, "4": 0.0, "4+": 99.7},
        "mg": {"1": 78.3, "2": 11.4, "3": 3.7, "4": 2.6, "4+": 3.9},
        "appbt": {"1": 0.0, "2": 0.3, "3": 6.7, "4": 1.4, "4+": 91.6},
    },
    # Figure 7 speedups (small = 32e+32K, large = 1Ke+1M), paper §3.2 prose.
    "figure7_speedup": {
        "barnes": {"small": 1.17, "large": 1.23},
        "ocean": {"small": 1.08, "large": 1.11},
        "em3d": {"small": 1.33, "large": 1.40},
        "lu": {"small": 1.31, "large": 1.40},
        "cg": {"small": 1.06, "large": 1.06},
        "mg": {"small": 1.09, "large": 1.22},
        "appbt": {"small": 1.08, "large": 1.24},
    },
    # Headline triples: (geomean speedup, traffic cut, remote-miss cut).
    "headline": {"small": (1.13, 0.17, 0.29), "large": (1.21, 0.15, 0.40)},
    # Figure 10: speedup grows from 24% to 28% as hop latency goes
    # 25 ns -> 200 ns (Appbt).
    "figure10_speedup": {25: 1.24, 200: 1.28},
}

APPS = tuple(application_names())

_KB = 1024
_MB = 1024 * 1024


def evaluated_systems(**overrides):
    """The six Figure 7 configurations, instantiated."""
    return {name: factory(**overrides)
            for name, factory in params.EVALUATED_SYSTEMS.items()}


def _engine(engine):
    return engine if engine is not None else default_engine()


def _job(app, config, seed, scale, directory_format=None):
    # The format goes into the config, so the job key sees it.
    if directory_format is not None:
        config = replace(config, directory_format=directory_format)
    return SweepJob(app=app, config=config, seed=seed, scale=scale)


# ---------------------------------------------------------------------------
# Table 3 — number of consumers in producer-consumer patterns
# ---------------------------------------------------------------------------

def table3(scale=1.0, seed=12345, apps=APPS, engine=None,
           directory_format=None):
    """Consumer-count distribution observed by the detector (base system)."""
    buckets = ("1", "2", "3", "4", "4+")
    runs = _engine(engine).run_many(
        {app: _job(app, params.baseline(), seed, scale, directory_format)
         for app in apps})
    rows = []
    measured = {}
    for app in apps:
        run = runs[app]
        measured[app] = run.consumer_hist
        rows.append([app] + ["%.1f" % run.consumer_hist[b] for b in buckets])
    text = render_table(["app"] + ["%s (%%)" % b for b in buckets], rows,
                        title="Table 3: consumers per producer-consumer pattern")
    return {"measured": measured, "paper": PAPER["table3"], "text": text}


# ---------------------------------------------------------------------------
# Figure 7 — speedup / network messages / remote misses, 7 apps x 6 systems
# ---------------------------------------------------------------------------

def figure7(scale=1.0, seed=12345, apps=APPS, engine=None,
            directory_format=None):
    """The paper's main result: all apps on all six system presets."""
    systems = evaluated_systems()
    runs = _engine(engine).run_many(
        {(app, name): _job(app, config, seed, scale, directory_format)
         for app in apps for name, config in systems.items()})
    speedups, messages, misses = {}, {}, {}
    for app in apps:
        base = runs[(app, "base")].metrics
        speedups[app], messages[app], misses[app] = {}, {}, {}
        for name in systems:
            run_metrics = runs[(app, name)].metrics
            speedups[app][name] = compare.speedup(base, run_metrics)
            messages[app][name] = compare.normalized_messages(base, run_metrics)
            misses[app][name] = compare.normalized_remote_misses(base,
                                                                 run_metrics)
    names = list(systems)
    sections = []
    for title, table in (("speedup", speedups),
                         ("network messages (normalised)", messages),
                         ("remote misses (normalised)", misses)):
        rows = [[app] + [table[app][n] for n in names] for app in apps]
        sections.append(render_table(["app"] + names, rows,
                                     title="Figure 7: %s" % title))
    return {"speedup": speedups, "messages": messages, "misses": misses,
            "systems": names, "paper": PAPER["figure7_speedup"],
            "text": "\n\n".join(sections)}


def headline(scale=1.0, seed=12345, apps=APPS, engine=None,
             directory_format=None):
    """Geomean speedup + mean traffic/remote-miss reduction, small & large."""
    configs = {"base": params.baseline(), "small": params.small(),
               "large": params.large()}
    runs = _engine(engine).run_many(
        {(cname, app): _job(app, config, seed, scale, directory_format)
         for cname, config in configs.items() for app in apps})
    out = {}
    base_runs = {app: runs[("base", app)].metrics for app in apps}
    for cname in ("small", "large"):
        enh = {app: runs[(cname, app)].metrics for app in apps}
        out[cname] = compare.headline(base_runs, enh)
    rows = []
    for cname in ("small", "large"):
        p = PAPER["headline"][cname]
        m = out[cname]
        rows.append([cname, "%.2f/%.2f" % (p[0], m[0]),
                     "%.0f%%/%.0f%%" % (100 * p[1], 100 * m[1]),
                     "%.0f%%/%.0f%%" % (100 * p[2], 100 * m[2])])
    text = render_table(
        ["config", "speedup paper/ours", "traffic cut paper/ours",
         "remote-miss cut paper/ours"], rows,
        title="Headline results (paper vs measured)")
    return {"measured": out, "paper": PAPER["headline"], "text": text}


def delegation_only(scale=1.0, seed=12345, apps=APPS, engine=None,
                    directory_format=None):
    """Paper §3.2: delegation without updates lands within ~1% of baseline."""
    configs = {"base": params.baseline(), "dele": params.delegation_only()}
    runs = _engine(engine).run_many(
        {(cname, app): _job(app, config, seed, scale, directory_format)
         for cname, config in configs.items() for app in apps})
    out = {}
    for app in apps:
        out[app] = compare.speedup(runs[("base", app)].metrics,
                                   runs[("dele", app)].metrics)
    rows = [[app, out[app]] for app in apps]
    text = render_table(["app", "delegation-only speedup"], rows,
                        title="Delegation-only vs baseline (paper: within ~1%)")
    return {"measured": out, "text": text}


# ---------------------------------------------------------------------------
# Figure 8 — smarter vs larger caches (equal silicon area)
# ---------------------------------------------------------------------------

def figure8(scale=1.0, seed=12345, apps=APPS, engine=None,
            directory_format=None):
    """1 MB L2 baseline vs 1 MB L2 + extensions vs 1.04 MB L2 baseline.

    The equal-area L2 size is *derived* from the paper's §3.3.1 SRAM
    arithmetic (see :mod:`repro.analysis.area`) rather than hard-coded.
    """
    from ..analysis.area import equal_area_l2_bytes
    l2_1m = params.CacheConfig(1 * _MB, 4, latency=10)
    l2_104m = params.CacheConfig(
        equal_area_l2_bytes(1 * _MB, params.small()), 4, latency=10)
    configs = {
        "base": replace(params.baseline(), l2=l2_1m),
        "smart": replace(params.small(), l2=l2_1m),
        "bigger": replace(params.baseline(), l2=l2_104m),
    }
    runs = _engine(engine).run_many(
        {(cname, app): _job(app, config, seed, scale, directory_format)
         for cname, config in configs.items() for app in apps})
    speedups = {}
    for app in apps:
        base = runs[("base", app)].metrics
        speedups[app] = {
            "base_1M": 1.0,
            "deledc_32K_RAC": compare.speedup(
                base, runs[("smart", app)].metrics),
            "equal_area_1.04M": compare.speedup(
                base, runs[("bigger", app)].metrics),
        }
    rows = [[app, speedups[app]["deledc_32K_RAC"],
             speedups[app]["equal_area_1.04M"]] for app in apps]
    text = render_table(
        ["app", "32e deledc + 32K RAC", "equal-area 1.04M L2"], rows,
        title="Figure 8: smarter vs larger caches (speedup over 1M L2 base)")
    return {"measured": speedups, "text": text}


# ---------------------------------------------------------------------------
# Figure 9 — sensitivity to the intervention delay interval
# ---------------------------------------------------------------------------

#: The paper sweeps 5 cycles .. 500M cycles plus "infinite".
FIGURE9_DELAYS = (5, 50, 500, 5_000, 50_000, 500_000, 5_000_000)
FIGURE9_INFINITE = 10 ** 12  # effectively "never downgrade speculatively"


def figure9(scale=1.0, seed=12345, apps=APPS, delays=FIGURE9_DELAYS,
            include_infinite=True, engine=None, directory_format=None):
    """Execution time vs intervention delay, normalised to the 5-cycle run."""
    sweep = list(delays)
    if include_infinite:
        sweep.append(FIGURE9_INFINITE)
    runs = _engine(engine).run_many(
        {(app, delay): _job(
            app, params.small().with_protocol(intervention_delay=delay),
            seed, scale, directory_format)
         for app in apps for delay in sweep})
    series = {}
    for app in apps:
        points = []
        reference = None
        for delay in sweep:
            cycles = runs[(app, delay)].metrics.cycles
            if reference is None:
                reference = cycles
            label = "inf" if delay == FIGURE9_INFINITE else delay
            points.append((label, cycles / reference))
        series[app] = points
    text = render_series(
        "Figure 9: execution time vs intervention delay (normalised to "
        "5-cycle delay)", "intervention delay (cycles)", series)
    return {"measured": series, "text": text}


# ---------------------------------------------------------------------------
# Figure 10 — sensitivity to network hop latency (Appbt)
# ---------------------------------------------------------------------------

#: Hop latencies in nanoseconds (cycles = 2 * ns at 2 GHz).
FIGURE10_HOPS_NS = (25, 50, 100, 200)


def figure10(scale=1.0, seed=12345, app="appbt", hops_ns=FIGURE10_HOPS_NS,
             engine=None, directory_format=None):
    """Baseline + enhanced execution time and speedup vs hop latency."""
    def with_hop(config, ns):
        return replace(config, network=replace(config.network,
                                               hop_latency=2 * ns))

    jobs = {}
    for ns in hops_ns:
        jobs[(ns, "base")] = _job(app, with_hop(params.baseline(), ns),
                                  seed, scale, directory_format)
        jobs[(ns, "enh")] = _job(app, with_hop(params.small(), ns),
                                 seed, scale, directory_format)
    runs = _engine(engine).run_many(jobs)
    points = []
    for ns in hops_ns:
        base = runs[(ns, "base")].metrics
        enh = runs[(ns, "enh")].metrics
        points.append({"hop_ns": ns, "base_cycles": base.cycles,
                       "enh_cycles": enh.cycles,
                       "speedup": compare.speedup(base, enh)})
    rows = [[p["hop_ns"], p["base_cycles"], p["enh_cycles"], p["speedup"]]
            for p in points]
    text = render_table(
        ["hop (ns)", "base cycles", "enhanced cycles", "speedup"], rows,
        title="Figure 10: sensitivity to network hop latency (%s)" % app)
    return {"measured": points, "paper": PAPER["figure10_speedup"],
            "text": text}


# ---------------------------------------------------------------------------
# Figure 11 — sensitivity to delegate cache size (MG)
# ---------------------------------------------------------------------------

FIGURE11_ENTRIES = (32, 64, 128, 256, 512, 1024)


def figure11(scale=1.0, seed=12345, app="mg", entries=FIGURE11_ENTRIES,
             engine=None, directory_format=None):
    """Speedup and normalised messages vs delegate-cache entries (32K RAC),
    plus the 1K-entry + 1M-RAC point, mirroring the paper's bar chart."""
    sweep = ([("base", params.baseline())]
             + [((count, "32K"),
                 params.enhanced(delegate_entries=count, rac_bytes=32 * _KB))
                for count in entries]
             + [((1024, "1M"),
                 params.enhanced(delegate_entries=1024, rac_bytes=1 * _MB))])
    runs = _engine(engine).run_many(
        {key: _job(app, config, seed, scale, directory_format)
         for key, config in sweep})
    base = runs["base"].metrics
    points = []
    for count in entries:
        metrics = runs[(count, "32K")].metrics
        points.append({"entries": count, "rac": "32K",
                       "speedup": compare.speedup(base, metrics),
                       "messages": compare.normalized_messages(base, metrics)})
    metrics = runs[(1024, "1M")].metrics
    points.append({"entries": 1024, "rac": "1M",
                   "speedup": compare.speedup(base, metrics),
                   "messages": compare.normalized_messages(base, metrics)})
    rows = [[p["entries"], p["rac"], p["speedup"], p["messages"]]
            for p in points]
    text = render_table(["entries", "RAC", "speedup", "messages (norm)"],
                        rows,
                        title="Figure 11: delegate cache size sweep (%s)" % app)
    return {"measured": points, "text": text}


# ---------------------------------------------------------------------------
# Figure 12 — sensitivity to RAC size (Appbt)
# ---------------------------------------------------------------------------

FIGURE12_RAC_KB = (32, 64, 128, 256, 512, 1024)


def figure12(scale=1.0, seed=12345, app="appbt", rac_kb=FIGURE12_RAC_KB,
             engine=None, directory_format=None):
    """Speedup and normalised messages vs RAC size (32-entry delegate
    tables), plus the 1K-entry + 1M-RAC point."""
    sweep = ([("base", params.baseline())]
             + [((kb, 32),
                 params.enhanced(delegate_entries=32, rac_bytes=kb * _KB))
                for kb in rac_kb]
             + [((1024, 1024),
                 params.enhanced(delegate_entries=1024, rac_bytes=1 * _MB))])
    runs = _engine(engine).run_many(
        {key: _job(app, config, seed, scale, directory_format)
         for key, config in sweep})
    base = runs["base"].metrics
    points = []
    for kb in rac_kb:
        metrics = runs[(kb, 32)].metrics
        points.append({"rac_kb": kb, "entries": 32,
                       "speedup": compare.speedup(base, metrics),
                       "messages": compare.normalized_messages(base, metrics)})
    metrics = runs[(1024, 1024)].metrics
    points.append({"rac_kb": 1024, "entries": 1024,
                   "speedup": compare.speedup(base, metrics),
                   "messages": compare.normalized_messages(base, metrics)})
    rows = [[p["rac_kb"], p["entries"], p["speedup"], p["messages"]]
            for p in points]
    text = render_table(["RAC (KB)", "entries", "speedup", "messages (norm)"],
                        rows,
                        title="Figure 12: RAC size sweep (%s)" % app)
    return {"measured": points, "text": text}
