"""One experiment definition per paper table/figure.

Each ``figureN()`` / ``tableN()`` function runs the necessary simulations
and returns the same three keys: ``"measured"`` (the regenerated rows or
series), ``"paper"`` (the paper's reported values from ``PAPER``, or None
where the paper gives no number) and ``"text"`` (the rendered ASCII
form).  ``ARTEFACTS`` lists every artefact once, in report order, with
its report heading; ``repro sweep``, ``repro profile`` and ``repro
report`` (:mod:`repro.analysis.report`) all read it.

All functions accept ``scale`` (workload shrink factor) so tests can run
them quickly; published numbers in EXPERIMENTS.md use ``scale=1.0``.

Every function also accepts ``engine`` — a
:class:`~repro.harness.sweep.SweepEngine` — and submits its whole
simulation matrix as one batch of jobs through :func:`_metrics`, so
``repro sweep figure7 --jobs 8`` runs the 42 independent sims in
parallel and replays cached ones.  Without an explicit engine a serial,
uncached one is used, which behaves exactly like a direct ``run_app``
chain.
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


def _metrics(jobs, seed, scale, engine, directory_format,
             field="metrics"):
    """Run ``{key: (app, config)}`` as one batch and return ``{key:
    RunMetrics}`` (``field`` picks another part of each
    :class:`~repro.harness.runner.AppRun`, as Table 3's
    ``consumer_hist``).

    ``directory_format`` overrides every config's sharer encoding; it
    goes into the config, so the job key sees it.
    """
    if engine is None:
        engine = default_engine()
    batch = {}
    for key, (app, config) in jobs.items():
        if directory_format is not None:
            config = replace(config, directory_format=directory_format)
        batch[key] = SweepJob(app=app, config=config, seed=seed, scale=scale)
    runs = engine.run_many(batch)
    return {key: getattr(runs[key], field) for key in jobs}


# ---------------------------------------------------------------------------
# Table 3 — number of consumers in producer-consumer patterns
# ---------------------------------------------------------------------------

def table3(scale=1.0, seed=12345, apps=APPS, engine=None,
           directory_format=None):
    """Consumer-count distribution observed by the detector (base system)."""
    buckets = ("1", "2", "3", "4", "4+")
    measured = _metrics({app: (app, params.baseline()) for app in apps},
                        seed, scale, engine, directory_format,
                        field="consumer_hist")
    rows = [[app] + ["%.1f" % measured[app][b] for b in buckets]
            for app in apps]
    text = render_table(["app"] + ["%s (%%)" % b for b in buckets], rows,
                        title="Table 3: consumers per producer-consumer pattern")
    return {"measured": measured, "paper": PAPER["table3"], "text": text}


# ---------------------------------------------------------------------------
# Figure 7 — speedup / network messages / remote misses, 7 apps x 6 systems
# ---------------------------------------------------------------------------

#: Figure 7's panels: (``measured`` key, title, comparison with base).
FIGURE7_PANELS = (
    ("speedup", "speedup", compare.speedup),
    ("messages", "network messages (normalised)",
     compare.normalized_messages),
    ("misses", "remote misses (normalised)",
     compare.normalized_remote_misses),
)


def figure7(scale=1.0, seed=12345, apps=APPS, engine=None,
            directory_format=None):
    """The paper's main result: all apps on all six system presets."""
    systems = {name: factory()
               for name, factory in params.EVALUATED_SYSTEMS.items()}
    names = list(systems)
    runs = _metrics({(app, name): (app, config)
                     for app in apps for name, config in systems.items()},
                    seed, scale, engine, directory_format)
    measured = {
        key: {app: {name: versus(runs[(app, "base")], runs[(app, name)])
                    for name in names}
              for app in apps}
        for key, _title, versus in FIGURE7_PANELS}
    text = "\n\n".join(
        render_table(["app"] + names,
                     [[app] + [measured[key][app][n] for n in names]
                      for app in apps],
                     title="Figure 7: %s" % title)
        for key, title, _versus in FIGURE7_PANELS)
    return {"measured": measured, "paper": PAPER["figure7_speedup"],
            "text": text}


def headline(scale=1.0, seed=12345, apps=APPS, engine=None,
             directory_format=None):
    """Geomean speedup + mean traffic/remote-miss reduction, small & large."""
    configs = {"base": params.baseline(), "small": params.small(),
               "large": params.large()}
    runs = _metrics({(cname, app): (app, config)
                     for cname, config in configs.items() for app in apps},
                    seed, scale, engine, directory_format)
    per_app = {cname: {app: runs[(cname, app)] for app in apps}
               for cname in configs}
    measured = {cname: compare.headline(per_app["base"], per_app[cname])
                for cname in ("small", "large")}
    rows = []
    for cname in ("small", "large"):
        p = PAPER["headline"][cname]
        m = measured[cname]
        rows.append([cname, "%.2f/%.2f" % (p[0], m[0]),
                     "%.0f%%/%.0f%%" % (100 * p[1], 100 * m[1]),
                     "%.0f%%/%.0f%%" % (100 * p[2], 100 * m[2])])
    text = render_table(
        ["config", "speedup paper/ours", "traffic cut paper/ours",
         "remote-miss cut paper/ours"], rows,
        title="Headline results (paper vs measured)")
    return {"measured": measured, "paper": PAPER["headline"], "text": text}


def delegation_only(scale=1.0, seed=12345, apps=APPS, engine=None,
                    directory_format=None):
    """Paper §3.2: delegation without updates lands within ~1% of baseline."""
    configs = {"base": params.baseline(), "dele": params.delegation_only()}
    runs = _metrics({(cname, app): (app, config)
                     for cname, config in configs.items() for app in apps},
                    seed, scale, engine, directory_format)
    measured = {app: compare.speedup(runs[("base", app)], runs[("dele", app)])
                for app in apps}
    text = render_table(["app", "delegation-only speedup"],
                        [[app, measured[app]] for app in apps],
                        title="Delegation-only vs baseline (paper: within ~1%)")
    return {"measured": measured, "paper": None, "text": text}


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
    runs = _metrics({(cname, app): (app, config)
                     for cname, config in configs.items() for app in apps},
                    seed, scale, engine, directory_format)
    measured = {}
    for app in apps:
        base = runs[("base", app)]
        measured[app] = {
            "base_1M": 1.0,
            "deledc_32K_RAC": compare.speedup(base, runs[("smart", app)]),
            "equal_area_1.04M": compare.speedup(base, runs[("bigger", app)]),
        }
    rows = [[app, measured[app]["deledc_32K_RAC"],
             measured[app]["equal_area_1.04M"]] for app in apps]
    text = render_table(
        ["app", "32e deledc + 32K RAC", "equal-area 1.04M L2"], rows,
        title="Figure 8: smarter vs larger caches (speedup over 1M L2 base)")
    return {"measured": measured, "paper": None, "text": text}


# ---------------------------------------------------------------------------
# Figure 9 — sensitivity to the intervention delay interval
# ---------------------------------------------------------------------------

#: The paper sweeps 5 cycles .. 500M cycles plus "infinite".
FIGURE9_DELAYS = (5, 50, 500, 5_000, 50_000, 500_000, 5_000_000)
FIGURE9_INFINITE = 10 ** 12  # effectively "never downgrade speculatively"


def figure9(scale=1.0, seed=12345, apps=APPS, delays=FIGURE9_DELAYS,
            include_infinite=True, engine=None, directory_format=None):
    """Execution time vs intervention delay, normalised to the first
    (5-cycle) delay."""
    sweep = list(delays)
    if include_infinite:
        sweep.append(FIGURE9_INFINITE)
    runs = _metrics(
        {(app, delay): (
            app, params.small().with_protocol(intervention_delay=delay))
         for app in apps for delay in sweep},
        seed, scale, engine, directory_format)
    measured = {
        app: [("inf" if delay == FIGURE9_INFINITE else delay,
               runs[(app, delay)].cycles / runs[(app, sweep[0])].cycles)
              for delay in sweep]
        for app in apps}
    text = render_series(
        "Figure 9: execution time vs intervention delay (normalised to "
        "5-cycle delay)", "intervention delay (cycles)", measured)
    return {"measured": measured, "paper": None, "text": text}


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

    runs = _metrics({(ns, name): (app, with_hop(config, ns))
                     for ns in hops_ns
                     for name, config in (("base", params.baseline()),
                                          ("enh", params.small()))},
                    seed, scale, engine, directory_format)
    measured = []
    for ns in hops_ns:
        base, enh = runs[(ns, "base")], runs[(ns, "enh")]
        measured.append({"hop_ns": ns, "base_cycles": base.cycles,
                         "enh_cycles": enh.cycles,
                         "speedup": compare.speedup(base, enh)})
    rows = [[p["hop_ns"], p["base_cycles"], p["enh_cycles"], p["speedup"]]
            for p in measured]
    text = render_table(
        ["hop (ns)", "base cycles", "enhanced cycles", "speedup"], rows,
        title="Figure 10: sensitivity to network hop latency (%s)" % app)
    return {"measured": measured, "paper": PAPER["figure10_speedup"],
            "text": text}


# ---------------------------------------------------------------------------
# Figures 11 and 12 — sensitivity to delegate cache and RAC size
# ---------------------------------------------------------------------------

FIGURE11_ENTRIES = (32, 64, 128, 256, 512, 1024)
FIGURE12_RAC_KB = (32, 64, 128, 256, 512, 1024)


def _capacity_sweep(title, app, columns, points, seed, scale, engine,
                    directory_format):
    """Speedup and normalised messages over the baseline at each
    ``(values, delegate entries, RAC bytes)`` point; ``columns`` names
    the values as ``(measured key, table header)`` pairs."""
    jobs = {"base": (app, params.baseline())}
    jobs.update((values, (app, params.enhanced(delegate_entries=entries,
                                               rac_bytes=rac_bytes)))
                for values, entries, rac_bytes in points)
    runs = _metrics(jobs, seed, scale, engine, directory_format)
    measured = [
        dict(zip((key for key, _header in columns), values),
             speedup=compare.speedup(runs["base"], runs[values]),
             messages=compare.normalized_messages(runs["base"], runs[values]))
        for values, _entries, _rac_bytes in points]
    text = render_table(
        [header for _key, header in columns] + ["speedup", "messages (norm)"],
        [[p[key] for key, _header in columns] + [p["speedup"], p["messages"]]
         for p in measured],
        title=title)
    return {"measured": measured, "paper": None, "text": text}


def figure11(scale=1.0, seed=12345, app="mg", entries=FIGURE11_ENTRIES,
             engine=None, directory_format=None):
    """Speedup and normalised messages vs delegate-cache entries (32K RAC),
    plus the 1K-entry + 1M-RAC point, mirroring the paper's bar chart."""
    return _capacity_sweep(
        "Figure 11: delegate cache size sweep (%s)" % app, app,
        (("entries", "entries"), ("rac", "RAC")),
        [((count, "32K"), count, 32 * _KB) for count in entries]
        + [((1024, "1M"), 1024, 1 * _MB)],
        seed, scale, engine, directory_format)


def figure12(scale=1.0, seed=12345, app="appbt", rac_kb=FIGURE12_RAC_KB,
             engine=None, directory_format=None):
    """Speedup and normalised messages vs RAC size (32-entry delegate
    tables), plus the 1K-entry + 1M-RAC point."""
    return _capacity_sweep(
        "Figure 12: RAC size sweep (%s)" % app, app,
        (("rac_kb", "RAC (KB)"), ("entries", "entries")),
        [((kb, 32), 32, kb * _KB) for kb in rac_kb]
        + [((1024, 1024), 1024, 1 * _MB)],
        seed, scale, engine, directory_format)


#: Every paper artefact, in report order: name -> (function, report
#: heading).  Each function takes ``scale``, ``seed``, ``engine`` and
#: ``directory_format`` and returns ``measured``/``paper``/``text``.
ARTEFACTS = {
    "table3": (table3, "Table 3 — consumers per producer-consumer pattern"),
    "figure7": (figure7, "Figure 7 — speedup, traffic, remote misses "
                         "(7 apps x 6 systems)"),
    "headline": (headline, "Headline (abstract numbers)"),
    "delegation-only": (delegation_only,
                        "Delegation-only ablation (paper: ~baseline)"),
    "figure8": (figure8, "Figure 8 — smarter vs larger caches"),
    "figure9": (figure9, "Figure 9 — intervention-delay sensitivity"),
    "figure10": (figure10, "Figure 10 — hop-latency sensitivity (Appbt)"),
    "figure11": (figure11, "Figure 11 — delegate-cache size sweep (MG)"),
    "figure12": (figure12, "Figure 12 — RAC size sweep (Appbt)"),
}
