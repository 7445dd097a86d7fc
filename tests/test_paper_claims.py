"""The paper's claims at full workload scale: the shape bounds of Table 3,
Figures 7-12, the abstract's headline numbers and the two design
ablations.

Every experiment runs at scale 1.0 and seed 12345 through one
session-wide :class:`~repro.harness.sweep.SweepEngine` with a private
result cache, so experiments that share simulations (Figure 7, the
headline, the ablations' baselines) run each one only once.  Slow lane::

    PYTHONPATH=src python -m pytest -m slow tests/test_paper_claims.py -s

``repro sweep <name>`` and ``repro report --output FILE`` render the
artefacts themselves; only the ablation tables, which nothing else
renders, are printed here.
"""

import os
from dataclasses import replace

import pytest

from repro.analysis import render_table
from repro.common import baseline, large, params
from repro.directory.formats import DirectoryFormat
from repro.harness import SweepEngine, SweepJob, experiments

pytestmark = pytest.mark.slow

SCALE = 1.0
SEED = 12345


@pytest.fixture(scope="session")
def engine(tmp_path_factory):
    """Sweep engine shared by every claim in the session."""
    return SweepEngine(jobs=os.cpu_count() or 1, cache=True,
                       cache_dir=str(tmp_path_factory.mktemp("sweep-cache")))


# ---------------------------------------------------------------------------
# Table 3 — consumers per producer-consumer pattern
# ---------------------------------------------------------------------------

def test_table3(engine):
    out = experiments.table3(scale=SCALE, seed=SEED, engine=engine)
    # Shape assertions: the dominant bucket matches the paper per app.
    dominant = {app: max(row, key=row.get)
                for app, row in out["paper"].items()}
    for app, bucket in dominant.items():
        measured = out["measured"][app]
        assert max(measured, key=measured.get) == bucket, app


# ---------------------------------------------------------------------------
# Figure 7 — speedup, traffic, remote misses (the paper's main result)
# ---------------------------------------------------------------------------

def test_figure7(engine):
    """Em3D and LU gain the most, CG the least; MG is delegate-cache
    limited and Appbt RAC limited (small config well below large)."""
    out = experiments.figure7(scale=SCALE, seed=SEED, engine=engine)
    sp = out["measured"]["speedup"]
    small, large = "dele32_rac32k", "dele1k_rac1m"
    # Ordering: biggest winners and the smallest winner.
    assert sp["cg"][large] == min(row[large] for row in sp.values())
    assert sp["em3d"][large] >= 1.2
    assert sp["lu"][large] >= 1.2
    # Capacity stories.
    assert sp["mg"][large] > sp["mg"][small]
    assert sp["appbt"][large] > sp["appbt"][small]
    # Every app benefits (or at worst is a wash) from the large config.
    assert all(row[large] > 0.97 for row in sp.values())
    # Remote misses and traffic drop for the communication-bound apps.
    assert out["measured"]["misses"]["em3d"][large] < 0.8
    assert out["measured"]["messages"]["em3d"][large] < 0.9


# ---------------------------------------------------------------------------
# Headline (abstract numbers) and the delegation-only ablation
# ---------------------------------------------------------------------------

def test_headline(engine):
    """Paper: 13% geomean speedup, 17% traffic and 29% remote-miss
    reduction (small config); 21% / 15% / 40% (large config)."""
    out = experiments.headline(scale=SCALE, seed=SEED, engine=engine)
    small_sp, small_traffic, small_miss = out["measured"]["small"]
    large_sp, large_traffic, large_miss = out["measured"]["large"]
    # Shape: both configurations deliver a real mean speedup, the large
    # one more; both cut remote misses, the large one more.
    assert 1.05 < small_sp < 1.35
    assert 1.10 < large_sp < 1.40
    assert large_sp > small_sp
    assert 0.1 < small_miss < 0.7
    assert 0.2 < large_miss < 0.8
    assert large_miss > small_miss
    # Traffic falls under both configurations; the small config cuts less
    # than the paper's 17% because its RAC-thrash waste (Appbt, Barnes) is
    # by design — the same over-aggressiveness the paper concedes for MG.
    assert small_traffic > 0.0
    assert large_traffic > 0.08


def test_delegation_only_ablation(engine):
    out = experiments.delegation_only(scale=SCALE, seed=SEED, engine=engine)
    # Paper: converting 3-hop to 2-hop roughly balances delegation
    # overhead -- within a few percent of baseline either way.
    for app, speedup in out["measured"].items():
        assert 0.93 < speedup < 1.2, (app, speedup)


# ---------------------------------------------------------------------------
# Figures 8-12 — equal area and the sensitivity sweeps
# ---------------------------------------------------------------------------

def test_figure8(engine):
    """Smarter vs larger caches at equal silicon: the 32-entry delegate
    cache + 32 KB RAC against a plain 1.04 MB L2."""
    out = experiments.figure8(scale=SCALE, seed=SEED, engine=engine)
    winners = 0
    for app, row in out["measured"].items():
        if row["deledc_32K_RAC"] > row["equal_area_1.04M"]:
            winners += 1
    # "For most benchmarks adding a 32-entry delegate cache and a 32KB RAC
    # yields significantly better performance than simply building a
    # larger L2 cache."
    assert winners >= 5
    # A 4% larger L2 on multi-MB-resident workloads is a wash.
    for app, row in out["measured"].items():
        assert 0.95 < row["equal_area_1.04M"] < 1.1, app


def test_figure9(engine):
    """Intervention-delay sensitivity, normalised to the 5-cycle run."""
    out = experiments.figure9(scale=SCALE, seed=SEED, engine=engine)
    for app, points in out["measured"].items():
        series = dict(points)
        # Largely insensitive across 5..500 cycles (paper: within ~5%).
        for delay in (50, 500):
            assert 0.85 < series[delay] < 1.15, (app, delay)
        # Apps degrade at different rates beyond that (paper §3.3.2); by
        # 5K cycles tight pipelines (LU) already miss their consume
        # window, looser ones (MG) have not degraded yet.
        assert 0.85 < series[5_000] < 1.45, app
        # Infinite delay (no updates) must not be better than a 50-cycle
        # delay for the communication-bound applications.
        if app in ("em3d", "lu", "mg"):
            assert series["inf"] >= series[50], app


def test_figure10(engine):
    """Hop-latency sensitivity (Appbt): paper speedup grows 24% -> 28%."""
    out = experiments.figure10(scale=SCALE, seed=SEED, engine=engine)
    points = out["measured"]
    # Execution time rises monotonically with hop latency.
    base_cycles = [p["base_cycles"] for p in points]
    assert base_cycles == sorted(base_cycles)
    # The mechanisms' value grows (or at least does not shrink) with
    # latency: compare the endpoints.
    assert points[-1]["speedup"] >= points[0]["speedup"]
    # And every point shows a real speedup.
    assert all(p["speedup"] > 1.0 for p in points)


def test_figure11(engine):
    """Delegate-cache size sweep (MG): more live producer-consumer lines
    than a 32-entry table holds."""
    out = experiments.figure11(scale=SCALE, seed=SEED, engine=engine)
    points = out["measured"]
    by_entries = {(p["entries"], p["rac"]): p for p in points}
    # Growing the delegate cache helps MG substantially.
    assert (by_entries[(1024, "32K")]["speedup"]
            > by_entries[(32, "32K")]["speedup"] + 0.03)
    # The trend is broadly monotonic across the sweep.
    sweep = [p["speedup"] for p in points if p["rac"] == "32K"]
    assert sweep[-1] > sweep[0]
    # Traffic shrinks as capacity-undelegation churn disappears.
    assert (by_entries[(1024, "32K")]["messages"]
            <= by_entries[(32, "32K")]["messages"] + 0.02)


def test_figure12(engine):
    """RAC size sweep (Appbt): paper 8% -> ~24% with 32-entry tables."""
    out = experiments.figure12(scale=SCALE, seed=SEED, engine=engine)
    points = out["measured"]
    by_rac = {(p["rac_kb"], p["entries"]): p for p in points}
    # Growing the RAC alone (32-entry tables) recovers most of the win.
    assert (by_rac[(1024, 32)]["speedup"]
            > by_rac[(32, 32)]["speedup"] + 0.05)
    # The sweep trends upward.
    sweep = [p["speedup"] for p in points if p["entries"] == 32]
    assert sweep[-1] > sweep[0]


# ---------------------------------------------------------------------------
# Ablation: detector design (paper §2.2 conservatism vs §5 future work)
# ---------------------------------------------------------------------------

#: CG has heavy false sharing (the simple detector refuses those lines,
#: the multi-writer one takes the bait); Barnes has many stable
#: producer-consumer lines (everything should detect).
DETECTOR_APPS = ("cg", "barnes")


def detector_sweep(scale, engine):
    variants = {
        "aggressive (1-bit)": large().with_protocol(write_repeat_bits=1),
        "paper (2-bit)": large(),
        "conservative (3-bit)": large().with_protocol(write_repeat_bits=3),
        "multiwriter": large().with_protocol(detector_kind="multiwriter"),
    }
    jobs = {(app, "base"): SweepJob(app=app, config=params.baseline(),
                                    scale=scale)
            for app in DETECTOR_APPS}
    jobs.update({(app, name): SweepJob(app=app, config=config, scale=scale)
                 for app in DETECTOR_APPS
                 for name, config in variants.items()})
    runs = engine.run_many(jobs)
    out = {}
    for app in DETECTOR_APPS:
        base = runs[(app, "base")].metrics
        rows = {}
        for name in variants:
            m = runs[(app, name)].metrics
            rows[name] = {
                "speedup": base.cycles / m.cycles,
                "delegations": m.delegations,
                "undelegations": m.undelegations,
                "wasted": m.updates_wasted,
                "accuracy": m.update_accuracy,
            }
        out[app] = rows
    return out


def test_detector_ablation(engine):
    out = detector_sweep(SCALE, engine)
    for app, rows in out.items():
        table = [[name, r["speedup"], r["delegations"], r["undelegations"],
                  r["wasted"], "%.0f%%" % (100 * r["accuracy"])]
                 for name, r in rows.items()]
        print()
        print(render_table(
            ["detector", "speedup", "delegations", "undelegations",
             "wasted updates", "update accuracy"],
            table, title="Detector ablation: %s" % app))
    # The paper's 2-bit default trails the 1-bit aggressive variant a
    # little here: our generators emit perfectly stable patterns from the
    # first iteration, so earlier detection is pure upside — the startup
    # noise the paper's conservatism guards against does not exist in a
    # synthetic trace.  The default must still be close to the best and
    # strictly ahead of the over-conservative 3-bit variant.
    for app, rows in out.items():
        best = max(r["speedup"] for r in rows.values())
        assert rows["paper (2-bit)"]["speedup"] >= best - 0.08, app
        assert (rows["paper (2-bit)"]["speedup"]
                >= rows["conservative (3-bit)"]["speedup"] - 0.01), app


# ---------------------------------------------------------------------------
# Ablation: sharing-vector format at the home directory
# ---------------------------------------------------------------------------

#: A many-consumer application and a single-consumer one.
FORMATS = ("full", "coarse:4", "limited:2")
DIRECTORY_APPS = ("appbt", "lu")


def directory_sweep(scale, engine):
    jobs = {}
    for app in DIRECTORY_APPS:
        for spec in FORMATS:
            jobs[(app, spec, "base")] = SweepJob(
                app=app, config=replace(baseline(), directory_format=spec),
                scale=scale)
            jobs[(app, spec, "enh")] = SweepJob(
                app=app, config=replace(large(), directory_format=spec),
                scale=scale)
    runs = engine.run_many(jobs)
    out = {}
    for app in DIRECTORY_APPS:
        rows = {}
        for spec in FORMATS:
            base = runs[(app, spec, "base")].metrics
            enh = runs[(app, spec, "enh")].metrics
            rows[spec] = {
                "speedup": base.cycles / enh.cycles,
                "base_msgs": base.messages,
                "enh_msgs": enh.messages,
                "bits": DirectoryFormat.parse(spec).bits_per_entry(16),
            }
        out[app] = rows
    return out


def test_directory_format_ablation(engine):
    out = directory_sweep(SCALE, engine)
    for app, rows in out.items():
        table = [[spec, r["bits"], r["speedup"], r["base_msgs"],
                  r["enh_msgs"]] for spec, r in rows.items()]
        print()
        print(render_table(
            ["format", "dir bits/entry", "speedup", "base msgs",
             "enhanced msgs"],
            table, title="Directory format ablation: %s" % app))
    for app, rows in out.items():
        # Compressed formats never help traffic...
        assert rows["coarse:4"]["base_msgs"] >= rows["full"]["base_msgs"]
        # ...and the mechanisms keep working under every encoding.
        assert all(r["speedup"] > 1.0 for r in rows.values()), app
