"""The scaling study: storm scenarios, the scale harness, large-machine
oracle runs, and the workload region layout that makes them possible.

The fast lane exercises the harness/report plumbing and the oracles at
64 nodes; the slow lane replays the headline 512/1024-node storms per
directory format with full coherence + quiescence checking.
"""

import json

import pytest

from repro.fuzz.runner import run_case
from repro.fuzz.scenarios import (
    FuzzScenario,
    scenario_from_dict,
    scenario_to_dict,
    storm_workload_kwargs,
)
from repro.harness.scale import run_scale, scale_engine
from repro.harness.sweep import SweepEngine
from repro.workloads import regions


class TestRegionLayout:
    def test_small_machines_keep_the_constants(self):
        """Every machine small enough for the historical constants gets
        them byte-identically (existing traces must not move)."""
        for cpus in (2, 16, 63):
            assert regions.layout(cpus) == (
                regions.SHARED, regions.HOT, regions.FALSE_SHARE,
                regions.PRIVATE)

    @pytest.mark.parametrize("cpus", [64, 65, 256, 1024])
    def test_large_machines_get_disjoint_regions(self, cpus):
        """Regression: with 64+ CPUs the per-CPU ``SHARED + cpu`` region
        numbers used to collide with HOT/FALSE_SHARE (and eventually
        PRIVATE + cpu) — logically distinct lines aliased to the same
        addresses."""
        shared, hot, false_share, private = regions.layout(cpus)
        shared_regions = set(range(shared, shared + cpus))
        private_regions = set(range(private, private + cpus))
        assert hot not in shared_regions
        assert false_share not in shared_regions
        assert not shared_regions & private_regions
        assert {hot, false_share}.isdisjoint(private_regions)

    def test_region_bases_stay_disjoint_windows(self):
        shared, hot, _fs, private = regions.layout(1024)
        spans = sorted((regions.region_base(r), r)
                       for r in (shared, shared + 1023, hot, private,
                                 private + 1023))
        for (lo, _), (hi, _) in zip(spans, spans[1:]):
            assert hi - lo >= regions.REGION_BYTES


class TestStormScenario:
    def test_deterministic(self):
        a = FuzzScenario.storm(3, num_nodes=64, directory_format="coarse:8")
        b = FuzzScenario.storm(3, num_nodes=64, directory_format="coarse:8")
        assert a == b

    def test_axes_only_change_the_knob(self):
        """Cells of the scale report differ only in the knob under study:
        same seed + node count -> the same workload whatever the format
        or protocol."""
        full = FuzzScenario.storm(3, num_nodes=64)
        lim = FuzzScenario.storm(3, num_nodes=64, directory_format="limited:2",
                                 protocol="wi")
        assert full.workloads == lim.workloads
        assert full.config.num_nodes == lim.config.num_nodes
        assert lim.config.directory_format == "limited:2"
        assert lim.config.protocol_name == "wi"

    def test_caps_grow_with_node_count(self):
        small = FuzzScenario.storm(0, num_nodes=64)
        big = FuzzScenario.storm(0, num_nodes=1024)
        assert big.max_events > small.max_events
        assert big.max_events >= 1024 * 40_000

    def test_consumer_slice_capped(self):
        assert storm_workload_kwargs(1024)["consumers"] == 32
        assert storm_workload_kwargs(16)["consumers"] == 2

    def test_round_trips_through_artifact_encoding(self):
        scenario = FuzzScenario.storm(7, num_nodes=256,
                                      directory_format="limited:4")
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_from_seed_pins_nodes_and_format(self):
        rolled = FuzzScenario.from_seed(5)
        pinned = FuzzScenario.from_seed(5, num_nodes=256,
                                        directory_format="coarse:16")
        assert pinned.config.num_nodes == 256
        assert pinned.config.directory_format == "coarse:16"
        assert pinned.workloads == rolled.workloads
        assert pinned.chaos == rolled.chaos
        assert pinned.max_events >= 256 * 40_000


class TestScaleHarness:
    def test_report_shape_and_breakdown(self):
        report = run_scale(nodes=(16,), formats=("full", "limited:2"),
                           engine=scale_engine(jobs=1))
        rows = report.to_json()["rows"]
        assert len(rows) == 2
        full_row = next(r for r in rows if r["format"] == "full")
        lim_row = next(r for r in rows if r["format"] == "limited:2")
        # The format's area/traffic trade-off is visible in every row.
        assert lim_row["dir_bits_per_entry"] < full_row["dir_bits_per_entry"]
        assert lim_row["invalidations"] >= full_row["invalidations"]
        for row in rows:
            assert row["cycles"] > 0
            assert row["traffic_bytes"] > 0
        text = report.render_text()
        assert "[16 nodes]" in text
        assert "limited:2" in text
        doc = json.loads(json.dumps(report.to_json()))
        assert len(doc["rows"]) == 2

    def test_untraced_64_node_schedule_is_pinned(self):
        """The fuzz runner always attaches a tracer, which routes every
        fan-out through the per-message send; this is the tier-1 pin of
        the untraced broadcast path (limited:2 overflows to 63-way INVs)."""
        report = run_scale(nodes=(64,),
                           formats=("full", "coarse:16", "limited:2"),
                           seed=0, engine=scale_engine(jobs=1))
        got = {row["format"]: (row["events"], row["cycles"],
                               row["invalidations"], row["traffic_bytes"])
               for row in report.to_json()["rows"]}
        assert got == {
            "full": (21771, 29850, 2328, 808224),
            "coarse:16": (45425, 29829, 11989, 1946976),
            "limited:2": (47570, 29297, 12758, 2068320),
        }

    def test_any_engine_runs_scale_cells(self):
        """Scale cells are jobs like any other: a plain engine returns
        the same document as the scale engine."""
        axes = dict(nodes=(16,), formats=("full", "limited:2"), scale=0.5)
        plain = run_scale(engine=SweepEngine(jobs=1), **axes)
        wired = run_scale(engine=scale_engine(jobs=1), **axes)
        assert plain.to_json() == wired.to_json()

    def test_bad_axes_fail_fast(self):
        from repro.common import ConfigError

        with pytest.raises(ConfigError):
            run_scale(nodes=(16,), formats=("coarse:x",))
        with pytest.raises(Exception):
            run_scale(nodes=(16,), protocols=("nonesuch",))

    def test_cells_cached_across_runs(self, tmp_path):
        engine = scale_engine(jobs=1, cache=True, cache_dir=str(tmp_path))
        run_scale(nodes=(16,), formats=("full",), engine=engine)
        assert engine.last_report.executed == 1
        engine2 = scale_engine(jobs=1, cache=True, cache_dir=str(tmp_path))
        run_scale(nodes=(16,), formats=("full",), engine=engine2)
        assert engine2.last_report.cached == 1
        assert engine2.last_report.executed == 0


class TestScaleCLI:
    def test_scale_command_with_json(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "scale.json"
        assert main(["scale", "--nodes", "16", "--formats", "full,limited:2",
                     "--no-cache", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "[16 nodes]" in out
        assert "scale: 2 cells" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["rows"]) == 2
        assert {(row["nodes"], row["format"]) for row in doc["rows"]} == {
            (16, "full"), (16, "limited:2")}


def storm_oracles_clean(num_nodes, directory_format, protocol="adaptive",
                        seed=0):
    """Run one storm case with every oracle armed; return the result."""
    scenario = FuzzScenario.storm(seed, num_nodes=num_nodes,
                                  directory_format=directory_format,
                                  protocol=protocol)
    result = run_case(scenario)
    assert result.ok, "%s@%d: %s %s" % (directory_format, num_nodes,
                                        result.oracle, result.message)
    return result


class TestStormOraclesFast:
    """64-node oracle-checked storms per format: the fast-lane slice of
    the scaled-up audit (online coherence, then the model's invariants on
    every line at quiescence)."""

    @pytest.mark.parametrize("fmt", ["full", "coarse:8", "limited:2"])
    def test_storm_64_nodes(self, fmt):
        storm_oracles_clean(64, fmt)

    @pytest.mark.parametrize("fmt", ["coarse:4", "limited:2"])
    def test_dragon_storm_64_nodes(self, fmt):
        # Dragon's publish pushes to the format's observed set, so RAC
        # copies sit outside the exact sharer set; the oracles must read
        # the vector through the format, as the hardware would.
        storm_oracles_clean(64, fmt, protocol="dragon")

    def test_update_fanout_amplifies_with_compression(self):
        full = storm_oracles_clean(64, "full")
        lim = storm_oracles_clean(64, "limited:2")
        assert (lim.stats.get("update.sent", 0)
                > full.stats.get("update.sent", 0))


@pytest.mark.slow
class TestStormOraclesAtScale:
    """The headline acceptance runs: 512/1024-node storms complete with
    all fuzz oracles clean for every directory format."""

    @pytest.mark.parametrize("fmt", ["full", "coarse:8", "coarse:16",
                                     "limited:2", "limited:4"])
    def test_storm_512_nodes(self, fmt):
        storm_oracles_clean(512, fmt)

    @pytest.mark.parametrize("fmt", ["full", "coarse:8", "coarse:16",
                                     "limited:2", "limited:4"])
    def test_storm_1024_nodes(self, fmt):
        storm_oracles_clean(1024, fmt)

    @pytest.mark.parametrize("protocol", ["wi", "mesi", "dragon"])
    def test_storm_512_nodes_other_protocols(self, protocol):
        storm_oracles_clean(512, "coarse:16", protocol=protocol)
