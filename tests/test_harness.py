"""Experiment harness: run_app and experiment definitions.

Experiments run at small scale here (quick, directional); full-scale
numbers are produced by the benchmark suite and recorded in EXPERIMENTS.md.
"""

import pytest

from repro.common import baseline
from repro.harness import experiments, run_app

SCALE = 0.25


class TestRunner:
    def test_run_app_returns_metrics(self):
        run = run_app("ocean", baseline(), scale=SCALE)
        assert run.app == "ocean"
        assert run.metrics.cycles > 0
        assert run.metrics.remote_misses > 0

    def test_same_seed_reproducible(self):
        a = run_app("lu", baseline(), scale=SCALE)
        b = run_app("lu", baseline(), scale=SCALE)
        assert a.metrics == b.metrics

    def test_num_cpus_override(self):
        run = run_app("ocean", baseline(num_nodes=8), scale=SCALE)
        assert run.metrics.cycles > 0


class TestExperiments:
    @pytest.mark.parametrize("name", sorted(experiments.ARTEFACTS))
    def test_every_artefact_returns_one_shape(self, name):
        run, heading = experiments.ARTEFACTS[name]
        out = run(scale=0.02, seed=1)
        assert set(out) == {"measured", "paper", "text"}
        assert heading and out["text"]

    def test_table3_structure(self):
        # CG needs enough iterations for its intermittent PC phases to
        # register in the detector histogram.
        out = experiments.table3(scale=0.6, apps=("ocean", "cg"))
        assert set(out["measured"]) == {"ocean", "cg"}
        assert "Table 3" in out["text"]
        # Ocean is overwhelmingly single-consumer; CG overwhelmingly 4+.
        assert out["measured"]["ocean"]["1"] > 80
        assert out["measured"]["cg"]["4+"] > 80

    def test_figure7_structure(self):
        out = experiments.figure7(scale=SCALE, apps=("em3d",))
        speedup = out["measured"]["speedup"]["em3d"]
        assert list(speedup)[0] == "base"
        assert speedup["base"] == pytest.approx(1.0)
        assert speedup["dele32_rac32k"] > 1.0

    def test_headline_structure(self):
        out = experiments.headline(scale=SCALE, apps=("em3d", "lu"))
        speedup, traffic_cut, miss_cut = out["measured"]["small"]
        assert speedup > 1.0
        assert 0.0 < miss_cut < 1.0

    def test_delegation_only_near_baseline(self):
        out = experiments.delegation_only(scale=SCALE, apps=("ocean",))
        # Paper: delegation alone lands within ~1% of baseline for most
        # apps; allow generous slack at small scale.
        assert 0.9 < out["measured"]["ocean"] < 1.15

    def test_figure8_structure(self):
        out = experiments.figure8(scale=SCALE, apps=("em3d",))
        row = out["measured"]["em3d"]
        assert row["deledc_32K_RAC"] > row["equal_area_1.04M"]

    def test_figure9_normalised_to_first_delay(self):
        out = experiments.figure9(scale=SCALE, apps=("lu",),
                                  delays=(5, 50, 50_000),
                                  include_infinite=False)
        points = out["measured"]["lu"]
        assert points[0][1] == pytest.approx(1.0)
        labels = [p[0] for p in points]
        assert labels == [5, 50, 50_000]

    def test_figure9_infinite_delay_hurts(self):
        out = experiments.figure9(scale=SCALE, apps=("em3d",),
                                  delays=(50,), include_infinite=True)
        points = dict(out["measured"]["em3d"])
        assert points["inf"] > points[50]

    def test_figure10_speedup_grows_with_latency(self):
        out = experiments.figure10(scale=SCALE, hops_ns=(25, 200))
        points = out["measured"]
        assert points[1]["base_cycles"] > points[0]["base_cycles"]
        assert points[1]["speedup"] >= points[0]["speedup"] * 0.98

    def test_figure11_mg_gains_from_bigger_delegate_cache(self):
        out = experiments.figure11(scale=0.5, entries=(32, 1024))
        points = out["measured"]
        assert points[-1]["speedup"] > points[0]["speedup"]

    @pytest.mark.slow
    def test_figure12_appbt_gains_from_bigger_rac(self):
        out = experiments.figure12(scale=0.5, rac_kb=(32, 1024))
        points = out["measured"]
        assert points[-2]["speedup"] > points[0]["speedup"]
