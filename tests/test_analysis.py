"""Analysis layer: metrics extraction, comparisons, renderers, §5 model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    LatencyModel,
    RunMetrics,
    arithmetic_mean,
    consumer_histogram,
    geometric_mean,
    headline,
    metrics_from_result,
    normalized_messages,
    normalized_remote_misses,
    render_series,
    render_table,
    speedup,
    speedup_bound,
)
from repro.common import ConfigError
from repro.sim import RunResult


def metrics(cycles=1000, m2=10, m3=5, msgs=100, **kw):
    defaults = dict(cycles=cycles, local_misses=3, remote_2hop=m2,
                    remote_3hop=m3, messages=msgs, bytes=msgs * 40,
                    nacks=0, updates_sent=10, updates_consumed=8,
                    updates_wasted=2, delegations=1, undelegations=1,
                    rac_update_hits=8)
    defaults.update(kw)
    return RunMetrics(**defaults)


def result(stats, cycles=1000):
    return RunResult(cycles=cycles, stats=stats, cpu_finish_times=[cycles],
                     ops_executed=1, events_processed=1)


class TestRunMetrics:
    def test_remote_misses_sum(self):
        assert metrics(m2=10, m3=5).remote_misses == 15

    def test_total_misses(self):
        assert metrics(m2=10, m3=5).total_misses == 18

    def test_update_accuracy(self):
        assert metrics().update_accuracy == pytest.approx(0.8)

    def test_update_accuracy_no_updates(self):
        assert metrics(updates_sent=0).update_accuracy == 0.0

    def test_metrics_from_result(self):
        stats = {"miss.local": 2, "miss.remote_2hop": 3,
                 "miss.remote_3hop": 4, "msg.sent.GETS": 5,
                 "msg.sent.INV": 6, "msg.bytes": 440,
                 "update.sent": 7, "update.consumed": 6,
                 "dele.delegate": 1, "dele.undelegate.flush": 1,
                 "dele.undelegate.recall": 2}
        m = metrics_from_result(result(stats))
        assert m.local_misses == 2
        assert m.remote_misses == 7
        assert m.messages == 11
        assert m.undelegations == 3

    def test_consumer_histogram_percentages(self):
        stats = {"detector.consumers.1": 30, "detector.consumers.4+": 70}
        hist = consumer_histogram(result(stats))
        assert hist["1"] == pytest.approx(30.0)
        assert hist["4+"] == pytest.approx(70.0)
        assert hist["2"] == 0.0

    def test_consumer_histogram_empty(self):
        hist = consumer_histogram(result({}))
        assert all(v == 0.0 for v in hist.values())


class TestCompare:
    def test_speedup(self):
        assert speedup(metrics(cycles=2000), metrics(cycles=1000)) == 2.0

    def test_normalized_messages(self):
        assert normalized_messages(metrics(msgs=100),
                                   metrics(msgs=80)) == pytest.approx(0.8)

    def test_normalized_remote_misses(self):
        base = metrics(m2=10, m3=10)
        enh = metrics(m2=5, m3=5)
        assert normalized_remote_misses(base, enh) == pytest.approx(0.5)

    def test_zero_base_traffic_degenerates_to_one(self):
        assert normalized_messages(metrics(msgs=0), metrics(msgs=0)) == 1.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2

    def test_means_reject_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_headline_triple(self):
        base = {"a": metrics(cycles=1000, msgs=100, m2=10, m3=10),
                "b": metrics(cycles=2000, msgs=200, m2=20, m3=20)}
        enh = {"a": metrics(cycles=800, msgs=90, m2=5, m3=5),
               "b": metrics(cycles=1600, msgs=180, m2=10, m3=10)}
        sp, traffic_cut, miss_cut = headline(base, enh)
        assert sp == pytest.approx(1.25)
        assert traffic_cut == pytest.approx(0.10)
        assert miss_cut == pytest.approx(0.50)

    def test_headline_mismatched_apps_rejected(self):
        with pytest.raises(ValueError):
            headline({"a": metrics()}, {"b": metrics()})

    @given(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_geomean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["app", "speedup"], [["em3d", 1.379]],
                            title="T")
        assert "em3d" in text
        assert "1.379" in text
        assert text.splitlines()[0] == "T"

    def test_render_series(self):
        text = render_series("F", "delay", {"app": [(5, 1.0), (50, 1.02)]})
        assert "app" in text
        assert "1.0200" in text


class TestAnalyticalModel:
    def test_speedup_bound(self):
        assert speedup_bound(0.5) == pytest.approx(2.0)
        assert speedup_bound(0.0) == pytest.approx(1.0)

    def test_bound_rejects_bad_accuracy(self):
        with pytest.raises(ConfigError):
            speedup_bound(1.0)
        with pytest.raises(ConfigError):
            speedup_bound(-0.1)

    def test_predicted_speedup_below_bound(self):
        model = LatencyModel(compute_per_miss=500, remote_latency=400)
        for accuracy in (0.2, 0.5, 0.9):
            assert (model.predicted_speedup(accuracy)
                    < speedup_bound(accuracy))

    def test_speedup_grows_with_latency(self):
        """The paper's Figure 10 trend: more latency, more benefit."""
        model = LatencyModel(compute_per_miss=500, remote_latency=100)
        series = model.speedup_vs_latency(0.6, [100, 200, 400, 800])
        speedups = [s for _lat, s in series]
        assert speedups == sorted(speedups)

    def test_converges_to_bound(self):
        model = LatencyModel(compute_per_miss=500, remote_latency=1)
        series = model.speedup_vs_latency(0.5, [10 ** 7])
        assert series[0][1] == pytest.approx(speedup_bound(0.5), rel=0.01)

    def test_zero_accuracy_no_speedup(self):
        model = LatencyModel(compute_per_miss=500, remote_latency=400)
        assert model.predicted_speedup(0.0) == pytest.approx(1.0)

    @given(st.floats(0.0, 0.99), st.floats(1.0, 10000.0))
    @settings(max_examples=50, deadline=None)
    def test_predicted_speedup_at_least_one(self, accuracy, latency):
        model = LatencyModel(compute_per_miss=100, remote_latency=latency,
                             local_latency=0.0)
        sp = model.predicted_speedup(accuracy)
        assert sp >= 1.0 - 1e-9
        assert sp <= speedup_bound(min(accuracy, 0.989)) + 1e-6 or \
            math.isclose(sp, speedup_bound(accuracy), rel_tol=1e-6)
