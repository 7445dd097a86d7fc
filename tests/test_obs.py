"""Tests for the observability subsystem (repro.obs).

Covers the ISSUE-mandated guarantees: histogram bucket math, tracer
determinism (same seed + config => byte-identical JSONL), Perfetto export
schema sanity (valid JSON, monotone timestamps per track), sampling
controls, and the disabled-tracing overhead guard (<5% cycle delta on a
small run — in fact zero, since tracing must never perturb the
simulation).
"""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.common import small
from repro.harness import run_app
from repro.obs import (
    Histogram,
    MissCounts,
    TraceConfig,
    Tracer,
    exponential_bounds,
    jsonl_text,
    to_perfetto,
)
from repro.obs.metrics import MISS_LATENCY_BOUNDS, miss_percentiles

APP = "em3d"
SCALE = 0.1


def _record_counts(tracer):
    """``(span kinds, event names)`` as Counters over a tracer's records."""
    return (Counter(span.kind for span in tracer.spans),
            Counter(event.name for event in tracer.events))


@pytest.fixture(scope="module")
def traced_run():
    """One traced em3d run on the full producer-consumer system."""
    tracer = Tracer()
    run = run_app(APP, small(), scale=SCALE, trace=tracer)
    return run, tracer


class TestHistogram:
    def test_exponential_bounds(self):
        assert exponential_bounds(50, 2, 4) == (50, 100, 200, 400)
        with pytest.raises(ValueError):
            exponential_bounds(0, 2, 4)

    def test_bucket_math(self):
        hist = Histogram((10, 20, 40))
        # Inclusive upper bounds; above the last bound -> overflow bucket.
        for value, bucket in ((0, 0), (10, 0), (11, 1), (20, 1), (21, 2),
                              (40, 2), (41, 3), (10_000, 3)):
            assert hist.bucket_of(value) == bucket, value

    def test_record_and_summary(self):
        hist = Histogram((10, 20, 40))
        for value in (5, 10, 15, 100):
            hist.record(value)
        assert hist.counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.total == 130
        assert hist.min == 5 and hist.max == 100
        assert hist.mean == pytest.approx(32.5)
        d = hist.to_dict()
        assert d["counts"] == [2, 1, 0, 1]
        assert d["bounds"] == [10, 20, 40]

    def test_percentile(self):
        hist = Histogram((10, 20, 40))
        assert hist.percentile(0.5) is None  # empty
        for value in (1, 2, 3, 15, 100):
            hist.record(value)
        assert hist.percentile(0.5) == 10    # 3 of 5 in first bucket
        assert hist.percentile(0.8) == 20
        assert hist.percentile(1.0) == 100   # overflow -> recorded max

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((10, 10, 20))
        with pytest.raises(ValueError):
            Histogram((20, 10))

    def test_merging_split_recordings_equals_recording_once(self):
        rng = random.Random(7)
        values = [rng.randrange(0, 30_000) for _ in range(500)]
        whole = Histogram(MISS_LATENCY_BOUNDS)
        for value in values:
            whole.record(value)
        parts = [Histogram(MISS_LATENCY_BOUNDS) for _ in range(3)]
        for index, value in enumerate(values):
            parts[index % 3].record(value)
        merged = Histogram(MISS_LATENCY_BOUNDS)
        for part in [Histogram(MISS_LATENCY_BOUNDS)] + parts:  # + an empty
            merged.merge(part)
        assert merged.to_dict() == whole.to_dict()

    def test_merge_rejects_other_bounds(self):
        with pytest.raises(ValueError):
            Histogram((10, 20)).merge(Histogram((10, 30)))

    def test_dict_round_trip_is_lossless(self):
        empty = Histogram((10, 20, 40))
        assert Histogram.from_dict(empty.to_dict()).to_dict() == \
            empty.to_dict()
        hist = Histogram((10, 20, 40))
        for value in (5, 10, 15, 100):
            hist.record(value)
        doc = json.loads(json.dumps(hist.to_dict()))
        back = Histogram.from_dict(doc)
        assert back.to_dict() == hist.to_dict()
        assert back.percentile(0.8) == hist.percentile(0.8)

    def test_from_counts_equals_recording_each_value(self):
        counts = {5: 3, 15: 1, 100: 2}
        hist = Histogram((10, 20, 40))
        for value, times in counts.items():
            for _ in range(times):
                hist.record(value)
        assert (Histogram.from_counts((10, 20, 40), counts).to_dict()
                == hist.to_dict())


def _old_percentile(hist_doc, fraction):
    """The report code's former private percentile over histogram docs,
    kept verbatim as the reference the shared helper must reproduce."""
    if not hist_doc or not hist_doc.get("count"):
        return None
    bounds, counts = hist_doc["bounds"], hist_doc["counts"]
    threshold = fraction * hist_doc["count"]
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= threshold and bucket_count:
            if index >= len(bounds):
                return hist_doc["max"]
            return bounds[index]
    return hist_doc["max"]


def _old_merged_latency(latency):
    """The former private merge of per-hop-class histogram docs."""
    merged = None
    for doc in latency["miss_latency"].values():
        if not doc or not doc.get("count"):
            continue
        if merged is None:
            merged = {"bounds": list(doc["bounds"]),
                      "counts": list(doc["counts"]),
                      "count": doc["count"], "max": doc["max"]}
        else:
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], doc["counts"])]
            merged["count"] += doc["count"]
            if doc["max"] is not None and (merged["max"] is None
                                           or doc["max"] > merged["max"]):
                merged["max"] = doc["max"]
    return merged


class TestMissPercentiles:
    FRACTIONS = (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0)

    def test_scale_docs_match_the_old_helper(self):
        """On the pinned scale snapshot's storm runs, the shared helper
        answers exactly what the retired private helpers did."""
        from repro.harness.scale import run_scale

        report = run_scale(nodes=(16, 64), formats=("full", "limited:2"))
        for payload in report.cells.values():
            latency = payload["latency"]
            old = _old_merged_latency(latency)
            assert (miss_percentiles(latency, self.FRACTIONS)
                    == [_old_percentile(old, f) for f in self.FRACTIONS])

    def test_overflow_and_empty(self):
        counts = MissCounts()
        assert miss_percentiles(counts.summary()) == [None, None]
        counts.latency["3hop"][50_000] += 1   # beyond the last bound
        counts.latency["local"][10] += 3
        latency = counts.summary()
        old = _old_merged_latency(latency)
        assert miss_percentiles(latency, self.FRACTIONS) == \
            [_old_percentile(old, f) for f in self.FRACTIONS]
        assert miss_percentiles(latency, (1.0,)) == [50_000]


class TestTraceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_every=0)
        with pytest.raises(ValueError):
            TraceConfig(addr_ranges=((0x100, 0x100),))

    def test_filters(self):
        tracer = Tracer(TraceConfig(nodes=(1, 2),
                                    addr_ranges=((0x1000, 0x2000),)))
        assert tracer._in_filters(1, 0x1800)
        assert not tracer._in_filters(0, 0x1800)   # node filtered
        assert not tracer._in_filters(1, 0x2000)   # range is half-open


class TestTracedRun:
    def test_obs_lands_in_extras(self, traced_run):
        run, _ = traced_run
        assert run.obs is not None
        assert set(run.obs) == {"miss_latency", "retries",
                                "intervention_occupancy"}

    def test_latency_histograms_are_the_always_on_ones(self, traced_run):
        """The tracer reports the run's always-on miss histograms rather
        than counting each miss a second time."""
        run, tracer = traced_run
        assert run.obs["miss_latency"] == run.latency["miss_latency"]
        assert run.obs["retries"] == run.latency["retries"]
        assert tracer.summary()["miss_latency"] == \
            run.latency["miss_latency"]
        misses = sum(run.stats.get(name, 0) for name in (
            "miss.local", "miss.remote_2hop", "miss.remote_3hop"))
        assert run.latency["retries"]["count"] == misses

    def test_metrics_match_stats(self, traced_run):
        """Histograms and record streams agree with the simulator's own
        counters: the tracer records causality, Stats does the counting."""
        run, tracer = traced_run
        latency = run.obs["miss_latency"]
        assert latency["local"]["count"] == run.stats.get("miss.local", 0)
        assert latency["2hop"]["count"] == run.stats["miss.remote_2hop"]
        assert latency["3hop"]["count"] == run.stats["miss.remote_3hop"]
        spans, events = _record_counts(tracer)
        for kind in ("read", "write"):
            assert spans["miss." + kind] == (
                run.stats["miss." + kind]
                + run.stats.get("miss.%s_replay" % kind, 0))
        assert spans["delegation"] == run.stats["dele.accepted"] > 0
        assert events["update.push"] == run.stats["update.intervention"] > 0
        assert events["intervention.fired"] == run.stats["update.intervention"]
        assert events["rac.hit"] == run.stats["hit.rac"] > 0
        assert "cpu.stall" not in spans
        assert "rac.miss" not in events

    def test_dragon_pushes_without_firing(self):
        """``intervention.fired`` is derived from ``update.push``: only a
        push that resolves an armed intervention fires one.  Dragon's
        non-home writers push without arming, so fired < pushes."""
        tracer = Tracer()
        run = run_app(APP, replace(small(), protocol_name="dragon"),
                      scale=SCALE, trace=tracer)
        _, events = _record_counts(tracer)
        assert events["update.push"] == run.stats["update.intervention"]
        assert 0 < events["intervention.fired"] < events["update.push"]
        assert events["intervention.fired"] <= events["intervention.armed"]

    def test_paper_mechanism_spans_present(self, traced_run):
        """The acceptance criterion: delegation spans + update events."""
        _, tracer = traced_run
        kinds = {span.kind for span in tracer.spans}
        assert "delegation" in kinds
        assert "miss.read" in kinds and "miss.write" in kinds
        names = {event.name for event in tracer.events}
        assert "update.push" in names
        assert "update.recv" in names
        assert "intervention.fired" in names

    def test_spans_are_well_formed(self, traced_run):
        _, tracer = traced_run
        for span in tracer.spans:
            assert span.end is None or span.end >= span.start
            for attempt in span.attempts:
                assert span.start <= attempt["ts"]
            if span.kind.startswith("miss."):
                assert span.outcome in ("local", "2hop", "3hop",
                                        "unfinished")

    def test_intervention_occupancy_recorded(self, traced_run):
        run, _ = traced_run
        occupancy = run.obs["intervention_occupancy"]
        assert occupancy["count"] > 0
        # Fired interventions sat armed for exactly intervention_delay.
        assert occupancy["max"] >= small().protocol.intervention_delay


class TestDeterminism:
    def test_jsonl_byte_identical_across_runs(self):
        dumps = []
        for _ in range(2):
            tracer = Tracer()
            run_app(APP, small(), scale=SCALE, trace=tracer)
            dumps.append(jsonl_text(tracer))
        assert dumps[0] == dumps[1]
        assert dumps[0]  # non-empty

    def test_jsonl_lines_are_valid_json(self, traced_run):
        _, tracer = traced_run
        lines = jsonl_text(tracer).splitlines()
        assert len(lines) == len(tracer.spans) + len(tracer.events)
        for line in lines[:50]:
            record = json.loads(line)
            assert record["type"] in ("span", "event")


class TestPerfettoExport:
    def test_schema_sanity(self, traced_run):
        _, tracer = traced_run
        doc = json.loads(json.dumps(to_perfetto(tracer)))  # round-trips
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] != "M":
                assert event["ts"] >= 0

    def test_ts_monotone_per_track(self, traced_run):
        _, tracer = traced_run
        last = {}
        for event in to_perfetto(tracer)["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event.get("tid", 0))
            assert event["ts"] >= last.get(key, 0)
            last[key] = event["ts"]

    def test_track_metadata_present(self, traced_run):
        _, tracer = traced_run
        events = to_perfetto(tracer)["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert any(name.startswith("node ") for name in names)
        tracks = {}
        for e in events:
            if e["ph"] == "M" and e["name"] == "thread_name":
                tracks.setdefault(e["pid"], set()).add(e["args"]["name"])
        assert tracks
        assert all(names == {"hub transactions", "delegation"}
                   for names in tracks.values())


class TestSampling:
    def test_one_in_n_reduces_spans(self):
        full = Tracer()
        run_app(APP, small(), scale=SCALE, trace=full)
        sampled = Tracer(TraceConfig(sample_every=4))
        run_app(APP, small(), scale=SCALE, trace=sampled)
        full_misses = [s for s in full.spans if s.kind.startswith("miss.")]
        kept = [s for s in sampled.spans if s.kind.startswith("miss.")]
        assert 0 < len(kept) < len(full_misses)
        # Metrics stay full-fidelity regardless of span sampling.
        assert (sampled.summary()["miss_latency"]
                == full.summary()["miss_latency"])

    def test_node_filter(self):
        tracer = Tracer(TraceConfig(nodes=(0,)))
        run_app(APP, small(), scale=SCALE, trace=tracer)
        assert tracer.spans
        assert {span.node for span in tracer.spans} == {0}
        assert {event.node for event in tracer.events} <= {0}


class TestOverheadGuard:
    def test_disabled_tracing_does_not_perturb_simulation(self):
        """Small-run guard: the no-op fast path must leave the
        simulated timeline untouched (<5% cycle delta; actually 0)."""
        plain = run_app(APP, small(), scale=SCALE)
        traced = run_app(APP, small(), scale=SCALE, trace=Tracer())
        assert plain.trace is None and plain.obs is None
        delta = abs(traced.metrics.cycles - plain.metrics.cycles)
        assert delta <= 0.05 * plain.metrics.cycles
        # Stronger: tracing is purely observational.
        assert traced.metrics.cycles == plain.metrics.cycles
        assert traced.stats == plain.stats


class TestCliTrace:
    def test_perfetto_out(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        runs = []

        def recording_run_app(*args, **kwargs):
            runs.append(run_app(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_app", recording_run_app)
        out = tmp_path / "trace.json"
        assert cli.main(["trace", APP, "pc", "--scale", "0.05",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        text = capsys.readouterr().out
        assert "spans recorded" in text
        # The mechanism rows are the run's own Stats counters.
        rows = {}
        for line in text.splitlines():
            label, _, value = line.strip().rpartition(" ")
            rows[label.strip()] = value
        stats = runs[0].stats
        assert rows["delegations"] == str(stats["dele.accepted"])
        assert rows["update pushes"] == str(stats["update.intervention"])
        assert rows["NACKs"] == str(stats["protocol.nack"])
        assert stats["dele.accepted"] and stats["update.intervention"]

    def test_jsonl_out_with_sampling(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.jsonl"
        assert main(["trace", APP, "pc", "--scale", "0.05",
                     "--sample-every", "8", "--nodes", "0,1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["node"] in (0, 1) for line in lines)
