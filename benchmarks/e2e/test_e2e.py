"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``
with ``src`` on ``PYTHONPATH``.  Workloads run at their tiny sizes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import run
import suite
from layers import LAYERS, layer_of

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fileobj:
    BENCHMARK = json.load(_fileobj)


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_declares_what_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_workload_emits_every_declared_metric(name, tmp_path):
    seed = suite.WORKLOADS[name].default_seed
    record = run.measure(name, seed, 0.01, trace=True, size="tiny",
                         work_dir=str(tmp_path))
    assert [unit["traced"] for unit in record["units"]] == [False, True]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.summarize([record], [(0.2, 0.04)], trace)
        assert result["correct"], result["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        emitted = {metric: value["unit"]
                   for metric, value in result["metrics"].items()}
        assert emitted == _declared(section)
        if not trace:
            assert all(value["value"] > 0
                       for value in result["metrics"].values())
    assert os.listdir(str(tmp_path)) == []


def test_every_module_maps_to_a_layer():
    unmapped = []
    for directory, _, files in os.walk(run.REPRO):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.relpath(os.path.join(directory, filename),
                                       run.REPRO)
                if layer_of(path) not in LAYERS:
                    unmapped.append(path)
    assert unmapped == []


def test_failing_model_check_is_counted_not_raised():
    from repro.mc.model import ProtocolModel

    # Unordered channels break single-writer (docs/verification.md).
    state = {"checks": [
        ("adaptive-3", ProtocolModel(num_nodes=3)),
        ("adaptive-3-unordered", ProtocolModel(num_nodes=3,
                                               ordered_channels=False)),
    ]}
    unit = suite.verify_unit(state, log=None)
    assert (unit.attempted, unit.failed) == (2, 1)
    assert "InvariantViolation" in unit.errors[0]
    record = {"workload": "verify", "seed": 0, "peak_rss_mb": 1.0,
              "units": [dict(vars(unit), traced=False, wall_s=1.0,
                             reference_s=0.1)]}
    result = run.summarize([record], [(0.2, 0.04)], trace=False)
    assert not result["correct"]
    assert result["failed_frac"] == 0.5


def test_digest_mismatch_across_calls_counts_as_failure():
    unit = {"work": 10, "attempted": 3, "failed": 0, "counts": {},
            "errors": [], "traced": False, "wall_s": 1.0,
            "reference_s": 0.1}
    record = {"workload": "fuzz", "seed": 0, "peak_rss_mb": 1.0,
              "units": [dict(unit, digest="a"), dict(unit, digest="b")]}
    result = run.summarize([record], [(0.2, 0.04)], trace=False)
    assert (result["attempted"], result["failed"]) == (6, 3)


def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_command_prints_result_and_trace(tmp_path):
    trace_out = tmp_path / "trace.json"
    done = _run_cli(["--workload", "verify", "--seed", "3", "--seconds",
                     "0.01", "--trace", "1", "--size", "tiny",
                     "--trace-out", str(trace_out)], run.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["metrics"]["mc.states"]["value"] > 0
    trace = json.loads(trace_out.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"unit.verify", "mc.run"} <= names
    child = next(e for e in trace["traceEvents"] if e["name"] == "mc.run")
    assert set(child["args"]) == {"id", "start_s", "end_s", "parent", "run"}
    assert child["args"]["parent"] is not None
    assert trace["otherData"]["layer_samples"].get("mc", 0) >= 0


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(run.HERE, str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _run_cli(["--workload", "headline", "--seed", "1", "--seconds",
                     "1", "--trace", "0"], str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- compare.py verdicts on synthetic runs ------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    faster = [value * 0.9 for value in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1)[0] == "gain"
    # Two of ten pairs lost: not a gain, though still within the bound.
    mixed = faster[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    assert compare.verdict(PARENT, mixed, "lower", 0.1) == ("within", 8, 10)
    # Wins in every pair but a gap inside the parent's IQR: not a gain.
    nudged = [value - 0.01 for value in PARENT]
    assert compare.verdict(PARENT, nudged, "lower", 0.1)[0] == "within"
    # Fewer than ten pairs can never claim a gain.
    assert compare.verdict(PARENT[:5], faster[:5], "lower", 0.1)[0] == \
        "within"


def test_regression_beyond_the_bound():
    slower = [value * 1.2 for value in PARENT]
    assert compare.verdict(PARENT, slower, "lower", 0.1)[0] == "regression"
    assert compare.verdict(PARENT, slower, "higher", 0.1)[0] == "gain"
    lower_rate = [value * 0.8 for value in PARENT]
    assert compare.verdict(PARENT, lower_rate, "higher", 0.1)[0] == \
        "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shuffled = noisy[5:] + noisy[:5]
    assert compare.verdict(noisy, shuffled, "lower", 0.1)[0] == "unresolved"
    # ...unless every change run beats every parent run.
    assert compare.verdict(noisy, [50.0] * 10, "lower", 0.1)[0] == "gain"
    assert compare.verdict(noisy, [55.0, 59.0], "lower", 0.1)[0] == "within"


def test_exact_values_and_digests_must_match():
    counts = {name: {"value": 1, "unit": "count"} for name in compare.EXACT}
    parent = [{"workload": "fuzz", "seed": 0, "trace": 1, "sim_digest": "a",
               "metrics": counts}]
    same = [dict(parent[0])]
    assert compare.exact_changes(parent, same) == []
    moved = dict(counts, **{"sim.cycles": {"value": 2, "unit": "cycles"}})
    change = [dict(parent[0], sim_digest="b", metrics=moved)]
    assert compare.exact_changes(parent, change) == [
        ("fuzz", 0, "digest"), ("fuzz", 0, "sim.cycles")]


def test_compare_rows_pair_each_workload_with_its_own_runs():
    def records(workload, values):
        return [{"workload": workload, "seed": i, "trace": 0,
                 "sim_digest": "d", "metrics": {"wall_s": {"value": v}}}
                for i, v in enumerate(values)]

    metric = [{"name": "wall_s", "unit": "s", "better": "lower",
               "bound": 0.1}]
    parent = records("headline", PARENT) + records("fuzz", PARENT)
    change = (records("headline", [v * 0.9 for v in PARENT])
              + records("fuzz", [v * 1.2 for v in PARENT]))
    verdicts = {row["workload"]: row["verdict"]
                for row in compare.compare(parent, change, metric)}
    assert verdicts == {"headline": "gain", "fuzz": "regression"}
