#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator along its four user paths.

    python3 benchmarks/e2e/run.py --workload headline --seed 12345 \\
        --seconds 25 --trace 0 [--rounds N] [--json OUT] [--trace-out OUT]

Each workload (see ``suite.py``) is a closed loop run by one client: a
fresh child process with ``jobs=1`` and no result cache makes one public
call after another for ``--seconds`` and times each call.  Only one
single-threaded process works at a time.

``--trace 0`` prints the end-to-end metrics: time of one call, work per
second, set-up time (median of several set-up-only child launches) and the
child's peak RSS.  Times are in reference seconds (see ``reference.py``):
each is scaled by the host speed measured next to it.
``--trace 1`` spends the first half of the run untraced and the second half
under the stack sampler and entry-point spans of ``layers.py``, and prints
the per-layer metrics.  Every call's outputs are checked; failures are
counted against the calls attempted, and the command exits non-zero when
any call failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import suite
from layers import LAYERS, OTHER, SPAN_NAMES
from reference import REFERENCE_S, START_REFERENCE_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REPRO = os.path.join(SRC, "repro")
WORK = os.path.join(HERE, ".work")

#: Set-up-only child launches per run: one launch alone varies by up to 2x.
SETUP_LAUNCHES = 10
#: Host-speed samples after each call take at least this share of its time.
REFERENCE_SHARE = 0.05
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "call_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COUNTS = {
    "sim.ops": "count", "sim.events": "count", "sim.cycles": "cycles",
    "sim.events_per_op": "ratio", "network.messages": "count",
    "network.bytes": "B", "network.messages_per_op": "ratio",
    "directory.invalidations": "count", "cache.l1_hits": "count",
    "cache.l2_hits": "count", "cache.rac_hits": "count",
    "protocol.remote_misses": "count", "protocol.nacks": "count",
    "protocol.retry_ratio": "ratio", "protocol.updates_sent": "count",
    "protocol.update_useful_ratio": "ratio", "protocol.delegations": "count",
    "mc.states": "count", "mc.transitions": "count", "fuzz.seeds": "count",
    "fuzz.failures": "count", "harness.jobs": "count",
    "analysis.paper_abs_err": "ratio", "bench.trace_overhead": "ratio",
}

PER_LAYER = dict(
    [("%s.samples" % layer, "count") for layer in LAYERS + (OTHER,)]
    + [("%s.share" % layer, "%") for layer in LAYERS + (OTHER,)]
    + [("span.%s.share" % name, "%") for name in SPAN_NAMES]
    + list(COUNTS.items()))


# ---------------------------------------------------------------------------
# Child side: set up, then call the workload in a loop.
# ---------------------------------------------------------------------------

def measure(name, seed, seconds, trace, size="full", work_dir=WORK):
    """Run units of ``name`` for ``seconds`` and return the raw record.

    With ``trace`` the first half of the time is untraced and the second
    half runs under the sampler and the entry-point spans.
    """
    from layers import RunLog, Sampler, Spans

    workload = suite.WORKLOADS[name]
    os.makedirs(work_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-" % name, dir=work_dir)
    sampler, spans, units = Sampler(REPRO), Spans(), []
    try:
        state = workload.setup(seed, size, scratch)
        phases = [(False, seconds / 2), (True, seconds / 2)] if trace \
            else [(False, seconds)]
        gc.collect()
        reference = reference_seconds()
        for traced, budget in phases:
            started, costs = time.perf_counter(), []
            while not costs or (time.perf_counter() - started
                                + statistics.median(costs) <= budget):
                begun = time.perf_counter()
                with RunLog() as log:
                    if traced:
                        spans.run = len(units)
                        with spans, sampler:
                            called = time.perf_counter()
                            with spans.root("unit." + name):
                                unit = workload.unit(state, log)
                            wall = time.perf_counter() - called
                    else:
                        called = time.perf_counter()
                        unit = workload.unit(state, log)
                        wall = time.perf_counter() - called
                gc.collect()
                after = reference_seconds(REFERENCE_SHARE * wall)
                units.append(dict(vars(unit), traced=traced, wall_s=wall,
                                  reference_s=(reference + after) / 2))
                reference = after
                costs.append(time.perf_counter() - begun)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "samples": dict(sampler.counts),
        "span_self_s": spans.self_seconds(),
        "spans": spans.spans,
    }


def _child(args):
    sys.path.insert(0, SRC)
    if args.child == "setup":
        suite.WORKLOADS[args.workload].setup(args.seed, args.size, WORK)
        return 0
    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.size)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parent side: launch children, fold their records into metrics.
# ---------------------------------------------------------------------------

class BenchError(Exception):
    """A child failed to run: no result can be reported."""


def _launch(argv, deadline, capture=False, script=True):
    """Run this script (or, without ``script``, the interpreter) with
    ``argv`` as a child and wait for it.

    The wait blocks in ``waitpid`` and a timer thread enforces the
    deadline: waiting with a timeout would poll with sleeps of up to 50 ms
    and quantize the set-up times.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before %s" % argv)
    command = [sys.executable] + ([os.path.abspath(__file__)] if script
                                  else []) + argv
    child = subprocess.Popen(command, stdout=subprocess.PIPE if capture
                             else subprocess.DEVNULL, text=True, cwd=ROOT)
    watchdog = threading.Timer(remaining, child.kill)
    watchdog.start()
    try:
        out, _ = child.communicate()
    finally:
        watchdog.cancel()
    if child.returncode != 0:
        raise BenchError("child %s exited %d%s" % (
            argv, child.returncode, " (killed at the run deadline)"
            if time.monotonic() >= deadline else ""))
    return out


def _timed_launch(argv, deadline, script=True):
    begun = time.perf_counter()
    _launch(argv, deadline, script=script)
    return time.perf_counter() - begun


def setup_times(name, seed, launches, deadline, size="full"):
    """``(set-up seconds, bare start seconds)`` of ``launches`` set-up-only
    child processes, each after a bare interpreter start.

    Process start-up does not track the reference kernel (scaling by it
    widened the spread), but it does track a bare ``python -c pass``.
    """
    times = []
    for _ in range(launches):
        bare = _timed_launch(["-c", "pass"], deadline, script=False)
        setup = _timed_launch(["--child", "setup", "--workload", name,
                               "--seed", str(seed), "--size", size], deadline)
        times.append((setup, bare))
    return times


def measure_in_child(name, seed, seconds, trace, deadline, size="full"):
    out = _launch(["--child", "measure", "--workload", name, "--seed",
                   str(seed), "--seconds", repr(seconds), "--trace",
                   str(int(trace)), "--size", size], deadline, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("measure child for %s printed nothing" % name)
    return json.loads(lines[-1])


def _spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _at_reference(seconds, reference):
    return seconds * REFERENCE_S / reference


def _samples(records):
    """Sampler ticks per layer, summed over rounds."""
    total = {}
    for record in records:
        for layer, count in record["samples"].items():
            total[layer] = total.get(layer, 0) + count
    return total


def summarize(records, setup, trace):
    """Fold child records (one per round) and the ``setup_times`` pairs
    into the reported result."""
    units = [unit for record in records for unit in record["units"]]
    attempted = sum(unit["attempted"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    errors = [error for unit in units for error in unit["errors"]]
    digest = units[0]["digest"]
    for unit in units:
        if unit["digest"] != digest:
            failed += unit["attempted"] - unit["failed"]
            errors.append("digest %s differs from the first call's %s"
                          % (unit["digest"][:16], digest[:16]))
    plain = [unit for unit in units if not unit["traced"]]
    traced = [unit for unit in units if unit["traced"]]
    stats = {
        "call_s": _spread([_at_reference(u["wall_s"], u["reference_s"])
                           for u in plain]),
        "work_per_s": _spread([u["work"] / _at_reference(u["wall_s"],
                                                         u["reference_s"])
                               for u in plain]),
        "wall_s": _spread([u["wall_s"] for u in plain]),
        "reference_s": _spread([u["reference_s"] for u in units]),
    }
    metrics = {}
    if trace:
        metrics.update(_layer_metrics(records, plain, traced))
    else:
        stats["setup_s"] = _spread([s * START_REFERENCE_S / bare
                                    for s, bare in setup])
        stats["setup_wall_s"] = _spread([s for s, _ in setup])
        stats["peak_rss_mb"] = _spread([r["peak_rss_mb"] for r in records])
        metrics.update({name: stats[name]["median"] for name in END_TO_END})
    units_table = PER_LAYER if trace else END_TO_END
    return {
        "workload": records[0]["workload"],
        "seed": records[0]["seed"],
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": _ratio(failed, attempted),
        "sim_digest": digest,
        "metrics": {name: {"value": value, "unit": units_table[name]}
                    for name, value in metrics.items()},
        "stats": stats,
        "errors": errors[:20],
    }


def _layer_metrics(records, plain, traced):
    counts = dict(traced[0]["counts"])
    out = {name: counts.get(name, 0) for name in COUNTS}
    ops = counts.get("sim.ops", 0)
    out["sim.events_per_op"] = _ratio(counts.get("sim.events", 0), ops)
    out["network.messages_per_op"] = _ratio(
        counts.get("network.messages", 0), ops)
    out["protocol.retry_ratio"] = _ratio(counts.get("protocol.retries", 0),
                                         counts.get("protocol.remote_misses",
                                                    0))
    out["protocol.update_useful_ratio"] = _ratio(
        counts.get("protocol.updates_consumed", 0),
        counts.get("protocol.updates_sent", 0))
    out["harness.jobs"] = _swept_runs(records[0])
    out["bench.trace_overhead"] = (
        statistics.median(_at_reference(u["wall_s"], u["reference_s"])
                          for u in traced)
        / statistics.median(_at_reference(u["wall_s"], u["reference_s"])
                            for u in plain) - 1.0)
    samples = _samples(records)
    total = sum(samples.values())
    traced_wall = sum(unit["wall_s"] for unit in traced)
    for layer in LAYERS + (OTHER,):
        out["%s.samples" % layer] = samples.get(layer, 0) / len(traced)
        out["%s.share" % layer] = 100.0 * _ratio(samples.get(layer, 0), total)
    for name in SPAN_NAMES:
        self_s = sum(record["span_self_s"].get(name, 0.0)
                     for record in records)
        out["span.%s.share" % name] = 100.0 * _ratio(self_s, traced_wall)
    return out


def _swept_runs(record):
    """Simulations the first traced call ran through ``SweepEngine``."""
    run = next(i for i, unit in enumerate(record["units"]) if unit["traced"])
    spans = record["spans"]

    def swept(index):
        while index is not None:
            if spans[index][0] == "harness.run_many":
                return True
            index = spans[index][3]
        return False

    return sum(1 for name, _, _, parent, span_run in spans
               if span_run == run and name == "sim.run" and swept(parent))


def run_workload(name, seed, seconds, trace, rounds, deadline,
                 trace_out=None, size="full"):
    # Half the set-up launches go before the measured rounds and half
    # after, so one slow stretch of the host cannot hold all of them.
    launches = 0 if trace else SETUP_LAUNCHES // 2
    setup = setup_times(name, seed, launches, deadline, size)
    records = [measure_in_child(name, seed, seconds, trace, deadline, size)
               for _ in range(rounds)]
    setup += setup_times(name, seed, launches, deadline, size)
    result = summarize(records, setup, trace)
    if trace and trace_out:
        from layers import write_chrome_trace

        spans = [[span_name, start, end, parent, "%d/%d" % (index, run)]
                 for index, record in enumerate(records)
                 for span_name, start, end, parent, run in record["spans"]]
        write_chrome_trace(trace_out, spans, _samples(records),
                           {"workload": name, "seed": seed,
                            "sampler_interval_s": 0.001})
    return result


def _describe(result):
    lines = ["%s  seed %d  %s  %d/%d failed  digest %s" % (
        result["workload"], result["seed"],
        "traced" if result["trace"] else "untraced", result["failed"],
        result["attempted"], result["sim_digest"][:16])]
    for name, metric in result["metrics"].items():
        line = "  %-34s %14.6g %-6s" % (name, metric["value"], metric["unit"])
        spread = result["stats"].get(name)
        if spread:
            line += "  median of %d  [min %.6g, max %.6g]" % (
                spread["n"], spread["min"], spread["max"])
        lines.append(line)
    lines.extend("  error: " + error.strip().splitlines()[-1]
                 for error in result["errors"])
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(suite.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one round measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="fresh child processes per workload")
    parser.add_argument("--json", metavar="OUT",
                        help="append each workload's full record to OUT")
    parser.add_argument("--trace-out", metavar="OUT",
                        help="Chrome-trace JSON of the traced round")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    if not os.path.isfile(os.path.join(REPRO, "__init__.py")):
        sys.stderr.write("run.py: no simulator sources at %s\n" % REPRO)
        return 2
    if args.rounds < 1 or args.seconds <= 0:
        parser.error("--rounds and --seconds must be positive")
    if args.trace_out and args.workload == "all":
        parser.error("--trace-out takes one workload")
    names = sorted(suite.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            seed = (args.seed if args.seed is not None
                    else suite.WORKLOADS[name].default_seed)
            result = run_workload(name, seed, args.seconds, args.trace,
                                  args.rounds, deadline, args.trace_out,
                                  args.size)
            print(_describe(result), flush=True)
            if args.json:
                with open(args.json, "a") as fileobj:
                    fileobj.write(json.dumps(result, sort_keys=True) + "\n")
            results.append(result)
    except BenchError as err:
        sys.stderr.write("run.py: %s\n" % err)
        return 2
    metrics = results[0]["metrics"] if len(results) == 1 else {
        "%s/%s" % (result["workload"], name): metric
        for result in results for name, metric in result["metrics"].items()}
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
