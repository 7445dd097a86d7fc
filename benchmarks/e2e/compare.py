#!/usr/bin/env python3
"""Judge a change against its parent from benchmark result files.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --json FILE`` appends, one line per
workload run.  Make them with the same benchmark code and seeds on both
sides, alternating which side runs first, at least ten pairs per workload;
the i-th parent run of a workload is paired with its i-th change run.

Each workload is compared only against its own runs.  One row per workload
and end-to-end metric gives both medians and quartiles, the bound from
``BENCHMARK.json`` and a verdict:

``gain``        the change wins at least 9 of every 10 pairs (ties count for
                neither) over at least 10 pairs, and the medians differ by
                more than the parent's interquartile range;
``regression``  the change's median is worse than the parent's by more than
                the bound;
``unresolved``  the run-to-run spread (interquartile range over median, the
                wider side) exceeds the bound, and not every change run reads
                better than every parent run;
``within``      otherwise.

Deterministic counts from traced runs and the ``sim_digest`` of every seed
must match exactly; a difference is reported as ``CHANGED``.  The exit code
is 1 when any row regressed or changed.
"""

import argparse
import json
import os
import statistics
import sys

from run import COUNTS, ROOT

#: Per-layer counts that depend only on the inputs.
EXACT = tuple(name for name in COUNTS if name != "bench.trace_overhead")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """The verdict for one metric, as ``(verdict, wins, pairs)``."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    median_p, median_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (median_c - median_p)
    spread = max((b - a) / abs(statistics.median(side))
                 for side in (parent, change)
                 for a, b in [quartiles(side)])
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "gain", wins, len(pairs)
    if -gain > bound * abs(median_p):
        return "regression", wins, len(pairs)
    if spread > bound and not all(sign * (c - p) > 0
                                  for c in change for p in parent):
        return "unresolved", wins, len(pairs)
    return "within", wins, len(pairs)


def load(path):
    with open(path) as fileobj:
        return [json.loads(line) for line in fileobj if line.strip()]


def _by_workload(records, trace):
    out = {}
    for record in records:
        if record["trace"] == trace:
            out.setdefault(record["workload"], []).append(record)
    return out


def compare(parent_records, change_records, end_to_end):
    """Rows of the comparison; ``end_to_end`` is BENCHMARK.json's list."""
    rows = []
    parent, change = (_by_workload(parent_records, 0),
                      _by_workload(change_records, 0))
    for workload in sorted(set(parent) & set(change)):
        for metric in end_to_end:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            result, wins, pairs = verdict(p, c, metric["better"],
                                          metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"],
                         "parent": (statistics.median(p),) + quartiles(p),
                         "change": (statistics.median(c),) + quartiles(c),
                         "wins": wins, "pairs": pairs, "verdict": result})
    return rows


def exact_changes(parent_records, change_records):
    """(workload, seed, what) for every deterministic value that differs."""
    def index(records):
        out = {}
        for record in records:
            key = (record["workload"], record["seed"])
            entry = out.setdefault(key, {"digest": set()})
            entry["digest"].add(record["sim_digest"])
            if record["trace"]:
                for name in EXACT:
                    entry.setdefault(name, set()).add(
                        record["metrics"][name]["value"])
        return out

    parent, change = index(parent_records), index(change_records)
    changes = []
    for key in sorted(set(parent) & set(change)):
        for what in sorted(set(parent[key]) & set(change[key])):
            if parent[key][what] != change[key][what]:
                changes.append(key + (what,))
    return changes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        end_to_end = json.load(fileobj)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    rows = compare(parent, change, end_to_end)
    print("%-9s %-12s %-32s %-32s %7s %5s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "bound", "wins", "verdict"))
    for row in rows:
        p, c = row["parent"], row["change"]
        print("%-9s %-12s %-32s %-32s %+6.1f%% %4.0f%% %6s  %s" % (
            row["workload"], row["metric"],
            "%.4g [%.4g, %.4g]" % p, "%.4g [%.4g, %.4g]" % c,
            100.0 * (c[0] - p[0]) / abs(p[0]), 100.0 * row["bound"],
            "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]))
    changes = exact_changes(parent, change)
    for workload, seed, what in changes:
        print("CHANGED  %s seed %d: %s" % (workload, seed, what))
    if not changes:
        print("digests and deterministic counts: same on every shared seed")
    failed = changes or any(row["verdict"] == "regression" for row in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
