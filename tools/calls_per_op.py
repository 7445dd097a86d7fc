#!/usr/bin/env python
"""Python calls per op, by layer, for the end-to-end benchmark's workloads.

    python tools/calls_per_op.py [WORKLOAD ...]

For each workload of ``benchmarks/e2e/suite.py`` (all four by default, at
the benchmark's full size and default seed) this makes one warm-up call,
then one call under ``cProfile``.  Every profiled function defined under
``src/repro`` is folded into the benchmark's layers by
``benchmarks/e2e/layers.py``'s :func:`layer_of`, and the table gives
calls per op: per trace op for the simulator workloads, per model state
for ``verify``.

The counts are deterministic: the same source and seed give the same
table, so a change of a few percent shows where ``--trace 1``'s wall-clock
samples cannot resolve it.  They omit the time each call takes, so they
support a claim as counts, never as a speed-up.

Two kinds of frames are left out of the ``src/repro`` counts because
their number depends on the Python version: comprehension frames
(``<listcomp>``, ``<dictcomp>``, ``<setcomp>``; Python 3.12 inlines them)
and everything outside the package (the stdlib and builtins), which the
table prints as ``outside`` for reference only.
"""

import cProfile
import os
import pstats
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

import suite  # noqa: E402
from layers import LAYERS, RunLog, layer_of  # noqa: E402

#: Frames Python 3.12 inlines into their caller (PEP 709).
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: The row for calls into code outside ``src/repro``.
OUTSIDE = "outside"


def fold(stats, repro_dir=REPRO):
    """``{layer: calls}`` from a ``pstats.Stats`` table.

    Calls into ``repro_dir`` go to their layer; every other call, builtins
    included, goes to :data:`OUTSIDE`.  Comprehension frames are dropped.
    """
    prefix = os.path.realpath(repro_dir) + os.sep
    calls = {}
    for (filename, _line, name), (_, total, *_rest) in stats.stats.items():
        if name in INLINED:
            continue
        path = os.path.realpath(filename) if filename != "~" else filename
        layer = (layer_of(path[len(prefix):])
                 if path.startswith(prefix) else None)
        key = layer or OUTSIDE
        calls[key] = calls.get(key, 0) + total
    return calls


def count_calls(name, size="full", seed=None):
    """One warm-up call of workload ``name``, then one profiled call.

    Returns ``(calls, work)``: :func:`fold`'s table for the profiled call
    and its work (trace ops, or model states for ``verify``).
    """
    workload = suite.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    scratch = tempfile.mkdtemp(prefix="calls-%s-" % name)
    try:
        state = workload.setup(seed, size, scratch)
        with RunLog() as log:
            workload.unit(state, log)
        profile = cProfile.Profile()
        with RunLog() as log:
            profile.enable()
            unit = workload.unit(state, log)
            profile.disable()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if unit.errors:
        raise RuntimeError("%s failed: %s" % (name, unit.errors[0]))
    return fold(pstats.Stats(profile)), unit.work


def table(results):
    """Text table of calls per op: one column per workload."""
    names = list(results)
    rows = [layer for layer in LAYERS
            if any(layer in calls for calls, _ in results.values())]
    lines = ["%-22s" % "calls per op" + "".join("%12s" % n for n in names)]
    for layer in rows:
        lines.append("%-22s" % layer + "".join(
            "%12.2f" % (calls.get(layer, 0) / work)
            for calls, work in results.values()))
    totals = [sum(v for k, v in calls.items() if k != OUTSIDE) / work
              for calls, work in results.values()]
    lines.append("%-22s" % "src/repro total"
                 + "".join("%12.2f" % t for t in totals))
    lines.append("%-22s" % (OUTSIDE + " (not pinned)") + "".join(
        "%12.2f" % (calls.get(OUTSIDE, 0) / work)
        for calls, work in results.values()))
    lines.append("%-22s" % "work (ops or states)"
                 + "".join("%12d" % work for _, work in results.values()))
    return "\n".join(lines)


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or list(
        suite.WORKLOADS)
    unknown = [n for n in names if n not in suite.WORKLOADS]
    if unknown:
        sys.stderr.write("calls_per_op: unknown workload(s) %s; choose from "
                         "%s\n" % (", ".join(unknown),
                                   ", ".join(suite.WORKLOADS)))
        return 2
    print(table({name: count_calls(name) for name in names}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
