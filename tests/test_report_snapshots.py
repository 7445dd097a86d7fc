"""Byte-for-byte snapshots of the ``repro scale``, ``repro arena`` and
``repro sweep`` reports.

The scale and arena goldens under ``tests/golden/`` were captured from
the CLI before the miss-latency histograms moved from the tracer into the
always-on run stats, so they pin the p50/p95 columns (and every other
cell) across that change.  The table3 sweep golden (``sweep``) was
captured before the sweep engine and the job service shared one worker
pool; the other eight artefacts' sweep goldens (``sweep_NAME``) before
the experiments shared one batch helper and one return shape.  The run
footer is matched apart from the report, against a pattern that leaves
out only its wall time; ``repro sweep --json`` is the sweep's
executed/cached accounting, so only its text is pinned.

To regenerate after an intended report change::

    PYTHONPATH=src python -c "import tests.test_report_snapshots as t; t.regenerate()"
"""

import contextlib
import io
import itertools
import json
import os
import re
import tempfile

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SNAPSHOTS = {
    "scale": ["scale", "--nodes", "16,64", "--formats", "full,limited:2",
              "--no-cache", "--jobs", "1"],
    "arena": ["arena", "--apps", "em3d", "--scale", "0.05", "--no-cache",
              "--jobs", "1"],
}

#: Every paper artefact's job count, all unique, at ``--scale 0.05``.
SWEEP_JOBS = {"table3": 7, "figure7": 42, "figure8": 21, "figure9": 56,
              "figure10": 8, "figure11": 8, "figure12": 8, "headline": 21,
              "delegation-only": 14}


def _sweep_snapshot(artefact):
    return "sweep" if artefact == "table3" else "sweep_" + artefact


SNAPSHOTS.update(
    (_sweep_snapshot(artefact),
     ["sweep", artefact, "--scale", "0.05", "--no-cache", "--jobs", "1"])
    for artefact in SWEEP_JOBS)

#: The reports whose whole ``--json`` document is pinned too.
JSON_DOCS = ("scale", "arena")

#: Each report's run footer; only the wall time varies between runs.
FOOTERS = {
    "scale": r"scale: 4 cells \(4 executed, 0 cached\), 1 workers, "
             r"\d+\.\d\ds",
    "arena": r"arena: 4 cells \(4 executed, 0 cached\), 1 workers, "
             r"\d+\.\d\ds",
}
FOOTERS.update(
    (_sweep_snapshot(artefact),
     r"sweep %s: %d jobs \(%d unique\), %d executed, 0 cached, "
     r"1 workers, \d+\.\d\ds" % (artefact, jobs, jobs, jobs))
    for artefact, jobs in SWEEP_JOBS.items())


def render(name, work_dir):
    """(text, json, footer) of one CLI report; json is None for reports
    whose ``--json`` output is not pinned."""
    argv = SNAPSHOTS[name]
    json_path = os.path.join(work_dir, name + ".json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--json", json_path]) == 0
    # The report proper ends at the blank line before the run footer,
    # which starts with the command words ("sweep table3: ...").
    command = " ".join(itertools.takewhile(
        lambda arg: not arg.startswith("-"), argv))
    text, footer = stdout.getvalue().rsplit("\n\n%s: " % command, 1)
    footer = "%s: %s" % (command, footer.split("\n", 1)[0])
    if name not in JSON_DOCS:
        return text + "\n", None, footer
    with open(json_path) as fileobj:
        doc = json.load(fileobj)
    return (text + "\n", json.dumps(doc, indent=2, sort_keys=True) + "\n",
            footer)


def golden_paths(name):
    base = os.path.join(GOLDEN_DIR, "%s_snapshot" % name)
    return base + ".txt", base + ".json"


def regenerate():
    with tempfile.TemporaryDirectory() as work_dir:
        for name in SNAPSHOTS:
            for path, body in zip(golden_paths(name),
                                  render(name, work_dir)[:2]):
                if body is not None:
                    with open(path, "w") as fileobj:
                        fileobj.write(body)


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_report_matches_snapshot(name, tmp_path):
    text, doc, footer = render(name, str(tmp_path))
    assert re.fullmatch(FOOTERS[name], footer), footer
    text_path, json_path = golden_paths(name)
    with open(text_path) as fileobj:
        assert text == fileobj.read()
    if doc is not None:
        with open(json_path) as fileobj:
            assert doc == fileobj.read()
