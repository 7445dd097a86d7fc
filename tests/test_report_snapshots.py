"""Byte-for-byte snapshots of the ``repro scale``, ``repro arena`` and
``repro sweep`` reports.

The scale and arena goldens under ``tests/golden/`` were captured from
the CLI before the miss-latency histograms moved from the tracer into the
always-on run stats, so they pin the p50/p95 columns (and every other
cell) across that change.  The sweep golden was captured before the
sweep engine and the job service shared one worker pool.  Only the
run-dependent footer (wall time, worker count) and the scale record's
timing envelope are left out; ``repro sweep --json`` is a timing record,
so only its text is pinned.

To regenerate after an intended report change::

    PYTHONPATH=src python -c "import tests.test_report_snapshots as t; t.regenerate()"
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SNAPSHOTS = {
    "scale": ["scale", "--nodes", "16,64", "--formats", "full,limited:2",
              "--no-cache", "--jobs", "1"],
    "arena": ["arena", "--apps", "em3d", "--scale", "0.05", "--no-cache",
              "--jobs", "1"],
    "sweep": ["sweep", "table3", "--scale", "0.05", "--no-cache",
              "--jobs", "1"],
}

#: The part of each ``--json`` document that is pinned (None: text only).
JSON_DOCS = {
    "scale": lambda doc: doc["scale"],  # drop the timing/machine envelope
    "arena": lambda doc: doc,
}


def render(name, work_dir):
    """(text, json) snapshot documents of one CLI report; json is None
    for reports whose ``--json`` output is not pinned."""
    argv = SNAPSHOTS[name]
    json_path = os.path.join(work_dir, name + ".json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--json", json_path]) == 0
    # The report proper ends at the blank line before the run footer,
    # which starts with the command words ("sweep table3: ...").
    command = " ".join(itertools.takewhile(
        lambda arg: not arg.startswith("-"), argv))
    text = stdout.getvalue().rsplit("\n\n%s: " % command, 1)[0] + "\n"
    if name not in JSON_DOCS:
        return text, None
    with open(json_path) as fileobj:
        doc = JSON_DOCS[name](json.load(fileobj))
    return text, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def golden_paths(name):
    base = os.path.join(GOLDEN_DIR, "%s_snapshot" % name)
    return base + ".txt", base + ".json"


def regenerate():
    with tempfile.TemporaryDirectory() as work_dir:
        for name in SNAPSHOTS:
            for path, body in zip(golden_paths(name), render(name, work_dir)):
                if body is not None:
                    with open(path, "w") as fileobj:
                        fileobj.write(body)


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_report_matches_snapshot(name, tmp_path):
    text, doc = render(name, str(tmp_path))
    text_path, json_path = golden_paths(name)
    with open(text_path) as fileobj:
        assert text == fileobj.read()
    if doc is not None:
        with open(json_path) as fileobj:
            assert doc == fileobj.read()
