"""Python calls into ``src/repro`` per benchmark workload, pinned exactly.

``tools/calls_per_op.py`` counts, under cProfile, the calls one warm call
of each end-to-end workload makes into each layer of the package.  The
counts depend only on the source and the seed, so any change to the hot
path moves them: update the pins below in the change that moves them,
with its before/after table in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "calls_per_op.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("calls_per_op", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``{workload: ({layer: calls}, work)}`` at the benchmark's tiny size.
TINY = {
    "headline": ({"analysis": 846, "cache": 177925, "common": 10987,
                  "common.events": 36917, "directory": 46702,
                  "harness": 174, "network": 48719, "obs": 2074,
                  "protocol": 189417, "sim": 100830,
                  "sim.coherence_check": 40179, "workloads": 7338}, 32796),
    "storm256": ({"cache": 19542, "common": 1710, "common.events": 4134,
                  "directory": 4330, "fuzz": 8, "harness": 19,
                  "network": 8312, "obs": 516, "protocol": 28913,
                  "sim": 5520, "sim.coherence_check": 1282,
                  "workloads": 410}, 1600),
    "verify": ({"mc": 64127, "spec": 56906}, 3499),
    "fuzz": ({"cache": 27192, "common": 6642, "common.events": 6082,
              "directory": 7480, "fuzz": 219, "harness": 25, "mc": 2205,
              "network": 37396, "obs": 18327, "protocol": 32214,
              "sim": 9712, "sim.coherence_check": 2212,
              "workloads": 757}, 3168),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_counts(tool, name):
    calls, work = tool.count_calls(name, size="tiny")
    calls.pop(tool.OUTSIDE, None)
    assert (calls, work) == TINY[name]


def test_table_lists_every_layer_and_total(tool):
    calls = {"network": 30, "protocol": 10, tool.OUTSIDE: 5}
    lines = tool.table({"w": (calls, 10)}).splitlines()
    rows = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    assert rows["network"] == "3.00"
    assert rows["protocol"] == "1.00"
    assert rows["src/repro"] == "4.00"
    assert rows[tool.OUTSIDE] == "0.50"
    assert rows["work"] == "10"


def test_unknown_workload_exits_2(tool, capsys):
    assert tool.main(["nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err
