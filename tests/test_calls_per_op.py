"""Python calls into ``src/repro`` per benchmark workload, pinned exactly.

``tools/calls_per_op.py`` counts, under cProfile, the calls one warm call
of each end-to-end workload makes into each layer of the package.  The
counts depend only on the source and the seed, so any change to the hot
path moves them: update the pins below in the change that moves them,
with its before/after table in CHANGES.md.

The same counts, taken for one chaos scenario with and without a tracer,
pin the cost of tracing as an exact ratio with an upper bound.
"""

import cProfile
import importlib.util
import pstats
from pathlib import Path

import pytest

from repro.fuzz.runner import build_workload
from repro.fuzz.scenarios import FuzzScenario
from repro.obs import TraceConfig, Tracer
from repro.sim import System

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
    "fuzz": ({"cache": 27192, "common": 2003, "common.events": 6082,
              "directory": 7480, "fuzz": 219, "harness": 25, "mc": 2205,
              "network": 22102, "obs": 7898, "protocol": 32214,
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


# -- tracing overhead ------------------------------------------------------

#: The fixed chaos scenario: fuzz seed 10 at scale 0.25, whose policy
#: jitters, duplicates and force-NACKs messages.
OVERHEAD_SCENARIO = (10, 0.25)

#: ``src/repro`` calls by layer for one warm run of that scenario through
#: ``System``, with a non-capturing ``Tracer`` (the fuzz runner's) and with
#: none.
OVERHEAD_CALLS = {
    "traced": {"cache": 2238, "common": 286, "common.events": 545,
               "directory": 666, "network": 2087, "obs": 920,
               "protocol": 3426, "sim": 522, "sim.coherence_check": 197},
    "untraced": {"cache": 2238, "common": 286, "common.events": 544,
                 "directory": 666, "network": 2087, "obs": 200,
                 "protocol": 3426, "sim": 522, "sim.coherence_check": 197},
}

#: Upper bound on traced / untraced calls; the pins above give 1.071.
#: Tracer hooks that cannot act (per-send message capture when it is off,
#: filters and sampling when none is set) cost no frames, so what is left
#: is about one frame per span or event recorded.  With those hooks
#: called on every message and miss, the ratio was 1.141.
TRACING_OVERHEAD_BOUND = 1.10


def scenario_calls(tool, scenario, build, tracer):
    profile = cProfile.Profile()
    profile.enable()
    with System(scenario.config, check_coherence=True, tracer=tracer,
                chaos=scenario.chaos) as system:
        system.run(build.per_cpu_ops, placements=build.placements,
                   max_cycles=scenario.max_cycles,
                   max_events=scenario.max_events)
    profile.disable()
    calls = tool.fold(pstats.Stats(profile))
    calls.pop(tool.OUTSIDE, None)
    return calls


def test_tracing_overhead_is_pinned_and_bounded(tool):
    seed, scale = OVERHEAD_SCENARIO
    scenario = FuzzScenario.from_seed(seed, scale=scale)
    build = build_workload(scenario)
    scenario_calls(tool, scenario, build, None)  # warm-up: caches fill
    traced = scenario_calls(tool, scenario, build,
                            Tracer(TraceConfig(capture_messages=False)))
    untraced = scenario_calls(tool, scenario, build, None)
    assert {"traced": traced, "untraced": untraced} == OVERHEAD_CALLS
    ratio = sum(traced.values()) / sum(untraced.values())
    assert ratio < TRACING_OVERHEAD_BOUND
