"""Property-based protocol fuzzing.

Hypothesis generates random multi-CPU workloads (reads, writes, compute,
barriers over a small set of shared lines) and runs them through the full
simulator with online coherence checking.  Any stale read, lost write,
livelock or protocol dead state fails the test — this is the highest-yield
test in the suite for protocol races.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import baseline, delegation_only, small
from repro.sim import Barrier, Compute, Read, System, Write

NUM_CPUS = 4
LINES = [0x100000 + i * 0x100000 for i in range(3)]

# One CPU's behaviour within an iteration: which line (if any) it writes,
# which lines it reads, and how much it computes.
cpu_phase = st.fixed_dictionaries({
    "write": st.one_of(st.none(), st.integers(0, len(LINES) - 1)),
    "reads": st.lists(st.integers(0, len(LINES) - 1), max_size=3),
    "compute": st.integers(0, 400),
})

workload_strategy = st.lists(  # iterations
    st.lists(cpu_phase, min_size=NUM_CPUS, max_size=NUM_CPUS),
    min_size=1, max_size=5,
)

home_strategy = st.lists(st.integers(0, NUM_CPUS - 1), min_size=len(LINES),
                         max_size=len(LINES))


def build_ops(iterations):
    ops = [[] for _ in range(NUM_CPUS)]
    bid = 0
    for phases in iterations:
        for cpu, phase in enumerate(phases):
            if phase["compute"]:
                ops[cpu].append(Compute(phase["compute"]))
            if phase["write"] is not None:
                ops[cpu].append(Write(LINES[phase["write"]]))
        for stream in ops:
            stream.append(Barrier(bid))
        bid += 1
        for cpu, phase in enumerate(phases):
            for line in phase["reads"]:
                ops[cpu].append(Read(LINES[line]))
        for stream in ops:
            stream.append(Barrier(bid))
        bid += 1
    return ops


def run_fuzz(config, iterations, homes):
    system = System(config, check_coherence=True)
    placements = [(line, 128, home) for line, home in zip(LINES, homes)]
    result = system.run(build_ops(iterations), placements=placements)
    assert result.cycles > 0
    return result


class TestFuzzBaseline:
    @given(workload_strategy, home_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_workloads_coherent(self, iterations, homes):
        run_fuzz(baseline(num_nodes=NUM_CPUS), iterations, homes)


class TestFuzzDelegation:
    @given(workload_strategy, home_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_workloads_coherent(self, iterations, homes):
        run_fuzz(delegation_only(num_nodes=NUM_CPUS), iterations, homes)


class TestFuzzUpdates:
    @given(workload_strategy, home_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_workloads_coherent(self, iterations, homes):
        run_fuzz(small(num_nodes=NUM_CPUS), iterations, homes)

    @given(workload_strategy, home_strategy,
           st.sampled_from([0, 5, 50, 500]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_intervention_delay_coherent(self, iterations, homes, delay):
        cfg = small(num_nodes=NUM_CPUS).with_protocol(
            intervention_delay=delay)
        run_fuzz(cfg, iterations, homes)


class TestCrossConfigEquivalence:
    @given(workload_strategy, home_strategy)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mechanisms_never_lose_work(self, iterations, homes):
        """All configurations execute the same ops (results differ only in
        timing/traffic, never in completed work)."""
        res_base = run_fuzz(baseline(num_nodes=NUM_CPUS), iterations, homes)
        res_enh = run_fuzz(small(num_nodes=NUM_CPUS), iterations, homes)
        assert res_base.ops_executed == res_enh.ops_executed
