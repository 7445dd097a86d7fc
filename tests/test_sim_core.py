"""Simulator core: processor, barrier manager, system run loop."""

import gc
from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.fuzz.runner import run_case
from repro.fuzz.scenarios import FuzzScenario
from repro.harness.runner import run_app
from repro.harness.scale import scale_runner
from repro.harness.sweep import SweepJob
from repro.sim import (
    Barrier,
    BarrierManager,
    Compute,
    Read,
    System,
    Write,
    count_ops,
)

LINE = 0x100000


class TestProcessor:
    def test_compute_advances_time(self, base4):
        res = System(base4).run([[Compute(500)]])
        assert res.cycles >= 500

    def test_ops_counted(self, base4):
        res = System(base4).run([[Compute(1), Compute(1), Compute(1)]])
        assert res.ops_executed == 3

    def test_generator_streams_supported(self, base4):
        def gen():
            for _ in range(5):
                yield Compute(10)
        res = System(base4).run([gen()])
        assert res.ops_executed == 5

    def test_unknown_op_rejected(self, base4):
        with pytest.raises(SimulationError):
            System(base4).run([["bogus"]])

    def test_addresses_aligned_to_lines(self, base4):
        """Two addresses on the same line hit the same cached line."""
        res = System(base4).run([[Read(LINE + 4), Read(LINE + 100)]],
                                placements=[(LINE, 128, 0)])
        assert res.stats.get("miss.read") == 1
        assert res.stats.get("hit.l1", 0) == 1

    def test_cpu_finish_times_recorded(self, base4):
        res = System(base4).run([[Compute(100)], [Compute(700)]])
        assert res.cpu_finish_times[0] < res.cpu_finish_times[1]


class TestBarrierManager:
    def test_release_after_all_arrive(self):
        events = EventQueue()
        manager = BarrierManager(events, participants=3, release_latency=10)
        released = []
        manager.arrive(0, 0, lambda: released.append(0))
        manager.arrive(1, 0, lambda: released.append(1))
        events.run()
        assert released == []
        manager.arrive(2, 0, lambda: released.append(2))
        events.run()
        assert sorted(released) == [0, 1, 2]

    def test_double_arrival_rejected(self):
        events = EventQueue()
        manager = BarrierManager(events, participants=3)
        manager.arrive(0, 0, lambda: None)
        with pytest.raises(SimulationError):
            manager.arrive(0, 0, lambda: None)

    def test_double_arrival_rejected_after_others_and_in_next_episode(self):
        """Release order is arrival order; the set of waiting nodes is
        cleared on release, so a node may arrive once per episode."""
        events = EventQueue()
        manager = BarrierManager(events, participants=3)
        released = []
        for node in (2, 0, 1):
            manager.arrive(node, 0, lambda node=node: released.append(node))
        events.run()
        assert released == [2, 0, 1]
        manager.arrive(1, 1, lambda: None)
        manager.arrive(0, 1, lambda: None)
        with pytest.raises(SimulationError, match="node 0 arrived twice"):
            manager.arrive(0, 1, lambda: None)
        assert manager.stalled_nodes == [1, 0]

    def test_mixed_barrier_ids_rejected(self):
        events = EventQueue()
        manager = BarrierManager(events, participants=3)
        manager.arrive(0, 0, lambda: None)
        with pytest.raises(SimulationError):
            manager.arrive(1, 7, lambda: None)

    def test_episodes_counted(self):
        events = EventQueue()
        manager = BarrierManager(events, participants=1)
        manager.arrive(0, 0, lambda: None)
        manager.arrive(0, 1, lambda: None)
        events.run()
        assert manager.episodes == 2

    def test_stalled_nodes_reported(self):
        events = EventQueue()
        manager = BarrierManager(events, participants=2)
        manager.arrive(0, 0, lambda: None)
        assert manager.stalled_nodes == [0]

    def test_zero_participants_rejected(self):
        with pytest.raises(SimulationError):
            BarrierManager(EventQueue(), participants=0)


class TestSystem:
    def test_single_use_enforced(self, base4):
        system = System(base4)
        system.run([[Compute(1)]])
        with pytest.raises(SimulationError):
            system.run([[Compute(1)]])

    def test_too_many_streams_rejected(self, base4):
        with pytest.raises(SimulationError):
            System(base4).run([[Compute(1)] for _ in range(5)])

    def test_empty_streams_rejected(self, base4):
        """No op streams at all is a usage error, reported as such."""
        with pytest.raises(SimulationError, match="per_cpu_ops is empty"):
            System(base4).run([])

    def test_stream_container_may_be_a_generator(self, base4):
        """per_cpu_ops itself may be a one-shot iterable, not just the
        individual streams."""
        res = System(base4).run(
            iter([[Compute(10)], (Compute(10) for _ in range(3))]))
        assert res.ops_executed == 4

    def test_empty_placements_means_default_homes(self, base4):
        """placements=[] behaves exactly like placements=None."""
        explicit = System(base4)
        explicit.run([[Read(LINE)]], placements=[])
        default = System(base4)
        default.run([[Read(LINE)]])
        assert (explicit.address_map.home_of(LINE)
                == default.address_map.home_of(LINE))

    def test_stall_detected(self, base4):
        """A CPU waiting on a barrier nobody else reaches is a stall."""
        with pytest.raises(SimulationError) as err:
            System(base4).run([[Barrier(0)], [Compute(5)]])
        assert "stalled" in str(err.value)

    def test_placements_applied(self, base4):
        system = System(base4)
        system.run([[Read(LINE)]], placements=[(LINE, 128, 2)])
        assert system.address_map.home_of(LINE) == 2

    def test_deterministic_across_runs(self, base4):
        def build():
            ops = []
            for cpu in range(4):
                stream = []
                for it in range(5):
                    stream.append(Write(LINE) if cpu == 1 else Compute(13))
                    stream.append(Barrier(2 * it))
                    if cpu != 1:
                        stream.append(Read(LINE))
                    stream.append(Barrier(2 * it + 1))
                ops.append(stream)
            return ops
        res1 = System(base4).run(build(), placements=[(LINE, 128, 0)])
        res2 = System(base4).run(build(), placements=[(LINE, 128, 0)])
        assert res1.cycles == res2.cycles
        assert res1.stats == res2.stats

    def test_events_processed_reported(self, base4):
        res = System(base4).run([[Read(LINE)]])
        assert res.events_processed > 0

    def test_stat_accessor_default(self, base4):
        res = System(base4).run([[Compute(1)]])
        assert res.stat("nonexistent") == 0


class TestClose:
    """The runners that read only plain results close their System, so a
    finished run leaves no cycle for the cyclic GC to walk."""

    @staticmethod
    def cyclic_garbage(call):
        call()  # first, so lazy module-level set-up is not counted
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    def test_run_app(self, small4):
        assert self.cyclic_garbage(
            lambda: run_app("em3d", small4, scale=0.02)) == 0

    def test_scale_runner(self):
        config = FuzzScenario.storm(0, num_nodes=8).config
        job = SweepJob(app="storm", config=config, seed=0, scale=0.1)
        assert self.cyclic_garbage(lambda: scale_runner(job)) == 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_run_case(self, seed):
        scenario = FuzzScenario.from_seed(seed, scale=0.2)
        assert self.cyclic_garbage(lambda: run_case(scenario)) == 0

    def test_run_case_failure(self):
        scenario = replace(FuzzScenario.from_seed(0, scale=0.2),
                           max_events=50)
        assert run_case(scenario).oracle == "termination"
        assert self.cyclic_garbage(lambda: run_case(scenario)) == 0

    def test_closed_twice(self, base4):
        with System(base4) as system:
            system.run([[Write(LINE)]])
        system.close()
        assert vars(system) == {}


class TestTraceHelpers:
    def test_count_ops(self):
        assert count_ops([Compute(1), Read(0), Write(0)]) == 3
