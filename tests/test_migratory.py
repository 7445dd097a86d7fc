"""Migratory sharing: the pattern the detector must refuse (refs [10,32])."""

import pytest

from repro.common import ConfigError, baseline, small
from repro.sim import Read, System, Write
from repro.workloads.migratory import migratory


class TestGenerator:
    def test_builds(self):
        build = migratory(lines=4, iterations=5, num_cpus=4).build()
        assert len(build.per_cpu_ops) == 4
        assert build.total_ops > 0

    def test_every_line_written_by_every_cpu(self):
        build = migratory(lines=2, iterations=8, num_cpus=4).build()
        writers = {}
        for cpu, ops in enumerate(build.per_cpu_ops):
            for op in ops:
                if isinstance(op, Write):
                    writers.setdefault(op.addr, set()).add(cpu)
        assert all(w == {0, 1, 2, 3} for w in writers.values())

    def test_read_precedes_write(self):
        """Migratory access is read-modify-write."""
        build = migratory(lines=1, iterations=4, num_cpus=4).build()
        for ops in build.per_cpu_ops:
            mem = [op for op in ops if isinstance(op, (Read, Write))]
            for read, write in zip(mem[::2], mem[1::2]):
                assert isinstance(read, Read)
                assert isinstance(write, Write)
                assert read.addr == write.addr

    def test_needs_two_cpus(self):
        with pytest.raises(ConfigError):
            migratory(num_cpus=1)

    def test_deterministic(self):
        a = migratory(num_cpus=4, seed=5).build()
        b = migratory(num_cpus=4, seed=5).build()
        assert a.per_cpu_ops == b.per_cpu_ops


class TestDetectorRefusesMigratory:
    def run(self, config):
        build = migratory(lines=6, iterations=8, num_cpus=4).build()
        system = System(config)
        return system.run(build.per_cpu_ops, placements=build.placements)

    def test_no_lines_marked_producer_consumer(self):
        result = self.run(small(num_nodes=4))
        assert result.stats.get("detector.marked", 0) == 0

    def test_no_delegations_no_updates(self):
        result = self.run(small(num_nodes=4))
        assert result.stats.get("dele.delegate", 0) == 0
        assert result.stats.get("update.sent", 0) == 0

    def test_mechanisms_do_not_hurt_migratory_apps(self):
        """With nothing detected, the enhanced system must track the
        baseline closely — no delegation ping-pong tax."""
        base = self.run(baseline(num_nodes=4))
        enh = self.run(small(num_nodes=4))
        assert abs(enh.cycles - base.cycles) / base.cycles < 0.02

    def test_runs_coherently(self):
        result = self.run(small(num_nodes=4))  # online checker active
        assert result.cycles > 0
