"""The online coherence / SC checker itself."""

import pytest

from repro.common.errors import CoherenceViolation
from repro.sim import System
from repro.sim.coherence_check import CoherenceChecker


@pytest.fixture
def checker(base4):
    return CoherenceChecker(System(base4, check_coherence=False))


class TestReadLegality:
    def test_initial_zero_is_legal(self, checker):
        checker.record_read(0, 0x100, 0, t_start=10, t_complete=20)

    def test_nonzero_from_unwritten_line_illegal(self, checker):
        with pytest.raises(CoherenceViolation):
            checker.record_read(0, 0x100, 5, t_start=10, t_complete=20)

    def test_latest_write_before_start_legal(self, checker):
        checker.record_write(1, 0x100, 7, t_start=0, t_complete=5)
        checker.record_read(0, 0x100, 7, t_start=10, t_complete=20)

    def test_stale_value_illegal(self, checker):
        checker.record_write(1, 0x100, 7, t_start=0, t_complete=5)
        checker.record_write(1, 0x100, 8, t_start=6, t_complete=9)
        with pytest.raises(CoherenceViolation):
            checker.record_read(0, 0x100, 7, t_start=10, t_complete=20)

    def test_overlapping_write_either_value_legal(self, checker):
        checker.record_write(1, 0x100, 7, t_start=0, t_complete=5)
        checker.record_write(1, 0x100, 8, t_start=12, t_complete=15)
        # Read window [10, 20] overlaps write completing at 15.
        checker.record_read(0, 0x100, 7, t_start=10, t_complete=20)
        checker.record_read(0, 0x100, 8, t_start=10, t_complete=20)

    def test_future_write_value_illegal(self, checker):
        checker.record_write(1, 0x100, 7, t_start=0, t_complete=5)
        checker.record_write(1, 0x100, 8, t_start=30, t_complete=35)
        with pytest.raises(CoherenceViolation):
            checker.record_read(0, 0x100, 8, t_start=10, t_complete=20)

    def test_lines_are_independent(self, checker):
        checker.record_write(1, 0x100, 7, t_start=0, t_complete=5)
        checker.record_read(0, 0x200, 0, t_start=10, t_complete=20)

    def test_counters(self, checker):
        checker.record_write(1, 0x100, 7, 0, 5)
        checker.record_read(0, 0x100, 7, 10, 20)
        assert checker.writes_checked == 1
        assert checker.reads_checked == 1

    def test_version_numbers_unique(self, checker):
        versions = {checker.next_version() for _ in range(100)}
        assert len(versions) == 100


class TestSingleWriterInvariant:
    def test_concurrent_writable_copies_detected(self, base4):
        """Hand-corrupt a second hub's cache to trip the invariant."""
        from repro.cache import LineState
        system = System(base4, check_coherence=True)
        system.hubs[2].hierarchy.fill(0x100000, LineState.MODIFIED, 1)
        with pytest.raises(CoherenceViolation):
            system.checker.record_write(1, 0x100000, 5, 0, 10)

    def test_single_writer_ok(self, base4):
        system = System(base4, check_coherence=True)
        system.checker.record_write(1, 0x100000, 5, 0, 10)  # no copies


class TestEndToEnd:
    def test_full_runs_pass_under_checking(self, base4):
        """Integration sanity: a mixed workload runs with checking on."""
        from repro.sim import Barrier, Compute, Read, Write
        LINE = 0x100000
        ops = []
        for cpu in range(4):
            stream = []
            for it in range(8):
                if cpu == it % 4:
                    stream.append(Write(LINE))
                stream.append(Barrier(2 * it))
                stream.append(Compute(50))
                stream.append(Read(LINE))
                stream.append(Barrier(2 * it + 1))
            ops.append(stream)
        res = System(base4).run(ops, placements=[(LINE, 128, 1)])
        assert res.cycles > 0
