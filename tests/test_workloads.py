"""Workload generators: structure, determinism, sharing signatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigError
from repro.sim import Barrier, Compute, Read, Write
from repro.workloads import (
    APPLICATIONS,
    ConsumerProfile,
    PCWorkloadSpec,
    application_names,
    get_workload,
    synthetic,
)
from repro.workloads.base import LINE_STRIDE
from repro.workloads.registry import get_workload as registry_get


class TestRegistry:
    def test_seven_applications(self):
        assert application_names() == ["barnes", "ocean", "em3d", "lu",
                                       "cg", "mg", "appbt"]

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            registry_get("linpack")

    @pytest.mark.parametrize("app", application_names())
    def test_every_app_builds(self, app):
        build = get_workload(app, scale=0.2).build()
        assert len(build.per_cpu_ops) == 16
        assert build.total_ops > 0
        assert build.placements

    @pytest.mark.parametrize("app", application_names())
    def test_problem_sizes_documented(self, app):
        assert APPLICATIONS[app].PROBLEM_SIZE  # Table 2 metadata


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = get_workload("barnes", seed=7, scale=0.2).build()
        b = get_workload("barnes", seed=7, scale=0.2).build()
        assert a.per_cpu_ops == b.per_cpu_ops
        assert a.placements == b.placements

    def test_different_seed_different_trace(self):
        a = get_workload("barnes", seed=7, scale=0.2).build()
        b = get_workload("barnes", seed=8, scale=0.2).build()
        assert a.per_cpu_ops != b.per_cpu_ops


class TestStructure:
    def test_barriers_aligned_across_cpus(self):
        build = get_workload("ocean", scale=0.2).build()
        barrier_seqs = [
            [op.bid for op in ops if isinstance(op, Barrier)]
            for ops in build.per_cpu_ops
        ]
        assert all(seq == barrier_seqs[0] for seq in barrier_seqs)

    def test_each_shared_line_has_single_writer(self):
        build = get_workload("lu", scale=0.3).build()
        writers = {}
        for cpu, ops in enumerate(build.per_cpu_ops):
            for op in ops:
                if isinstance(op, Write) and op.addr in build.shared_lines:
                    writers.setdefault(op.addr, set()).add(cpu)
        # LU has no false-sharing lines: exactly one writer per line.
        assert all(len(w) == 1 for w in writers.values())

    def test_cg_false_sharing_lines_have_two_writers(self):
        build = get_workload("cg", scale=0.5).build()
        writers = {}
        for cpu, ops in enumerate(build.per_cpu_ops):
            for op in ops:
                if isinstance(op, Write):
                    writers.setdefault(op.addr, set()).add(cpu)
        assert any(len(w) == 2 for w in writers.values())

    def test_placements_cover_shared_lines(self):
        build = get_workload("mg", scale=0.2).build()
        placed = {start for start, _len, _home in build.placements}
        assert set(build.shared_lines).issubset(placed)

    def test_region_stagger_spreads_cache_sets(self):
        """Regions must not all alias to the same cache sets."""
        from repro.workloads.regions import region_base
        sets = {(region_base(r) // 128) % 4096 for r in range(16)}
        assert len(sets) >= 12

    def test_line_stride_spans_pages(self):
        from repro.directory.placement import PAGE_SIZE
        assert LINE_STRIDE > PAGE_SIZE


class TestConsumerProfile:
    def test_fixed_profile(self):
        import random
        profile = ConsumerProfile(((2, 1.0),))
        assert profile.sample(random.Random(0), 15) == 2

    def test_four_plus_bucket_samples_five_or_more(self):
        import random
        profile = ConsumerProfile(((5, 1.0),))
        rng = random.Random(0)
        for _ in range(50):
            assert profile.sample(rng, 15) >= 5

    def test_capped_by_available(self):
        import random
        profile = ConsumerProfile(((5, 1.0),))
        assert profile.sample(random.Random(0), 3) == 3

    def test_distribution_roughly_matches_weights(self):
        import random
        profile = ConsumerProfile(((1, 80.0), (2, 20.0)))
        rng = random.Random(42)
        samples = [profile.sample(rng, 15) for _ in range(2000)]
        share_one = samples.count(1) / len(samples)
        assert 0.74 < share_one < 0.86


class TestSynthetic:
    def test_synthetic_builds(self):
        build = synthetic(iterations=4, lines_per_producer=2,
                          num_cpus=4).build()
        assert len(build.per_cpu_ops) == 4

    def test_consumer_count_respected(self):
        build = synthetic(iterations=2, lines_per_producer=2, consumers=3,
                          num_cpus=8, home_random_prob=0.0).build()
        readers = {}
        for cpu, ops in enumerate(build.per_cpu_ops):
            for op in ops:
                if isinstance(op, Read) and op.addr in build.shared_lines:
                    readers.setdefault(op.addr, set()).add(cpu)
        assert all(len(r) == 3 for r in readers.values())

    def test_profile_accepted(self):
        profile = ConsumerProfile(((1, 50.0), (2, 50.0)))
        build = synthetic(consumers=profile, num_cpus=8, iterations=2).build()
        assert build.total_ops > 0

    def test_needs_two_cpus(self):
        with pytest.raises(ConfigError):
            synthetic(num_cpus=1)


class TestScaling:
    def test_scale_reduces_ops(self):
        full = get_workload("em3d", scale=1.0).build()
        scaled = get_workload("em3d", scale=0.25).build()
        assert scaled.total_ops < full.total_ops

    def test_scale_keeps_minimums(self):
        spec = PCWorkloadSpec(name="t", iterations=10, lines_per_producer=2)
        tiny = spec.scaled(0.01)
        assert tiny.iterations >= 4
        assert tiny.lines_per_producer >= 1

    def test_scale_one_is_identity(self):
        spec = PCWorkloadSpec(name="t")
        assert spec.scaled(1.0) is spec


class TestProperties:
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_seeds_and_sizes_build(self, cpus, seed):
        build = synthetic(iterations=2, lines_per_producer=1,
                          consumers=1, num_cpus=cpus, seed=seed).build()
        assert len(build.per_cpu_ops) == cpus
        for ops in build.per_cpu_ops:
            for op in ops:
                assert isinstance(op, (Read, Write, Compute, Barrier))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_home_random_prob_valid_placements(self, prob):
        build = synthetic(iterations=2, lines_per_producer=2,
                          home_random_prob=prob, num_cpus=4).build()
        for _start, _length, home in build.placements:
            assert 0 <= home < 4
