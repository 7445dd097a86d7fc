"""Static (build-time) verification of each app's sharing signature.

These analyse generated traces without running the simulator: consumer
distributions against Table 3, single-writer discipline, capacity
pressure arithmetic for the MG/Appbt stories, and Em3D's flurry shape.
"""

import pytest

from repro.sim import Read, Write
from repro.workloads import application_names, get_workload
from repro.workloads.registry import APPLICATIONS


def consumers_per_line(build):
    """addr -> set of CPUs that read it (shared PC lines only)."""
    readers = {}
    for cpu, ops in enumerate(build.per_cpu_ops):
        for op in ops:
            if isinstance(op, Read) and op.addr in build.shared_lines:
                if cpu != build.shared_lines[op.addr]:
                    readers.setdefault(op.addr, set()).add(cpu)
    return readers


def writers_per_line(build):
    writers = {}
    for cpu, ops in enumerate(build.per_cpu_ops):
        for op in ops:
            if isinstance(op, Write):
                writers.setdefault(op.addr, set()).add(cpu)
    return writers


def distribution(build):
    """Consumer-count histogram over PC lines, as percentages."""
    readers = consumers_per_line(build)
    buckets = {"1": 0, "2": 0, "3": 0, "4": 0, "4+": 0}
    for consumers in readers.values():
        count = len(consumers)
        buckets[str(count) if count <= 4 else "4+"] += 1
    total = sum(buckets.values()) or 1
    return {k: 100.0 * v / total for k, v in buckets.items()}


@pytest.fixture(scope="module")
def builds():
    return {app: get_workload(app).build() for app in application_names()}


class TestTable3Signatures:
    """The generated traces match the paper's dominant buckets."""

    def test_barnes_many_consumers(self, builds):
        dist = distribution(builds["barnes"])
        assert dist["4+"] > 45

    def test_ocean_single_consumer(self, builds):
        dist = distribution(builds["ocean"])
        assert dist["1"] > 90

    def test_em3d_one_or_two(self, builds):
        dist = distribution(builds["em3d"])
        assert dist["1"] + dist["2"] > 85

    def test_lu_single_consumer(self, builds):
        dist = distribution(builds["lu"])
        assert dist["1"] > 95

    def test_cg_reductions_read_by_many(self, builds):
        # Exclude the deliberate false-sharing lines (two writers).
        build = builds["cg"]
        writers = writers_per_line(build)
        readers = consumers_per_line(build)
        pc_lines = [a for a, w in writers.items()
                    if len(w) == 1 and a in readers]
        many = sum(1 for a in pc_lines if len(readers[a]) >= 5)
        assert many / max(len(pc_lines), 1) > 0.8

    def test_mg_mostly_single(self, builds):
        # The static union over the whole run overcounts consumers for
        # churned apps (Table 3 measures per-write episodes; the dynamic
        # detector histogram in test_paper_claims matches the paper's 78%).
        dist = distribution(builds["mg"])
        assert dist["1"] > 40
        assert dist["1"] == max(dist.values())  # still the dominant bucket

    def test_appbt_many_consumers(self, builds):
        dist = distribution(builds["appbt"])
        assert dist["4+"] > 75


class TestCapacityArithmetic:
    """The capacity stories are structural facts of the traces."""

    def test_mg_exceeds_32_entry_delegate_cache(self, builds):
        """Delegated lines per producer must exceed the small table."""
        build = builds["mg"]
        # Lines homed away from their producer are the delegation
        # candidates; count them per producer.
        homes = {start: home for start, _l, home in build.placements}
        per_producer = {}
        for addr, producer in build.shared_lines.items():
            if homes.get(addr) != producer:
                per_producer[producer] = per_producer.get(producer, 0) + 1
        assert max(per_producer.values()) > 32

    def test_appbt_exceeds_32kb_rac_per_consumer(self, builds):
        """Per-consumer update volume must exceed 256 RAC lines."""
        readers = consumers_per_line(builds["appbt"])
        per_consumer = {}
        for addr, consumers in readers.items():
            for consumer in consumers:
                per_consumer[consumer] = per_consumer.get(consumer, 0) + 1
        assert max(per_consumer.values()) > 256

    def test_barnes_fits_neither_story_fully(self, builds):
        """Barnes has mild RAC pressure (its small->large gap) but fits
        the delegate cache comfortably... or thrashes mildly."""
        readers = consumers_per_line(builds["barnes"])
        per_consumer = {}
        for addr, consumers in readers.items():
            for consumer in consumers:
                per_consumer[consumer] = per_consumer.get(consumer, 0) + 1
        assert max(per_consumer.values()) > 200  # near the 256-line edge


class TestFlurry:
    def test_em3d_hot_lines_read_by_everyone(self, builds):
        build = builds["em3d"]
        readers = consumers_per_line(build)
        full_fanout = [addr for addr, c in readers.items() if len(c) >= 15]
        assert len(full_fanout) >= APPLICATIONS["em3d"].SPEC.hot_lines

    def test_hot_lines_homed_away_from_writer(self, builds):
        build = builds["em3d"]
        homes = {start: home for start, _l, home in build.placements}
        readers = consumers_per_line(build)
        for addr, consumers in readers.items():
            if len(consumers) >= 15:  # a hot line
                assert homes[addr] != build.shared_lines[addr]


class TestWriterDiscipline:
    @pytest.mark.parametrize("app", ["barnes", "ocean", "em3d", "lu", "mg",
                                     "appbt"])
    def test_pc_lines_have_exactly_one_writer(self, builds, app):
        writers = writers_per_line(builds[app])
        shared = builds[app].shared_lines
        for addr, writer_set in writers.items():
            if addr in shared:
                assert len(writer_set) == 1, (app, hex(addr))
