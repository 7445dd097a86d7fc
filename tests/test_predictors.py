"""Alternative predictors (§5 future work) and detector aggressiveness."""

import pytest

from repro.common import ConfigError, ProtocolConfig, Stats, small
from repro.protocol.detector import ProducerConsumerDetector
from repro.protocol.predictors import (
    DETECTOR_KINDS,
    MultiWriterDetector,
    MultiWriterEntry,
    make_detector,
)
from repro.sim import Barrier, Compute, Read, System, Write

LINE = 0x100000


def cfg(**kwargs):
    return ProtocolConfig(enable_rac=True, enable_delegation=True, **kwargs)


class TestFactory:
    def test_simple_by_default(self):
        detector = make_detector(cfg(), Stats())
        assert type(detector) is ProducerConsumerDetector

    def test_multiwriter_selectable(self):
        detector = make_detector(cfg(detector_kind="multiwriter"), Stats())
        assert isinstance(detector, MultiWriterDetector)

    def test_bad_kind_rejected_by_config(self):
        with pytest.raises(ConfigError):
            cfg(detector_kind="oracle")

    def test_kinds_registry(self):
        assert set(DETECTOR_KINDS) == {"simple", "multiwriter"}

    def test_entry_types_match(self):
        simple = make_detector(cfg(), Stats())
        multi = make_detector(cfg(detector_kind="multiwriter"), Stats())
        assert type(simple.new_entry(0)).__name__ == "DetectorEntry"
        assert isinstance(multi.new_entry(0), MultiWriterEntry)


class TestMultiWriterDetection:
    def drive(self, detector, entry, writers, rounds):
        marked = False
        for i in range(rounds):
            writer = writers[i % len(writers)]
            marked |= detector.observe_write(entry, writer,
                                             distinct_readers=1)
            detector.observe_read(entry, 14, already_sharer=False)
        return marked

    def test_two_alternating_writers_detected(self):
        detector = MultiWriterDetector(cfg(), Stats())
        entry = detector.new_entry(0)
        assert self.drive(detector, entry, writers=[1, 2], rounds=12)
        assert entry.marked_pc

    def test_simple_detector_never_marks_two_writers(self):
        detector = ProducerConsumerDetector(cfg(), Stats())
        entry = detector.new_entry(0)
        marked = False
        for i in range(12):
            marked |= detector.observe_write(entry, 1 + (i % 2),
                                             distinct_readers=1)
            detector.observe_read(entry, 14, already_sharer=False)
        assert not marked

    def test_single_writer_still_detected(self):
        detector = MultiWriterDetector(cfg(), Stats())
        entry = detector.new_entry(0)
        assert self.drive(detector, entry, writers=[3], rounds=6)

    def test_three_writers_overflow_resets(self):
        detector = MultiWriterDetector(cfg(), Stats(), max_writers=2)
        entry = detector.new_entry(0)
        assert not self.drive(detector, entry, writers=[1, 2, 3], rounds=18)
        assert not entry.marked_pc

    def test_writer_set_bounded(self):
        detector = MultiWriterDetector(cfg(), Stats(), max_writers=2)
        entry = detector.new_entry(0)
        self.drive(detector, entry, writers=[1, 2, 3, 4], rounds=20)
        assert len(entry.writer_set) <= 2


class TestAggressivenessKnob:
    def test_one_bit_threshold_marks_after_single_repeat(self):
        detector = ProducerConsumerDetector(cfg(write_repeat_bits=1),
                                            Stats())
        entry = detector.new_entry(0)
        detector.observe_write(entry, 1, distinct_readers=0)
        detector.observe_read(entry, 2, already_sharer=False)
        assert detector.observe_write(entry, 1, distinct_readers=1)

    def test_three_bit_threshold_needs_seven_repeats(self):
        detector = ProducerConsumerDetector(cfg(write_repeat_bits=3),
                                            Stats())
        entry = detector.new_entry(0)
        marked = False
        for _ in range(7):
            detector.observe_read(entry, 2, already_sharer=False)
            marked |= detector.observe_write(entry, 1, distinct_readers=1)
        assert not marked  # 7 writes = 6 repeats < threshold 7
        detector.observe_read(entry, 2, already_sharer=False)
        assert detector.observe_write(entry, 1, distinct_readers=1)


class TestEndToEnd:
    def alternating_writer_ops(self):
        ops = [[] for _ in range(4)]
        bid = 0
        for it in range(10):
            writer = 1 if it % 2 == 0 else 2
            ops[writer].append(Write(LINE))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
            ops[3].append(Compute(200))
            ops[3].append(Read(LINE))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
        return ops

    def run(self, detector_kind):
        config = small(num_nodes=4).with_protocol(detector_kind=detector_kind)
        system = System(config)
        system.address_map.place_range(LINE, 128, 0)
        return system.run(self.alternating_writer_ops())

    def test_multiwriter_delegates_where_simple_does_not(self):
        simple = self.run("simple")
        multi = self.run("multiwriter")
        assert simple.stats.get("dele.delegate", 0) == 0
        assert multi.stats.get("dele.delegate", 0) >= 1

    def test_multiwriter_stays_coherent(self):
        result = self.run("multiwriter")  # online checker active
        assert result.cycles > 0

    def test_multiwriter_pays_delegation_churn(self):
        """The cost the paper avoided: the non-writing delegate gets
        recalled whenever the other writer wants the line."""
        multi = self.run("multiwriter")
        undele = sum(v for k, v in multi.stats.items()
                     if k.startswith("dele.undelegate."))
        assert undele >= 1
