"""Property-based tests for the producer-consumer detector (paper §2.2).

Seeded stdlib ``random`` drives thousands of randomized observation
sequences against an independently written reference model of the §2.2
regular expression, plus targeted invariants:

* a writer change always resets ``write_repeat`` and un-marks the line;
* reads alone saturate ``reader_count`` but can never mark a line;
* migratory sharing (alternating writers) is never marked PC, no matter
  how many reads interleave.
"""

import random

import pytest

from repro.common import Stats, baseline
from repro.protocol.detector import (
    ProducerConsumerDetector,
    consumer_bucket,
)

NODES = range(6)


def make_detector():
    cfg = baseline(num_nodes=8).protocol
    return ProducerConsumerDetector(cfg, Stats()), cfg


class ReferenceModel:
    """The §2.2 pattern ``...(Wi)(R∀j≠i)+(Wi)...`` restated from the paper,
    not from the implementation: a repeat write by the same node after at
    least one foreign read advances the saturating counter; any other
    writer restarts detection."""

    def __init__(self, reader_bits, repeat_threshold):
        self.reader_max = (1 << reader_bits) - 1
        self.repeat_max = repeat_threshold
        self.last_writer = -1
        self.readers = 0
        self.repeat = 0
        self.marked = False

    def read(self, reader, already_sharer):
        if reader == self.last_writer or already_sharer:
            return
        self.readers = min(self.readers + 1, self.reader_max)

    def write(self, writer):
        newly = False
        if writer == self.last_writer:
            if self.readers >= 1:
                self.repeat = min(self.repeat + 1, self.repeat_max)
                if self.repeat >= self.repeat_max and not self.marked:
                    self.marked = True
                    newly = True
        else:
            self.repeat = 0
            self.marked = False
        self.last_writer = writer
        self.readers = 0
        return newly


def assert_same(entry, model):
    assert entry.last_writer == model.last_writer
    assert entry.reader_count == model.readers
    assert entry.write_repeat == model.repeat
    assert entry.marked_pc == model.marked


@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_model(seed):
    rng = random.Random(seed)
    det, cfg = make_detector()
    entry = det.new_entry(0)
    model = ReferenceModel(cfg.reader_count_bits, cfg.write_repeat_threshold)
    for _ in range(2000):
        node = rng.choice(NODES)
        if rng.random() < 0.5:
            sharer = rng.random() < 0.3
            det.observe_read(entry, node, already_sharer=sharer)
            model.read(node, sharer)
        else:
            got = det.observe_write(entry, node,
                                    distinct_readers=rng.randrange(6))
            assert got == model.write(node)
        assert_same(entry, model)


@pytest.mark.parametrize("seed", range(4))
def test_writer_change_resets_pattern(seed):
    """Whatever the prior state, a write from a different node leaves the
    entry unmarked with a zeroed repeat counter."""
    rng = random.Random(100 + seed)
    det, _cfg = make_detector()
    entry = det.new_entry(0)
    for _ in range(1000):
        node = rng.choice(NODES)
        if rng.random() < 0.5:
            det.observe_read(entry, node, already_sharer=False)
        else:
            prior_writer = entry.last_writer
            det.observe_write(entry, node, distinct_readers=1)
            if node != prior_writer:
                assert entry.write_repeat == 0
                assert not entry.marked_pc
            assert entry.last_writer == node
            assert entry.reader_count == 0


@pytest.mark.parametrize("seed", range(4))
def test_migratory_lines_never_marked(seed):
    """Alternating writers — migratory data — must never be optimised,
    however many foreign reads saturate the reader counter in between."""
    rng = random.Random(200 + seed)
    det, _cfg = make_detector()
    entry = det.new_entry(0)
    writers = [1, 2]
    for i in range(500):
        for _ in range(rng.randrange(8)):  # 0..7 interleaved reads
            det.observe_read(entry, rng.choice(NODES), already_sharer=False)
        assert not det.observe_write(entry, writers[i % 2],
                                     distinct_readers=rng.randrange(4))
        assert not entry.marked_pc
        assert entry.write_repeat == 0


def test_reads_saturate_but_never_mark():
    det, cfg = make_detector()
    entry = det.new_entry(0)
    det.observe_write(entry, 1, distinct_readers=0)
    for reader in list(NODES) * 50:
        det.observe_read(entry, reader, already_sharer=False)
    assert entry.reader_count == (1 << cfg.reader_count_bits) - 1
    assert not entry.marked_pc
    assert entry.write_repeat == 0


def test_repeat_write_without_reads_is_neutral():
    """Same writer, no intervening foreign read: the §2.2 expression does
    not advance, but it does not reset either."""
    det, cfg = make_detector()
    entry = det.new_entry(0)
    det.observe_write(entry, 1, distinct_readers=0)
    det.observe_read(entry, 2, already_sharer=False)
    det.observe_write(entry, 1, distinct_readers=1)
    assert entry.write_repeat == 1
    det.observe_write(entry, 1, distinct_readers=0)  # burst write, no reads
    assert entry.write_repeat == 1  # unchanged, not reset
    assert not entry.marked_pc


def test_pc_marking_after_threshold_repeats():
    det, cfg = make_detector()
    entry = det.new_entry(0)
    det.observe_write(entry, 1, distinct_readers=0)
    newly = False
    for _ in range(cfg.write_repeat_threshold):
        det.observe_read(entry, 2, already_sharer=False)
        newly = det.observe_write(entry, 1, distinct_readers=1)
    assert entry.marked_pc
    assert newly  # the saturating write reports the mark exactly once
    det.observe_read(entry, 2, already_sharer=False)
    assert not det.observe_write(entry, 1, distinct_readers=1)  # only once


def test_none_entry_is_ignored():
    det, _cfg = make_detector()
    det.observe_read(None, 1, already_sharer=False)
    assert det.observe_write(None, 1, distinct_readers=0) is False


def test_consumer_bucket_labels():
    assert [consumer_bucket(n) for n in (1, 2, 3, 4, 5, 9)] == \
        ["1", "2", "3", "4", "4+", "4+"]
