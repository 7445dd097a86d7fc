"""Alternative sharing-pattern predictors (the paper's §5 future work).

The shipped detector (:mod:`repro.protocol.detector`) is deliberately
simple and conservative: any change of writer resets it, so multi-writer
lines and false sharing are never optimised.  The paper's conclusion
proposes "more sophisticated predictors, e.g., one that can detect
producer-consumer behavior in the face of false sharing and multiple
writers" — this module implements that extension so the trade-off can be
measured (the detector ablation in ``tests/test_paper_claims.py``):

* :class:`MultiWriterDetector` tolerates a small set of alternating
  writers: a line is marked producer-consumer when writes from *within a
  stable writer set* repeat with intervening reads.  Delegation then goes
  to the most recent writer, and the ablation shows the cost the paper
  avoided — lines bouncing between writers cause delegation churn and
  wasted updates (CG's false-shared lines are the cautionary case).

Detector aggressiveness is a separate, orthogonal knob: the saturation
threshold is already configurable via ``ProtocolConfig.write_repeat_bits``
(1 bit marks after a single repeat write; 3 bits require seven).
"""

from dataclasses import dataclass, field
from typing import Tuple

from ..common.stats import PC_DETECTED
from .detector import DetectorEntry, ProducerConsumerDetector, consumer_bucket


@dataclass
class MultiWriterEntry(DetectorEntry):
    """Detector bits extended with a tiny writer-set history.

    ``writer_set`` would be two extra 4-bit fields in hardware (the paper's
    style of costing); everything else matches the simple detector.
    """

    writer_set: Tuple[int, ...] = field(default_factory=tuple)


class MultiWriterDetector(ProducerConsumerDetector):
    """Marks lines written by a *stable set* of up to ``max_writers``.

    The write-repeat counter advances when the writer is already in the
    observed writer set and readers intervened since the last write; a
    write from outside the set shrinks confidence instead of hard
    resetting, and only an overflowing writer set resets detection.
    """

    def __init__(self, protocol_config, stats, max_writers=2):
        super().__init__(protocol_config, stats)
        self.max_writers = max_writers

    def new_entry(self, addr):
        return MultiWriterEntry(addr=addr)

    def observe_write(self, entry, writer, distinct_readers):
        if entry is None:
            return False
        newly_marked = False
        in_set = writer in entry.writer_set
        if in_set and entry.reader_count >= 1:
            entry.write_repeat = min(entry.write_repeat + 1,
                                     self._repeat_max)
            if distinct_readers >= 1:
                self._stats.inc(
                    "detector.consumers.%s" % consumer_bucket(distinct_readers))
            if entry.write_repeat >= self._repeat_max and not entry.marked_pc:
                entry.marked_pc = True
                newly_marked = True
                self._stats.inc(PC_DETECTED)
        elif not in_set:
            if len(entry.writer_set) < self.max_writers:
                entry.writer_set = entry.writer_set + (writer,)
                # New member: lose some confidence but keep the pattern.
                entry.write_repeat = max(0, entry.write_repeat - 1)
            else:
                # Writer-set overflow: this is not a stable pattern.
                entry.writer_set = (writer,)
                entry.write_repeat = 0
                entry.marked_pc = False
        entry.last_writer = writer
        entry.reader_count = 0
        return newly_marked


#: name -> detector class, used by the hub to honour
#: ``ProtocolConfig.detector_kind``.
DETECTOR_KINDS = {
    "simple": ProducerConsumerDetector,
    "multiwriter": MultiWriterDetector,
}


def make_detector(protocol_config, stats):
    """Instantiate the configured detector."""
    kind = getattr(protocol_config, "detector_kind", "simple")
    try:
        cls = DETECTOR_KINDS[kind]
    except KeyError:
        raise ValueError("unknown detector kind %r (choose from %s)"
                         % (kind, sorted(DETECTOR_KINDS))) from None
    return cls(protocol_config, stats)
