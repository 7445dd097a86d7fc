"""The producer-consumer sharing-pattern detector (paper §2.2).

Each directory-cache entry is extended with three small fields:

* ``last_writer`` (4 bits) — last node to write the line;
* ``reader_count`` (2-bit saturating) — reads from unique nodes since the
  last write;
* ``write_repeat`` (2-bit saturating) — incremented each time two
  consecutive writes come from the *same* node with at least one
  intervening read from another node.

A line is marked producer-consumer when ``write_repeat`` saturates.  This
matches the paper's regular expression ``...(Wi)(R∀j≠i)+(Wi)(R∀k≠i)+...``:
the counter only advances through write→reads→write-by-same-node cycles,
so migratory sharing (different writers) and false sharing (interleaved
writers) reset it and are never optimised — deliberately conservative.

The detector observes only traffic that reaches the home directory (the
paper's constraint: an external predictor sees just the misses), and its
state lives only while the line's entry sits in the directory cache.
"""

from dataclasses import dataclass

from ..common.stats import PC_DETECTED


@dataclass
class DetectorEntry:
    """Per-line detector bits (8 bits of real hardware state + the mark)."""

    addr: int
    last_writer: int = -1  # -1 encodes "no write observed yet"
    reader_count: int = 0
    write_repeat: int = 0
    marked_pc: bool = False


def consumer_bucket(count):
    """Histogram bucket label used by Table 3: 1, 2, 3, 4, or 4+ (>=5)."""
    if count <= 4:
        return str(count)
    return "4+"


class ProducerConsumerDetector:
    """Updates detector entries on home-directory traffic.

    One instance per node, shared across all lines homed there; per-line
    state is stored in the directory cache's :class:`DetectorEntry` records.
    """

    def __init__(self, protocol_config, stats):
        self._reader_max = (1 << protocol_config.reader_count_bits) - 1
        self._repeat_max = protocol_config.write_repeat_threshold
        self._stats = stats

    def new_entry(self, addr):
        """The per-line record this detector stores in the directory cache
        (subclasses may extend the record type)."""
        return DetectorEntry(addr=addr)

    def observe_read(self, entry, reader, already_sharer):
        """Record a GETS processed at the home directory.

        ``already_sharer`` tells the detector whether the directory already
        listed this node — the hardware's free uniqueness filter.
        """
        if entry is None:
            return
        if reader == entry.last_writer or already_sharer:
            return
        entry.reader_count = min(entry.reader_count + 1, self._reader_max)

    def observe_write(self, entry, writer, distinct_readers):
        """Record a GETX processed at the home directory.

        ``distinct_readers`` is the number of distinct non-writer nodes that
        read since the previous write (taken from the sharing vector); it
        feeds the Table 3 consumer-count histogram whenever a repeat write
        with intervening readers is seen.

        Returns True if this write *newly* marked the line producer-consumer
        (the moment delegation should be initiated, Figure 4a).
        """
        if entry is None:
            return False
        newly_marked = False
        if entry.last_writer == writer and entry.reader_count >= 1:
            entry.write_repeat = min(entry.write_repeat + 1, self._repeat_max)
            if distinct_readers >= 1:
                self._stats.inc(
                    "detector.consumers.%s" % consumer_bucket(distinct_readers)
                )
            if entry.write_repeat >= self._repeat_max and not entry.marked_pc:
                entry.marked_pc = True
                newly_marked = True
                self._stats.inc(PC_DETECTED)
        elif entry.last_writer != writer:
            # A different writer breaks the pattern (multi-writer / false
            # sharing / migratory data); restart detection from scratch.
            entry.write_repeat = 0
            entry.marked_pc = False
        entry.last_writer = writer
        entry.reader_count = 0
        return newly_marked


class BlindDetector(ProducerConsumerDetector):
    """A detector that observes nothing: for protocols whose spec lacks the
    preserved sharing vector it counts consumers from.  No line is ever
    marked and no ``detector.*`` stat moves.  Not a ``detector_kind``:
    the hub picks it from the spec, never from the config."""

    def observe_read(self, entry, reader, already_sharer):
        pass

    def observe_write(self, entry, writer, distinct_readers):
        return False
