"""Hardware area accounting (paper §3.3.1 and Figure 3).

The paper estimates the per-node SRAM cost of its mechanisms at "roughly
40KB ... plus a small amount of control logic and wire area" for the small
configuration:

* a 32-entry delegate cache — 10-byte producer entries + 6-byte consumer
  entries ("A 32-entry delegate table requires 320 bytes");
* the directory-cache detector extension — 8 bits per entry (4-bit last
  writer + 2-bit reader count + 2-bit write-repeat), 8 KB for an
  8192-entry directory cache;
* the 32 KB RAC itself (data + tags).

This module reproduces that arithmetic from a :class:`SystemConfig`, so
the Figure 8 equal-silicon comparison can derive its L2 size instead of
hard-coding it, and so configuration sweeps can report their area budget.
"""

from dataclasses import dataclass

from ..common.params import SystemConfig

#: Field widths from Figure 3, in bits.
VALID_BIT = 1
TAG_BITS = 37
OWNER_BITS_MIN = 4          # consumer entry: identity of the new home
OWNER_BITS_MAX = 8
AGE_BITS = 2
DIR_ENTRY_BITS = 32         # the delegated DirEntry payload

#: Detector extension per directory-cache entry (paper §2.2): 4-bit last
#: writer + 2-bit reader count + 2-bit write-repeat counter.  The paper's
#: value for its 16-node machine; bigger machines widen the last-writer
#: field, which :func:`detector_bits_per_entry` accounts for.
DETECTOR_BITS_PER_ENTRY = 8


def detector_bits_per_entry(config):
    """Detector bits per directory-cache entry for ``config``'s machine.

    Exactly :data:`DETECTOR_BITS_PER_ENTRY` (8) up to 16 nodes; beyond
    that the last-writer field grows to address every node.
    """
    return (config.last_writer_bits + config.protocol.reader_count_bits
            + config.protocol.write_repeat_bits)


def producer_entry_bits():
    """Producer delegate-cache entry: 10 bytes in Figure 3.

    1 + 37 + 2 + 32 = 72 bits of fields; Figure 3 stores the entry as
    10 bytes (80 bits) — the 8-bit pad models that rounding.
    """
    return VALID_BIT + TAG_BITS + AGE_BITS + DIR_ENTRY_BITS + 8


def consumer_entry_bits():
    """Consumer delegate-cache entry: 6 bytes in Figure 3."""
    return VALID_BIT + TAG_BITS + OWNER_BITS_MAX + 2  # -> 48 bits (6 B)


@dataclass(frozen=True)
class AreaBudget:
    """Per-node SRAM cost of the paper's mechanisms, in bytes."""

    producer_table_bytes: int
    consumer_table_bytes: int
    detector_bytes: int
    rac_bytes: int

    @property
    def delegate_cache_bytes(self):
        return self.producer_table_bytes + self.consumer_table_bytes

    @property
    def total_bytes(self):
        return (self.delegate_cache_bytes + self.detector_bytes
                + self.rac_bytes)

    @property
    def total_kb(self):
        return self.total_bytes / 1024.0


def area_of(config: SystemConfig) -> AreaBudget:
    """The SRAM budget of ``config``'s extensions (zero if disabled)."""
    protocol = config.protocol
    if not protocol.enable_rac:
        return AreaBudget(0, 0, 0, 0)
    rac_bytes = config.rac.size_bytes
    if not protocol.enable_delegation:
        return AreaBudget(0, 0, 0, rac_bytes)
    entries = config.delegate.entries
    producer_bytes = entries * producer_entry_bits() // 8
    consumer_bytes = entries * consumer_entry_bits() // 8
    detector_bytes = (config.directory_cache_entries
                      * detector_bits_per_entry(config) // 8)
    return AreaBudget(
        producer_table_bytes=producer_bytes,
        consumer_table_bytes=consumer_bytes,
        detector_bytes=detector_bytes,
        rac_bytes=rac_bytes,
    )


def equal_area_l2_bytes(base_l2_bytes, config, line_size=128, assoc=4):
    """L2 size that spends the same silicon on plain cache (Figure 8).

    Returns ``base_l2_bytes`` plus the extension budget, rounded down to a
    whole number of cache sets.
    """
    budget = area_of(config).total_bytes
    set_bytes = line_size * assoc
    total = base_l2_bytes + budget
    return total - (total % set_bytes)
