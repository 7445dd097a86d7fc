"""System configuration: the paper's Table 1 plus the six evaluated presets.

All times are expressed in CPU cycles of the simulated 2 GHz processor
(1 cycle = 0.5 ns), matching the units the paper reports: 100-cycle network
hop, 200-cycle DRAM access, 50-cycle default intervention delay.

The six system presets evaluated in Figure 7 are exposed as factory
functions and collected in :data:`EVALUATED_SYSTEMS`:

==============================  ==========================================
``baseline``                    plain directory write-invalidate protocol
``rac_only``                    + 32 KB remote access cache
``small`` (32e deledc, 32K RAC) + delegation + speculative updates
``large`` (1Ke deledc, 1M RAC)  the paper's "modest overhead" configuration
``dele1k_rac32k``               large delegate cache, small RAC
``dele32_rac1m``                small delegate cache, large RAC
==============================  ==========================================
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError

#: Cache line size used throughout the coherence layer (paper: 128 B L2 lines).
LINE_SIZE = 128

#: Minimum network packet size (paper: 32-byte header-only packets).
HEADER_BYTES = 32

#: Ceiling on simulated machine size.  The scaling study (docs/scaling.md)
#: targets 1024 nodes; 4096 leaves headroom without letting a typo allocate
#: a million-node system.
MAX_NODES = 4096


def _check_power_of_two(name, value):
    if value <= 0 or value & (value - 1):
        raise ConfigError("%s must be a positive power of two, got %r" % (name, value))


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache (used for L1, L2, RAC and directory cache)."""

    size_bytes: int
    assoc: int
    line_size: int = LINE_SIZE
    latency: int = 10  # access latency in CPU cycles
    replacement: str = "lru"  # "lru" or "random"

    def __post_init__(self):
        _check_power_of_two("line size", self.line_size)
        if self.assoc < 1:
            raise ConfigError("associativity must be >= 1, got %r" % self.assoc)
        # Sizes need not be powers of two (Figure 8 compares against a
        # 1.04 MB L2), but must fill whole sets.
        if self.size_bytes <= 0 or self.size_bytes % (self.line_size * self.assoc):
            raise ConfigError(
                "cache size %d is not a multiple of line*assoc (%d)"
                % (self.size_bytes, self.line_size * self.assoc)
            )
        if self.replacement not in ("lru", "random"):
            raise ConfigError("unknown replacement policy %r" % self.replacement)

    @property
    def num_lines(self):
        return self.size_bytes // self.line_size

    @property
    def num_sets(self):
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class DelegateCacheConfig:
    """The delegate cache: producer table + consumer table (paper §2.3).

    Entry counts refer to each table individually ("32-entry delegate
    tables").  The consumer table is 4-way set associative with random
    replacement per the paper; the producer table uses its age field (LRU).
    """

    entries: int = 32
    consumer_assoc: int = 4

    def __post_init__(self):
        _check_power_of_two("delegate table entries", self.entries)
        if self.consumer_assoc < 1 or self.entries % self.consumer_assoc:
            raise ConfigError(
                "consumer table of %d entries cannot be %d-way associative"
                % (self.entries, self.consumer_assoc)
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Fat-tree interconnect model (NUMALink-4-like, paper §3.1).

    ``hop_latency`` is the node-to-node latency of one *protocol* hop for
    nodes under different leaf routers (the paper's "100 processor cycles
    latency per hop").  Nodes sharing a leaf router are slightly closer;
    ``intra_leaf_fraction`` scales their latency.  Router contention is not
    modelled (per the paper); hub port contention is (``hub_occupancy``).
    """

    hop_latency: int = 100
    intra_leaf_fraction: float = 0.5
    router_radix: int = 8
    header_bytes: int = HEADER_BYTES
    hub_occupancy: int = 4  # cycles a hub's port is busy per message
    #: Extra cross-leaf latency per router level climbed beyond the first,
    #: as a fraction of ``hop_latency``.  Machines small enough to climb a
    #: single level (the paper's 16 nodes at radix 8) are unaffected; a
    #: 3-level traversal costs ``hop_latency * (1 + 2 * frac)``.
    level_latency_frac: float = 0.25

    def __post_init__(self):
        if self.hop_latency < 1:
            raise ConfigError("hop latency must be >= 1 cycle")
        if not 0.0 < self.intra_leaf_fraction <= 1.0:
            raise ConfigError("intra_leaf_fraction must be in (0, 1]")
        if self.router_radix < 2:
            raise ConfigError("router radix must be >= 2")
        if self.level_latency_frac < 0.0:
            raise ConfigError("level_latency_frac must be >= 0")


@dataclass(frozen=True)
class ProtocolConfig:
    """Which mechanisms are enabled and how they are tuned.

    The paper's detector fields are fixed-width: ``last_writer`` 4 bits,
    ``reader_count`` 2-bit saturating, ``write_repeat`` 2-bit saturating;
    a line is marked producer-consumer when write_repeat saturates, i.e.
    reaches ``write_repeat_threshold`` (3 for a 2-bit counter).
    """

    enable_rac: bool = False
    enable_delegation: bool = False
    enable_updates: bool = False
    intervention_delay: int = 50
    write_repeat_bits: int = 2
    reader_count_bits: int = 2
    #: Sharing-pattern predictor: "simple" (the paper's §2.2 detector) or
    #: "multiwriter" (the §5 future-work extension tolerating a small set
    #: of alternating writers) — see :mod:`repro.protocol.predictors`.
    detector_kind: str = "simple"
    nack_retry_delay: int = 20  # cycles a requester backs off after a NACK
    max_retries: int = 10_000  # livelock tripwire, not a protocol feature
    #: NACK retry pacing: "fixed" re-issues after ``nack_retry_delay`` every
    #: time (the seed behaviour); "exp" doubles the delay per consecutive
    #: NACK of one miss, capped at ``retry_backoff_cap``, breaking the
    #: synchronised retry storms two NACKing nodes can ping-pong into.
    retry_backoff: str = "fixed"
    retry_backoff_cap: int = 640
    #: Fraction of the (possibly backed-off) delay added as seeded random
    #: jitter, e.g. 0.5 adds up to +50%.  0.0 keeps retries deterministic
    #: relative to the base delay.
    retry_jitter_frac: float = 0.0

    def __post_init__(self):
        if self.enable_updates and not self.enable_delegation:
            raise ConfigError("speculative updates require delegation")
        if self.enable_delegation and not self.enable_rac:
            raise ConfigError(
                "delegation requires a RAC (surrogate memory for delegated lines)"
            )
        if self.intervention_delay < 0:
            raise ConfigError("intervention delay must be >= 0")
        if self.write_repeat_bits < 1 or self.reader_count_bits < 1:
            raise ConfigError("detector counters need at least one bit")
        if self.detector_kind not in ("simple", "multiwriter"):
            raise ConfigError("unknown detector kind %r" % self.detector_kind)
        if self.retry_backoff not in ("fixed", "exp"):
            raise ConfigError("unknown retry backoff %r" % self.retry_backoff)
        if self.retry_backoff_cap < self.nack_retry_delay:
            raise ConfigError("retry_backoff_cap must be >= nack_retry_delay")
        if not 0.0 <= self.retry_jitter_frac <= 1.0:
            raise ConfigError("retry_jitter_frac must be in [0, 1]")

    @property
    def write_repeat_threshold(self):
        """Saturation value of the write-repeat counter."""
        return (1 << self.write_repeat_bits) - 1


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (paper Table 1 defaults)."""

    num_nodes: int = 16
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, latency=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 4, latency=10)
    )
    rac: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, latency=12,
                                            replacement="random")
    )
    delegate: DelegateCacheConfig = field(default_factory=DelegateCacheConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    dram_latency: int = 200
    directory_cache_entries: int = 8192
    #: Sharing-vector encoding at the home directory: "full" (the paper's
    #: exact bit vector), "coarse:G" or "limited:K" — see
    #: :mod:`repro.directory.formats`.
    directory_format: str = "full"
    #: Which coherence protocol runs the hubs: "adaptive" (the paper's
    #: delegation/update protocol, the default) or an arena baseline
    #: ("wi", "mesi", "dragon") — see :mod:`repro.protocol.arena`.  All
    #: but dragon have a model-checker twin compiled from their spec.
    #: Validated at System construction, not here, to keep params
    #: import-light.
    protocol_name: str = "adaptive"
    line_size: int = LINE_SIZE
    seed: int = 12345

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ConfigError("need at least one node")
        if self.num_nodes > MAX_NODES:
            raise ConfigError(
                "num_nodes %d exceeds the supported maximum of %d"
                % (self.num_nodes, MAX_NODES))
        for cache in (self.l1, self.l2, self.rac):
            if cache.line_size != self.line_size:
                raise ConfigError(
                    "all coherence-level caches must use the %d-byte system "
                    "line size" % self.line_size
                )
        # Validate the directory-format spec at construction so a typo'd
        # "coarse:x" fails here with a ConfigError rather than deep inside
        # hub setup.  Local import: formats depends only on common.errors,
        # so this cannot cycle, and params stays import-light otherwise.
        from ..directory.formats import DirectoryFormat

        DirectoryFormat.parse(self.directory_format)

    # -- derived helpers -------------------------------------------------

    @property
    def last_writer_bits(self):
        """Width of the detector's last-writer field.

        The paper (§2.2) fixes it at 4 bits for its 16-node machine; larger
        machines grow the field to address every node, which the area model
        (:mod:`repro.analysis.area`) charges for.
        """
        return max(4, (self.num_nodes - 1).bit_length())

    def line_of(self, addr):
        """Cache-line base address containing byte address ``addr``."""
        return addr & ~(self.line_size - 1)

    def with_protocol(self, **kwargs):
        """Return a copy with protocol fields replaced."""
        return replace(self, protocol=replace(self.protocol, **kwargs))


# ---------------------------------------------------------------------------
# The six systems evaluated in Figure 7.
# ---------------------------------------------------------------------------

_KB = 1024
_MB = 1024 * 1024


def baseline(**overrides):
    """Plain directory-based write-invalidate CC-NUMA (no RAC, no extensions)."""
    return SystemConfig(**overrides)


def rac_only(rac_bytes=32 * _KB, **overrides):
    """Baseline plus a remote access cache (victim cache for remote data)."""
    cfg = SystemConfig(**overrides)
    return replace(
        cfg,
        rac=replace(cfg.rac, size_bytes=rac_bytes),
        protocol=replace(cfg.protocol, enable_rac=True),
    )


def enhanced(delegate_entries=32, rac_bytes=32 * _KB, **overrides):
    """RAC + delegation + speculative updates (the paper's full mechanism)."""
    cfg = SystemConfig(**overrides)
    return replace(
        cfg,
        rac=replace(cfg.rac, size_bytes=rac_bytes),
        delegate=replace(cfg.delegate, entries=delegate_entries),
        protocol=replace(
            cfg.protocol,
            enable_rac=True,
            enable_delegation=True,
            enable_updates=True,
        ),
    )


def delegation_only(delegate_entries=32, rac_bytes=32 * _KB, **overrides):
    """Delegation without speculative updates (paper: within ~1% of baseline)."""
    cfg = enhanced(delegate_entries, rac_bytes, **overrides)
    return replace(cfg, protocol=replace(cfg.protocol, enable_updates=False))


def small(**overrides):
    """32-entry delegate tables + 32 KB RAC ("very little hardware overhead")."""
    return enhanced(32, 32 * _KB, **overrides)


def large(**overrides):
    """1K-entry delegate tables + 1 MB RAC ("modest overhead")."""
    return enhanced(1024, 1 * _MB, **overrides)


def dele1k_rac32k(**overrides):
    return enhanced(1024, 32 * _KB, **overrides)


def dele32_rac1m(**overrides):
    return enhanced(32, 1 * _MB, **overrides)


# ---------------------------------------------------------------------------
# Content hashing (the sweep engine's cache keys).
# ---------------------------------------------------------------------------


def config_to_dict(config):
    """Canonical plain-dict form of a :class:`SystemConfig`.

    Nested config dataclasses flatten to plain dicts of JSON-safe scalars,
    so the result round-trips through ``json`` and is stable across
    processes and Python versions (unlike ``hash()``, which is salted).
    """
    return asdict(config)


def config_from_dict(doc):
    """Inverse of :func:`config_to_dict`: rebuild a :class:`SystemConfig`.

    Accepts exactly the nested-dict shape ``config_to_dict`` produces (the
    shape stored in sweep-cache entries and fuzz repro artifacts), so a
    config survives a JSON round-trip bit-for-bit:
    ``config_digest(config_from_dict(config_to_dict(c))) == config_digest(c)``.
    """
    doc = dict(doc)
    return SystemConfig(
        num_nodes=doc["num_nodes"],
        l1=CacheConfig(**doc["l1"]),
        l2=CacheConfig(**doc["l2"]),
        rac=CacheConfig(**doc["rac"]),
        delegate=DelegateCacheConfig(**doc["delegate"]),
        network=NetworkConfig(**doc["network"]),
        protocol=ProtocolConfig(**doc["protocol"]),
        dram_latency=doc["dram_latency"],
        directory_cache_entries=doc["directory_cache_entries"],
        directory_format=doc["directory_format"],
        # Pre-arena documents (committed fuzz artifacts, old cache entries)
        # predate the field; they all ran the adaptive protocol.
        protocol_name=doc.get("protocol_name", "adaptive"),
        line_size=doc["line_size"],
        seed=doc["seed"],
    )


def config_digest(config):
    """Stable content hash (sha256 hex) of a :class:`SystemConfig`.

    Two configs digest equal iff every field (including nested cache,
    network and protocol configs) is equal — this is what makes sweep-cache
    keys deterministic across processes and sessions.
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Name -> factory for the six systems of Figure 7, in the paper's order.
EVALUATED_SYSTEMS = {
    "base": baseline,
    "rac32k": rac_only,
    "dele32_rac32k": small,
    "dele1k_rac1m": large,
    "dele1k_rac32k": dele1k_rac32k,
    "dele32_rac1m": dele32_rac1m,
}

#: Friendly preset aliases, accepted where a preset name is resolved for
#: one run (``repro trace``, a served job's ``system``); the evaluation
#: commands keep to the paper's exact Figure 7 names.
SYSTEM_ALIASES = {
    "pc": "dele32_rac32k",        # the paper's full producer-consumer system
    "enhanced": "dele32_rac32k",
    "baseline": "base",
}
