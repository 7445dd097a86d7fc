"""A generic set-associative cache container.

Used for the L1, L2, RAC and directory cache alike: the container manages
geometry (set indexing), residency, LRU or random replacement, and pinning;
what the entries *mean* is up to the owning component.

Addresses handed to this class must be line-aligned (callers align with
``SystemConfig.line_of``); alignment is asserted to catch misuse early.

Hot-path notes: set dicts are materialised lazily (a 1 MB RAC is 2048
sets, and constructing every simulated node's empty sets dominated cold
sim construction in profiles), set indexing uses shift/mask when the
geometry allows it, and alignment is a single AND against a precomputed
mask.
"""

from operator import attrgetter

from ..common.errors import ConfigError, ReproError
from .line import CacheLine, LineState

#: LRU victim key (C-level attrgetter beats a lambda in the insert path).
_last_use_of = attrgetter("last_use")


class CacheCapacityError(ReproError):
    """An insert found every way of the target set pinned."""


class SetAssociativeCache:
    """Set-associative storage of :class:`CacheLine` records.

    Parameters
    ----------
    config:
        A :class:`repro.common.params.CacheConfig` giving geometry, latency
        and replacement policy.
    rng:
        Random stream used only when ``config.replacement == "random"``.
    name:
        Human-readable label used in error messages.
    """

    def __init__(self, config, rng=None, name="cache"):
        if config.replacement == "random" and rng is None:
            raise ConfigError("%s uses random replacement but got no rng" % name)
        self.config = config
        self.name = name
        self._rng = rng
        self._line_size = config.line_size
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        # Line size is validated as a power of two; num_sets usually is
        # one too (power-of-two cache sizes), in which case indexing is a
        # shift + mask.  Odd geometries fall back to modulo.
        self._align_mask = self._line_size - 1
        self._line_shift = self._line_size.bit_length() - 1
        num_sets = self._num_sets
        self._set_mask = (num_sets - 1 if num_sets & (num_sets - 1) == 0
                          else None)
        # One dict per set, addr -> CacheLine, materialised on first touch.
        # Dicts keep insertion order, which combined with last_use gives
        # deterministic LRU victims.
        self._sets = [None] * num_sets
        self._clock = 0
        self._random_replacement = config.replacement == "random"

    # -- geometry ---------------------------------------------------------

    def set_index(self, addr):
        """Which set a (line-aligned) address maps to."""
        if addr & self._align_mask:
            self._misaligned(addr)
        index = addr >> self._line_shift
        if self._set_mask is not None:
            return index & self._set_mask
        return index % self._num_sets

    def _misaligned(self, addr):
        raise ReproError(
            "%s: address 0x%x is not %d-byte line aligned"
            % (self.name, addr, self._line_size)
        )

    # -- residency --------------------------------------------------------

    def probe(self, addr):
        """Return the resident line for ``addr`` or None.  No LRU update."""
        if addr & self._align_mask:
            self._misaligned(addr)
        index = addr >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[index & mask if mask is not None
                               else index % self._num_sets]
        return cache_set.get(addr) if cache_set is not None else None

    def access(self, addr):
        """Return the resident line and mark it most recently used."""
        if addr & self._align_mask:
            self._misaligned(addr)
        index = addr >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[index & mask if mask is not None
                               else index % self._num_sets]
        line = cache_set.get(addr) if cache_set is not None else None
        if line is not None:
            self._clock += 1
            line.last_use = self._clock
        return line

    def __contains__(self, addr):
        return self.probe(addr) is not None

    def __len__(self):
        return sum(len(s) for s in self._sets if s is not None)

    def lines(self):
        """Iterate over all resident lines (set order, then insertion order)."""
        for cache_set in self._sets:
            if cache_set is not None:
                yield from cache_set.values()

    # -- replacement --------------------------------------------------------

    def has_room(self, addr):
        """True if ``addr`` could be inserted without raising (hit, free way,
        or at least one unpinned victim in its set)."""
        cache_set = self._sets[self.set_index(addr)]
        if cache_set is None:
            return True
        if addr in cache_set or len(cache_set) < self._assoc:
            return True
        return any(not line.pinned for line in cache_set.values())

    def victim_for(self, addr):
        """The line that would be evicted to make room for ``addr``.

        Returns None when no eviction is needed (hit or free way) and raises
        :class:`CacheCapacityError` when every way is pinned.
        """
        cache_set = self._sets[self.set_index(addr)]
        if cache_set is None:
            return None
        if addr in cache_set or len(cache_set) < self._assoc:
            return None
        candidates = [line for line in cache_set.values() if not line.pinned]
        if not candidates:
            raise CacheCapacityError(
                "%s: set %d is full of pinned lines" % (self.name, self.set_index(addr))
            )
        if self._random_replacement:
            return self._rng.choice(candidates)
        return min(candidates, key=_last_use_of)

    def insert(self, addr, state=LineState.SHARED, value=0, pinned=False,
               kind=None, dirty=False):
        """Install (or overwrite) a line; returns the evicted line or None.

        If ``addr`` is already resident its record is updated in place (and
        returned eviction is None).  Raises :class:`CacheCapacityError` when
        the set has no unpinned victim.
        """
        if addr & self._align_mask:
            self._misaligned(addr)
        index = addr >> self._line_shift
        mask = self._set_mask
        index = index & mask if mask is not None else index % self._num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = {}
        self._clock += 1
        existing = cache_set.get(addr)
        if existing is not None:
            existing.state = state
            existing.value = value
            existing.pinned = pinned
            existing.dirty = dirty
            if kind is not None:
                existing.kind = kind
            existing.last_use = self._clock
            return None
        evicted = None
        if len(cache_set) >= self._assoc:
            # Inlined victim_for (it would recompute the set index): same
            # candidate order, same rng draws, same error message.
            candidates = [line for line in cache_set.values()
                          if not line.pinned]
            if not candidates:
                raise CacheCapacityError(
                    "%s: set %d is full of pinned lines" % (self.name, index))
            if self._random_replacement:
                evicted = self._rng.choice(candidates)
            else:
                evicted = min(candidates, key=_last_use_of)
            del cache_set[evicted.addr]
        line = CacheLine(addr=addr, state=state, value=value, pinned=pinned,
                         dirty=dirty, last_use=self._clock)
        if kind is not None:
            line.kind = kind
        cache_set[addr] = line
        return evicted

    def invalidate(self, addr):
        """Remove ``addr`` from the cache; returns the removed line or None."""
        if addr & self._align_mask:
            self._misaligned(addr)
        index = addr >> self._line_shift
        mask = self._set_mask
        cache_set = self._sets[index & mask if mask is not None
                               else index % self._num_sets]
        if cache_set is None:
            return None
        return cache_set.pop(addr, None)

    def clear(self):
        for cache_set in self._sets:
            if cache_set is not None:
                cache_set.clear()
