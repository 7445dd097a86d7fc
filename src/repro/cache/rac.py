"""The Remote Access Cache (paper §2.1).

The RAC sits in the hub and plays three roles:

1. **Victim cache** for remote data evicted from the processor caches —
   the classic DASH-era RAC role.
2. **Landing zone for speculative updates** — producers push newly written
   data here, since data cannot be pushed into processor caches.
3. **Surrogate main memory** for lines delegated to this node — one pinned
   entry per delegated line gives flushed data a home (paper: "we pin the
   corresponding cache line in the local RAC").

All RAC entries hold SHARED-permission data except DELEGATED entries, which
hold the authoritative memory image of a delegated line and may be dirty
with respect to the real home memory.
"""

from .line import LineState, RacKind
from .sa_cache import CacheCapacityError, SetAssociativeCache


class RemoteAccessCache:
    """Per-node RAC with pinning and update-consumption accounting."""

    def __init__(self, config, rng, stats):
        self._cache = SetAssociativeCache(config, rng=rng, name="RAC")
        self._stats = stats
        self.latency = config.latency

    def __len__(self):
        return len(self._cache)

    def __contains__(self, addr):
        return addr in self._cache

    def probe(self, addr):
        return self._cache.probe(addr)

    def pinned_conflicts(self, addr):
        """Addresses of pinned DELEGATED entries mapping to ``addr``'s set;
        undelegating one of them frees a pin slot for ``addr``."""
        target = self._cache.set_index(addr)
        return [line.addr for line in self._cache.lines()
                if line.pinned and line.kind is RacKind.DELEGATED
                and self._cache.set_index(line.addr) == target]

    def lines(self):
        return self._cache.lines()

    # -- read path ----------------------------------------------------------

    def lookup_data(self, addr):
        """Return the entry if it can satisfy a local read, else None.

        Reading a pushed update marks it consumed (it was useful).
        """
        line = self._cache.access(addr)
        if line is None:
            return None
        if line.kind is RacKind.UPDATE and not line.consumed:
            line.consumed = True
            self._stats.inc("update.consumed")
        return line

    # -- fill paths -----------------------------------------------------------

    def insert_victim(self, addr, value):
        """Place an evicted remote SHARED line; silently drops on conflict
        with an all-pinned set (a victim cache may always decline)."""
        try:
            evicted = self._cache.insert(addr, state=LineState.SHARED,
                                         value=value, kind=RacKind.VICTIM)
        except CacheCapacityError:
            self._stats.inc("rac.victim_declined")
            return None
        self._account_eviction(evicted)
        return evicted

    def insert_update(self, addr, value):
        """Place speculatively pushed data; returns the evicted line or None.

        Declines (returns ``False``) when the set is entirely pinned — the
        update is then simply dropped, costing only the wasted message.
        """
        try:
            evicted = self._cache.insert(addr, state=LineState.SHARED,
                                         value=value, kind=RacKind.UPDATE)
        except CacheCapacityError:
            self._stats.inc("rac.update_declined")
            return False
        self._account_eviction(evicted)
        return evicted

    def pin_delegated(self, addr, value, dirty=False):
        """Pin a surrogate-memory entry for a line delegated to this node.

        Returns the evicted line on success (possibly None); raises
        :class:`CacheCapacityError` when the set is already full of pinned
        entries, in which case the caller must refuse or undo delegation.
        """
        evicted = self._cache.insert(addr, state=LineState.SHARED, value=value,
                                     pinned=True, kind=RacKind.DELEGATED,
                                     dirty=dirty)
        self._account_eviction(evicted)
        return evicted

    def can_pin(self, addr):
        """True if a delegated entry for ``addr`` could be pinned right now."""
        return self._cache.has_room(addr)

    # -- update / removal -----------------------------------------------------

    def update_value(self, addr, value, dirty=True):
        """Refresh the data image of a resident entry (delegated writeback)."""
        line = self._cache.probe(addr)
        if line is not None:
            line.value = value
            line.dirty = dirty
        return line

    def invalidate(self, addr):
        """Coherence invalidation; returns the removed line or None."""
        line = self._cache.invalidate(addr)
        if line is not None:
            self._account_eviction(line)
        return line

    def _account_eviction(self, line):
        if line is not None and line is not False:
            if line.kind is RacKind.UPDATE and not line.consumed:
                self._stats.inc("update.wasted")
