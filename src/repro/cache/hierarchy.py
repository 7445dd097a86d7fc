"""The private L1/L2 cache hierarchy of one processor.

Coherence state lives on L2 lines (the paper's protocol operates on 128-byte
L2 lines); the L1 is an inclusive latency filter that only tracks presence.
Writes propagate their value to the L2 line immediately (write-through
within the private hierarchy), so the L2 line is always the single source
of truth for both state and data — which is what the hub interacts with.

The hierarchy is a passive structure: it answers hits/misses and applies
fills, downgrades and invalidations, but never initiates protocol actions.
That is the hub controller's job (:mod:`repro.protocol.hub`).
"""

from ..common.errors import ProtocolError
from .line import LineState
from .sa_cache import SetAssociativeCache


class AccessResult:
    """Outcome of a processor load/store probe.

    Slotted, not a frozen dataclass: one is built per processor memory op,
    and ``object.__setattr__``-based frozen init showed up in profiles.
    :meth:`PrivateCacheHierarchy.read` / :meth:`~PrivateCacheHierarchy.write`
    return a per-hierarchy instance that is overwritten by the next probe —
    consume it before probing again (every caller does; none retain it).
    """

    __slots__ = ("hit", "latency", "state", "value")

    def __init__(self, hit, latency, state, value=0):
        self.hit = hit
        self.latency = latency
        self.state = state
        self.value = value

    def __repr__(self):
        return ("AccessResult(hit=%r, latency=%r, state=%r, value=%r)"
                % (self.hit, self.latency, self.state, self.value))


class EvictionNotice:
    """An L2 line that fell out of the hierarchy and needs hub handling."""

    __slots__ = ("addr", "state", "value")

    def __init__(self, addr, state, value):
        self.addr = addr
        self.state = state
        self.value = value

    def __repr__(self):
        return ("EvictionNotice(addr=0x%x, state=%r, value=%r)"
                % (self.addr, self.state, self.value))


class PrivateCacheHierarchy:
    """L1 + L2 private caches with inclusion maintained L2 -> L1."""

    def __init__(self, config):
        self.config = config
        self.l1 = SetAssociativeCache(config.l1, name="L1")
        self.l2 = SetAssociativeCache(config.l2, name="L2")
        self._l1_latency = config.l1.latency
        self._l2_latency = config.l2.latency
        # Reused probe result (see AccessResult docstring).
        self._result = AccessResult(False, 0, LineState.INVALID)

    # -- probes -----------------------------------------------------------

    def state_of(self, addr):
        """Coherence state of ``addr`` in this hierarchy (I if absent)."""
        line = self.l2.probe(addr)
        return line.state if line is not None else LineState.INVALID

    def value_of(self, addr):
        """Current data value of ``addr``; raises if not resident."""
        line = self.l2.probe(addr)
        if line is None:
            raise ProtocolError("value_of on non-resident line 0x%x" % addr)
        return line.value

    def read(self, addr):
        """Processor load probe: hit if the line is readable (S/E/M)."""
        result = self._result
        l2_line = self.l2.access(addr)
        if l2_line is None or not l2_line.state.readable:
            result.hit = False
            result.latency = 0
            result.state = LineState.INVALID
            result.value = 0
            return result
        l1_line = self.l1.access(addr)
        if l1_line is not None:
            result.latency = self._l1_latency
        else:
            self.l1.insert(addr, state=l2_line.state)  # refill L1 from L2
            result.latency = self._l2_latency
        result.hit = True
        result.state = l2_line.state
        result.value = l2_line.value
        return result

    def write(self, addr, value):
        """Processor store probe: hit only with write permission (E/M).

        A hit updates the L2 value in place and silently upgrades E -> M.
        A miss (including an S-state upgrade miss) changes nothing; the hub
        must obtain exclusive ownership and call :meth:`fill` / mark the
        line, after which the processor retries the store.
        """
        result = self._result
        l2_line = self.l2.access(addr)
        if l2_line is None or not l2_line.state.writable:
            result.hit = False
            result.latency = 0
            result.state = (l2_line.state if l2_line is not None
                            else LineState.INVALID)
            result.value = 0
            return result
        l2_line.state = LineState.MODIFIED
        l2_line.value = value
        l2_line.dirty = True
        l1_line = self.l1.access(addr)
        if l1_line is not None:
            # L1 only tracks presence + state; refresh state in place
            # rather than paying a full insert per write hit.
            l1_line.state = LineState.MODIFIED
            result.latency = self._l1_latency
        else:
            self.l1.insert(addr, state=LineState.MODIFIED)
            result.latency = self._l2_latency
        result.hit = True
        result.state = LineState.MODIFIED
        result.value = value
        return result

    # -- fills and external actions ----------------------------------------

    def fill(self, addr, state, value):
        """Install a line delivered by the hub; returns EvictionNotice or None.

        Inclusion: evicting an L2 line also removes any L1 copy.  Clean
        SHARED victims still produce a notice — the hub decides whether to
        drop them, place them in the RAC, or (for delegated lines) trigger
        undelegation.
        """
        if state is LineState.INVALID:
            raise ProtocolError("cannot fill 0x%x with INVALID" % addr)
        victim = self.l2.insert(addr, state=state, value=value,
                                dirty=state.dirty)
        self.l1.insert(addr, state=state)
        if victim is None:
            return None
        self.l1.invalidate(victim.addr)
        return EvictionNotice(victim.addr, victim.state, victim.value)

    def downgrade(self, addr):
        """Intervention: drop write permission, keep a SHARED copy.

        Returns the (possibly dirty) data value to be written back.  Raises
        if the line is not resident — callers must only downgrade owners.
        """
        line = self.l2.probe(addr)
        if line is None:
            raise ProtocolError("downgrade of non-resident line 0x%x" % addr)
        line.state = LineState.SHARED
        line.dirty = False
        l1_line = self.l1.probe(addr)
        if l1_line is not None:
            l1_line.state = LineState.SHARED
        return line.value

    def grant_exclusive(self, addr):
        """Upgrade a resident SHARED line to EXCLUSIVE (ACK_X reply).

        The line must be resident: upgrades are only granted to requesters
        the directory still lists as sharers, and a blocked processor cannot
        evict the line it is upgrading.
        """
        line = self.l2.probe(addr)
        if line is None:
            raise ProtocolError("exclusive grant for non-resident line 0x%x" % addr)
        line.state = LineState.EXCLUSIVE
        l1_line = self.l1.probe(addr)
        if l1_line is not None:
            l1_line.state = LineState.EXCLUSIVE

    def invalidate(self, addr):
        """Invalidation: remove the line entirely; returns (had_copy, value).

        ``value`` is meaningful only when the removed line was dirty — the
        protocol never invalidates a dirty owner without collecting data.
        """
        line = self.l2.invalidate(addr)
        if line is None:
            return False, 0  # inclusion: no L1 copy either
        self.l1.invalidate(addr)
        return True, line.value

    def evict(self, addr):
        """Voluntary flush of ``addr`` (used to model producer flushes).

        Returns an EvictionNotice, or None if the line was not resident.
        """
        line = self.l2.probe(addr)
        if line is None:
            return None
        self.l1.invalidate(addr)
        self.l2.invalidate(addr)
        return EvictionNotice(addr, line.state, line.value)
