"""Online coherence / sequential-consistency checking.

This is the simulator-side half of the paper's verification story (§2.5):
invariants are checked as the simulation runs, bridging the gap between
the abstract model-checked protocol and the simulated implementation.

Two checks run online:

1. **Read-value legality** (per-location sequential consistency).  Every
   write installs a globally unique version number.  A completed read must
   return either the value of the last write that completed before the
   read began, or the value of a write that completed while the read was
   in flight (loads are allowed to bind anywhere inside their window).
2. **Single-writer** (the Murphi model's "single writer exists"): whenever
   a write miss completes, no other node may hold a writable (E/M) copy of
   that line.

Violations raise :class:`repro.common.errors.CoherenceViolation`
immediately, with enough context to debug the offending transaction.
"""

from collections import defaultdict, deque

from ..common.errors import CoherenceViolation

#: How many historical writes to retain per line.  Miss latencies are a few
#: thousand cycles at most, while writes to one line are spaced by whole
#: coherence transactions, so a short history always covers a read window.
_HISTORY = 128


class CoherenceChecker:
    """Records committed reads/writes and enforces the invariants above."""

    def __init__(self, system):
        self.system = system
        self._writes = defaultdict(deque)  # line -> deque[(t_complete, value)]
        self._version = 0
        self.reads_checked = 0
        self.writes_checked = 0
        # (node, l2._sets) pairs plus the shared set-index geometry,
        # cached on first use: hubs are attached to the system after the
        # checker is built, and the single-writer scan walks them on
        # every committed write.
        self._scan_targets = None
        self._scan_geometry = None

    def next_version(self):
        """A globally unique value for the next store."""
        self._version += 1
        return self._version

    # -- recording hooks (called by the processors) -------------------------

    def record_write(self, node, line_addr, value, t_start, t_complete):
        history = self._writes[line_addr]
        history.append((t_complete, value))
        if len(history) > _HISTORY:
            history.popleft()
        self.writes_checked += 1
        self._check_single_writer(node, line_addr)

    def record_read(self, node, line_addr, value, t_start, t_complete):
        self.reads_checked += 1
        history = self._writes.get(line_addr)
        if not history:
            if value != 0:
                raise CoherenceViolation(
                    "node %d read %r from never-written line 0x%x"
                    % (node, value, line_addr))
            return
        # Fast pass: legal iff the value matches the last write completed
        # before the read began, or any write overlapping the read window.
        # The legal *set* is only materialised on violation (error message).
        last_before = 0  # lines start zero-initialised
        overlapped = False
        for t_complete_w, written in history:
            if t_complete_w <= t_start:
                last_before = written
            elif t_complete_w <= t_complete and written == value:
                overlapped = True
        if overlapped or value == last_before:
            return
        legal = set()
        for t_complete_w, written in history:
            if t_start < t_complete_w <= t_complete:
                legal.add(written)
        legal.add(last_before)
        raise CoherenceViolation(
            "node %d read stale value %r from line 0x%x at [%d, %d]; "
            "legal values were %s (history tail: %s)"
            % (node, value, line_addr, t_start, t_complete,
               sorted(legal), list(history)[-4:]))

    # -- read-only view (the fuzz oracles inspect final state) ---------------

    def last_write_value(self, line_addr):
        """Value of the last committed write to ``line_addr`` (None if
        the line was never written)."""
        history = self._writes.get(line_addr)
        return history[-1][1] if history else None

    # -- invariants -------------------------------------------------------------

    def _check_single_writer(self, writer, line_addr):
        # The scan probes every node's L2 on every committed write, so it
        # reaches into SetAssociativeCache internals (the per-set dict
        # list and its indexing geometry) instead of paying a probe()
        # frame per node.  ``_sets`` identity is stable: lazy set creation
        # replaces elements, never the list.  All nodes share one L2
        # geometry (one SystemConfig per run), so the set index is
        # computed once per write, not once per node.
        targets = self._scan_targets
        if targets is None:
            l2s = [(hub.node, hub.hierarchy.l2) for hub in self.system.hubs]
            geometry = {(l2._line_shift, l2._set_mask, l2._num_sets)
                        for _node, l2 in l2s}
            if len(geometry) != 1:  # defensive; cannot happen today
                raise CoherenceViolation(
                    "nodes disagree on L2 geometry: %r" % geometry)
            self._scan_geometry = geometry.pop()
            targets = self._scan_targets = [
                (node, l2._sets) for node, l2 in l2s]
        shift, mask, num_sets = self._scan_geometry
        index = line_addr >> shift
        index = index & mask if mask is not None else index % num_sets
        for node, sets in targets:
            if node == writer:
                continue
            cache_set = sets[index]
            line = cache_set.get(line_addr) if cache_set is not None else None
            if line is not None and line.state.writable:
                raise CoherenceViolation(
                    "single-writer violated on line 0x%x: node %d completed "
                    "a write while node %d holds %s"
                    % (line_addr, writer, node, line.state.value))
