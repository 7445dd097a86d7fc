"""Post-run (quiescence) oracles for fuzzed simulations.

These run after a simulation drained its event queue successfully; the
online checks (:class:`~repro.sim.coherence_check.CoherenceChecker`) have
already validated every individual read, so what is left to assert is the
*final* state the protocol settled into:

* ``txn-terminate`` — no transaction span is still open ("unfinished");
  every miss that started also ended.  (A delegation still in place at the
  end of a run — outcome "still-delegated" — is legal.)
* ``bounded-retry`` — no single transaction needed an absurd number of
  NACK retries.  The bound is far above anything contention produces but
  far below the livelock tripwire, so it catches retry storms that would
  eventually terminate yet indicate a pathological schedule.
* ``single-writer`` — at most one node holds a writable copy per line.
* ``directory-agreement`` — no directory entry is stuck mid-transaction
  (busy record, pending update acks, deferred undelegation), every EXCL
  entry's owner really holds a writable copy, and every DELE entry's
  delegate really holds the delegated directory state.
* ``lost-update`` — the value the directory tree exposes for each written
  line equals the last value the coherence checker saw committed: home
  memory for UNOWNED/SHARED lines, the owner's cache for EXCL lines,
  following the delegation link for DELE lines.

Each check returns ``(name, message)`` on violation; ``None`` means the
run is clean.
"""

from ..directory.state import DirState

#: Retries one transaction may legitimately accumulate.  Real contention
#: on these small fuzz workloads stays in single digits; the forced-NACK
#: budget adds at most 64 across the whole run.
RETRY_BOUND = 1000


def check_quiescence(system, tracer, build):
    """Run every quiescence oracle; first violation wins (most specific
    ordering: span bookkeeping, then structure, then data)."""
    for check in (_check_spans, _check_single_writer,
                  _check_directory_agreement, _check_lost_update):
        violation = check(system, tracer)
        if violation is not None:
            return violation
    return None


def _check_spans(system, tracer):
    for span in tracer.spans:
        if span.outcome == "unfinished":
            return ("txn-terminate",
                    "node %d %s span for 0x%x never completed (started "
                    "cycle %d)" % (span.node, span.kind, span.addr,
                                   span.start))
        if span.kind.startswith("miss.") and span.retries > RETRY_BOUND:
            return ("bounded-retry",
                    "node %d %s for 0x%x took %d retries (bound %d)"
                    % (span.node, span.kind, span.addr, span.retries,
                       RETRY_BOUND))
    return None


def _written_lines(system):
    return [] if system.checker is None else system.checker.written_lines()


def _check_single_writer(system, tracer):
    for line in _written_lines(system):
        writers = [hub.node for hub in system.hubs
                   if hub.hierarchy.state_of(line).writable]
        if len(writers) > 1:
            return ("single-writer",
                    "line 0x%x has %d writable copies at quiescence "
                    "(nodes %s)" % (line, len(writers), writers))
    return None


def _dir_entries(system):
    """Every materialised home-directory entry, with its home hub."""
    for hub in system.hubs:
        for line in hub.home_memory.known_lines():
            yield hub, hub.home_memory.entry(line)


def _entry_stuck(entry, where):
    if entry.busy is not None:
        return ("directory-agreement",
                "%s entry 0x%x still busy (%s) at quiescence"
                % (where, entry.addr, entry.busy.kind.name))
    if entry.pending_updates:
        return ("directory-agreement",
                "%s entry 0x%x has %d unacknowledged updates at quiescence"
                % (where, entry.addr, entry.pending_updates))
    if entry.deferred_undelegate is not None:
        return ("directory-agreement",
                "%s entry 0x%x has a deferred undelegation at quiescence"
                % (where, entry.addr))
    return None


def _check_directory_agreement(system, tracer):
    for hub, entry in _dir_entries(system):
        stuck = _entry_stuck(entry, "home")
        if stuck is not None:
            return stuck
        if entry.state is DirState.EXCL:
            if entry.owner is None:
                return ("directory-agreement",
                        "EXCL entry 0x%x has no owner" % entry.addr)
            if not system.hubs[entry.owner].hierarchy.state_of(
                    entry.addr).writable:
                return ("directory-agreement",
                        "EXCL entry 0x%x names owner %d but that node "
                        "holds no writable copy" % (entry.addr, entry.owner))
        elif entry.state is DirState.DELE:
            delegate = system.hubs[entry.delegate]
            pentry = (delegate.producer_table.lookup(entry.addr, touch=False)
                      if delegate.producer_table is not None else None)
            if pentry is None:
                return ("directory-agreement",
                        "DELE entry 0x%x names delegate %d but its producer "
                        "table has no entry" % (entry.addr, entry.delegate))
            stuck = _entry_stuck(pentry, "delegated")
            if stuck is not None:
                return stuck
    return None


def _visible_value(system, hub, entry):
    """The value the directory tree exposes for ``entry``'s line, or a
    ``(oracle, message)`` violation; follows one delegation link."""
    if entry.state is DirState.DELE:
        pentry = system.hubs[entry.delegate].producer_table.lookup(
            entry.addr, touch=False)
        # Agreement oracle already guaranteed pentry exists and is idle.
        return _visible_value(system, system.hubs[entry.delegate], pentry)
    if entry.state is DirState.EXCL:
        return system.hubs[entry.owner].hierarchy.value_of(entry.addr)
    return entry.value


def _check_lost_update(system, tracer):
    if system.checker is None:
        return None
    for hub, entry in _dir_entries(system):
        last = system.checker.last_write_value(entry.addr)
        if last is None:
            continue  # never written (or not tracked): nothing to compare
        visible = _visible_value(system, hub, entry)
        if visible != last:
            return ("lost-update",
                    "line 0x%x settled at %r but the last committed write "
                    "was %r (dir state %s at home %d)"
                    % (entry.addr, visible, last, entry.state.name,
                       hub.node))
    return None
