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
* the model checker's invariants (:mod:`repro.mc.invariants`): every line
  a home directory knows is projected into the model's state
  (:func:`project_line`) and checked with :data:`INVARIANTS`; a violation
  is named after the invariant that failed.

Each check returns ``(name, message)`` on violation; ``None`` means the
run is clean.
"""

from ..common.errors import ProtocolError
from ..directory.state import DirState
from ..mc.invariants import ALL_INVARIANTS, owner_holds_copy

#: Retries one transaction may legitimately accumulate.  Real contention
#: on these small fuzz workloads stays in single digits; the forced-NACK
#: budget adds at most 64 across the whole run.
RETRY_BOUND = 1000

#: What fuzz checks on each projected line.  ``owner_holds_copy`` is not
#: in the model's set yet (see its docstring), but the simulator holds it.
INVARIANTS = ALL_INVARIANTS + (owner_holds_copy,)

_DIR_LETTER = {DirState.UNOWNED: "U", DirState.SHARED: "S",
               DirState.EXCL: "E", DirState.DELE: "DELE"}


def check_quiescence(system, tracer):
    """Run every quiescence oracle; first violation wins (span bookkeeping
    first, then the invariants line by line)."""
    violation = _check_spans(system, tracer)
    if violation is not None:
        return violation
    for hub in system.hubs:
        for line in hub.home_memory.known_lines():
            state = project_line(system, line)
            for invariant in INVARIANTS:
                if not invariant(state):
                    return (invariant.__name__,
                            "line 0x%x (home %d) violates %s at quiescence: "
                            "%r" % (line, hub.node, invariant.__name__,
                                    state))
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


def project_line(system, line):
    """One quiescent line of ``system`` as the model's ``State``
    (:mod:`repro.mc.model`): ``cur`` is the last committed write (0 if
    none), caches come from each L2, RACs as ``(value, pinned)``, and the
    home and delegate tuples from the home's entry and the delegate's
    producer table.  Sharer sets are what the directory format reports,
    the set INVs go to.  CPUs, hints and the network are empty."""
    hubs, num_nodes = system.hubs, len(system.hubs)
    home_hub = hubs[system.address_map.home_of(line)]
    entry = home_hub.home_memory.entry(line)
    if entry.pending_updates or entry.deferred_undelegate is not None:
        raise ProtocolError("home entry 0x%x carries delegated update "
                            "bookkeeping" % line)

    def directory(d):
        return (_DIR_LETTER[d.state], frozenset(
            home_hub.dir_format.observed_sharers(d.sharers, num_nodes)))

    caches, racs = [], []
    for hub in hubs:
        copy = hub.hierarchy.l2.probe(line)
        caches.append(("I", 0) if copy is None
                      else (copy.state.value, copy.value))
        rac = hub.rac.probe(line) if hub.rac is not None else None
        racs.append(None if rac is None else (rac.value, rac.pinned))
    dele = entry.state is DirState.DELE
    busy = entry.busy and (entry.busy.kind.value, entry.busy.requester, None)
    home = directory(entry) + (entry.delegate if dele else entry.owner,
                               entry.value, busy)
    table = hubs[entry.delegate].producer_table if dele else None
    pentry = table.lookup(line, touch=False) if table is not None else None
    deleg = None if pentry is None else (entry.delegate, directory(pentry) + (
        pentry.owner, pentry.value, pentry.busy is not None, False,
        pentry.pending_updates, pentry.deferred_undelegate is not None))
    cur = system.checker.last_write_value(line)
    return (cur or 0, tuple(caches), tuple(racs), (None,) * num_nodes, home,
            deleg, (None,) * num_nodes, ())
