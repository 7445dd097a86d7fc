"""Safety invariants checked in every reachable state (paper §2.5).

The paper verifies the Murphi DASH model's invariants, highlighting
"single writer exists" and "consistency within the directory"; we check
those plus value coherence and rest in quiescent states.  The fuzz
oracles (:mod:`repro.fuzz.oracles`) run the same functions on the
simulator's final state.

Invariant subtleties mirror real protocol behaviour:

* A node's own pinned RAC entry may coexist with (and be staler than) its
  own M/E cache copy — same node, so SWMR is about *other* nodes.
* The directory's sharing vector is a *superset* of actual copies (silent
  S evictions, the preserved update set), never a subset — checked only
  outside transient BUSY windows.
* Value coherence, rest and owner presence are quiescent-state
  properties: with messages in flight a just-written value is still
  propagating and a directory may legitimately be mid-transaction.
"""

from .model import quiescent


def single_writer(state):
    """At most one node holds a writable copy, and while one does, no other
    node holds any readable copy (cache S or RAC entry)."""
    _cur, caches, racs, _cpus, _home, _deleg, _hints, _net = state
    owners = [n for n, (st, _v) in enumerate(caches) if st in "EM"]
    if len(owners) > 1:
        return False
    if not owners:
        return True
    owner = owners[0]
    for node, (st, _v) in enumerate(caches):
        if node != owner and st != "I":
            return False
    for node, rac in enumerate(racs):
        if node != owner and rac is not None:
            return False
    return True


def directory_consistency(state):
    """Outside BUSY windows, the governing directory entry must cover every
    readable copy and agree with the actual owner."""
    _cur, caches, racs, _cpus, home, deleg, _hints, net = state
    hstate, hsharers, howner, _memval, busy = home
    if busy is not None:
        return True  # transient window
    if deleg is not None:
        dnode, (dstate, dsharers, downer, _dv, dbusy, _armed, _pend,
                _deferred) = deleg
        if dbusy:
            return True
        if hstate != "DELE" or howner != dnode:
            # The home may briefly disagree while DELEGATE/UNDELE messages
            # are in flight; those windows have non-empty networks.
            return len(net) > 0
        governing_sharers = dsharers
        governing_owner = downer if dstate == "E" else None
    else:
        if hstate == "DELE":
            return len(net) > 0  # UNDELE in flight
        governing_sharers = hsharers
        governing_owner = howner if hstate == "E" else None
    # Every S copy and unpinned RAC copy must be covered by the sharing
    # vector -- unless data messages still in flight explain the gap.
    in_flight = any(msg[0] in ("DATA_S", "SH_RESP", "UPDATE", "DATA_E",
                               "ACK_X", "EX_RESP", "INV", "INV_ACK",
                               "WB", "EVC", "GETS", "GETX", "NACK",
                               "DELEGATE", "UNDELE")
                    for _pair, queue in net for msg in queue)
    if in_flight:
        return True
    for node, (st, _v) in enumerate(caches):
        if st == "S" and node not in governing_sharers:
            return False
        if st in "EM" and governing_owner != node:
            return False
    for node, rac in enumerate(racs):
        if rac is not None and not rac[1] and node not in governing_sharers:
            return False
    return True


def value_coherence(state):
    """Quiescent states: every readable copy holds the latest committed
    value, and whoever is authoritative for memory holds it too."""
    if not quiescent(state):
        return True
    cur, caches, racs, _cpus, home, deleg, _hints, _net = state
    owner_nodes = [n for n, (st, _v) in enumerate(caches) if st in "EM"]
    for node, (st, value) in enumerate(caches):
        if st != "I" and value != cur:
            return False
    for node, rac in enumerate(racs):
        if rac is None:
            continue
        value, pinned = rac
        if pinned and owner_nodes == [node]:
            continue  # surrogate memory is stale while the producer owns
        if value != cur:
            return False
    if not owner_nodes:
        # Memory (or the delegated surrogate) must be current.
        if deleg is not None:
            dnode = deleg[0]
            rac = racs[dnode]
            if rac is None or rac[0] != cur:
                return False
        elif home[0] != "DELE" and home[3] != cur:
            return False
    return True


def at_rest(state):
    """Quiescent states: no directory is mid-transaction — no busy home or
    delegate, no unacknowledged update, no deferred undelegation."""
    if not quiescent(state):
        return True
    home, deleg = state[4], state[5]
    if home[4] is not None:
        return False
    if deleg is None:
        return True
    _ds, _dsh, _do, _dv, dbusy, _armed, pend, deferred = deleg[1]
    return not dbusy and pend == 0 and not deferred


def owner_holds_copy(state):
    """Quiescent states: the governing E directory's owner holds E/M.  Only
    fuzz runs it: the model still reaches an ownerless E (the XFER-after-
    writeback livelock); the progress fix moves it into ALL_INVARIANTS."""
    if not quiescent(state):
        return True
    caches, home, deleg = state[1], state[4], state[5]
    dstate, owner = ((deleg[1][0], deleg[1][2]) if deleg is not None
                     else (home[0], home[2]))
    return dstate != "E" or (owner is not None and caches[owner][0] in "EM")


ALL_INVARIANTS = (single_writer, directory_consistency, value_coherence,
                  at_rest)
