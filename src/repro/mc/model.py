"""The model checker's shared state kernel (paper §2.5).

Protocol models are compiled from the guarded-action specs by
:class:`repro.spec.mcgen.SpecModel`; this module holds what every
compiled model shares: the state layout, the initial state, the FIFO
network helpers, value freshness, symmetry canonicalisation and
quiescence.  :func:`ProtocolModel` builds the adaptive protocol's model.

The models mirror the simulator's protocol semantics on a deliberately
small configuration — one cache line, a handful of nodes, home at node 0 —
the same methodology as the paper's extended-DASH Murphi model.
Nondeterminism replaces timing: the delegation decision, the intervention
firing point, message delivery interleaving and every CPU's next operation
are all explored exhaustively.  The network preserves order *per (src,
dst) channel* but interleaves channels arbitrarily — exactly the ordering
the fabric provides (constant per-pair latency + FIFO ingress port), and
an ordering the adaptive protocol genuinely relies on: under fully
unordered delivery a stale UPDATE could legally overtake a later INV from
the same producer and resurrect an invalidated copy (the checker finds
that counterexample if the channels are made unordered; see
tests/test_mc_protocol.py).

Data values live in a small symbolic domain: each committed write installs
the smallest value not currently live anywhere in the state (freshness is
all that matters — the protocol never computes on data), and the
value-coherence invariant compares copies against ``cur`` in quiescent
states.  Because values are only ever compared for equality, states that
differ by a renaming of values are behaviourally identical; :func:`canonical`
exploits that symmetry (Murphi-style scalarset reduction) to collapse the
visited set by an order of magnitude.  The checker stores and explores only
these representatives, so the rules fire on canonical states, and the
successors they yield are mostly canonical already.

State layout (all tuples, hashable)::

    (cur, caches, racs, cpus, home, deleg, hints, net)

    caches : per node (state, value), state in "ISEM"
    racs   : per node None | (value, pinned)
    cpus   : per node None | ("R", raced) | ("W", granted, needed, got)
    home   : (state, sharers, owner, memval, busy)
             state in "U","S","E","DELE" (owner doubles as delegate in DELE)
             busy None | (kind, requester, extra)
    deleg  : None | (node, (state, sharers, owner, value, busy, armed,
             pending_update_acks, deferred_undelegate))
    hints  : per node None | node
    net    : sorted tuple of ((src, dst), (msg, ...)) FIFO channels,
             msg = (mtype, src, dst, payload-tuple)
"""

from typing import Any, List, Tuple

HOME = 0

#: Size of the symbolic data-value domain.  Values are only compared for
#: equality; 8 comfortably exceeds the maximum number of simultaneously
#: live distinct values (current + stale copies + in-flight data).
VALUE_DOMAIN = 8

#: For each data-bearing message type, the index of the value slot in its
#: payload tuple (used by freshness scanning and canonicalisation).
_MSG_VALUE_POS = {
    "DATA_S": 0, "DATA_E": 0, "SH_WB": 0, "SH_RESP": 0, "EX_RESP": 0,
    "WB": 0, "UPDATE": 0, "DELEGATE": 1, "UNDELE": 1,
}

#: One model state, one network message, one network.
State = Tuple[Any, ...]
McMsg = Tuple[Any, ...]
Net = Tuple[Any, ...]


def initial_state(num_nodes: int) -> State:
    return (
        0,
        tuple(("I", 0) for _ in range(num_nodes)),
        tuple(None for _ in range(num_nodes)),
        tuple(None for _ in range(num_nodes)),
        ("U", frozenset(), None, 0, None),
        None,
        tuple(None for _ in range(num_nodes)),
        tuple(),
    )


def _tup_set(tup: Tuple[Any, ...], index: int,
             value: Any) -> Tuple[Any, ...]:
    return tup[:index] + (value,) + tup[index + 1:]


def _net_add(net: Net, *msgs: McMsg) -> Net:
    """Append messages to their (src, dst) FIFO channels.

    The network stays sorted by channel, so each message either extends
    its channel in place or opens a new one at its sorted position."""
    for msg in msgs:
        pair = (msg[1], msg[2])
        for index, (channel, queue) in enumerate(net):
            if channel == pair:
                net = (net[:index] + ((pair, queue + (msg,)),)
                       + net[index + 1:])
                break
            if channel > pair:
                net = net[:index] + ((pair, (msg,)),) + net[index:]
                break
        else:
            net = net + ((pair, (msg,)),)
    return net


def _net_add_unique(net: Net, msg: McMsg) -> Net:
    """Add ``msg`` unless an identical copy is already queued.

    Used only for idempotent hint messages (HOME_CHANGED): a retry loop can
    legally emit unboundedly many identical hints while an UNDELE is in
    flight, and delivering N of them is behaviourally identical to
    delivering one — deduplication keeps the state space finite without
    losing any distinct behaviour.
    """
    pair = (msg[1], msg[2])
    for queue_pair, queue in net:
        if queue_pair == pair and msg in queue:
            return net
    return _net_add(net, msg)


def _net_pop(net: Net, index: int, pos: int) -> Net:
    """Remove message ``pos`` of channel ``index``: its head under FIFO,
    any message when channels are unordered.  An emptied channel goes."""
    pair, queue = net[index]
    rest = queue[:pos] + queue[pos + 1:]
    if rest:
        return net[:index] + ((pair, rest),) + net[index + 1:]
    return net[:index] + net[index + 1:]


def quiescent(state: State) -> bool:
    """Nothing in flight and every CPU idle: a legal resting state."""
    return not state[7] and all(cpu is None for cpu in state[3])


def _value_fields(state: State) -> List[Any]:
    """Every live data value, in a fixed traversal order."""
    cur, caches, racs, _cpus, home, deleg, _hints, net = state
    values = [cur]
    for cstate, value in caches:
        if cstate != "I":
            values.append(value)
    for rac in racs:
        if rac is not None:
            values.append(rac[0])
    values.append(home[3])  # memval
    if deleg is not None:
        values.append(deleg[1][3])
    for _pair, queue in net:
        for msg in queue:
            pos = _MSG_VALUE_POS.get(msg[0])
            if pos is not None:
                values.append(msg[3][pos])
    return values


def fresh_value(state: State) -> int:
    """Smallest domain value not live anywhere (a brand-new datum)."""
    used = set(_value_fields(state))
    for candidate in range(VALUE_DOMAIN):
        if candidate not in used:
            return candidate
    raise AssertionError("VALUE_DOMAIN exhausted; raise it")


def canonical(state: State) -> State:
    """Symmetry-class representative: rename values by first appearance.

    Sound because the protocol treats values as opaque tokens compared
    only for equality.  The engine explores from the result, so it is a
    state of the same class that the rules accept, and the function is
    idempotent.  A state whose values already appear as 0, 1, 2, ... in
    traversal order is its class's representative and comes back as the
    same object, which tells the engine no renaming happened."""
    order = dict.fromkeys(_value_fields(state))
    if list(order) == list(range(len(order))):
        return state
    rmap = {old: new for new, old in enumerate(order)}.__getitem__
    cur, caches, racs, cpus, home, deleg, hints, net = state
    caches = tuple((st, rmap(v) if st != "I" else 0) for st, v in caches)
    racs = tuple(None if r is None else (rmap(r[0]), r[1]) for r in racs)
    home = (home[0], home[1], home[2], rmap(home[3]), home[4])
    if deleg is not None:
        d = deleg[1]
        deleg = (deleg[0], (d[0], d[1], d[2], rmap(d[3]), d[4], d[5],
                            d[6], d[7]))
    new_net = []
    for pair, queue in net:
        new_queue = []
        for msg in queue:
            pos = _MSG_VALUE_POS.get(msg[0])
            if pos is None:
                new_queue.append(msg)
            else:
                payload = list(msg[3])
                payload[pos] = rmap(payload[pos])
                new_queue.append((msg[0], msg[1], msg[2], tuple(payload)))
        new_net.append((pair, tuple(new_queue)))
    return (rmap(cur), caches, racs, cpus, home, deleg, hints,
            tuple(new_net))


def ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                  enable_delegation=True, enable_updates=True,
                  allow_evictions=True, ordered_channels=True):
    """The adaptive protocol's model, compiled from its spec.

    Shorthand for ``SpecModel(get_spec("adaptive"), ...)``; disabling
    delegation or updates checks the spec with that feature projected
    away (no delegation means no updates either).
    ``ordered_channels=False`` removes the fabric's per-pair FIFO
    guarantee; the checker then finds the stale-UPDATE-overtakes-INV
    counterexample, demonstrating the protocol's ordering assumption.
    """
    from ..spec.mcgen import SpecModel  # the compiler imports this kernel
    from ..spec.registry import get_spec
    dropped = [name for name, on in (("delegation", enable_delegation),
                                     ("updates", enable_updates)) if not on]
    return SpecModel(get_spec("adaptive").without(*dropped),
                     num_nodes=num_nodes, writers=writers, readers=readers,
                     allow_evictions=allow_evictions,
                     ordered_channels=ordered_channels)
