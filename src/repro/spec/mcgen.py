"""Compile a ``mc_model="generated"`` spec into an executable model.

:class:`SpecModel` is the model-checker twin of every protocol whose spec
sets ``mc_model="generated"``: the paper's adaptive protocol, and the
``wi`` and MESI baselines derived from it.  The spec's guarded
transitions become the message dispatch, and each
transition's ``effect`` names a kernel primitive —
:data:`EFFECTS` for message handlers, :data:`ENTRY_EFFECTS` for the
spontaneous rules (CPU requests, evictions, the speculative-update
intervention, voluntary undelegation).

The spec is load-bearing at runtime, in three ways:

* **dispatch** — a delivered message executes the transition whose guard
  admits the concrete state.  Several transitions may match only when
  every match is tagged ``nondet`` (the delegation decision), and then
  each fires; any other multiple match, or none, raises
  :class:`SpecExecutionError` (the SPC001/SPC002 analyses prove this
  cannot happen for a clean spec, and the model enforces it anyway);
* **reachability** — an ``unreachable``-tagged transition that fires
  raises (the spec's "cannot happen" claims become runtime assertions);
* **emissions** — every message the kernel sends is checked against the
  executing transition's declared ``emit`` set, so the spec's transition
  relation and the explored behaviour cannot drift apart.

Guards are pure functions of the bound variables, so the dispatch of each
distinct binding is resolved — and its first two checks run — once, then
memoised; the emission check runs on every send.

The model checks the spec it is given and nothing else: a configuration
without delegation or updates is the spec with those features projected
away (:meth:`~repro.spec.lang.ProtocolSpec.without`), which is also how
the ``wi`` and MESI baselines' specs are derived.  ``allow_evictions``
removes the eviction rules.  State layout, network and value canonicalisation come
from :mod:`repro.mc.model`, so :data:`repro.mc.invariants.ALL_INVARIANTS`
apply unchanged.
"""

from functools import partial
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List,
                    Sequence, Tuple)

from ..common.errors import ConfigError, ReproError
from ..mc import model as kernel
from ..mc.model import (HOME, McMsg, Net, State, _net_add, _net_add_unique,
                        _net_pop, _tup_set)
from .lang import ProtocolSpec, T, guard_allows

#: Rule order of every compiled model.  It fixes the order in which
#: successors are explored, hence which counterexample a refuted
#: configuration reports.
RULE_ORDER = ("rule_cpu_read", "rule_cpu_write", "rule_deliver",
              "rule_evict", "rule_rac_evict", "rule_voluntary_undelegate",
              "rule_intervention_fire")

#: Entry rules every generated spec must declare.
REQUIRED_RULES = ("rule_cpu_read", "rule_cpu_write", "rule_evict")

#: Rules that ``allow_evictions=False`` removes.
EVICTION_RULES = frozenset({"rule_evict", "rule_rac_evict"})

Labelled = Iterator[Tuple[str, State]]


class SpecExecutionError(ReproError):
    """The generated model diverged from its spec at runtime."""


class Fire:
    """One spec transition bound to its kernel effect and emit check."""

    __slots__ = ("t", "effect", "tokens", "labels")

    def __init__(self, spec: ProtocolSpec, t: T, effect: Any,
                 num_nodes: int) -> None:
        self.t = t
        self.effect = effect
        tokens = spec.mc_token_map()
        self.tokens: FrozenSet[str] = frozenset(
            token for name in t.emit for token in tokens[name])
        #: Rule label when delivered to each node: ``<label>_<node>``.
        self.labels = ["%s_%d" % (t.label, node)
                       for node in range(num_nodes)]

    def _refuse(self, msg: McMsg) -> SpecExecutionError:
        return SpecExecutionError(
            "transition %r emitted %s, outside its declared emit set %s"
            % (self.t.label, msg[0], list(self.t.emit)))

    def send(self, net: Net, *msgs: McMsg) -> Net:
        """``_net_add`` that asserts each message against ``t.emit``."""
        for msg in msgs:
            if msg[0] not in self.tokens:
                raise self._refuse(msg)
        return _net_add(net, *msgs)

    def send_unique(self, net: Net, msg: McMsg) -> Net:
        """``_net_add_unique`` (idempotent hints), emission-checked."""
        if msg[0] not in self.tokens:
            raise self._refuse(msg)
        return _net_add_unique(net, msg)


class SpecModel:
    """Executable model compiled from a guarded-action protocol spec."""

    quiescent = staticmethod(kernel.quiescent)
    canonical = staticmethod(kernel.canonical)

    def __init__(self, spec: ProtocolSpec, num_nodes: int = 3,
                 writers: Sequence[int] = (1,),
                 readers: Sequence[int] = (2,),
                 allow_evictions: bool = True,
                 ordered_channels: bool = True) -> None:
        if spec.mc_model != "generated":
            raise SpecExecutionError(
                "spec %r has mc_model=%r; only 'generated' specs compile"
                % (spec.name, spec.mc_model))
        if num_nodes < 2:
            raise ConfigError("model needs at least home + one other node")
        if HOME in writers:
            raise ConfigError(
                "the model exercises remote producers; home writes are "
                "covered by the simulator's online checks")
        for node in tuple(writers) + tuple(readers):
            if not 0 <= node < num_nodes:
                raise ConfigError("node %r out of range" % node)
        spec.validate()
        self.spec = spec
        self.num_nodes = num_nodes
        self.writers = tuple(writers)
        self.readers = tuple(readers)
        self.allow_evictions = allow_evictions
        self.ordered_channels = ordered_channels
        #: Whether a producer's committed write arms the update timer.
        self.arms_updates = any(t.mc_rule == "rule_intervention_fire"
                                for t in spec.entry_transitions())
        self._dispatch = self._build_dispatch()
        self._memo: Dict[Tuple[Any, ...], List[Fire]] = {}
        self._rules = self._build_rules()

    def _build_dispatch(self) -> Dict[str, List[Fire]]:
        """``{mc token: candidate transitions}`` from the spec.

        Hoisted edges are realised by entry rules, ``only="sim"`` edges
        have no model counterpart, and ``also``-tagged accompaniments
        are not competing outcomes — none of them dispatch.
        ``unreachable``-tagged transitions *are* kept: them matching is
        the runtime violation this model exists to detect.
        """
        dispatch: Dict[str, List[Fire]] = {}
        for msg in self.spec.messages:
            group: List[Fire] = []
            for t in self.spec.handler_transitions(msg.name):
                if t.hoist or t.only == "sim" or t.has_tag("also"):
                    continue
                effect = EFFECTS.get(t.effect)
                if effect is None and not t.has_tag("unreachable"):
                    raise SpecExecutionError(
                        "transition %r names unknown effect %r"
                        % (t.label, t.effect))
                group.append(Fire(self.spec, t, effect, self.num_nodes))
            for token in msg.mc:
                dispatch[token] = [f for f in group
                                   if not f.t.via or f.t.via == token]
        return dispatch

    def _build_rules(self) -> List[Callable[[State], Any]]:
        """The engine's rules, in :data:`RULE_ORDER`.

        Each entry transition's ``mc_rule`` names the rule it stands for
        and its ``effect`` the kernel that realises it; ``hoist``
        annotations must point at one of those rules.
        """
        entries = {t.mc_rule: t for t in self.spec.entry_transitions()}
        for rule in REQUIRED_RULES:
            if rule not in entries:
                raise SpecExecutionError(
                    "spec %r declares no entry transition for %s"
                    % (self.spec.name, rule))
        unknown = sorted(set(entries) - set(RULE_ORDER))
        if unknown:
            raise SpecExecutionError(
                "spec %r names model rule %s, which does not exist"
                % (self.spec.name, unknown[0]))
        dangling = sorted({t.hoist for t in self.spec.transitions
                           if t.hoist} - set(entries))
        if dangling:
            raise SpecExecutionError(
                "spec %r hoists emissions into %s, which no entry "
                "transition declares" % (self.spec.name, dangling[0]))
        rules: List[Callable[[State], Any]] = []
        for rule in RULE_ORDER:
            if rule == "rule_deliver":
                rules.append(self.rule_deliver)
                continue
            t = entries.get(rule)
            if t is None or (rule in EVICTION_RULES
                             and not self.allow_evictions):
                continue
            effect = ENTRY_EFFECTS.get(t.effect)
            if effect is None:
                raise SpecExecutionError(
                    "entry transition %r names unknown effect %r"
                    % (t.label, t.effect))
            fire = Fire(self.spec, t, effect, self.num_nodes)
            rules.append(partial(effect, self, fire))
        return rules

    # -- engine interface --------------------------------------------------

    def initial_states(self) -> List[State]:
        return [kernel.initial_state(self.num_nodes)]

    def rules(self) -> List[Callable[[State], Any]]:
        return list(self._rules)

    # -- guard environment -------------------------------------------------

    def _env(self, msg: McMsg, home: Any, cache: str, cpu: Any,
             deleg: Any) -> Dict[str, str]:
        """Bind every guard variable the spec's domains declare.

        The binding is a function of what the delivery sees, and only of
        that: the message, the home entry, the destination's cache state
        and CPU, and the delegate entry when the destination holds it
        (else None).  :meth:`rule_deliver` memoises on exactly these."""
        token, src, dst, payload = msg
        hstate, sharers, owner, _memval, busy = home
        here = deleg is not None
        env = {
            "busy": "none" if busy is None else busy[0],
            "dir": hstate,
            "cache": cache,
            "cpu": "idle" if cpu is None else cpu[0],
            "raced": "yes" if (cpu is not None and cpu[0] == "R"
                              and cpu[1]) else "no",
            "deleg_here": "yes" if here else "no",
        }
        if here:
            entry = deleg[1]
            env["dbusy"] = "yes" if entry[4] else "no"
            env["pend"] = "some" if entry[6] > 0 else "zero"
            env["avail"] = ("no" if entry[4] or cpu is not None
                            or entry[6] > 0 else "yes")
        if token in ("GETS", "GETX"):
            requester = payload[0]
            env["at"] = ("delegate" if here
                         else "stale" if dst != HOME else "home")
            env["owner_is_requester"] = ("yes" if owner == requester
                                         else "no")
            env["self_req"] = ("yes" if requester == (dst if here else owner)
                               else "no")
            if token == "GETX":
                env["upgrade"] = ("yes" if requester in sharers
                                  and payload[1] else "no")
        elif token in ("WB", "EVC", "SH_WB", "XFER"):
            env["owner_is_src"] = "yes" if owner == src else "no"
        elif token == "NACKI":
            env["ireason"] = payload[0]
            env["wb_flag"] = ("yes" if busy is not None
                              and busy[0] in ("int_s", "int_x")
                              and busy[2] else "no")
        elif token == "NACKR":
            env["rreason"] = payload[0]
        elif token == "INT":
            env["mode"] = payload[0]
        return env

    # -- message delivery ---------------------------------------------------

    def rule_deliver(self, state: State) -> Labelled:
        net, deleg, memo = state[7], state[5], self._memo
        for index, (_pair, queue) in enumerate(net):
            for pos, msg in enumerate(queue[:1] if self.ordered_channels
                                      else queue):
                # Guards are pure functions of the binding, so dispatch
                # is memoised on exactly what _env reads.
                dst = msg[2]
                key = (msg, state[4], state[1][dst][0], state[3][dst],
                       deleg if deleg is not None and deleg[0] == dst
                       else None)
                fires = memo.get(key)
                if fires is None:
                    fires = memo[key] = self._resolve(msg[0],
                                                      self._env(*key))
                base = state[:7] + (_net_pop(net, index, pos),)
                for fire in fires:
                    try:
                        nxt = fire.effect(self, base, msg, fire)
                    except (TypeError, ValueError, IndexError,
                            KeyError) as err:
                        # A kernel fed a state it does not fit.
                        raise SpecExecutionError(
                            "transition %r (effect %r) failed on %s: %s"
                            % (fire.t.label, fire.t.effect, msg[0], err)
                        ) from err
                    yield fire.labels[dst], nxt

    def _resolve(self, token: str, env: Dict[str, str]) -> List[Fire]:
        """The transitions a delivery fires, after the dispatch checks."""
        candidates = self._dispatch.get(token)
        if not candidates:
            raise SpecExecutionError(
                "model emitted token %s, which no %s spec transition "
                "handles" % (token, self.spec.name))
        matches = [f for f in candidates if guard_allows(f.t.when, env)]
        if not matches or (len(matches) > 1 and not all(
                f.t.has_tag("nondet") for f in matches)):
            raise SpecExecutionError(
                "%d spec transitions match %s in state env %s: %s"
                % (len(matches), token, env, [f.t.label for f in matches]))
        for fire in matches:
            if fire.t.has_tag("unreachable"):
                raise SpecExecutionError(
                    "spec-unreachable transition %r fired for %s (env %s)"
                    % (fire.t.label, token, env))
        return matches


# -- kernel helpers -----------------------------------------------------------
#
# Shared by every generated model.  Without delegation the deleg/hints
# stay empty, and without the RAC feature the racs do too, so the
# delegation arms never fire for wi or MESI, nor the RAC arms for MESI.


def _target_of(state: State, node: int) -> int:
    """Where ``node`` sends a request: itself if delegated here, the
    hinted delegate, or the home (mirrors Hub._resolve_target)."""
    deleg, hints = state[5], state[6]
    if deleg is not None and deleg[0] == node:
        return node
    if hints[node] is not None:
        return int(hints[node])
    return HOME


def _set_hint(state: State, node: int, hint: Any) -> State:
    return state[:6] + (_tup_set(state[6], node, hint),) + state[7:]


def _commit_write(model: SpecModel, state: State, node: int,
                  fire: Fire) -> State:
    """All acks + grant collected: the store becomes globally visible."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    new_value = kernel.fresh_value(state)
    caches = _tup_set(caches, node, ("M", new_value))
    cpus = _tup_set(cpus, node, None)
    # A stale unpinned RAC copy of a line we now own must go.
    if racs[node] is not None and not racs[node][1]:
        racs = _tup_set(racs, node, None)
    if deleg is not None and deleg[0] == node:
        dstate, dsharers, downer, dvalue, _busy, _armed, pend, deferred = \
            deleg[1]
        deleg = (node, (dstate, dsharers, downer, dvalue, False,
                        model.arms_updates, pend, deferred))
        state = (new_value, caches, racs, cpus, home, deleg, hints, net)
        if deferred and pend == 0:
            return _undelegate(state, node, fire)
        return state
    return (new_value, caches, racs, cpus, home, deleg, hints, net)


def _maybe_commit(model: SpecModel, state: State, node: int,
                  fire: Fire) -> State:
    cpu = state[3][node]
    if cpu is not None and cpu[0] == "W" and cpu[1] and cpu[3] >= cpu[2]:
        return _commit_write(model, state, node, fire)
    return state


def _undelegate(state: State, node: int, fire: Fire) -> State:
    """Flush the producer's local state and emit UNDELE (§2.3.3), or
    mark it deferred while pushed updates are unacknowledged."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dstate, dsharers, downer, dvalue, dbusy, armed, pend, _deferred = \
        deleg[1]
    if pend > 0:
        entry = (dstate, dsharers, downer, dvalue, dbusy, armed, pend, True)
        return (cur, caches, racs, cpus, home, (node, entry), hints, net)
    cstate, cvalue = caches[node]
    rac = racs[node]
    if cstate == "M":
        value = cvalue
    elif rac is not None:
        value = rac[0]
    elif cstate != "I":
        value = cvalue
    else:
        value = dvalue
    if dstate == "E":
        snap: Tuple[Any, ...] = ("U", frozenset(), None)
    else:
        remaining = dsharers - {node}
        snap = ("S" if remaining else "U", remaining, None)
    caches = _tup_set(caches, node, ("I", 0))
    racs = _tup_set(racs, node, None)
    net = fire.send(net, ("UNDELE", node, HOME, (snap, value)))
    return (cur, caches, racs, cpus, home, None, hints, net)


def _delegate(state: State, producer: int, update_set: FrozenSet[int],
              n_acks: int, fire: Fire) -> State:
    """Home side of Figure 4a: DELE state + DELEGATE-as-reply."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    memval = home[3]
    new_home = ("DELE", frozenset(), producer, memval, None)
    snap = ("E", frozenset(update_set), producer)
    net = fire.send(net, ("DELEGATE", HOME, producer,
                          (snap, memval, n_acks)))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _resolve_wb_race(state: State, fire: Fire) -> State:
    """Data arrived while a requester waited: reset to UNOWNED and
    replay the buffered request (mirrors HomeMixin._resolve_wb_race)."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    _h, _s, _o, memval, busy = home
    kind, requester, extra = busy
    if kind == "int_s":
        replay: McMsg = ("GETS", requester, HOME, (requester,))
    elif kind == "wb" and extra[0] == "GETS":
        replay = ("GETS", extra[1], HOME, (extra[1],))
    else:
        req = extra[1] if kind == "wb" else requester
        replay = ("GETX", req, HOME, (req, False))
    new_home = ("U", frozenset(), None, memval, None)
    net = fire.send(net, replay)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _memval_after(home: Any, msg: McMsg) -> Any:
    """WRITEBACK data always lands in memory, even on stale paths."""
    return msg[3][0] if msg[0] == "WB" else home[3]


# -- effect kernel: message handlers ------------------------------------------
#
# ``effect(model, state, msg, fire) -> next_state``, where ``state``
# already has the message consumed.  An effect is a function: the
# protocol's nondeterministic choices are separate ``nondet`` transitions.

Effect = Callable[[SpecModel, State, McMsg, Fire], State]


def _eff_stale_drop(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    return state


def _eff_nack_requester(model: SpecModel, state: State, msg: McMsg,
                        fire: Fire) -> State:
    # The NACK travels on the home's channel even when an acting
    # delegate refuses the request.
    net = fire.send(state[7], ("NACK", HOME, msg[3][0], ()))
    return state[:7] + (net,)


def _eff_bounce_not_home(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    """A request reached a node that is not (or no longer) its home."""
    dst, requester = msg[2], msg[3][0]
    return state[:7] + (fire.send(state[7],
                                 ("NACKNH", dst, requester, ())),)


def _eff_forward_to_delegate(model: SpecModel, state: State, msg: McMsg,
                             fire: Fire) -> State:
    requester, owner = msg[3][0], state[4][2]
    net = fire.send(state[7], ("GETS", HOME, owner, (requester,)))
    net = fire.send_unique(net, ("HC", HOME, requester, (owner,)))
    return state[:7] + (net,)


def _eff_gets_unowned(model: SpecModel, state: State, msg: McMsg,
                      fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester = msg[3][0]
    memval = home[3]
    new_home = ("E", frozenset(), requester, memval, None)
    net = fire.send(net, ("DATA_E", HOME, requester, (memval, 0)))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_gets_shared(model: SpecModel, state: State, msg: McMsg,
                     fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester = msg[3][0]
    _h, sharers, _o, memval, _b = home
    new_home = ("S", sharers | {requester}, None, memval, None)
    net = fire.send(net, ("DATA_S", HOME, requester, (memval, False)))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_gets_intervene(model: SpecModel, state: State, msg: McMsg,
                        fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester = msg[3][0]
    hstate, sharers, owner, memval, _b = home
    new_home = (hstate, sharers, owner, memval, ("int_s", requester, False))
    net = fire.send(net, ("INT", HOME, owner, ("s", requester)))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_acting_gets_serve(model: SpecModel, state: State, msg: McMsg,
                           fire: Fire) -> State:
    """The delegate serves a read from its surrogate directory."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester = msg[3][0]
    node, (dstate, dsharers, downer, dvalue, _dbusy, armed, pend,
           deferred) = deleg
    if dstate == "E":
        if caches[node][0] in "EM":
            value = caches[node][1]
            caches = _tup_set(caches, node, ("S", value))
            racs = _tup_set(racs, node, (value, True))
        else:
            value = racs[node][0]
        deleg = (node, ("S", frozenset({node, requester}), None, value,
                        False, False, pend, deferred))
    else:
        value = racs[node][0] if racs[node] is not None else dvalue
        deleg = (node, (dstate, dsharers | {requester}, downer, dvalue,
                        False, armed, pend, deferred))
    net = fire.send(net, ("DATA_S", node, requester, (value, True)))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_delegate_unowned(model: SpecModel, state: State, msg: McMsg,
                          fire: Fire) -> State:
    return _delegate(state, msg[3][0], frozenset(), 0, fire)


def _invalidate_sharers(state: State, requester: int,
                        fire: Fire) -> Tuple[FrozenSet[int], Net]:
    targets = state[4][1] - {requester}
    net = state[7]
    for target in sorted(targets):
        net = fire.send(net, ("INV", HOME, target, (requester,)))
    return targets, net


def _getx_from_shared(model: SpecModel, state: State, msg: McMsg,
                      fire: Fire, grant_ack: bool,
                      keep_sharers: bool) -> State:
    """Invalidate the readers and grant exclusivity (an ACK_X for an
    upgrade, else the data)."""
    cur, caches, racs, cpus, home, deleg, hints, _net = state
    requester = msg[3][0]
    memval = home[3]
    targets, net = _invalidate_sharers(state, requester, fire)
    if grant_ack:
        grant: McMsg = ("ACK_X", HOME, requester, (len(targets),))
    else:
        grant = ("DATA_E", HOME, requester, (memval, len(targets)))
    net = fire.send(net, grant)
    # The adaptive protocol keeps the invalidated readers as the
    # predicted-consumer set; MESI forgets them.
    new_home = ("E", targets if keep_sharers else frozenset(), requester,
                memval, None)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_delegate_shared(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    requester = msg[3][0]
    targets, net = _invalidate_sharers(state, requester, fire)
    return _delegate(state[:7] + (net,), requester, targets, len(targets),
                    fire)


def _eff_getx_intervene(model: SpecModel, state: State, msg: McMsg,
                        fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester = msg[3][0]
    hstate, sharers, owner, memval, _b = home
    new_home = (hstate, sharers, owner, memval, ("int_x", requester, False))
    net = fire.send(net, ("INT", HOME, owner, ("x", requester)))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_recall_delegate(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    """Park the write miss and ask the delegate to hand the line back."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    requester, has_copy = msg[3]
    hstate, sharers, owner, memval, _b = home
    new_home = (hstate, sharers, owner, memval,
                ("undele", requester, (requester, has_copy)))
    net = fire.send(net, ("UNDELE_REQ", HOME, owner, ()))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_acting_getx_deferred(model: SpecModel, state: State, msg: McMsg,
                              fire: Fire) -> State:
    """Updates still draining: plain NACK, undelegate once they drain."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    node, entry = deleg
    deleg = (node, entry[:7] + (True,))
    net = fire.send(net, ("NACK", node, msg[3][0], ()))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_acting_getx_release(model: SpecModel, state: State, msg: McMsg,
                             fire: Fire) -> State:
    """Remote exclusive request: bounce it and hand the directory back."""
    node = state[5][0]
    net = fire.send(state[7], ("NACKNH", node, msg[3][0], ()))
    return _undelegate(state[:7] + (net,), node, fire)


def _eff_acting_getx_local(model: SpecModel, state: State, msg: McMsg,
                           fire: Fire) -> State:
    """The delegate's own write: invalidate its consumers locally."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    node, (_ds, dsharers, _do, dvalue, _db, _armed, pend, deferred) = deleg
    targets = dsharers - {node}
    for target in sorted(targets):
        net = fire.send(net, ("INV", node, target, (node,)))
    deleg = (node, ("E", targets, node, dvalue, True, False, pend, deferred))
    cpus = _tup_set(cpus, node, ("W", True, len(targets), 0))
    return _maybe_commit(
        model, (cur, caches, racs, cpus, home, deleg, hints, net), node,
        fire)


def _acting_hint(state: State, msg: McMsg) -> State:
    """A DATA_S served by an acting delegate teaches the reader where
    the line's directory now lives."""
    if msg[0] == "DATA_S" and msg[3][1]:
        return _set_hint(state, msg[2], msg[1])
    return state


def _eff_stale_reply(model: SpecModel, state: State, msg: McMsg,
                     fire: Fire) -> State:
    return _acting_hint(state, msg)


def _eff_install_shared(model: SpecModel, state: State, msg: McMsg,
                        fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = _acting_hint(state,
                                                                    msg)
    dst, value = msg[2], msg[3][0]
    caches = _tup_set(caches, dst, ("S", value))
    cpus = _tup_set(cpus, dst, None)
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_raced_drop(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    state = _acting_hint(state, msg)
    cpus = _tup_set(state[3], msg[2], None)
    return state[:3] + (cpus,) + state[4:]


def _eff_install_excl(model: SpecModel, state: State, msg: McMsg,
                      fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst, value = msg[2], msg[3][0]
    caches = _tup_set(caches, dst, ("E", value))
    cpus = _tup_set(cpus, dst, None)
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_raced_excl_drop(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst = msg[2]
    cpus = _tup_set(cpus, dst, None)
    # An exclusively granted line dropped unread is a clean eviction the
    # directory must hear about.
    net = fire.send(net, ("EVC", dst, HOME, ()))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_grant_excl(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    # The line is installed only at commit (all acks collected), exactly
    # as the implementation fills the L2 at miss completion.
    dst = msg[2]
    n_acks = msg[3][1] if msg[0] == "DATA_E" else 0
    cpu = state[3][dst]
    cpus = _tup_set(state[3], dst, ("W", True, n_acks, cpu[3]))
    return _maybe_commit(model, state[:3] + (cpus,) + state[4:], dst, fire)


def _eff_grant_ack(model: SpecModel, state: State, msg: McMsg,
                   fire: Fire) -> State:
    dst, n_acks = msg[2], msg[3][0]
    cpu = state[3][dst]
    cpus = _tup_set(state[3], dst, ("W", True, n_acks, cpu[3]))
    return _maybe_commit(model, state[:3] + (cpus,) + state[4:], dst, fire)


def _eff_apply_inv(model: SpecModel, state: State, msg: McMsg,
                   fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst, collector = msg[2], msg[3][0]
    cpu = cpus[dst]
    if cpu is not None and cpu[0] == "R":
        cpus = _tup_set(cpus, dst, ("R", True))  # raced: drop after use
    caches = _tup_set(caches, dst, ("I", 0))
    if racs[dst] is not None and not racs[dst][1]:
        racs = _tup_set(racs, dst, None)
    net = fire.send(net, ("INV_ACK", dst, collector, ()))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_count_inv_ack(model: SpecModel, state: State, msg: McMsg,
                       fire: Fire) -> State:
    dst = msg[2]
    kind, granted, needed, got = state[3][dst]
    cpus = _tup_set(state[3], dst, (kind, granted, needed, got + 1))
    return _maybe_commit(model, state[:3] + (cpus,) + state[4:], dst, fire)


def _eff_refuse_intervention(model: SpecModel, state: State, msg: McMsg,
                             fire: Fire, reason: str) -> State:
    dst, mode = msg[2], msg[3][0]
    net = fire.send(state[7], ("NACKI", dst, HOME, (reason, mode)))
    return state[:7] + (net,)


def _eff_serve_int_shared(model: SpecModel, state: State, msg: McMsg,
                          fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst, requester = msg[2], msg[3][1]
    cvalue = caches[dst][1]
    caches = _tup_set(caches, dst, ("S", cvalue))
    net = fire.send(net,
                    ("SH_WB", dst, HOME, (cvalue,)),
                    ("SH_RESP", dst, requester, (cvalue,)))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_serve_int_excl(model: SpecModel, state: State, msg: McMsg,
                        fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst, requester = msg[2], msg[3][1]
    cvalue = caches[dst][1]
    caches = _tup_set(caches, dst, ("I", 0))
    net = fire.send(net,
                    ("EX_RESP", dst, requester, (cvalue,)),
                    ("XFER", dst, HOME, (requester,)))
    return (cur, caches, racs, cpus, home, deleg, hints, net)


def _eff_retry_read(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    dst = msg[2]
    net = fire.send(state[7],
                    ("GETS", dst, _target_of(state, dst), (dst,)))
    return state[:7] + (net,)


def _eff_retry_write(model: SpecModel, state: State, msg: McMsg,
                     fire: Fire) -> State:
    dst = msg[2]
    has_copy = state[1][dst][0] == "S"
    net = fire.send(state[7], ("GETX", dst, _target_of(state, dst),
                               (dst, has_copy)))
    return state[:7] + (net,)


def _eff_forget_hint(model: SpecModel, state: State, msg: McMsg,
                     fire: Fire) -> State:
    return _set_hint(state, msg[2], None)


def _eff_forget_hint_retry_read(model: SpecModel, state: State,
                                msg: McMsg, fire: Fire) -> State:
    return _eff_retry_read(model, _set_hint(state, msg[2], None), msg,
                               fire)


def _eff_forget_hint_retry_write(model: SpecModel, state: State,
                                 msg: McMsg, fire: Fire) -> State:
    return _eff_retry_write(model, _set_hint(state, msg[2], None), msg,
                                fire)


def _eff_take_hint(model: SpecModel, state: State, msg: McMsg,
                   fire: Fire) -> State:
    return _set_hint(state, msg[2], msg[3][0])


def _eff_int_retry(model: SpecModel, state: State, msg: McMsg,
                   fire: Fire) -> State:
    mode = msg[3][1]
    _h, _s, owner, _m, busy = state[4]
    net = fire.send(state[7], ("INT", HOME, owner, (mode, busy[1])))
    return state[:7] + (net,)


def _eff_wb_race_resolve(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    return _resolve_wb_race(state, fire)


def _eff_int_await_writeback(model: SpecModel, state: State, msg: McMsg,
                             fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    hstate, sharers, owner, memval, busy = home
    req = busy[1]
    buffered = ("GETS", req) if busy[0] == "int_s" else ("GETX", req)
    new_home = (hstate, sharers, owner, memval, ("wb", req, buffered))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_wb_resolve(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    hstate, sharers, owner, _m, busy = home
    home = (hstate, sharers, owner, _memval_after(home, msg), busy)
    return _resolve_wb_race(
        (cur, caches, racs, cpus, home, deleg, hints, net), fire)


def _eff_wb_mark_during_int(model: SpecModel, state: State, msg: McMsg,
                            fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    hstate, sharers, owner, _m, busy = home
    new_home = (hstate, sharers, owner, _memval_after(home, msg),
                (busy[0], busy[1], True))
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_wb_apply(model: SpecModel, state: State, msg: McMsg,
                  fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    _h, sharers, _o, _m, _b = home
    new_home = ("U", sharers, None, _memval_after(home, msg), None)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_wb_stale(model: SpecModel, state: State, msg: McMsg,
                  fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    hstate, sharers, owner, _m, busy = home
    new_home = (hstate, sharers, owner, _memval_after(home, msg), busy)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_evc_apply(model: SpecModel, state: State, msg: McMsg,
                   fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    _h, sharers, _o, memval, _b = home
    new_home = ("U", sharers, None, memval, None)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_sh_wb_apply(model: SpecModel, state: State, msg: McMsg,
                     fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    value = msg[3][0]
    _h, _s, owner, _m, busy = home
    new_home = ("S", frozenset({owner, busy[1]}), None, value, None)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_xfer_apply(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    new_owner = msg[3][0]
    hstate, sharers, _o, memval, _b = home
    new_home = ("E", sharers, new_owner, memval, None)
    return (cur, caches, racs, cpus, new_home, deleg, hints, net)


def _eff_delegate_accept(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    """Take over the directory; the entry stays busy until the local
    write commits, exactly as the implementation NACKs remote requests
    racing the delegation."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst = msg[2]
    (sstate, ssharers, sowner), value, n_acks = msg[3]
    deleg = (dst, (sstate, ssharers, sowner, value, True, False, 0, False))
    racs = _tup_set(racs, dst, (value, True))
    cpus = _tup_set(cpus, dst, ("W", True, n_acks, cpus[dst][3]))
    return _maybe_commit(
        model, (cur, caches, racs, cpus, home, deleg, hints, net), dst,
        fire)


def _undele_home(state: State, msg: McMsg) -> State:
    (sstate, ssharers, sowner), value = msg[3]
    home = (sstate, frozenset(ssharers), sowner, value, None)
    return state[:4] + (home,) + state[5:]


def _eff_undele_apply(model: SpecModel, state: State, msg: McMsg,
                      fire: Fire) -> State:
    return _undele_home(state, msg)


def _eff_undele_apply_replay(model: SpecModel, state: State, msg: McMsg,
                             fire: Fire) -> State:
    """The recall completed: re-queue the write miss that caused it."""
    requester, has_copy = state[4][4][2]
    nxt = _undele_home(state, msg)
    net = fire.send(nxt[7], ("GETX", requester, HOME, (requester, has_copy)))
    return nxt[:7] + (net,)


def _eff_refuse_recall(model: SpecModel, state: State, msg: McMsg,
                       fire: Fire, reason: str) -> State:
    net = fire.send(state[7], ("NACKR", msg[2], HOME, (reason,)))
    return state[:7] + (net,)


def _eff_undelegate(model: SpecModel, state: State, msg: McMsg,
                    fire: Fire) -> State:
    return _undelegate(state, msg[2], fire)


def _eff_recall_retry(model: SpecModel, state: State, msg: McMsg,
                      fire: Fire) -> State:
    net = fire.send(state[7], ("UNDELE_REQ", HOME, state[4][2], ()))
    return state[:7] + (net,)


def _update_ack(state: State, msg: McMsg, fire: Fire) -> State:
    """Acknowledge a pushed update; the pusher is the line's delegate."""
    src, dst = msg[1], msg[2]
    net = fire.send(state[7], ("UPDATE_ACK", dst, src, ()))
    return state[:6] + (_tup_set(state[6], dst, src), net)


def _eff_update_ack_only(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    return _update_ack(state, msg, fire)


def _eff_update_rac_fill(model: SpecModel, state: State, msg: McMsg,
                         fire: Fire) -> State:
    # An update meeting an outstanding read lands in the RAC only; the
    # in-flight reply retires the miss (retiring it here would orphan
    # that reply — a stale-data hazard the checker found).
    nxt = _update_ack(state, msg, fire)
    racs = _tup_set(nxt[2], msg[2], (msg[3][0], False))
    return nxt[:2] + (racs,) + nxt[3:]


def _eff_update_ack_drain(model: SpecModel, state: State, msg: McMsg,
                          fire: Fire) -> State:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    dst = msg[2]
    dstate, dsharers, downer, dvalue, dbusy, armed, pend, deferred = \
        deleg[1]
    pend = max(0, pend - 1)
    deleg = (dst, (dstate, dsharers, downer, dvalue, dbusy, armed, pend,
                   deferred))
    nxt = (cur, caches, racs, cpus, home, deleg, hints, net)
    if deferred and pend == 0 and not dbusy and cpus[dst] is None:
        return _undelegate(nxt, dst, fire)
    return nxt


#: effect name (as referenced by spec transitions) -> kernel primitive.
EFFECTS: Dict[str, Effect] = {
    "stale_drop": _eff_stale_drop,
    "stale_reply": _eff_stale_reply,
    "nack_requester": _eff_nack_requester,
    "bounce_not_home": _eff_bounce_not_home,
    "forward_to_delegate": _eff_forward_to_delegate,
    "gets_unowned": _eff_gets_unowned,
    "gets_shared": _eff_gets_shared,
    "gets_intervene": _eff_gets_intervene,
    "acting_gets_serve": _eff_acting_gets_serve,
    "getx_unowned": _eff_gets_unowned,
    "delegate_unowned": _eff_delegate_unowned,
    "getx_upgrade": partial(_getx_from_shared, grant_ack=True,
                            keep_sharers=True),
    "getx_shared": partial(_getx_from_shared, grant_ack=False,
                           keep_sharers=True),
    "getx_upgrade_forget": partial(_getx_from_shared, grant_ack=True,
                                   keep_sharers=False),
    "getx_shared_forget": partial(_getx_from_shared, grant_ack=False,
                                  keep_sharers=False),
    "delegate_shared": _eff_delegate_shared,
    "getx_intervene": _eff_getx_intervene,
    "recall_delegate": _eff_recall_delegate,
    "acting_getx_deferred": _eff_acting_getx_deferred,
    "acting_getx_release": _eff_acting_getx_release,
    "acting_getx_local": _eff_acting_getx_local,
    "install_shared": _eff_install_shared,
    "raced_drop": _eff_raced_drop,
    "install_excl": _eff_install_excl,
    "raced_excl_drop": _eff_raced_excl_drop,
    "grant_excl": _eff_grant_excl,
    "grant_ack": _eff_grant_ack,
    "apply_inv": _eff_apply_inv,
    "count_inv_ack": _eff_count_inv_ack,
    "int_busy_nack": partial(_eff_refuse_intervention, reason="busy"),
    "int_no_copy_nack": partial(_eff_refuse_intervention, reason="no_copy"),
    "serve_int_shared": _eff_serve_int_shared,
    "serve_int_excl": _eff_serve_int_excl,
    "retry_read": _eff_retry_read,
    "retry_write": _eff_retry_write,
    "forget_hint": _eff_forget_hint,
    "forget_hint_retry_read": _eff_forget_hint_retry_read,
    "forget_hint_retry_write": _eff_forget_hint_retry_write,
    "take_hint": _eff_take_hint,
    "int_retry": _eff_int_retry,
    "wb_race_resolve": _eff_wb_race_resolve,
    "int_await_writeback": _eff_int_await_writeback,
    "wb_resolve": _eff_wb_resolve,
    "wb_mark_during_int": _eff_wb_mark_during_int,
    "wb_apply": _eff_wb_apply,
    "wb_stale": _eff_wb_stale,
    "evc_apply": _eff_evc_apply,
    "sh_wb_apply": _eff_sh_wb_apply,
    "xfer_apply": _eff_xfer_apply,
    "delegate_accept": _eff_delegate_accept,
    "undele_apply": _eff_undele_apply,
    "undele_apply_replay": _eff_undele_apply_replay,
    "recall_nack_gone": partial(_eff_refuse_recall, reason="gone"),
    "recall_nack_busy": partial(_eff_refuse_recall, reason="busy"),
    "undelegate": _eff_undelegate,
    "recall_retry": _eff_recall_retry,
    "update_ack_only": _eff_update_ack_only,
    "update_rac_fill": _eff_update_rac_fill,
    "update_ack_drain": _eff_update_ack_drain,
}


# -- effect kernel: spontaneous rules -----------------------------------------
#
# ``rule(model, fire, state) -> iterable[(label, next_state)]``; ``fire``
# is the spec's entry transition, which licenses the rule's emissions.


def _rule_cpu_read(model: SpecModel, fire: Fire, state: State) -> Labelled:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    for node in model.readers:
        if cpus[node] is not None or caches[node][0] != "I":
            continue
        if racs[node] is not None:
            continue  # a RAC hit completes locally: no state change
        if deleg is not None and deleg[0] == node:
            continue  # delegated lines always hit the pinned RAC entry
        new_cpus = _tup_set(cpus, node, ("R", False))
        new_net = fire.send(net, ("GETS", node, _target_of(state, node),
                                  (node,)))
        yield ("read_%d" % node,
               (cur, caches, racs, new_cpus, home, deleg, hints, new_net))


def _rule_cpu_write(model: SpecModel, fire: Fire, state: State) -> Labelled:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    for node in model.writers:
        if cpus[node] is not None or caches[node][0] in "EM":
            continue
        has_copy = caches[node][0] == "S"
        new_cpus = _tup_set(cpus, node, ("W", False, None, 0))
        new_net = fire.send(net, ("GETX", node, _target_of(state, node),
                                  (node, has_copy)))
        yield ("write_%d" % node,
               (cur, caches, racs, new_cpus, home, deleg, hints, new_net))


def _evict(model: SpecModel, fire: Fire, state: State,
           victim_rac: bool) -> Labelled:
    cur, caches, racs, cpus, home, deleg, hints, net = state
    for node in range(model.num_nodes):
        cstate, cvalue = caches[node]
        if cstate == "I" or cpus[node] is not None:
            continue
        if deleg is not None and deleg[0] == node:
            # Flushing a delegated line forces undelegation (reason 2);
            # a busy entry is mid-transaction and cannot be flushed.
            if not deleg[1][4]:
                yield ("evict_flush_%d" % node,
                       _undelegate(state, node, fire))
            continue
        new_caches = _tup_set(caches, node, ("I", 0))
        if cstate == "S":
            new_racs = racs
            if victim_rac and node != HOME:
                new_racs = _tup_set(racs, node, (cvalue, False))
            yield ("evict_s_%d" % node,
                   (cur, new_caches, new_racs, cpus, home, deleg, hints,
                    net))
        elif cstate == "E":
            new_net = fire.send(net, ("EVC", node, HOME, ()))
            yield ("evict_e_%d" % node,
                   (cur, new_caches, racs, cpus, home, deleg, hints,
                    new_net))
        else:
            new_net = fire.send(net, ("WB", node, HOME, (cvalue,)))
            yield ("evict_m_%d" % node,
                   (cur, new_caches, racs, cpus, home, deleg, hints,
                    new_net))


def _rule_evict(model: SpecModel, fire: Fire, state: State) -> Labelled:
    """Without the RAC: a Shared eviction is a silent drop."""
    return _evict(model, fire, state, victim_rac=False)


def _rule_evict_to_rac(model: SpecModel, fire: Fire,
                       state: State) -> Labelled:
    """With the RAC: a remote Shared victim moves into it."""
    return _evict(model, fire, state, victim_rac=True)


def _rule_rac_evict(model: SpecModel, fire: Fire, state: State) -> Labelled:
    racs = state[2]
    for node in range(model.num_nodes):
        entry = racs[node]
        if entry is None or entry[1]:  # absent or pinned
            continue
        yield ("rac_evict_%d" % node,
               state[:2] + (_tup_set(racs, node, None),) + state[3:])


def _rule_intervention_fire(model: SpecModel, fire: Fire,
                            state: State) -> Labelled:
    """The delayed intervention: downgrade and push the new value."""
    cur, caches, racs, cpus, home, deleg, hints, net = state
    if deleg is None:
        return
    node, (dstate, dsharers, downer, _dval, dbusy, armed, pend,
           deferred) = deleg
    if not armed or dbusy or dstate != "E" or downer != node:
        return
    if caches[node][0] not in "EM":
        return
    value = caches[node][1]
    caches = _tup_set(caches, node, ("S", value))
    racs = _tup_set(racs, node, (value, True))
    consumers = dsharers - {node}
    pushed = net
    for consumer in sorted(consumers):
        pushed = fire.send(pushed, ("UPDATE", node, consumer, (value,)))
    yield ("intervene_%d" % node,
           (cur, caches, racs, cpus, home,
            (node, ("S", consumers | {node}, None, value, False, False,
                    pend + len(consumers), deferred)), hints, pushed))
    if consumers:
        # The selective-update filter may prune any consumer (§2.4.2
        # refinement); verify the push-to-nobody extreme — updates are
        # a pure optimisation, so withholding them must stay safe.
        yield ("intervene_pruned_%d" % node,
               (cur, caches, racs, cpus, home,
                (node, ("S", consumers | {node}, None, value, False, False,
                        pend, deferred)), hints, net))


def _rule_voluntary_undelegate(model: SpecModel, fire: Fire,
                               state: State) -> Labelled:
    deleg = state[5]
    if deleg is None:
        return
    node, entry = deleg
    if entry[4] or state[3][node] is not None or entry[7]:
        return
    yield ("undelegate_%d" % node, _undelegate(state, node, fire))


#: entry-transition effect name -> spontaneous rule kernel.
ENTRY_EFFECTS: Dict[str, Callable[[SpecModel, Fire, State], Labelled]] = {
    "cpu_read": _rule_cpu_read,
    "cpu_write": _rule_cpu_write,
    "evict": _rule_evict,
    "evict_to_rac": _rule_evict_to_rac,
    "rac_evict": _rule_rac_evict,
    "intervention_fire": _rule_intervention_fire,
    "voluntary_undelegate": _rule_voluntary_undelegate,
}
