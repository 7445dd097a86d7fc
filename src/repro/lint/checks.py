"""The check registry: every static check run over the protocol graphs.

Check-id families (stable — mutation tests and the allowlist key on them):

=========  =========  ===================================================
check id   severity   meaning
=========  =========  ===================================================
COV001     error      a message is emitted but has no registered handler
COV002     error      a declared message is never emitted (dead message)
COV003     error      a declared sim MsgType has no handler entry
CON001     error      sim message the adaptive spec does not declare (or
                      spec message that is no MsgType, or a data-bearing
                      flag mismatch)
CON003     warning    sim transition (handled msg -> emitted msg) the
                      spec doesn't allow
CON005     error      spec-required sim transition absent from the sim
SPC001-6   mixed      spec-level analyses (see repro.spec.analyze)
DLK001     warning    message-dependency cycle not broken by a NACK
DLK002     warning    NACK handler re-emits a request with no retry bound
RCH001     error      state no transition ever enters
RCH002     warning    state entered but never examined (can't be left on
                      purpose — no transition is conditioned on it)
EXT001     note       emission whose MsgType could not be resolved
                      statically (extraction blind spot)
ALW001     warning    stale allowlist entry (matched nothing this run)
=========  =========  ===================================================

Dispatch needs no static check on either side: the arena's hubs serve
exactly the messages their protocol's spec handles, and the model
checker's models are compiled from the specs (:mod:`repro.spec.mcgen`),
which enforce spec conformance at runtime.  Each check yields :class:`~repro.lint.findings.Finding`
objects with a *fingerprint* that is stable under reformatting, so the
allowlist keys on meaning rather than on line numbers.
"""

from .findings import Finding, Severity

#: Messages that initiate work and are retried after a NACK; a retry edge
#: re-emitting one of these with no bounding counter is a livelock risk.
REQUEST_CLASS = {"GETS", "GETX", "UNDELE_REQ", "INTERVENTION"}

#: Sim messages that break a dependency cycle by design (negative acks
#: bounce work back to the requester instead of holding resources).
NACK_FAMILY = {"NACK", "NACK_NOT_HOME"}


def _first_site(emissions, name):
    for emission in emissions:
        if emission.mtype == name:
            return emission
    return None


# -- COV: handler coverage ----------------------------------------------------


def check_coverage(sim):
    """COV001/COV002/COV003 over the simulator graph."""
    emissions = sim.all_emissions()
    emitted = {e.mtype for e in emissions if e.mtype is not None}
    # COV001: emitted but unhandled.
    for name in sorted(emitted - set(sim.handlers)):
        site = _first_site(emissions, name)
        yield Finding(
            check_id="COV001", severity=Severity.ERROR, side=sim.side,
            fingerprint="%s:%s" % (sim.side, name),
            message="%s message %s is emitted (e.g. in %s) but no "
                    "handler is registered for it"
                    % (sim.side, name, site.func if site else "?"),
            file=site.file if site else None,
            line=site.line if site else None)
    # COV002: declared but never emitted (dead message).
    for name in sorted(set(sim.messages) - emitted):
        decl = sim.messages[name]
        yield Finding(
            check_id="COV002", severity=Severity.ERROR, side=sim.side,
            fingerprint="%s:%s" % (sim.side, name),
            message="%s message %s is declared but never emitted by "
                    "any handler or entry point (dead message)"
                    % (sim.side, name),
            file=decl.file, line=decl.line)
    # COV003: enum members missing from the dispatch table.
    for name in sorted(set(sim.messages) - set(sim.handlers)):
        decl = sim.messages[name]
        yield Finding(
            check_id="COV003", severity=Severity.ERROR, side="sim",
            fingerprint=name,
            message="MsgType.%s has no entry in the hub dispatch table "
                    "(_handlers)" % name,
            file=decl.file, line=decl.line)


# -- CON: sim <-> spec conformance --------------------------------------------


def check_conformance(sim, specs=None):
    """The spec analyses plus the simulator's conformance to its spec.

    Every spec gets the ``SPC0xx`` analyses; the extracted simulator
    graph is diffed against the adaptive spec (CON001/CON003/CON005).
    The structured in-spec annotations (``only``/``hoist``/``replay``/
    ``note``) justify the intentional gaps.
    """
    from ..spec.analyze import run_spec_checks
    from ..spec.conformance import run_conformance
    specs = specs or {}
    for name in sorted(specs):
        yield from run_spec_checks(specs[name])
    yield from run_conformance(specs, sim)


# -- DLK: deadlock / livelock heuristics --------------------------------------


def _strongly_connected(graph):
    """Tarjan's SCC over ``{node: set(successors)}``; iterative."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(root):
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sccs


def check_deadlock(sim):
    """DLK001 (cycles without a NACK) and DLK002 (unbounded retries)."""
    digraph = sim.message_graph()
    # Direct self-loops: handling X can re-emit X (e.g. a forward).  These
    # are flagged even when X sits inside a larger NACK-containing SCC,
    # because the self-edge itself never passes through the NACK.
    for name in sorted(digraph):
        if name in digraph[name] and name not in NACK_FAMILY:
            anchor = sim.messages.get(name)
            yield Finding(
                check_id="DLK001", severity=Severity.WARNING, side="sim",
                fingerprint="cycle:%s" % name,
                message="handling %s can re-emit %s (forwarding "
                        "self-loop); unbounded if the forward target can "
                        "bounce it back" % (name, name),
                file=anchor.file if anchor else None,
                line=anchor.line if anchor else None)
    # Multi-message cycles with no NACK to bounce work back.
    for scc in _strongly_connected(digraph):
        members = set(scc)
        if len(scc) < 2 or members & NACK_FAMILY:
            continue
        cycle = ">".join(sorted(members))
        anchor = sim.messages.get(sorted(members)[0])
        yield Finding(
            check_id="DLK001", severity=Severity.WARNING, side="sim",
            fingerprint="cycle:%s" % cycle,
            message="message-dependency cycle {%s} is not broken by a "
                    "NACK; if every edge can block, this is a deadlock "
                    "candidate" % ", ".join(sorted(members)),
            file=anchor.file if anchor else None,
            line=anchor.line if anchor else None)
    # DLK002: a NACK handler that re-emits a request-class message on a
    # path with no retry-bound comparison can livelock under contention.
    for name in sorted(NACK_FAMILY & set(sim.handlers)):
        for emission in sim.emissions_for(name):
            if emission.mtype in REQUEST_CLASS and not emission.bounded:
                yield Finding(
                    check_id="DLK002", severity=Severity.WARNING,
                    side="sim",
                    fingerprint="%s->%s@%s" % (name, emission.mtype,
                                               emission.func),
                    message="%s handling re-emits %s in %s with no retry "
                            "bound on the path (unbounded NACK/retry "
                            "loop)" % (name, emission.mtype, emission.func),
                    file=emission.file, line=emission.line)


# -- RCH: state reachability --------------------------------------------------


def check_reachability(state_usages):
    """RCH001/RCH002 over the audited protocol enums."""
    for enum_name in sorted(state_usages):
        usage = state_usages[enum_name]
        for member in sorted(usage.members):
            info = usage.members[member]
            stores, reads = info["stores"], info["reads"]
            fingerprint = "%s.%s" % (enum_name, member)
            if not stores:
                yield Finding(
                    check_id="RCH001", severity=Severity.ERROR, side="sim",
                    fingerprint=fingerprint,
                    message="%s.%s is never assigned anywhere in the "
                            "source tree (%d read site(s)) — unreachable "
                            "state" % (enum_name, member, len(reads)),
                    file=usage.file, line=info["line"])
            elif not reads:
                yield Finding(
                    check_id="RCH002", severity=Severity.WARNING,
                    side="sim", fingerprint=fingerprint,
                    message="%s.%s is assigned (%d site(s)) but no "
                            "transition is ever conditioned on it — the "
                            "state cannot be left on purpose"
                            % (enum_name, member, len(stores)),
                    file=usage.file, line=info["line"])


# -- EXT: extraction blind spots ----------------------------------------------


def check_extraction(sim):
    """EXT001: emission sites whose message type is statically opaque."""
    seen = set()
    for emission in sim.all_emissions():
        if emission.mtype is not None:
            continue
        fingerprint = "%s:%s" % (sim.side, emission.func)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        yield Finding(
            check_id="EXT001", severity=Severity.NOTE, side=sim.side,
            fingerprint=fingerprint,
            message="%s emission in %s has a message type the "
                    "extractor cannot resolve statically"
                    % (sim.side, emission.func),
            file=emission.file, line=emission.line)


#: The registry, in report order.  Each entry is (callable, arg names);
#: ``run_checks`` wires the extracted artefacts in by name.
CHECKS = (
    (check_coverage, ("sim",)),
    (check_conformance, ("sim", "specs")),
    (check_deadlock, ("sim",)),
    (check_reachability, ("states",)),
    (check_extraction, ("sim",)),
)


def run_checks(sim, states, specs=None):
    """Run every registered check; return the flat finding list."""
    artefacts = {"sim": sim, "states": states, "specs": specs or {}}
    findings = []
    for check, args in CHECKS:
        findings.extend(check(*[artefacts[a] for a in args]))
    return findings
