"""The static checks run over the protocol graphs.

Check-id families (stable — mutation tests and the allowlist key on them):

=========  =========  ===================================================
check id   severity   meaning
=========  =========  ===================================================
CON001     error      sim emission of a name the adaptive spec does not
                      declare (no MsgType: the spec's messages are the
                      MsgType vocabulary)
CON003     warning    sim transition (handled msg -> emitted msg) the
                      spec doesn't allow
CON005     error      spec-required sim transition absent from the sim
SPC001-6   mixed      spec-level analyses (see repro.spec.analyze)
DLK002     warning    NACK handler re-emits a request with no retry bound
RCH001     error      state no transition ever enters
RCH002     warning    state entered but never examined (can't be left on
                      purpose — no transition is conditioned on it)
EXT001     note       emission whose MsgType could not be resolved
                      statically (extraction blind spot)
ALW001     warning    stale allowlist entry (matched nothing this run)
=========  =========  ===================================================

Every check here has a mutant that it alone catches
(``tests/test_lint_mutation.py``, docs/verification.md).  Handler
coverage needs no static check: each hub builds its dispatch table from
its protocol's spec and raises :class:`~repro.common.errors.ConfigError`
at construction when a handled message has no handler, and the model
checker's models are compiled from the specs (:mod:`repro.spec.mcgen`),
which enforce spec conformance at runtime.  Each check yields
:class:`~repro.lint.findings.Finding` objects with a *fingerprint* that
is stable under reformatting, so the allowlist keys on meaning rather
than on line numbers.
"""

from .findings import Finding, Severity


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


# -- DLK: livelock heuristic --------------------------------------------------


def check_deadlock(sim, spec):
    """DLK002: a NACK handler that re-emits a request-class message on a
    path with no retry-bound comparison can livelock under contention.

    The spec's NACK-family messages bounce work back to the requester,
    whose handler may re-emit it; the requests they answer (their
    ``reply_to``) are the ones a retry edge re-sends."""
    from ..spec.analyze import is_nack_family
    nacks = [msg for msg in spec.messages if is_nack_family(msg.name)]
    requests = {req for msg in nacks for req in msg.reply_to}
    for name in sorted({msg.name for msg in nacks} & set(sim.handlers)):
        for emission in sim.emissions_for(name):
            if emission.mtype in requests and not emission.bounded:
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
        fingerprint = "sim:%s" % emission.func
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        yield Finding(
            check_id="EXT001", severity=Severity.NOTE, side="sim",
            fingerprint=fingerprint,
            message="sim emission in %s has a message type the "
                    "extractor cannot resolve statically" % emission.func,
            file=emission.file, line=emission.line)


def run_checks(sim, states, specs):
    """Run every check, in report order; return the flat finding list.
    ``specs`` must include the adaptive spec, the simulator's."""
    return [*check_conformance(sim, specs),
            *check_deadlock(sim, specs["adaptive"]),
            *check_reachability(states), *check_extraction(sim)]
