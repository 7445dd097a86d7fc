"""Spec ↔ simulator conformance — the spec-driven ``CON0xx``.

The protocol specs are the arbiter.  The AST-extracted simulator graph is
diffed against the adaptive spec.  Dispatch needs no diff, in the
simulator or the model checker: the arena's hubs serve exactly the
messages their protocol's spec handles (``Protocol.handled``), and the
models are *compiled* from the specs by :mod:`repro.spec.mcgen`, which
enforces the spec's dispatch, reachability and emission claims at
runtime.  What used to be allowlist glob entries are structured
annotations on the spec transitions:

* ``only="sim"`` — emission with no model counterpart;
* ``hoist="rule_x"`` — the model realises the emission in a spontaneous
  rule rather than in the message handler;
* ``replay="_func"`` — the simulator realises the edge by internal
  re-dispatch; the edge is not required in the sim graph but the named
  function must exist;
* a message with ``mc=()`` plus a ``note`` — deliberately unmodeled.

Check ids keep their legacy meaning and fingerprints so the allowlist and
mutation tests carry over:

=======  ==========================================================
CON001   vocabulary: sim message unknown to the spec, spec message
         that is no MsgType (``spec:NAME``), or a data-bearing flag
         mismatch (``NAME:data``)
CON003   sim transition (handled msg -> emitted msg) the spec does
         not allow
CON005   spec-required sim transition absent from the sim graph
         (replay edges instead require the named function to exist)
=======  ==========================================================
"""

from typing import Any, Dict, Iterator, List

from ..lint.findings import Finding, Severity
from .lang import ProtocolSpec, T


def _handler_groups(spec: ProtocolSpec) -> Dict[str, List[T]]:
    groups: Dict[str, List[T]] = {}
    for t in spec.transitions:
        if not t.is_entry:
            groups.setdefault(t.on, []).append(t)
    return groups


# -- vocabulary (CON001) ------------------------------------------------------


def check_vocabulary(spec: ProtocolSpec, sim: Any) -> Iterator[Finding]:
    """CON001: the simulator's MsgType vocabulary against the spec's."""
    for name in sorted(sim.messages):
        decl = sim.messages[name]
        msg = spec.message(name)
        if msg is None:
            yield Finding(
                check_id="CON001", severity=Severity.ERROR, side="both",
                fingerprint=name,
                message="MsgType.%s is not declared in the %s spec"
                        % (name, spec.name),
                file=decl.file, line=decl.line)
            continue
        if (decl.data_bearing is not None
                and decl.data_bearing != msg.data):
            yield Finding(
                check_id="CON001", severity=Severity.ERROR, side="both",
                fingerprint="%s:data" % name,
                message="MsgType.%s data-bearing flag is %s but the "
                        "spec declares data=%s"
                        % (name, decl.data_bearing, msg.data),
                file=decl.file, line=decl.line)
    for name in sorted(spec.message_names() - set(sim.messages)):
        yield Finding(
            check_id="CON001", severity=Severity.ERROR, side="both",
            fingerprint="spec:%s" % name,
            message="spec message %s is not a declared MsgType" % name,
            file=spec.source_file, line=1)


# -- transition relation (CON003 / CON005) ------------------------------------


def check_transitions(spec: ProtocolSpec, sim: Any) -> Iterator[Finding]:
    """CON003/CON005: the sim graph against the spec's transitions."""
    groups = _handler_groups(spec)
    for name in sorted(set(sim.handlers) & set(groups)):
        # CON003: everything the sim can emit while handling M must be
        # allowed by some spec transition on M (only="mc" edges are
        # model artefacts and don't license sim behaviour).
        allowed = {out for t in groups[name] if t.only != "mc"
                   for out in t.emit}
        decl = sim.messages.get(name)
        sim_out = sim.emitted_names(name)
        for out in sorted(sim_out):
            if spec.message(out) is None:
                continue  # vocabulary gap: CON001's business
            if out not in allowed:
                yield Finding(
                    check_id="CON003", severity=Severity.WARNING,
                    side="both", fingerprint="%s->%s" % (name, out),
                    message="sim handling of %s can emit %s, which no "
                            "%s spec transition allows"
                            % (name, out, spec.name),
                    file=decl.file if decl else None,
                    line=decl.line if decl else None)
        # CON005: spec-required sim edges.  Replay edges are realised by
        # internal re-dispatch — the named function must exist instead.
        for t in groups[name]:
            if t.only == "mc":
                continue
            if t.replay:
                if t.replay not in sim.funcs:
                    yield Finding(
                        check_id="CON005", severity=Severity.ERROR,
                        side="sim",
                        fingerprint="replay:%s" % t.replay,
                        message="spec transition %r claims the sim "
                                "replays via %s, but no such function "
                                "exists" % (t.label, t.replay),
                        file=spec.source_file, line=1)
                continue
            for out in t.emit:
                if out not in sim_out:
                    yield Finding(
                        check_id="CON005", severity=Severity.ERROR,
                        side="sim", fingerprint="%s->%s" % (name, out),
                        message="spec transition %r requires sim "
                                "handling of %s to be able to emit %s, "
                                "but its handler closure never does"
                                % (t.label, name, out),
                        file=spec.source_file, line=1)


#: The specs the extracted simulator graph is diffed against: the graph
#: is the adaptive protocol's hubs (the arena baselines' overrides live
#: outside ``SIM_PROTOCOL_FILES``).
CONFORMANCE_SPECS = ("adaptive",)


def run_conformance(specs: Dict[str, ProtocolSpec], sim: Any
                    ) -> List[Finding]:
    """All spec-driven conformance checks over one analyzed tree."""
    findings: List[Finding] = []
    for name in CONFORMANCE_SPECS:
        if name in specs:
            findings.extend(check_vocabulary(specs[name], sim))
            findings.extend(check_transitions(specs[name], sim))
    return findings
