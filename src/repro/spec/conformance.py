"""Spec ↔ simulator conformance — the spec-driven ``CON0xx``.

The protocol specs are the arbiter.  The AST-extracted simulator graph is
diffed against the adaptive spec, and every arena dispatch table against
its protocol's spec.  (The model checker needs no diff: its models are
*compiled* from the specs by :mod:`repro.spec.mcgen`, which enforces the
spec's dispatch, reachability and emission claims at runtime.)  What used
to be allowlist glob entries are structured annotations on the spec
transitions:

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
SPC007   spec handled-set vs dispatch-table mismatch, for *every*
         protocol (adaptive vs the hub table, baselines vs their
         arena tables)
=======  ==========================================================
"""

from typing import Any, Dict, Iterator, List, Optional

from ..lint.findings import Finding, Severity
from .lang import ProtocolSpec, T


def _spec_file(spec: ProtocolSpec) -> str:
    return "spec/protocols/%s.py" % spec.name


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
            file=_spec_file(spec), line=1)


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
                        file=_spec_file(spec), line=1)
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
                        file=_spec_file(spec), line=1)


# -- dispatch tables (SPC007) -------------------------------------------------


def check_handler_tables(specs: Dict[str, ProtocolSpec], sim: Any,
                         protocols: Dict[str, Any]) -> Iterator[Finding]:
    """SPC007: every protocol's dispatch table vs its spec's handled set.

    The adaptive hub's table comes from the extracted sim graph; the
    baseline hubs' tables come from the arena registry extraction.  A
    protocol with no extracted table (legacy tree) is skipped.
    """
    for name in sorted(specs):
        spec = specs[name]
        if name == "adaptive":
            table: Optional[Dict[str, List[str]]] = sim.handlers
            where = "the hub dispatch table"
            anchor = "protocol/hub.py"
        else:
            decl = protocols.get(name) if protocols else None
            table = decl.handlers if decl else None
            where = "its arena handler table"
            anchor = "protocol/arena.py"
        if not table:
            continue
        handled = spec.handled()
        for msg in sorted(handled - set(table)):
            yield Finding(
                check_id="SPC007", severity=Severity.ERROR, side="sim",
                fingerprint="%s:%s:missing-handler" % (name, msg),
                message="the %s spec handles %s but %s registers no "
                        "handler for it" % (name, msg, where),
                file=anchor, line=1)
        for msg in sorted(set(table) - handled):
            yield Finding(
                check_id="SPC007", severity=Severity.ERROR, side="sim",
                fingerprint="%s:%s:unspecified-handler" % (name, msg),
                message="%s registers a handler for %s but the %s spec "
                        "has no transition for it (stripped: %s)"
                        % (where, msg, name,
                           ", ".join(spec.stripped) or "none"),
                file=anchor, line=1)


def run_conformance(specs: Dict[str, ProtocolSpec], sim: Any,
                    protocols: Optional[Dict[str, Any]] = None
                    ) -> List[Finding]:
    """All spec-driven conformance checks over one analyzed tree."""
    findings: List[Finding] = []
    adaptive = specs.get("adaptive")
    if adaptive is not None:
        findings.extend(check_vocabulary(adaptive, sim))
        findings.extend(check_transitions(adaptive, sim))
    findings.extend(check_handler_tables(specs, sim, protocols or {}))
    return findings
