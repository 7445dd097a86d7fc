"""Spec-level static checks — the ``SPC0xx`` family.

These analyses run on a :class:`~repro.spec.lang.ProtocolSpec` alone (no
extracted source graphs needed), so they apply to all four protocols,
model twin or not:

======  =========================================================
SPC001  two guards in one trigger group overlap (ambiguous dispatch)
SPC002  a trigger group's guards are not exhaustive (stuck message)
SPC003  a declared directory/cache state is never installed
SPC004  a declared message is never emitted, or never handled
SPC005  a message cycle with no NACK-family edge (livelock shape)
SPC006  request/reply pairing: unpaired request, reply to non-request
======  =========================================================

A *trigger group* is the set of non-entry transitions sharing
``(on, via)`` — ``via`` splits payload-discriminated families (NACK) the
way the model's token dispatch does.  ``also``-tagged transitions are
accompanying consequences, not competing outcomes, and are excluded from
the overlap/exhaustiveness analyses; ``nondet`` excuses an overlapping
pair; ``unreachable`` transitions count as coverage (the spec asserts
the binding cannot occur, and generated models enforce that at runtime).

A finding names the module that encodes what it is about
(:meth:`~repro.spec.lang.ProtocolSpec.source_of`): an overlap between two
of Dragon's own transitions names ``dragon.py``, one between inherited
transitions names ``adaptive.py``.
"""

from itertools import combinations, product
from typing import Dict, Iterable, Iterator, List, Tuple

from ..lint.findings import Finding, Severity
from .lang import ProtocolSpec, T, guard_allows, guards_overlap


def _finding(spec: ProtocolSpec, check_id: str, severity: Severity,
             message: str, fingerprint: str,
             names: Iterable[str] = ()) -> Finding:
    """A finding on the named transitions or messages of ``spec``."""
    return Finding(check_id=check_id, severity=severity, message=message,
                   fingerprint=fingerprint, file=spec.source_of(*names),
                   line=1, side="spec")


def _trigger_groups(spec: ProtocolSpec) -> Dict[Tuple[str, str], List[T]]:
    groups: Dict[Tuple[str, str], List[T]] = {}
    for t in spec.transitions:
        if t.is_entry or t.has_tag("also"):
            continue
        groups.setdefault((t.on, t.via), []).append(t)
    return groups


def _group_name(key: Tuple[str, str]) -> str:
    on, via = key
    return "%s@%s" % (on, via) if via else on


def check_guard_overlap(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC001: two non-``nondet`` guards in one group can both fire."""
    for key, group in sorted(_trigger_groups(spec).items()):
        for a, b in combinations(group, 2):
            if a.has_tag("nondet") or b.has_tag("nondet"):
                continue
            if guards_overlap(a, b, spec.domains):
                labels = "+".join(sorted((a.label, b.label)))
                yield _finding(
                    spec, "SPC001", Severity.ERROR,
                    "%s: transitions %r and %r on %s admit a common "
                    "state — dispatch is ambiguous (tag one 'nondet' if "
                    "the choice is genuine)"
                    % (spec.name, a.label, b.label, _group_name(key)),
                    "%s:%s" % (_group_name(key), labels),
                    (a.label, b.label))


def check_guard_exhaustiveness(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC002: some reachable binding matches no guard in the group."""
    for key, group in sorted(_trigger_groups(spec).items()):
        variables = sorted({var for t in group for var, _ in t.when})
        if not variables:
            continue
        domains = [spec.domains[var] for var in variables]
        for values in product(*domains):
            env = dict(zip(variables, values))
            if any(guard_allows(t.when, env) for t in group):
                continue
            binding = "&".join("%s=%s" % (var, env[var])
                               for var in variables)
            yield _finding(
                spec, "SPC002", Severity.ERROR,
                "%s: no transition on %s handles the state %s — the "
                "message would be dropped on the floor (add a handler "
                "or an 'unreachable'-tagged assertion)"
                % (spec.name, _group_name(key), binding),
                "%s:%s" % (_group_name(key), binding),
                (t.label for t in group))


def check_unreachable_states(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC003: a declared state no transition installs (nor initial)."""
    installed: Dict[str, set] = {"dir": set(), "cache": set()}
    for t in spec.transitions:
        for var, value in t.goes:
            if var in installed:
                installed[var].add(value)
    for var, declared, initial in (
            ("dir", spec.dir_states, spec.initial_dir),
            ("cache", spec.cache_states, spec.initial_cache)):
        for state in declared:
            if state == initial or state in installed[var]:
                continue
            yield _finding(
                spec, "SPC003", Severity.ERROR,
                "%s: declared %s state %r is never installed by any "
                "transition and is not the initial state"
                % (spec.name, var, state),
                "%s:%s" % (var, state))


def check_orphan_messages(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC004: a declared message nobody emits, or nobody handles."""
    emitted = spec.emitted()
    handled = spec.handled()
    for msg in spec.messages:
        if msg.name not in emitted:
            yield _finding(
                spec, "SPC004", Severity.ERROR,
                "%s: message %s is declared but no transition or entry "
                "rule emits it" % (spec.name, msg.name),
                "%s:never-emitted" % msg.name, (msg.name,))
        if msg.name not in handled:
            yield _finding(
                spec, "SPC004", Severity.ERROR,
                "%s: message %s is declared but no transition handles "
                "it" % (spec.name, msg.name),
                "%s:never-handled" % msg.name, (msg.name,))


def _is_nack_family(name: str) -> bool:
    return name.startswith("NACK")


def check_emission_cycles(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC005: message cycles that no NACK-family hop can break.

    Mirrors DLK001 at the spec level: a strongly-connected emission
    component is a retry/livelock *shape*; components that include a
    NACK-family message are the protocol's intended bounded retry loops
    and are excluded.  A direct self-forwarding edge must carry the
    ``bounded`` tag (with its ``why``) on the emitting transition.
    """
    edges: Dict[str, set] = {}
    bounded_self: set = set()
    for t in spec.transitions:
        if t.is_entry:
            continue
        for out in t.emit:
            edges.setdefault(t.on, set()).add(out)
            if out == t.on and t.has_tag("bounded"):
                bounded_self.add(t.on)

    # Tarjan is overkill at this scale: iterative DFS per node, looking
    # for a path back to the start.
    def reaches(start: str, goal: str) -> bool:
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            for nxt in edges.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    in_cycle = set()
    for name in sorted(edges):
        if name in edges.get(name, ()):
            if name not in bounded_self:
                in_cycle.add(frozenset((name,)))
        elif reaches(name, name):
            members = frozenset(
                m for m in edges
                if m == name or (reaches(name, m) and reaches(m, name)))
            in_cycle.add(members)
    for members in sorted(in_cycle, key=sorted):
        if any(_is_nack_family(m) for m in members):
            continue
        label = "+".join(sorted(members))
        yield _finding(
            spec, "SPC005", Severity.WARNING,
            "%s: messages {%s} form an emission cycle with no "
            "NACK-family hop — livelock shape with no retry bound "
            "(self-loops need a 'bounded' tag)"
            % (spec.name, ", ".join(sorted(members))),
            "cycle:%s" % label, members)


def check_request_reply_pairing(spec: ProtocolSpec) -> Iterator[Finding]:
    """SPC006: every request has a reply; replies target requests."""
    names = spec.message_names()
    answered = set()
    for msg in spec.messages:
        for req in msg.reply_to:
            answered.add(req)
            target = spec.message(req)
            if target is not None and target.role != "request":
                yield _finding(
                    spec, "SPC006", Severity.ERROR,
                    "%s: %s declares reply_to=%s but %s has role %r, "
                    "not 'request'"
                    % (spec.name, msg.name, req, req, target.role),
                    "%s:reply-to-non-request" % msg.name, (msg.name,))
    for msg in spec.messages:
        if msg.role == "request" and msg.name in names \
                and msg.name not in answered:
            yield _finding(
                spec, "SPC006", Severity.ERROR,
                "%s: request %s has no declared reply (a requester "
                "waiting on it would hang)" % (spec.name, msg.name),
                "%s:unpaired-request" % msg.name, (msg.name,))


SPEC_CHECKS = (
    check_guard_overlap,
    check_guard_exhaustiveness,
    check_unreachable_states,
    check_orphan_messages,
    check_emission_cycles,
    check_request_reply_pairing,
)


def run_spec_checks(spec: ProtocolSpec) -> Iterator[Finding]:
    """Run every SPC check over one spec."""
    for check in SPEC_CHECKS:
        for finding in check(spec):
            yield finding
