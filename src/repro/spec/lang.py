"""The guarded-action protocol specification language (IR).

One :class:`ProtocolSpec` is the single declarative ground truth for one
coherence protocol: its message vocabulary, its state domains, and its
transition relation as *guarded actions* — following Meunier et al.,
"Modeling a Cache Coherence Protocol with the Guarded Action Language"
(PAPERS.md).  The spec is pure data (frozen dataclasses); three consumers
compile or diff it:

* :mod:`repro.spec.analyze` — spec-level static checks (``SPC0xx``):
  guard overlap/exhaustiveness, unreachable states, orphan messages,
  unbroken transition cycles, request/reply pairing;
* :mod:`repro.spec.conformance` — diffs the spec transition relation
  against the AST-extracted simulator graph (``CON0xx``);
* :mod:`repro.spec.mcgen` — compiles a spec (``mc_model="generated"``)
  into executable ``repro.mc`` transition rules, so the model checker
  conforms to the spec by construction.

Structured justifications live *in the spec*: a transition that the
simulator realises by internal re-dispatch carries ``replay=...``, one the
model hoists into a nondeterministic rule carries ``hoist=...``, and a
simulator-only emission carries ``only="sim"`` — each with a mandatory
``why``.  These annotations replace the CON003/CON004 glob entries that
used to live in ``lint_allowlist.txt``.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..common.errors import ConfigError

#: A guard atom: the named variable must take one of the listed values.
#: A transition's ``when`` tuple is a conjunction of atoms; the empty
#: tuple is the catch-all guard (always true).
Atom = Tuple[str, Tuple[str, ...]]

#: Transition tags with defined semantics (anything else is rejected).
#:
#: ``nondet``
#:     A genuine nondeterministic alternative (e.g. the delegation
#:     decision): overlapping guards inside one trigger group are legal
#:     when at least one side of the pair carries this tag.
#: ``also``
#:     An *accompanying* consequence of the trigger (e.g. the victim
#:     eviction a miss completion can force), not a competing outcome:
#:     excluded from the guard overlap/exhaustiveness analyses.
#: ``bounded``
#:     A self-forwarding emission whose loop is bounded by protocol
#:     structure; requires a ``why`` (mirrors the DLK001 allowlist bar).
#: ``unreachable``
#:     The spec asserts this guard combination cannot occur; a generated
#:     model raises :class:`SpecExecutionError` if it ever fires.
#: ``latent``
#:     Statically present via shared base-hub code but unreachable under
#:     this protocol's normalized configuration; requires a ``why``.
KNOWN_TAGS = frozenset(
    {"nondet", "also", "bounded", "unreachable", "latent"})

#: Message roles for the SPC006 request/reply pairing analysis.
KNOWN_ROLES = frozenset({"request", "reply", "ack", "hint", "other"})

KNOWN_ACTORS = frozenset({"home", "node", "producer"})


class SpecError(ConfigError):
    """A malformed protocol spec (caught at load/validate time)."""


@dataclass(frozen=True)
class Msg:
    """One declared message type.

    ``mc`` lists the model-checker tokens the message corresponds to
    (empty = deliberately unmodeled, which then *requires* ``note`` — the
    in-spec replacement for an allowlist justification line).  ``data``
    mirrors the MsgType data-bearing flag.  ``reply_to`` names the
    request(s) this message can retire, for the pairing analysis.
    """

    name: str
    mc: Tuple[str, ...] = ()
    data: bool = False
    role: str = "other"
    reply_to: Tuple[str, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class T:
    """One guarded-action transition.

    ``on`` is the triggering message name, or ``"!rule"`` for a
    spontaneous entry rule (CPU read/write, eviction, ...).  ``when`` is a
    conjunction of :data:`Atom` guards over the spec's declared variable
    domains; ``emit`` the messages the action may send; ``goes`` the state
    installs it performs (``(("dir", "E"), ...)``).

    Conformance annotations (each requires ``why``):

    ``hoist``
        The model realises these emissions in the named spontaneous rule
        rather than in its message handler — the emissions are verified
        against that rule's closure instead.
    ``replay``
        The simulator realises this edge by internal re-dispatch inside
        the named function; the model re-queues the message.  The edge is
        not required in the sim graph, but the function must exist.
    ``only``
        ``"sim"``: the emission has no model counterpart at all (e.g. the
        WB_ACK round-trip the model applies atomically); ``"mc"``: a
        model-only artefact.

    ``via`` optionally names the single mc token this transition
    dispatches under when the trigger fans out to several tokens (the
    payload-discriminated NACK family).  ``effect`` names the kernel
    effect :mod:`repro.spec.mcgen` executes for generated models.
    """

    actor: str
    on: str
    when: Tuple[Atom, ...] = ()
    emit: Tuple[str, ...] = ()
    goes: Tuple[Tuple[str, str], ...] = ()
    label: str = ""
    tags: Tuple[str, ...] = ()
    via: str = ""
    hoist: str = ""
    replay: str = ""
    only: str = ""
    why: str = ""
    effect: str = ""
    mc_rule: str = ""  # entry transitions: the model rule realising them

    @property
    def is_entry(self) -> bool:
        return self.on.startswith("!")

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol, fully declared."""

    name: str
    description: str
    messages: Tuple[Msg, ...]
    dir_states: Tuple[str, ...]
    cache_states: Tuple[str, ...]
    #: Guard-variable domains; every variable a guard mentions must be
    #: declared here (exhaustiveness enumerates these domains).
    domains: Mapping[str, Tuple[str, ...]]
    transitions: Tuple[T, ...]
    #: Directory / cache states the system starts in (exempt from the
    #: "never entered" reachability check).
    initial_dir: str = "U"
    initial_cache: str = "I"
    #: "" (no model) or "generated" (compiled by repro.spec.mcgen).
    mc_model: str = ""

    # -- lookups -----------------------------------------------------------

    def message(self, name: str) -> Optional[Msg]:
        for msg in self.messages:
            if msg.name == name:
                return msg
        return None

    def message_names(self) -> FrozenSet[str]:
        return frozenset(msg.name for msg in self.messages)

    def handled(self) -> FrozenSet[str]:
        """Messages some transition handles (entry rules excluded)."""
        return frozenset(t.on for t in self.transitions if not t.is_entry)

    def handler_transitions(self, name: str) -> Tuple[T, ...]:
        return tuple(t for t in self.transitions if t.on == name)

    def entry_transitions(self) -> Tuple[T, ...]:
        return tuple(t for t in self.transitions if t.is_entry)

    def emitted(self) -> FrozenSet[str]:
        out = set()
        for t in self.transitions:
            out.update(t.emit)
        return frozenset(out)

    def mc_token_map(self) -> Dict[str, Tuple[str, ...]]:
        """``{message name: mc tokens}`` — the derived sim<->mc name map."""
        return {msg.name: msg.mc for msg in self.messages}

    def sim_name_of(self, token: str) -> Optional[str]:
        for msg in self.messages:
            if token in msg.mc:
                return msg.name
        return None

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Structural validation; raises :class:`SpecError`.

        This is the load-time bar (like the allowlist's mandatory
        justification): unknown names, undeclared guard variables, and
        annotations without a ``why`` are configuration errors, not
        findings.
        """
        if self.mc_model not in ("", "generated"):
            raise SpecError("%s: mc_model=%r is not ''/'generated'"
                            % (self.name, self.mc_model))
        names = self.message_names()
        if len(names) != len(self.messages):
            raise SpecError("%s: duplicate message declaration" % self.name)
        seen_tokens: Dict[str, str] = {}
        for msg in self.messages:
            if msg.role not in KNOWN_ROLES:
                raise SpecError("%s: message %s has unknown role %r"
                                % (self.name, msg.name, msg.role))
            if not msg.mc and self.mc_model and not msg.note:
                raise SpecError(
                    "%s: message %s maps to no mc token but carries no "
                    "justifying note" % (self.name, msg.name))
            for token in msg.mc:
                if token in seen_tokens:
                    raise SpecError(
                        "%s: mc token %s claimed by both %s and %s"
                        % (self.name, token, seen_tokens[token], msg.name))
                seen_tokens[token] = msg.name
            for req in msg.reply_to:
                if req not in names:
                    raise SpecError(
                        "%s: message %s replies to undeclared %s"
                        % (self.name, msg.name, req))
        for t in self.transitions:
            where = "%s transition %r (on %s)" % (self.name,
                                                  t.label or "?", t.on)
            if t.actor not in KNOWN_ACTORS:
                raise SpecError("%s: unknown actor %r" % (where, t.actor))
            if not t.label:
                raise SpecError("%s: transitions must be labelled" % where)
            if not t.is_entry and t.on not in names:
                raise SpecError("%s: triggers undeclared message" % where)
            if t.is_entry and not t.mc_rule and self.mc_model:
                raise SpecError("%s: entry transition names no mc_rule"
                                % where)
            for name in t.emit:
                if name not in names:
                    raise SpecError("%s: emits undeclared message %s"
                                    % (where, name))
            for tag in t.tags:
                if tag not in KNOWN_TAGS:
                    raise SpecError("%s: unknown tag %r" % (where, tag))
            for var, values in t.when:
                domain = self.domains.get(var)
                if domain is None:
                    raise SpecError("%s: guard variable %r has no "
                                    "declared domain" % (where, var))
                for value in values:
                    if value not in domain:
                        raise SpecError(
                            "%s: guard value %r outside %r's domain %r"
                            % (where, value, var, tuple(domain)))
                if not values:
                    raise SpecError("%s: empty guard value set for %r"
                                    % (where, var))
            for state_var, value in t.goes:
                pool = (self.dir_states if state_var == "dir"
                        else self.cache_states if state_var == "cache"
                        else None)
                if pool is not None and value not in pool:
                    raise SpecError("%s: installs undeclared %s state %r"
                                    % (where, state_var, value))
            if t.only not in ("", "sim", "mc"):
                raise SpecError("%s: only=%r is not ''/'sim'/'mc'"
                                % (where, t.only))
            needs_why = (bool(t.hoist) or bool(t.replay) or bool(t.only)
                         or t.has_tag("bounded") or t.has_tag("latent"))
            if needs_why and not t.why:
                raise SpecError(
                    "%s: hoist/replay/only/bounded/latent annotations "
                    "require a 'why' justification" % where)
            if t.via:
                owner = self.message(t.on)
                if owner is None or t.via not in owner.mc:
                    raise SpecError("%s: via token %r is not one of %s's "
                                    "mc tokens" % (where, t.via, t.on))


def guard_allows(when: Tuple[Atom, ...], env: Mapping[str, str]) -> bool:
    """Evaluate a guard conjunction against a concrete variable binding.

    Variables the guard does not mention are unconstrained; a mentioned
    variable missing from ``env`` fails the guard (generated models bind
    every variable their spec's guards use).
    """
    for var, values in when:
        if env.get(var) not in values:
            return False
    return True


def guards_overlap(a: T, b: T, domains: Mapping[str, Tuple[str, ...]]) -> bool:
    """Whether two guards admit a common binding (both could fire)."""
    constraints: Dict[str, set] = {}
    for var, values in a.when + b.when:
        allowed = set(values)
        if var in constraints:
            constraints[var] &= allowed
        else:
            constraints[var] = allowed & set(domains.get(var, values))
    return all(constraints.values())
