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

A protocol that is another with parts switched off, or with parts
added, is not written twice.  The fuller spec declares the parts it can
lose as :class:`Feature` data, and :meth:`ProtocolSpec.without`
projects them away: the paper's write-invalidate baseline is the
adaptive spec without delegation and updates, and MESI is that without
the RAC and the preserved consumer vector too.  A protocol that adds to
another is an :class:`Extension`, which :meth:`ProtocolSpec.plus`
composes onto its base (see :mod:`repro.spec.registry`).
"""

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

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
class Feature:
    """An optional part of a protocol, declared as the data it owns.

    :meth:`ProtocolSpec.without` projects it away: its ``messages``, the
    ``tokens`` it adds to messages that stay, its guard and install
    ``values`` (``(variable, values)`` atoms), and the entry ``rules``
    (``mc_rule`` names) that drive it.  ``effects`` pairs a kernel the
    feature needs with the one a transition that stays runs without it.
    Dropping a feature also drops the features it ``implies``.
    """

    name: str
    messages: Tuple[str, ...] = ()
    tokens: Tuple[str, ...] = ()
    values: Tuple[Atom, ...] = ()
    rules: Tuple[str, ...] = ()
    effects: Tuple[Tuple[str, str], ...] = ()
    implies: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Extension:
    """A protocol written as what it adds to the ``base`` spec.

    :meth:`ProtocolSpec.plus` composes it: the base's vocabulary, domains
    and transitions, less the transitions labelled in ``replaces``, plus
    the ``messages``, ``domains`` and ``transitions`` declared here.
    """

    name: str
    base: str
    description: str
    messages: Tuple[Msg, ...]
    domains: Mapping[str, Tuple[str, ...]]
    transitions: Tuple[T, ...]
    replaces: Tuple[str, ...] = ()


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
    #: The optional parts :meth:`without` can project away.
    features: Tuple[Feature, ...] = ()
    #: The spec this one was projected or composed from ("" for a
    #: hand-written one).
    derived_from: str = ""
    #: Transition labels and message names an :class:`Extension` added
    #: to ``derived_from``'s: its own module encodes them.
    own: FrozenSet[str] = frozenset()

    @property
    def source_file(self) -> str:
        """The spec module that encodes this protocol."""
        return self.source_of()

    def source_of(self, *names: str) -> str:
        """The spec module encoding the named transitions or messages:
        the protocol's own when it adds any of them, else its base's."""
        if self.derived_from and not self.own.intersection(names):
            return "spec/protocols/%s.py" % self.derived_from
        return "spec/protocols/%s.py" % self.name

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

    # -- feature projection ------------------------------------------------

    def without(self, *names: str) -> "ProtocolSpec":
        """This spec with the named features (and what they imply) gone.

        A transition is dropped when its trigger, ``via`` token,
        ``mc_rule`` or ``hoist`` rule belongs to a dropped feature, when
        one of its guard atoms has no value left, or when it installs a
        dropped value.  The transitions that stay lose the dropped guard
        values and emissions, run the replacement for a dropped
        feature's kernel, and lose a ``nondet`` tag that no longer
        excuses an overlap in their trigger group; domains no guard uses
        any more go too.  Raises :class:`SpecError` for a feature the
        spec does not have.
        """
        known = {feature.name: feature for feature in self.features}
        dropped: Dict[str, Feature] = {}
        todo = list(names)
        while todo:
            name = todo.pop()
            if name in dropped:
                continue
            if name not in known:
                raise SpecError("%s has no feature %r (has: %s)"
                                % (self.name, name,
                                   ", ".join(sorted(known)) or "none"))
            dropped[name] = known[name]
            todo.extend(known[name].implies)
        msgs = {m for f in dropped.values() for m in f.messages}
        tokens = {tok for f in dropped.values() for tok in f.tokens}
        rules = {r for f in dropped.values() for r in f.rules}
        effects = dict(pair for f in dropped.values() for pair in f.effects)
        gone: Dict[str, Set[str]] = {}
        for feature in dropped.values():
            for var, values in feature.values:
                gone.setdefault(var, set()).update(values)

        def keep(var: str, values: Tuple[str, ...]) -> Tuple[str, ...]:
            return tuple(v for v in values if v not in gone.get(var, ()))

        transitions: List[T] = []
        for t in self.transitions:
            when = tuple((var, keep(var, values)) for var, values in t.when)
            if (t.on in msgs or t.via in tokens or t.mc_rule in rules
                    or t.hoist in rules
                    or not all(values for _var, values in when)
                    or any(value in gone.get(var, ())
                           for var, value in t.goes)):
                continue
            transitions.append(replace(
                t, when=when, emit=tuple(m for m in t.emit if m not in msgs),
                effect=effects.get(t.effect, t.effect)))
        used = {var for t in transitions for var, _values in t.when}
        domains = {var: keep(var, values)
                   for var, values in self.domains.items() if var in used}
        transitions = [
            replace(t, tags=tuple(tag for tag in t.tags if tag != "nondet"))
            if t.has_tag("nondet") and not _overlaps_another(
                t, transitions, domains) else t
            for t in transitions]
        return replace(
            self,
            messages=tuple(
                replace(msg, mc=tuple(tok for tok in msg.mc
                                      if tok not in tokens),
                        reply_to=tuple(r for r in msg.reply_to
                                       if r not in msgs))
                for msg in self.messages if msg.name not in msgs),
            dir_states=keep("dir", self.dir_states),
            cache_states=keep("cache", self.cache_states),
            domains=domains,
            transitions=tuple(transitions),
            features=tuple(
                replace(f, implies=tuple(n for n in f.implies
                                         if n not in dropped))
                for f in self.features if f.name not in dropped),
            derived_from=self.derived_from or self.name)

    # -- composition -------------------------------------------------------

    def plus(self, ext: Extension) -> "ProtocolSpec":
        """``ext`` composed onto this spec (see :class:`Extension`).

        The result has no model twin: the extension's transitions name
        no kernels.  Raises :class:`SpecError` when ``ext`` replaces a
        label this spec lacks or redeclares a label it keeps.
        """
        labels = {t.label for t in self.transitions}
        missing = sorted(set(ext.replaces) - labels)
        clash = sorted({t.label for t in ext.transitions}
                       & (labels - set(ext.replaces)))
        if missing:
            raise SpecError("%s replaces %s, which %s lacks"
                            % (ext.name, ", ".join(missing), self.name))
        if clash:
            raise SpecError("%s redeclares %s of %s without replacing it"
                            % (ext.name, ", ".join(clash), self.name))
        return replace(
            self, name=ext.name, description=ext.description,
            messages=self.messages + ext.messages,
            domains={**self.domains, **ext.domains},
            transitions=tuple(t for t in self.transitions
                              if t.label not in ext.replaces)
            + ext.transitions,
            mc_model="",
            derived_from=self.derived_from or self.name,
            own=frozenset(m.name for m in ext.messages)
            | {t.label for t in ext.transitions})

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
        tokens = set(seen_tokens)
        features = {feature.name for feature in self.features}
        for feature in self.features:
            unknown = sorted(
                (set(feature.messages) - names)
                | (set(feature.tokens) - tokens)
                | (set(feature.implies) - features)
                | ({kept for kept, _new in feature.effects}
                   - {t.effect for t in self.transitions})
                | {"%s=%s" % (var, value) for var, values in feature.values
                   for value in values
                   if value not in self.domains.get(var, ())})
            if unknown:
                raise SpecError("%s feature %r names undeclared %s"
                                % (self.name, feature.name,
                                   ", ".join(unknown)))
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


def _overlaps_another(t: T, transitions: List[T],
                      domains: Mapping[str, Tuple[str, ...]]) -> bool:
    """Whether ``t``'s guard overlaps another in its trigger group
    (``also``-tagged accompaniments compete with nothing)."""
    return any(other is not t and other.on == t.on and other.via == t.via
               and not other.has_tag("also")
               and guards_overlap(t, other, domains)
               for other in transitions)
