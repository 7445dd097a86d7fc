"""Pinned state spaces of the adaptive protocol's model.

Every configuration below records ``(states_explored, transitions,
max_depth)`` of an exhaustive check, or — for a configuration the
checker refutes — the exception class and the violated invariant.  A
change to the model that grows, shrinks or reshapes the reachable space
shows up here instead of passing silently: the counts are the behaviour.

Three option sets (delegation with updates, delegation without updates,
no delegation) run at 3 nodes over ordered and unordered channels; the
two 4-node configurations are the ones ``benchmarks/e2e`` times, and the
two-writer configuration is the one that reaches the home-initiated
recall races.  The counts were recorded on the hand-written model the
spec compiler replaced, so they also pin the two encodings' agreement.
The ``wi`` spec, derived from adaptive's by dropping both features,
must give the no-delegation outcomes exactly, and the ``mesi`` spec,
derived by dropping two more, the outcomes of the hand-written MESI spec
it replaced.

The same runs give the checker its teeth: every transition the spec
dispatches must actually execute somewhere.  A sha256 of each passing
configuration's per-label ``rule_counts`` pins how often every transition
fires, so a change that keeps the totals but reshapes the graph fails too.
"""

import hashlib

import pytest

from repro.common.errors import DeadlockError, InvariantViolation
from repro.mc import ALL_INVARIANTS, ModelChecker, ProtocolModel
from repro.spec import get_spec
from repro.spec.mcgen import SpecModel

_FOUR = {"num_nodes": 4, "writers": (1,), "readers": (2, 3)}

#: name -> (ProtocolModel kwargs, pinned outcome).  An outcome is either
#: ``(states, transitions, max_depth)`` or ``(exception class, invariant)``.
PINNED = {
    "dele-upd-3": ({}, (3245, 9427, 33)),
    "dele-upd-3-unordered": ({"ordered_channels": False},
                             (InvariantViolation, "single_writer")),
    "dele-3": ({"enable_updates": False}, (1864, 4875, 32)),
    "dele-3-unordered": ({"enable_updates": False,
                          "ordered_channels": False}, (3561, 11117, 30)),
    "nodele-3": ({"enable_delegation": False}, (427, 993, 28)),
    "nodele-3-unordered": ({"enable_delegation": False,
                            "ordered_channels": False}, (668, 1803, 27)),
    "dele-4-noevict": (dict(enable_updates=False, allow_evictions=False,
                            **_FOUR), (23499, 78766, 48)),
    "nodele-4": (dict(enable_delegation=False, enable_updates=False,
                      **_FOUR), (13379, 45918, 38)),
    "two-writers-3": ({"writers": (1, 2), "readers": (2,)},
                      (42562, 148448, 54)),
}


#: name -> sha256 of the sorted ``rule_counts`` items of each passing
#: configuration in ``PINNED``: how often every labelled transition fired,
#: not only the totals.  Recorded before the engine explored from
#: symmetry-class representatives, so they also pin that exploring a
#: representative fires the same transitions as the state it stands for.
RULE_COUNT_DIGESTS = {
    "dele-upd-3":
        "ea7542144887b1371b1c2dd05bac292e8e866dae5de3597d5490467d2666cd53",
    "dele-3":
        "9d2f6a2091c86f9abf345e445fcc43b7f70924a76428905782db3ebec9e50754",
    "dele-3-unordered":
        "27d4d128e6ba3700a6b63b19d293cc45be8e2586557f6b9252fef2c44f6705f4",
    "nodele-3":
        "b74d1b7f5f024d873318331f0512bf52009b70e08d29d7ac460c53fd241fead9",
    "nodele-3-unordered":
        "48d1607c8c90d32bc5af55eff39f273096f75005bf7cf9a7d36bebe9fb8721f2",
    "dele-4-noevict":
        "a9a554ef8bcb2f84af0e9b8e2244a51dbcf52b6427253d837164b95483376dde",
    "nodele-4":
        "43aec23d2437d9d667d18c2f9b2a06333a0db37a2a823db74e7d8fea87e2b26b",
    "two-writers-3":
        "e94861e11c145a71718bf153e54c18cc0c48aa393f38703341ea4be84682dd95",
}


def run(model):
    """Check one model; return its result or the raised error."""
    checker = ModelChecker(model.initial_states(), model.rules(),
                           ALL_INVARIANTS, quiescent=model.quiescent,
                           max_states=4_000_000, track_traces=False,
                           canonicalize=model.canonical)
    try:
        return checker.run()
    except (DeadlockError, InvariantViolation) as err:
        return err


@pytest.fixture(scope="module")
def outcomes():
    return {name: run(ProtocolModel(**kwargs))
            for name, (kwargs, _) in PINNED.items()}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_state_space_is_pinned(outcomes, name):
    expected = PINNED[name][1]
    got = outcomes[name]
    if isinstance(expected[0], type):
        error_class, invariant = expected
        assert type(got) is error_class, got
        assert got.invariant_name == invariant
    else:
        assert (got.states_explored, got.transitions,
                got.max_depth) == expected


def rule_counts_digest(result):
    return hashlib.sha256(
        repr(sorted(result.rule_counts.items())).encode()).hexdigest()


def test_every_passing_configuration_has_a_rule_count_pin():
    passing = {name for name, (_kwargs, expected) in PINNED.items()
               if not isinstance(expected[0], type)}
    assert passing == set(RULE_COUNT_DIGESTS)


@pytest.mark.parametrize("name", sorted(RULE_COUNT_DIGESTS))
def test_rule_counts_are_pinned(outcomes, name):
    assert rule_counts_digest(outcomes[name]) == RULE_COUNT_DIGESTS[name]


#: The wi spec is adaptive's without delegation and updates, so its model
#: is the no-delegation configuration's: name -> SpecModel kwargs.
WI_TWINS = {"nodele-3": {}, "nodele-4": _FOUR}


@pytest.mark.parametrize("name", sorted(WI_TWINS))
def test_wi_spec_checks_as_adaptive_without_delegation(name):
    got = run(SpecModel(get_spec("wi"), **WI_TWINS[name]))
    assert (got.states_explored, got.transitions,
            got.max_depth) == PINNED[name][1]
    assert rule_counts_digest(got) == RULE_COUNT_DIGESTS[name]


#: MESI is adaptive without delegation, updates, the RAC and the
#: consumer vector: name -> (SpecModel kwargs, outcome, rule-count
#: digest), recorded on the hand-written MESI spec it replaced.
MESI_PINNED = {
    "mesi-3": ({}, (254, 527, 22),
               "de87150fce388925f6a58810a2e5067392bef393220ee30b59aa07894721347f"),
    "mesi-3-unordered": (
        {"ordered_channels": False}, (402, 996, 24),
        "6940df3146e1464cb39634aceeff27afc107aac7fa960ae0ce3a12ccf9fd63dc"),
    "mesi-4": (_FOUR, (7060, 22446, 34),
               "db8bcd4c08a5945cd0643d65c711af2613e7f7b70e73fadb2e454871d6b1260b"),
}


@pytest.mark.parametrize("name", sorted(MESI_PINNED))
def test_mesi_state_space_is_pinned(name):
    kwargs, expected, digest = MESI_PINNED[name]
    got = run(SpecModel(get_spec("mesi"), **kwargs))
    assert (got.states_explored, got.transitions,
            got.max_depth) == expected
    assert rule_counts_digest(got) == digest


# -- checker teeth: the spec's transitions really execute ---------------------

#: Handler transitions no pinned ordered configuration reaches: defensive
#: arms for races that per-channel FIFO and atomic model steps rule out
#: (a writeback overtaken by its own NACK, replies to a request the
#: requester no longer has outstanding, a delegate asking its own home).
#: The simulator still implements them and lint checks those paths
#: statically (CON003/CON005).  Pinned in both directions: a transition
#: that stops firing, or one listed here that starts to, fails the test.
MODEL_UNREACHED = frozenset({
    "gets_dele_self_nack", "getx_dele_self_nack",
    "data_s_stale", "data_e_stale", "ack_x_stale", "sh_resp_stale",
    "ex_resp_stale", "ex_resp_install", "ex_resp_raced_drop",
    "nack_stale", "nacki_stale", "nacki_rebuffer", "nacknh_stale",
    "wb_resolve_buffered", "wb_stale_dir", "wb_stale_owner",
    "evc_resolve_buffered", "evc_stale_dir", "evc_stale_owner",
    "sh_wb_stale", "xfer_stale", "update_stale_copy", "update_ack_stale",
})


def _dispatched(t):
    """Transitions the compiled model executes on message delivery."""
    return not (t.is_entry or t.hoist or t.only == "sim"
                or t.has_tag("also") or t.has_tag("unreachable"))


def test_every_handler_transition_fires(outcomes):
    fired = set()
    for name, (kwargs, _expected) in PINNED.items():
        if kwargs.get("ordered_channels", True):
            # Delivery labels are "<transition label>_<destination>".
            fired.update(label.rsplit("_", 1)[0]
                         for label in outcomes[name].rule_counts)
    spec = get_spec("adaptive")
    handlers = {t.label for t in spec.transitions if _dispatched(t)}
    assert MODEL_UNREACHED <= handlers
    assert sorted(handlers - fired) == sorted(MODEL_UNREACHED)
