"""The explicit-state model-checking engine, on toy models and on the
3-node protocol model."""

import gc

import pytest

from repro.common.errors import DeadlockError, InvariantViolation
from repro.mc import (ALL_INVARIANTS, ModelChecker, ProtocolModel,
                      StateSpaceExceeded)
from repro.mc.model import _MSG_VALUE_POS
from repro.spec import get_spec
from repro.spec.mcgen import SpecModel


def counter_rules(limit):
    """A toy model: an integer that can be incremented up to ``limit``."""
    def increment(state):
        if state < limit:
            yield ("inc", state + 1)
    return [increment]


class TestExploration:
    def test_explores_reachable_states(self):
        mc = ModelChecker([0], counter_rules(5), [], quiescent=lambda s: True)
        res = mc.run()
        assert res.states_explored == 6
        assert res.transitions == 5
        assert res.max_depth == 5

    def test_multiple_initial_states(self):
        mc = ModelChecker([0, 3], counter_rules(5), [])
        res = mc.run()
        assert res.states_explored == 6

    def test_cycles_terminate(self):
        def spin(state):
            yield ("spin", (state + 1) % 4)
        mc = ModelChecker([0], [spin], [])
        res = mc.run()
        assert res.states_explored == 4

    def test_rule_counts(self):
        mc = ModelChecker([0], counter_rules(3), [])
        res = mc.run()
        assert res.rule_counts == {"inc": 3}

    def test_state_cap_enforced(self):
        mc = ModelChecker([0], counter_rules(100), [], max_states=10)
        with pytest.raises(StateSpaceExceeded):
            mc.run()


class TestInvariants:
    def test_violation_raised_with_trace(self):
        def below_four(state):
            return state < 4
        mc = ModelChecker([0], counter_rules(10), [below_four])
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.state == 4
        assert err.value.trace == ["inc"] * 4
        assert err.value.invariant_name == "below_four"

    def test_initial_state_checked(self):
        mc = ModelChecker([9], counter_rules(10), [lambda s: s < 5])
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.trace == []

    def test_no_traces_mode_still_detects(self):
        mc = ModelChecker([0], counter_rules(10), [lambda s: s < 4],
                          track_traces=False)
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.trace == []  # traces unavailable but detected


class TestDeadlock:
    def test_dead_end_reported(self):
        mc = ModelChecker([0], counter_rules(3), [],
                          quiescent=lambda s: False)
        with pytest.raises(DeadlockError) as err:
            mc.run()
        assert err.value.state == 3

    def test_quiescent_dead_end_ok(self):
        mc = ModelChecker([0], counter_rules(3), [],
                          quiescent=lambda s: s == 3)
        res = mc.run()
        assert res.states_explored == 4


class TestCanonicalization:
    def test_symmetry_collapses_states(self):
        """States (a, b) equivalent up to swapping explore once per class."""
        def rules(state):
            a, b = state
            if a < 2:
                yield ("a", (a + 1, b))
            if b < 2:
                yield ("b", (a, b + 1))

        plain = ModelChecker([(0, 0)], [rules], []).run()
        canon = ModelChecker([(0, 0)], [rules], [],
                             canonicalize=lambda s: tuple(sorted(s))).run()
        assert canon.states_explored < plain.states_explored

    def test_invariants_see_real_states(self):
        """Canonicalisation must not hide violations in real states."""
        seen = []

        def rules(state):
            if state < 3:
                yield ("inc", state + 1)

        def record(state):
            seen.append(state)
            return True

        ModelChecker([0], [rules], [record],
                     canonicalize=lambda s: 0).run()
        assert seen == [0]  # every successor collapses to class 0


class TestRepresentatives:
    def test_rules_fire_on_representatives_only(self):
        seen = []

        def sorted_pair(state):
            return tuple(sorted(state))

        def rules(state):
            seen.append(state)
            a, b = state
            if a < 2:
                yield ("a", (a + 1, b))
            if b < 2:
                yield ("b", (a, b + 1))

        ModelChecker([(0, 0)], [rules], [],
                     canonicalize=sorted_pair).run()
        assert seen and all(sorted_pair(s) == s for s in seen)

    def test_protocol_rules_fire_on_representatives_only(self):
        model = ProtocolModel()
        stray = []

        def watched(rule):
            def fire(state):
                if model.canonical(state) != state:
                    stray.append(state)
                return rule(state)
            return fire

        result = ModelChecker(model.initial_states(),
                              [watched(rule) for rule in model.rules()],
                              ALL_INVARIANTS, quiescent=model.quiescent,
                              track_traces=False,
                              canonicalize=model.canonical).run()
        assert result.states_explored == 3245
        assert stray == []

    def test_traced_rerun_keeps_the_counterexample(self):
        """The fast pass and the traced re-run stop at the same state, and
        the trace is the unordered model's pinned shortest counterexample."""
        model = ProtocolModel(ordered_channels=False)
        errors = []
        for track_traces in (False, True):
            checker = ModelChecker(model.initial_states(), model.rules(),
                                   ALL_INVARIANTS, quiescent=model.quiescent,
                                   track_traces=track_traces,
                                   canonicalize=model.canonical)
            with pytest.raises(InvariantViolation) as err:
                checker.run()
            errors.append(err.value)
        fast, traced = errors
        assert fast.invariant_name == traced.invariant_name == "single_writer"
        assert fast.state == traced.state
        assert traced.trace == [
            "read_2", "write_1", "getx_delegate_unowned_0",
            "delegate_accept_1", "gets_forward_0", "acting_gets_serve_1",
            "write_1", "acting_getx_local_1", "inv_apply_2",
            "inv_ack_count_1", "intervene_1", "write_1",
            "acting_getx_local_1", "inv_apply_2", "update_during_read_2",
            "inv_ack_count_1"]


def _oracle_value_fields(state):
    """The generator-based traversal ``canonical`` used to walk."""
    cur, caches, racs, _cpus, home, deleg, _hints, net = state
    yield cur
    for cstate, value in caches:
        if cstate != "I":
            yield value
    for rac in racs:
        if rac is not None:
            yield rac[0]
    yield home[3]
    if deleg is not None:
        yield deleg[1][3]
    for _pair, queue in net:
        for msg in queue:
            pos = _MSG_VALUE_POS.get(msg[0])
            if pos is not None:
                yield msg[3][pos]


def oracle_canonical(state):
    """Reference renaming: the generator-based ``canonical`` that the
    one-pass version replaced, kept verbatim to compare against."""
    rename = {}
    for value in _oracle_value_fields(state):
        if value not in rename:
            rename[value] = len(rename)
    if all(old == new for old, new in rename.items()):
        return state
    rmap = rename.__getitem__
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


#: name -> model: adaptive with updates, the unordered no-updates model
#: (its rules pop from anywhere in a channel) and MESI, all at 3 nodes.
ORACLE_MODELS = {
    "adaptive-3": lambda: ProtocolModel(),
    "dele-3-unordered": lambda: ProtocolModel(enable_updates=False,
                                              ordered_channels=False),
    "mesi-3": lambda: SpecModel(get_spec("mesi")),
}


class TestCanonicalAgainstOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_every_successor_matches_the_oracle(self, name):
        model = ORACLE_MODELS[name]()
        canonical = model.canonical
        successors = stored = 0

        def watched(rule):
            def fire(state):
                nonlocal successors, stored
                stored += 1
                assert canonical(state) is state
                for label, nxt in rule(state):
                    successors += 1
                    once = canonical(nxt)
                    assert once == oracle_canonical(nxt)
                    assert canonical(once) == once
                    yield label, nxt
            return fire

        result = ModelChecker(model.initial_states(),
                              [watched(rule) for rule in model.rules()],
                              ALL_INVARIANTS, quiescent=model.quiescent,
                              track_traces=False,
                              canonicalize=canonical).run()
        assert successors == result.transitions
        assert stored == result.states_explored * len(model.rules())


class TestLookupFirst:
    def test_stored_representatives_are_not_canonicalised(self):
        """Each successor is looked up before it is canonicalised, so
        the 3-node check canonicalises its initial state and the 3,616
        successors that are not stored representatives, not all 9,427
        (9,428 calls when every successor was canonicalised)."""
        model = ProtocolModel()
        calls = 0

        def counted(state):
            nonlocal calls
            calls += 1
            assert state not in checker._parents
            return model.canonical(state)

        checker = ModelChecker(model.initial_states(), model.rules(),
                               ALL_INVARIANTS, quiescent=model.quiescent,
                               canonicalize=counted)
        result = checker.run()
        assert (result.states_explored, result.transitions) == (3245, 9427)
        assert calls == 3617


class TestGarbageCollector:
    """A run pauses the cyclic GC and restores the caller's setting."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_and_restored_after_a_pass(self):
        gc.enable()
        seen = []

        def increment(state):
            seen.append(gc.isenabled())
            if state < 3:
                yield ("inc", state + 1)

        ModelChecker([0], [increment], []).run()
        assert seen == [False] * 4
        assert gc.isenabled()

    @pytest.mark.parametrize("kwargs, error", [
        ({"invariants": [lambda s: s < 2]}, InvariantViolation),
        ({"invariants": [], "quiescent": lambda s: False}, DeadlockError),
        ({"invariants": [], "max_states": 2}, StateSpaceExceeded),
    ])
    def test_restored_after_each_failure(self, kwargs, error):
        gc.enable()
        checker = ModelChecker([0], counter_rules(3), **kwargs)
        with pytest.raises(error):
            checker.run()
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        gc.disable()
        ModelChecker([0], counter_rules(3), []).run()
        assert not gc.isenabled()
        with pytest.raises(StateSpaceExceeded):
            ModelChecker([0], counter_rules(3), [], max_states=2).run()
        assert not gc.isenabled()
