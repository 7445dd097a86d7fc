"""Exhaustive model checking of the protocol (the paper's §2.5).

Positive results: the base protocol, delegation, and delegation+updates
all satisfy the safety invariants ("single writer exists", directory
consistency, value coherence, delegation well-formedness) over their
entire reachable state spaces, with no non-quiescent dead ends — the same
claims the paper establishes with Murphi.

Negative result: removing the fabric's per-channel FIFO guarantee lets a
stale speculative UPDATE overtake a later INV and resurrect an invalidated
copy — the checker finds that counterexample, demonstrating the protocol's
ordering assumption is load-bearing.
"""

import pytest

from repro.common.errors import DeadlockError, InvariantViolation
from repro.mc import ALL_INVARIANTS, ModelChecker, ProtocolModel


def check(model, max_states=4_000_000, canonical=True):
    mc = ModelChecker(model.initial_states(), model.rules(), ALL_INVARIANTS,
                      quiescent=model.quiescent, max_states=max_states,
                      track_traces=False,
                      canonicalize=model.canonical if canonical else None)
    return mc.run()


class TestBaseProtocol:
    def test_base_protocol_verifies(self):
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                              enable_delegation=False)
        result = check(model)
        assert result.states_explored > 100

    def test_base_two_writers_verifies(self):
        model = ProtocolModel(num_nodes=3, writers=(1, 2), readers=(2,),
                              enable_delegation=False)
        check(model)

    def test_base_exercises_interventions(self):
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                              enable_delegation=False)
        result = check(model)
        assert any(label.startswith("int_s") for label in result.rule_counts)
        assert any(label.startswith("evict") for label in result.rule_counts)


class TestDelegationProtocol:
    def test_delegation_without_updates_verifies(self):
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                              enable_updates=False)
        result = check(model)
        assert "delegate_accept_1" in result.rule_counts
        assert any(label.startswith("undele") for label in result.rule_counts)

    def test_full_mechanism_verifies(self):
        """Delegation + speculative updates + evictions, exhaustively."""
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,))
        result = check(model)
        assert "intervene_1" in result.rule_counts
        assert any(label.startswith("update_") for label in result.rule_counts)
        assert result.states_explored > 1000

    @pytest.mark.slow
    def test_two_consumers_verify(self):
        model = ProtocolModel(num_nodes=4, writers=(1,), readers=(2, 3))
        result = check(model)
        assert result.states_explored > 1000

    def test_recall_races_explored(self):
        """Home-initiated undelegation and its NACK(gone/busy) races."""
        model = ProtocolModel(num_nodes=3, writers=(1, 2), readers=(2,))
        result = check(model)
        assert "getx_recall_0" in result.rule_counts
        labels = set(result.rule_counts)
        assert labels & {"undele_req_grant_1", "undele_req_gone_1",
                         "undele_req_busy_1"}

    @pytest.mark.slow
    def test_deferred_undelegation_explored(self):
        """The update-ack gate the checker originally motivated."""
        model = ProtocolModel(num_nodes=4, writers=(1, 3), readers=(2,))
        result = check(model)
        assert any("update_ack" in label for label in result.rule_counts)


class TestOrderingAssumption:
    def test_unordered_channels_break_the_protocol(self):
        """Without per-channel FIFO, a stale UPDATE can overtake an INV
        from the same producer and resurrect an invalidated copy."""
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                              ordered_channels=False)
        with pytest.raises((InvariantViolation, DeadlockError)):
            check(model)


class TestCounterexampleTraces:
    def test_trace_available_with_tracking(self):
        """A deliberately broken invariant produces a replayable trace."""
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,))

        def no_delegation_ever(state):
            return state[5] is None  # fails as soon as DELEGATE lands

        mc = ModelChecker(model.initial_states(), model.rules(),
                          [no_delegation_ever], quiescent=model.quiescent,
                          canonicalize=model.canonical)
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert "delegate_accept_1" in err.value.trace


class TestValueSymmetry:
    def test_canonicalization_reduces_states(self):
        model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                              enable_delegation=False,
                              allow_evictions=False)
        plain = check(model, canonical=False)
        reduced = check(model)
        assert reduced.states_explored <= plain.states_explored

    def test_canonical_idempotent(self):
        model = ProtocolModel(num_nodes=3)
        state = model.initial_states()[0]
        once = model.canonical(state)
        assert model.canonical(once) == once

    def test_canonical_merges_value_renamings(self):
        model = ProtocolModel(num_nodes=3)
        base = model.initial_states()[0]
        # Two states identical except all values shifted.
        s1 = (1, (("S", 1), ("I", 0), ("I", 0)), base[2], base[3],
              ("S", frozenset({0}), None, 1, None), None, base[6], ())
        s2 = (3, (("S", 3), ("I", 0), ("I", 0)), base[2], base[3],
              ("S", frozenset({0}), None, 3, None), None, base[6], ())
        assert model.canonical(s1) == model.canonical(s2)
