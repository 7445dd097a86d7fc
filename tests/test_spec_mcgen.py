"""The spec-compiled model checker (repro.spec.mcgen).

The MESI and adaptive specs compile into executable ``repro.mc`` models;
this file pins the MESI exhaustive-check result (the adaptive state
spaces are pinned in ``test_mc_statespace.py``), proves the compiled
models still have teeth (a seeded wrong effect trips the safety
invariants), and exercises the compiler's own guard rails: emission
checking, exactly-one dispatch, ``unreachable`` tags, and the
generated-only entry requirement.
"""

import dataclasses

import pytest

from repro.common.errors import DeadlockError
from repro.mc import ALL_INVARIANTS, ModelChecker
from repro.mc import model as kernel
from repro.mc.engine import InvariantViolation
from repro.spec import get_spec
from repro.spec.mcgen import SpecExecutionError, SpecModel


def check(model, max_states=500_000):
    checker = ModelChecker(model.initial_states(), model.rules(),
                           ALL_INVARIANTS, quiescent=model.quiescent,
                           max_states=max_states, track_traces=True,
                           canonicalize=model.canonical)
    return checker.run()


def mesi_model(spec=None, **kwargs):
    return SpecModel(spec if spec is not None else get_spec("mesi"),
                     **kwargs)


def replace_transition(spec, label, **changes):
    assert any(t.label == label for t in spec.transitions), label
    ts = tuple(dataclasses.replace(t, **changes) if t.label == label else t
               for t in spec.transitions)
    return dataclasses.replace(spec, transitions=ts)


class TestExhaustiveCheck:
    def test_generated_mesi_model_passes(self):
        result = check(mesi_model())
        # Pinned so a spec or compiler change that shrinks or grows the
        # reachable space is visible, not silent.
        assert result.states_explored == 254
        assert result.transitions == 527
        assert result.max_depth == 22

    def test_unordered_channels_also_pass(self):
        # MESI has no payload-racing reorder hazard: unlike the adaptive
        # protocol, dropping FIFO must not surface a counterexample.
        result = check(mesi_model(ordered_channels=False))
        assert (result.states_explored, result.transitions,
                result.max_depth) == (402, 996, 24)


class TestKernels:
    @pytest.mark.parametrize("name", ["adaptive", "wi", "mesi"])
    def test_rebuffered_read_stays_a_read(self, name):
        # The home waits for a writeback with a GETS from node 2 buffered
        # when a no-copy NACK for an older intervention arrives.  The
        # simulator keeps the buffered request as it is; so must the
        # compiled nacki_rebuffer transition.
        model = SpecModel(get_spec(name))
        fire, = [f for f in model._dispatch["NACKI"]
                 if f.t.label == "nacki_rebuffer"]
        state = kernel.initial_state(3)
        busy = ("wb", 2, ("GETS", 2))
        state = state[:4] + (("E", frozenset(), 1, 0, busy),) + state[5:]
        msg = ("NACKI", 1, kernel.HOME, ("no_copy", "s"))
        after = fire.effect(model, state, msg, fire)
        assert after[4][4] == busy


class TestModelHasTeeth:
    def test_seeded_wrong_effect_trips_invariants(self):
        # Serve a GETX from the shared state with the unowned-grant
        # effect: sharers keep stale copies with no invalidations, which
        # the single-writer/value invariants must catch.
        spec = replace_transition(get_spec("mesi"), "getx_shared",
                                  effect="getx_unowned",
                                  emit=("DATA_EXCL",))
        with pytest.raises(InvariantViolation):
            check(mesi_model(spec))

    def test_seeded_wrong_adaptive_effect_trips_invariants(self):
        # Serve a read of a shared line with the exclusive grant: the
        # reader takes an E copy while the other reader keeps its S copy.
        spec = replace_transition(get_spec("adaptive"), "gets_shared",
                                  effect="gets_unowned",
                                  emit=("DATA_EXCL",))
        with pytest.raises((InvariantViolation, DeadlockError)):
            check(SpecModel(spec.without("delegation"), num_nodes=4,
                            readers=(2, 3)))


class TestCompilerGuardRails:
    def test_non_generated_spec_is_rejected(self):
        with pytest.raises(SpecExecutionError, match="only 'generated'"):
            SpecModel(get_spec("dragon"))

    def test_undeclared_emission_is_caught_at_runtime(self):
        # The unowned-GETS effect sends DATA_EXCL; stripping it from the
        # declared emit set makes the very first read miss a violation.
        spec = replace_transition(get_spec("mesi"), "gets_unowned",
                                  emit=())
        with pytest.raises(SpecExecutionError, match="outside its "
                           "declared emit set"):
            check(mesi_model(spec))

    def test_ambiguous_dispatch_is_caught_at_runtime(self):
        # Widening gets_shared to dir in {S, E} makes two transitions
        # claim a GETS arriving at an exclusive line.
        spec = replace_transition(
            get_spec("mesi"), "gets_shared",
            when=(("busy", ("none",)), ("dir", ("S", "E"))))
        with pytest.raises(SpecExecutionError, match="transitions match"):
            check(mesi_model(spec))

    def test_unreachable_tag_firing_is_a_violation(self):
        spec = replace_transition(get_spec("mesi"), "gets_unowned",
                                  tags=("unreachable",))
        with pytest.raises(SpecExecutionError, match="spec-unreachable"):
            check(mesi_model(spec))

    def test_missing_entry_rule_is_rejected(self):
        spec = get_spec("mesi")
        ts = tuple(t for t in spec.transitions
                   if t.mc_rule != "rule_evict")
        spec = dataclasses.replace(spec, transitions=ts)
        with pytest.raises(SpecExecutionError,
                           match="no entry transition for rule_evict"):
            SpecModel(spec)


class TestVerifyCli:
    def test_verify_mesi_passes(self, capsys):
        from repro.cli import main
        assert main(["verify", "--protocol", "mesi"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS: 254 states")
