"""Model <-> implementation conformance.

The model checker's guarantees only transfer to the simulator if the two
describe the same protocol.  These tests bridge them: drive the *simulator*
through small scripted scenarios, project its final quiescent state into
the model's state space with the fuzz oracles' ``project_line``, and
assert the model reaches an equivalent quiescent state — for the
protocol-visible skeleton (cache states, home directory state/owner,
delegation presence, RAC residency).
"""

import pytest

from repro.common import baseline, small
from repro.fuzz.oracles import project_line
from repro.mc import ALL_INVARIANTS, HOME, ModelChecker, ProtocolModel
from repro.sim import Barrier, Compute, Read, System, Write

LINE = 0x100000


def skeleton(state):
    """A model state's protocol-visible skeleton: (cache states, home
    state, owner/delegate, delegated?, RAC residency)."""
    _cur, caches, racs, _cpus, home, deleg, _hints, _net = state
    return (tuple(st for st, _v in caches), home[0], home[2],
            deleg is not None, tuple(r is not None for r in racs))


def model_quiescent_skeletons(model):
    """The skeletons of all quiescent model states."""
    seen = set()
    mc = ModelChecker(model.initial_states(), model.rules(),
                      ALL_INVARIANTS, quiescent=model.quiescent,
                      track_traces=False, canonicalize=model.canonical)

    # Walk the reachable set by re-running with a recording canonicalizer.
    def record(state):
        if model.quiescent(state):
            seen.add(skeleton(state))
        return model.canonical(state)

    mc.canonicalize = record
    mc.run()
    return seen


@pytest.fixture(scope="module")
def full_model_skeletons():
    model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,))
    return model_quiescent_skeletons(model)


@pytest.fixture(scope="module")
def base_model_skeletons():
    model = ProtocolModel(num_nodes=3, writers=(1,), readers=(2,),
                          enable_delegation=False)
    return model_quiescent_skeletons(model)


def run_scenario(config, ops):
    system = System(config)
    system.address_map.place_range(LINE, 128, HOME)
    system.run(ops)
    return system


def skeleton_of(system):
    return skeleton(project_line(system, LINE))


class TestBaseConformance:
    @pytest.mark.parametrize("ops", [
        # writer 1 writes once
        [[], [Write(LINE)], []],
        # write then remote read (intervention)
        [[Barrier(0), Barrier(1)],
         [Write(LINE), Barrier(0), Barrier(1)],
         [Barrier(0), Read(LINE), Barrier(1)]],
        # read-only by node 2
        [[], [], [Read(LINE)]],
        # write, read, write again (invalidation round)
        [[Barrier(0), Barrier(1), Barrier(2)],
         [Write(LINE), Barrier(0), Barrier(1), Write(LINE), Barrier(2)],
         [Barrier(0), Read(LINE), Barrier(1), Barrier(2)]],
    ])
    def test_final_state_reachable_in_model(self, base_model_skeletons,
                                            ops):
        system = run_scenario(baseline(num_nodes=3), ops)
        assert skeleton_of(system) in base_model_skeletons


class TestFullMechanismConformance:
    def pc_ops(self, iters):
        ops = [[], [], []]
        bid = 0
        for _ in range(iters):
            ops[1].append(Write(LINE))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
            ops[2].append(Compute(300))
            ops[2].append(Read(LINE))
            for s in ops:
                s.append(Barrier(bid))
            bid += 1
        return ops

    @pytest.mark.parametrize("iters", [2, 4, 8])
    def test_producer_consumer_states_reachable(self, full_model_skeletons,
                                                iters):
        system = run_scenario(small(num_nodes=3), self.pc_ops(iters))
        assert skeleton_of(system) in full_model_skeletons

    def test_delegated_end_state_reachable(self, full_model_skeletons):
        system = run_scenario(small(num_nodes=3), self.pc_ops(8))
        skeleton = skeleton_of(system)
        assert skeleton[3]  # the scenario really did delegate
        assert skeleton in full_model_skeletons
