"""The network-layer fault injector: config validation, protocol-legality
invariants (pairwise FIFO, safe duplication/bounce sets), determinism, and
end-to-end integration with the fabric.
"""

import pytest

from repro.common import Stats, baseline, small
from repro.common.errors import ConfigError
from repro.network import Message, MsgType
from repro.network.chaos import (
    _DUPLICABLE,
    _NACKABLE,
    ChaosConfig,
    ChaosPolicy,
    chaos_from_dict,
    chaos_to_dict,
)
from repro.sim import System
from repro.spec import get_spec
from repro.workloads import synthetic

LINE = 0x100000


def policy(stats=None, **knobs):
    return ChaosPolicy(ChaosConfig(**knobs), stats=stats)


def gets(src=1, dst=0, requester=None):
    return Message(MsgType.GETS, src=src, dst=dst, addr=LINE,
                   payload={"requester": src if requester is None
                            else requester})


class TestChaosConfig:
    def test_default_is_disabled(self):
        assert not ChaosConfig().enabled

    @pytest.mark.parametrize("knobs", [
        {"delay_jitter": 1},
        {"reorder_prob": 0.1, "reorder_window": 10},
        {"duplicate_prob": 0.1},
        {"force_nack_prob": 0.1},
    ])
    def test_any_knob_enables(self, knobs):
        assert ChaosConfig(**knobs).enabled

    @pytest.mark.parametrize("knobs", [
        {"delay_jitter": -1},
        {"reorder_window": -1},
        {"force_nack_budget": -1},
        {"reorder_prob": 1.5, "reorder_window": 10},
        {"duplicate_prob": -0.1},
        {"force_nack_prob": 0.95},  # capped below 1.0: progress guarantee
        {"reorder_prob": 0.5},      # reordering needs a window
    ])
    def test_validation(self, knobs):
        with pytest.raises(ConfigError):
            ChaosConfig(**knobs)

    def test_dict_roundtrip(self):
        cfg = ChaosConfig(seed=5, delay_jitter=20, reorder_prob=0.3,
                          reorder_window=50, duplicate_prob=0.5,
                          force_nack_prob=0.2, force_nack_budget=16)
        assert chaos_from_dict(chaos_to_dict(cfg)) == cfg
        assert chaos_to_dict(None) is None
        assert chaos_from_dict(None) is None

    def test_resolve(self):
        assert ChaosPolicy.resolve(None) is None
        assert ChaosPolicy.resolve(ChaosConfig()) is None  # all-zero
        resolved = ChaosPolicy.resolve(ChaosConfig(delay_jitter=5))
        assert isinstance(resolved, ChaosPolicy)
        assert ChaosPolicy.resolve(resolved) is resolved


class TestPairwiseFifo:
    def test_same_channel_arrivals_never_decrease(self):
        pol = policy(seed=1, delay_jitter=200, reorder_prob=0.5,
                     reorder_window=400)
        booked = []
        for i in range(500):
            booked.append(pol.arrival(gets(src=1, dst=0), arrival=100 + i))
        assert booked == sorted(booked)

    def test_channels_are_independent(self):
        pol = policy(seed=1, delay_jitter=0)
        high = pol.arrival(gets(src=1, dst=0), arrival=1000)
        assert high == 1000
        # A different channel is not dragged up to that floor.
        assert pol.arrival(gets(src=2, dst=0), arrival=5) == 5

    def test_duplicate_raises_channel_floor(self):
        pol = policy(seed=1, duplicate_prob=1.0)
        msg = Message(MsgType.WB_ACK, src=0, dst=1, addr=LINE)
        dup_at = pol.duplicate_arrival(msg, arrival=100)
        assert dup_at > 100
        # Later traffic on the channel cannot overtake the duplicate.
        assert pol.arrival(gets(src=0, dst=1), arrival=50) >= dup_at


class TestDuplication:
    def fire(self, pol, msg, tries=200):
        return [t for t in (pol.duplicate_arrival(msg, arrival=100)
                            for _ in range(tries)) if t is not None]

    def test_safe_set_duplicated(self):
        pol = policy(seed=2, duplicate_prob=1.0)
        for mtype in (MsgType.WB_ACK, MsgType.HOME_CHANGED):
            assert pol.duplicate_arrival(
                Message(mtype, src=0, dst=1, addr=LINE), 100) is not None

    def test_ackless_update_duplicated_acked_never(self):
        pol = policy(seed=2, duplicate_prob=1.0)
        ackless = Message(MsgType.UPDATE, src=0, dst=1, addr=LINE,
                          payload={"hops": 2})
        acked = Message(MsgType.UPDATE, src=0, dst=1, addr=LINE,
                        payload={"hops": 2, "ack": True})
        assert pol.duplicate_arrival(ackless, 100) is not None
        assert self.fire(pol, acked) == []

    @pytest.mark.parametrize("mtype", [MsgType.NACK, MsgType.INV_ACK,
                                       MsgType.DATA_EXCL, MsgType.GETX,
                                       MsgType.UPDATE_ACK, MsgType.UNDELE])
    def test_unsafe_types_never_duplicated(self, mtype):
        pol = policy(seed=2, duplicate_prob=1.0)
        msg = Message(mtype, src=0, dst=1, addr=LINE,
                      payload={"requester": 0, "for": "miss"})
        assert self.fire(pol, msg) == []


class TestForcedNacks:
    def test_nackable_requests_are_what_the_spec_nacks(self):
        # The forced-NACK code handles each type by hand; the set must be
        # exactly the requests adaptive's NACK answers.
        nack = get_spec("adaptive").message("NACK")
        assert {m.name for m in _NACKABLE} == set(nack.reply_to)

    def test_gets_bounced_to_requester(self):
        pol = policy(seed=3, force_nack_prob=0.9)
        nacks = [pol.forced_nack(gets(src=2, dst=0, requester=2))
                 for _ in range(50)]
        nacks = [n for n in nacks if n is not None]
        assert nacks
        for nack in nacks:
            assert nack.mtype is MsgType.NACK
            assert nack.src == 0 and nack.dst == 2  # as if the home bounced
            assert nack.payload["for"] == "miss"
            assert nack.payload["chaos"]

    def test_intervention_and_recall_bounced_to_sender(self):
        pol = policy(seed=3, force_nack_prob=0.9, force_nack_budget=10_000)
        for mtype, purpose in ((MsgType.INTERVENTION, "intervention"),
                               (MsgType.UNDELE_REQ, "recall")):
            msg = Message(mtype, src=0, dst=1, addr=LINE,
                          payload={"requester": 2})
            nacks = [n for n in (pol.forced_nack(msg) for _ in range(50))
                     if n is not None]
            assert nacks
            for nack in nacks:
                assert nack.dst == 0  # back to the home that sent it
                assert nack.payload["for"] == purpose
                # "busy" means retry-later; never "gone"/"no_copy", which
                # would make the home wait for a writeback forever.
                assert nack.payload["reason"] == "busy"

    @pytest.mark.parametrize("mtype", [MsgType.DATA_SHARED, MsgType.INV,
                                       MsgType.NACK, MsgType.WRITEBACK,
                                       MsgType.UPDATE])
    def test_replies_never_bounced(self, mtype):
        pol = policy(seed=3, force_nack_prob=0.9)
        msg = Message(mtype, src=0, dst=1, addr=LINE,
                      payload={"requester": 0, "for": "miss"})
        assert all(pol.forced_nack(msg) is None for _ in range(100))

    def test_budget_exhausts(self):
        pol = policy(seed=3, force_nack_prob=0.9, force_nack_budget=5)
        fired = [n for n in (pol.forced_nack(gets()) for _ in range(500))
                 if n is not None]
        assert len(fired) == 5

    def test_stats_counters(self):
        stats = Stats()
        pol = policy(stats=stats, seed=4, delay_jitter=50,
                     duplicate_prob=1.0, force_nack_prob=0.9)
        for i in range(50):
            pol.arrival(gets(), arrival=i * 10)
            pol.duplicate_arrival(
                Message(MsgType.WB_ACK, src=0, dst=1, addr=LINE), i * 10)
            pol.forced_nack(gets())
        assert stats.get("chaos.delayed") > 0
        assert stats.get("chaos.duplicated") == 50
        assert stats.get("chaos.forced_nack") > 0


class TestNoDrawContract:
    """A hook that cannot act on a message returns None before any draw.

    The fabric relies on this to skip the hooks for those messages: it
    sends only bounceable types through the delivery hook and asks for a
    duplicate only of duplicable ones, and skipping a call that draws
    nothing leaves every later draw where it was.
    """

    KNOBS = {"seed": 6, "delay_jitter": 50, "reorder_prob": 0.5,
             "reorder_window": 20, "duplicate_prob": 1.0,
             "force_nack_prob": 0.9}

    @staticmethod
    def message(mtype, **payload):
        return Message(mtype, src=2, dst=0, addr=LINE,
                       payload={"requester": 2, "for": "miss", **payload})

    @pytest.mark.parametrize(
        "mtype", [m for m in MsgType if m not in _NACKABLE],
        ids=lambda m: m.label)
    def test_forced_nack_outside_the_bounce_set(self, mtype):
        pol = policy(**self.KNOBS)
        before = pol._rng.getstate()
        assert pol.forced_nack(self.message(mtype)) is None
        assert pol._rng.getstate() == before

    # An ack-bearing UPDATE is outside the set too: only ack-less ones
    # are duplicated.
    OUTSIDE_DUPLICATION = [(m, {}) for m in MsgType if m not in _DUPLICABLE]
    OUTSIDE_DUPLICATION.append((MsgType.UPDATE, {"ack": True}))

    @pytest.mark.parametrize(
        "mtype,payload", OUTSIDE_DUPLICATION,
        ids=[m.label + ("+ack" if p else "") for m, p in OUTSIDE_DUPLICATION])
    def test_duplicate_arrival_outside_the_duplication_set(self, mtype,
                                                          payload):
        pol = policy(**self.KNOBS)
        before = pol._rng.getstate()
        msg = self.message(mtype, **payload)
        assert pol.duplicate_arrival(msg, arrival=100) is None
        assert pol._rng.getstate() == before

    def test_tables_hold_exactly_the_sets(self):
        pol = policy(**self.KNOBS)
        assert {m for m in MsgType if pol.bounceable[m.index]} == _NACKABLE
        assert {m for m in MsgType if pol.duplicable[m.index]} == _DUPLICABLE
        # A knob at zero empties its table: nothing can act.
        quiet = policy(seed=6, delay_jitter=50)
        assert not any(quiet.bounceable) and not any(quiet.duplicable)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def run(seed):
            pol = policy(seed=seed, delay_jitter=100, reorder_prob=0.3,
                         reorder_window=50, duplicate_prob=0.5,
                         force_nack_prob=0.5)
            out = []
            for i in range(100):
                out.append(pol.arrival(gets(), arrival=i * 7))
                nack = pol.forced_nack(gets())
                out.append(None if nack is None else nack.payload["for"])
            return out

        assert run(11) == run(11)
        assert run(11) != run(12)


def run_chaotic(chaos, seed=5):
    cfg = small(num_nodes=4, seed=seed)
    build = synthetic(num_cpus=4, seed=seed, iterations=4,
                      lines_per_producer=2, consumers=2).build()
    system = System(cfg, check_coherence=True, chaos=chaos)
    system.run(build.per_cpu_ops, placements=build.placements,
               max_cycles=5_000_000)
    return system


class TestFabricIntegration:
    def test_run_completes_under_heavy_chaos(self):
        chaos = ChaosConfig(seed=9, delay_jitter=200, reorder_prob=0.5,
                            reorder_window=400, duplicate_prob=0.5,
                            force_nack_prob=0.5)
        system = run_chaotic(chaos)
        assert system.stats.get("chaos.delayed") > 0
        assert system.stats.get("chaos.duplicated") > 0

    def test_chaos_changes_schedule_not_results(self):
        quiet = run_chaotic(None)
        noisy = run_chaotic(ChaosConfig(seed=9, delay_jitter=200))
        assert noisy.events.now != quiet.events.now  # schedule perturbed
        # Same committed memory image either way: chaos is latency, not
        # semantics.  Compare every line the workload wrote at the homes.
        for hub_q, hub_n in zip(quiet.hubs, noisy.hubs):
            assert (sorted(hub_q.home_memory.known_lines())
                    == sorted(hub_n.home_memory.known_lines()))

    def test_local_messages_untouched(self):
        stats = Stats()
        pol = ChaosPolicy(ChaosConfig(seed=1, delay_jitter=10_000),
                          stats=stats)
        cfg = baseline(num_nodes=4)
        system = System(cfg, check_coherence=False, chaos=pol)
        assert system.fabric.chaos is pol
        system.fabric.send(Message(MsgType.WB_ACK, src=1, dst=1, addr=LINE))
        system.events.run()
        assert stats.get("chaos.delayed") == 0  # src == dst: never perturbed

    def test_disabled_config_resolves_to_no_policy(self):
        system = System(baseline(num_nodes=4), check_coherence=False,
                        chaos=ChaosConfig())
        assert system.fabric.chaos is None
