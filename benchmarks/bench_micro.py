"""Microbenchmarks of the substrate components.

These use pytest-benchmark's statistical timing (many rounds) — useful for
catching performance regressions in the hot paths that dominate full
simulation runs: cache lookups, fabric delivery, detector updates.
"""

from repro.cache import SetAssociativeCache
from repro.common import CacheConfig, EventQueue, Stats, baseline
from repro.common.stats import Stats as StatsClass
from repro.network import Fabric, Message, MsgType
from repro.protocol import DetectorEntry, ProducerConsumerDetector
from repro.sim import Compute, System


def test_cache_probe_hit(benchmark):
    cache = SetAssociativeCache(CacheConfig(32 * 1024, 4), name="bench")
    for i in range(64):
        cache.insert(i * 128)
    benchmark(cache.access, 31 * 128)


def test_cache_insert_evict(benchmark):
    cache = SetAssociativeCache(CacheConfig(4096, 4), name="bench")
    addrs = [i * 128 for i in range(256)]
    counter = [0]

    def insert_next():
        cache.insert(addrs[counter[0] % len(addrs)])
        counter[0] += 1

    benchmark(insert_next)


def test_fabric_send_deliver(benchmark):
    cfg = baseline(num_nodes=4)
    events = EventQueue()
    fabric = Fabric(cfg, events, Stats())
    for n in range(4):
        fabric.attach(n, lambda m: None)

    def roundtrip():
        fabric.send(Message(MsgType.GETS, 0, 3, 0))
        events.run()

    benchmark(roundtrip)


def test_detector_update(benchmark):
    detector = ProducerConsumerDetector(baseline().protocol, StatsClass())
    entry = DetectorEntry(addr=0)

    def cycle():
        detector.observe_write(entry, 1, distinct_readers=1)
        detector.observe_read(entry, 2, already_sharer=False)

    benchmark(cycle)


def test_event_queue_throughput(benchmark):
    def burst():
        events = EventQueue()
        for i in range(1000):
            events.schedule(i % 97, lambda: None)
        events.run()

    benchmark(burst)


def test_dispatch_table_hit(benchmark):
    """Hub handler dispatch through the pre-bound per-MsgType array."""
    from repro.sim.system import System as _System

    system = _System(baseline(num_nodes=4), check_coherence=False)
    hub = system.hubs[0]
    msg = Message(MsgType.WB_ACK, src=1, dst=0, addr=0)

    benchmark(hub.dispatch, msg)


def test_simulator_ops_per_second(benchmark):
    """End-to-end simulation throughput on a compute-only trace."""
    def run():
        system = System(baseline(num_nodes=4), check_coherence=False)
        system.run([[Compute(10) for _ in range(500)] for _ in range(4)])

    benchmark(run)
