"""The whole simulated machine and the run loop.

``System`` wires together the event queue, fabric, per-node hubs and
processors, the barrier manager, the address map and the online coherence
checker, then drains the event queue until every CPU retires its trace.

Typical use::

    from repro.common import small
    from repro.sim import System

    with System(small()) as system:
        result = system.run(per_cpu_ops, placements={region_start: home_node})
    print(result.cycles, result.stats["miss.remote_3hop"])

Leaving the ``with`` block closes the system (:meth:`System.close`); a
caller that inspects the machine after ``run`` skips it and leaves the
finished system to the cyclic garbage collector.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from ..common.errors import SimulationError
from ..common.events import EventQueue
from ..common.stats import Stats
from ..directory.placement import AddressMap
from ..network.chaos import ChaosPolicy
from ..network.fabric import Fabric
from ..network.message import reset_msg_ids
from ..obs.metrics import MissCounts
from ..protocol.arena import resolve_protocol
from .barrier import BarrierManager
from .coherence_check import CoherenceChecker
from .processor import Processor


@dataclass
class RunResult:
    """Everything a finished simulation reports.

    ``extras["latency"]`` (every run) holds the miss-latency histograms
    per hop class and the retry histogram
    (:meth:`~repro.obs.metrics.MissCounts.summary`); ``extras["obs"]``
    (traced runs only) adds the tracer's intervention occupancy.
    """

    cycles: int
    stats: Dict[str, int]
    cpu_finish_times: List[int]
    ops_executed: int
    events_processed: int
    extras: dict = field(default_factory=dict)

    def stat(self, name, default=0):
        return self.stats.get(name, default)


class System:
    """A ``num_nodes``-node cc-NUMA machine ready to execute one workload."""

    def __init__(self, config, check_coherence=True, tracer=None, chaos=None):
        reset_msg_ids()
        # The protocol registry maps config.protocol_name to a hub class
        # and normalises the config onto its spec's features (identity for
        # the default "adaptive", so existing configs are untouched
        # byte-for-byte).
        self.protocol = resolve_protocol(config.protocol_name)
        config = self.protocol.normalize_config(config)
        self.config = config
        self.events = EventQueue()
        self.stats = Stats()
        self.tracer = tracer  # None = tracing disabled (the no-op fast path)
        # Miss latency by hop class and retries: always on, and the
        # tracer's histograms are these same counts (recorded once).
        self.misses = MissCounts()
        if tracer is not None:
            tracer.misses = self.misses
        # ``chaos`` may be a ChaosConfig or an already-built ChaosPolicy;
        # None (or an all-zero config) installs no policy.
        self.chaos = ChaosPolicy.resolve(chaos, stats=self.stats)
        self.address_map = AddressMap(config.num_nodes)
        self.fabric = Fabric(config, self.events, self.stats, tracer=tracer,
                             chaos=self.chaos)
        self.checker = CoherenceChecker(self) if check_coherence else None
        self.hubs = [self.protocol.hub_class(node, self)
                     for node in range(config.num_nodes)]
        self.processors = []
        self.barrier = None
        self._unfinished = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Free the machine by reference counting alone.

        Hubs, processors, the fabric and the system point at each other
        (back-references and pre-bound handler tables), so a finished
        system is cyclic garbage: only a ``gc.collect()`` walk frees it,
        about 4,700 objects per 16-node headline run.  Closing empties
        those objects, which breaks every cycle, so the whole machine is
        freed as soon as the caller drops it.  Read what you need first:
        a closed system can neither run nor be inspected, while the
        :class:`RunResult` from :meth:`run` holds no reference back to it.
        Closing twice is harmless.
        """
        if not vars(self):
            return  # already closed
        for part in (*self.hubs, *self.processors, self.fabric):
            vars(part).clear()
        vars(self).clear()

    def on_cpu_finished(self, node):
        self._unfinished -= 1

    def run(self, per_cpu_ops, placements=None, max_cycles=None,
            max_events=None):
        """Execute one op stream per CPU and return a :class:`RunResult`.

        ``per_cpu_ops`` is an iterable of at most ``num_nodes`` iterables of
        trace ops; CPU *i* runs stream *i*.  Streams are materialised once
        up front, so one-shot iterables (generators) are fine.
        ``placements`` is an iterable of ``(start, length, home)`` triples
        modelling the paper's first-touch placement; pass the triples
        produced by the workload's :meth:`placements` method.
        """
        if self.processors:
            raise SimulationError("a System instance runs exactly one workload")
        streams = [list(ops) for ops in per_cpu_ops]
        if not streams:
            raise SimulationError(
                "per_cpu_ops is empty: need at least one op stream")
        if len(streams) > self.config.num_nodes:
            raise SimulationError(
                "%d op streams for %d nodes"
                % (len(streams), self.config.num_nodes))
        # An empty placements list deliberately means the same as None
        # ("no explicit placement"): the falsy check covers both.
        if placements:
            for start, length, home in placements:
                self.address_map.place_range(start, length, home)
        self.barrier = BarrierManager(self.events, len(streams),
                                      stats=self.stats)
        self.processors = [
            Processor(node, self, self.hubs[node], ops)
            for node, ops in enumerate(streams)
        ]
        self._unfinished = len(self.processors)
        for processor in self.processors:
            processor.start()
        self.events.run(max_events=max_events, max_cycles=max_cycles)
        if self._unfinished:
            raise SimulationError(
                "simulation stalled at cycle %d with %d unfinished CPUs: %s"
                % (self.events.now, self._unfinished,
                   {p.node: p.describe() for p in self.processors
                    if not p.finished}))
        result = RunResult(
            cycles=max(p.finish_time for p in self.processors),
            stats=self.stats.as_dict(),
            cpu_finish_times=[p.finish_time for p in self.processors],
            ops_executed=sum(p.ops_executed for p in self.processors),
            events_processed=self.events.processed,
            extras={"latency": self.misses.summary()},
        )
        if self.tracer is not None:
            self.tracer.finalize(self.events.now)
            result.extras["obs"] = self.tracer.summary()
        return result
