"""Transaction-level tracer for the coherence simulator.

The tracer records the causal chain of the paper's two mechanisms —
miss, NACK, delegation, update push, RAC hit — and nothing the
simulator's :class:`~repro.common.stats.Stats` already counts:

* **Transaction spans** — one per processor miss, from issue to grant,
  with every (re)issue attempt, every NACK, the final path class
  (local / 2-hop / 3-hop) and retry count.  Delegation lifetimes
  (DELEGATE accepted → UNDELE sent) are spans too.  A load or store that
  loses its freshly filled line before replaying shows up as a second
  miss span.
* **Point events** — delegation initiation/decline/return,
  speculative-update pushes and receipts, RAC hits, intervention
  arm/fire/cancel/abandon, and (optionally) every network message.
  ``intervention.fired`` is derived here: a push from a node with an
  armed intervention on the line resolves it as fired.

The simulator's hot paths guard every call with ``if tracer is not None``,
so a disabled tracer (the default) costs one attribute load and a branch —
the no-op fast path.  When enabled, the histograms (the System's always-on
miss-latency and retry counts, plus the intervention occupancy collected
here — see :meth:`Tracer.summary`) are always full-fidelity, while
span/event *records* obey the sampling controls in :class:`TraceConfig`:
restrict by node, by address range, or keep 1-in-N transactions.

All record fields come from the deterministic simulation (cycle times,
node ids, tracer-local sequence numbers), so a trace of a given
(workload, config, seed) is byte-identical across runs.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .metrics import OCCUPANCY_BOUNDS, Histogram, MissCounts


@dataclass(frozen=True)
class TraceConfig:
    """Sampling and capture controls for a :class:`Tracer`.

    ``sample_every`` keeps 1-in-N transaction spans (1 = keep all);
    ``nodes`` restricts records to these requester nodes; ``addr_ranges``
    is an iterable of ``(start, end)`` half-open byte ranges.  Filters
    apply to span/event records only — histograms always see everything.
    ``capture_messages`` additionally records one event per network
    message (large; best combined with address filters).
    """

    sample_every: int = 1
    nodes: Optional[frozenset] = None
    addr_ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    capture_messages: bool = False

    def __post_init__(self):
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.nodes is not None:
            object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.addr_ranges is not None:
            ranges = tuple((int(lo), int(hi)) for lo, hi in self.addr_ranges)
            for lo, hi in ranges:
                if hi <= lo:
                    raise ValueError("empty address range [%#x, %#x)" % (lo, hi))
            object.__setattr__(self, "addr_ranges", ranges)


@dataclass
class Span:
    """One traced interval on a node's timeline."""

    sid: int                 # tracer-local id, stable across same-seed runs
    kind: str                # "miss.read" / "miss.write" / "delegation"
    node: int
    addr: int
    start: int
    end: Optional[int] = None
    outcome: Optional[str] = None   # path class, undelegation reason, ...
    retries: int = 0
    attempts: List[dict] = field(default_factory=list)  # issue/reissue hops
    nacks: List[dict] = field(default_factory=list)
    args: dict = field(default_factory=dict)

    @property
    def duration(self):
        return None if self.end is None else self.end - self.start


@dataclass
class Event:
    """One traced point-in-time occurrence."""

    eid: int
    name: str
    node: int
    addr: int
    ts: int
    args: dict = field(default_factory=dict)


class Tracer:
    """Collects spans, events and histograms for one simulation run.

    A traced :class:`~repro.sim.System` shares its always-on
    :class:`~repro.obs.metrics.MissCounts` into ``misses``, so each miss
    is recorded once.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else TraceConfig()
        self.misses = MissCounts()
        self.intervention_occupancy = Histogram(OCCUPANCY_BOUNDS)
        self.spans = []
        self.events = []
        self._seq = 0
        self._txn_count = 0           # all transactions, for 1-in-N sampling
        self._miss_spans = {}         # node -> Span | None (None = unsampled)
        self._dele_spans = {}         # (node, addr) -> Span
        self._armed = {}              # (node, addr) -> armed-at cycle
        self.finalized_at = None
        # Without a node or address filter every record passes, and with
        # sample_every == 1 every transaction does too: the record paths
        # then skip the filter and sampling frames.
        cfg = self.config
        self._filtered = cfg.nodes is not None or cfg.addr_ranges is not None
        self._sampled = self._filtered or cfg.sample_every != 1

    # -- sampling -----------------------------------------------------------

    def _in_filters(self, node, addr):
        cfg = self.config
        if cfg.nodes is not None and node not in cfg.nodes:
            return False
        if cfg.addr_ranges is not None:
            return any(lo <= addr < hi for lo, hi in cfg.addr_ranges)
        return True

    def _sample_txn(self, node, addr):
        self._txn_count += 1
        if not self._in_filters(node, addr):
            return False
        return (self._txn_count - 1) % self.config.sample_every == 0

    # -- transaction spans (requester side) ---------------------------------

    def miss_begin(self, node, addr, kind, now):
        """``kind`` is the span kind: ``"miss.read"`` or ``"miss.write"``."""
        if self._sampled and not self._sample_txn(node, addr):
            self._miss_spans[node] = None
            return
        self._seq += 1
        self._miss_spans[node] = Span(self._seq, kind, node, addr, now)

    def miss_issue(self, node, addr, now, target, mtype):
        span = self._miss_spans.get(node)
        if span is not None and span.addr == addr:
            span.attempts.append({"ts": now, "target": target,
                                  "mtype": mtype})

    def miss_nack(self, node, addr, now, reason="nack"):
        span = self._miss_spans.get(node)
        if span is not None and span.addr == addr:
            span.nacks.append({"ts": now, "reason": reason})

    def miss_end(self, node, addr, now, path, retries):
        # Latency and retries are counted by the always-on MissCounts the
        # System shares into self.misses; only the span is recorded here.
        span = self._miss_spans.pop(node, None)
        if span is not None and span.addr == addr:
            span.end = now
            span.outcome = path
            span.retries = retries
            self.spans.append(span)

    # -- delegation lifetime spans (producer side) --------------------------

    def delegation_begin(self, node, addr, now):
        if self._filtered and not self._in_filters(node, addr):
            return
        self._seq += 1
        self._dele_spans[(node, addr)] = Span(
            sid=self._seq, kind="delegation", node=node, addr=addr,
            start=now)

    def delegation_end(self, node, addr, now, reason):
        span = self._dele_spans.pop((node, addr), None)
        if span is not None:
            span.end = now
            span.outcome = reason
            self.spans.append(span)

    # -- point events -------------------------------------------------------

    def event(self, name, node, addr, now, **args):
        if self._filtered and not self._in_filters(node, addr):
            return
        self._seq += 1
        self.events.append(Event(self._seq, name, node, addr, now, args))

    def update_push(self, node, addr, now, targets, pruned):
        """A speculative-update push; resolves an armed intervention on the
        line as ``fired`` first (a push with nothing armed — Dragon's
        non-home writers — fires nothing)."""
        self.intervention_resolved(node, addr, now, "fired")
        self.event("update.push", node, addr, now, targets=targets,
                   pruned=pruned)

    # -- delayed-intervention occupancy -------------------------------------

    def intervention_armed(self, node, addr, now):
        previous = self._armed.get((node, addr))
        if previous is not None:
            # Re-armed before firing: the old arm is superseded.
            self.intervention_occupancy.record(now - previous)
        self._armed[(node, addr)] = now
        self.event("intervention.armed", node, addr, now)

    def intervention_resolved(self, node, addr, now, outcome):
        """``outcome`` is ``fired`` / ``cancelled`` / ``abandoned``.

        A resolution with no matching armed record (e.g. a cancel after
        the intervention already fired) is ignored.
        """
        armed_at = self._armed.pop((node, addr), None)
        if armed_at is None:
            return
        self.intervention_occupancy.record(now - armed_at)
        self.event("intervention.%s" % outcome, node, addr, now)

    # -- network messages (optional, heavy) ---------------------------------

    def msg_send(self, msg, now, remote):
        # The fabric calls this only when config.capture_messages is set.
        self.event("msg.send", msg.src, msg.addr, now, dst=msg.dst,
                   mtype=msg.mtype.label, remote=remote)

    # -- lifecycle ----------------------------------------------------------

    def summary(self):
        """A plain-dict snapshot for ``RunResult.extras["obs"]``."""
        summary = self.misses.summary()
        summary["intervention_occupancy"] = (
            self.intervention_occupancy.to_dict())
        return summary

    def finalize(self, now):
        """Close the run: flush still-open spans as unfinished records."""
        self.finalized_at = now
        for node in sorted(self._miss_spans):
            span = self._miss_spans[node]
            if span is not None:
                span.outcome = "unfinished"
                self.spans.append(span)
        self._miss_spans.clear()
        for key in sorted(self._dele_spans):
            span = self._dele_spans[key]
            span.outcome = "still-delegated"
            self.spans.append(span)
        self._dele_spans.clear()
        self._armed.clear()

    def sorted_records(self):
        """All spans and events in deterministic timeline order."""
        records = [(span.start, span.sid, span) for span in self.spans]
        records += [(evt.ts, evt.eid, evt) for evt in self.events]
        records.sort(key=lambda item: (item[0], item[1]))
        return [record for _, _, record in records]
