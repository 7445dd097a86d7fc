"""Execute one fuzz scenario and classify the outcome.

:func:`run_case` builds the scenario's workload mix, runs it through a
fresh :class:`~repro.sim.System` with online coherence checking, an obs
tracer and the scenario's chaos policy, then applies the post-run oracles
(:mod:`repro.fuzz.oracles`).  Everything that can go wrong maps to one
oracle name:

=============  ==========================================================
``coherence``  online CoherenceViolation (stale read, single-writer)
``termination``  stalled simulation / cycle-or-event cap hit
``liveness``   a miss exceeded the retry tripwire (livelock)
``protocol``   any other ProtocolError (handler invariant broke)
``oracle:*``   a quiescence oracle: a span check or an mc invariant
=============  ==========================================================

The returned :class:`CaseResult` is JSON-safe and carries a sha256 digest
of its canonical encoding — two runs reproduce iff their digests match,
which is exactly what ``repro fuzz --replay`` asserts.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..common.errors import (
    CoherenceViolation,
    ProtocolError,
    SimulationError,
)
from ..obs import TraceConfig, Tracer
from ..sim.system import System
from ..sim.trace import Barrier
from ..workloads.base import WorkloadBuild
from ..workloads.migratory import MigratoryWorkload
from ..workloads.synthetic import synthetic
from .oracles import check_quiescence
from .scenarios import FuzzScenario

#: Barrier-id offset between merged sub-workloads, so the combined trace
#: never reuses an id (BarrierManager checks arrival order per id).
_BARRIER_STRIDE = 100_000


@dataclass
class CaseResult:
    """Outcome of one scenario run (JSON-safe)."""

    seed: int
    ok: bool
    oracle: Optional[str] = None   # which oracle fired (None when ok)
    message: str = ""              # human-readable failure detail
    cycles: int = 0
    events: int = 0
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @property
    def digest(self):
        """sha256 of the canonical encoding: the replay-equality token."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_workload(scenario):
    """Materialise the scenario's workload mix into one combined build."""
    builds = []
    for kind, kwargs in scenario.workloads:
        if kind == "pc":
            builds.append(synthetic(num_cpus=scenario.num_cpus,
                                    seed=scenario.seed,
                                    scale=scenario.scale, **kwargs).build())
        elif kind == "migratory":
            builds.append(MigratoryWorkload(num_cpus=scenario.num_cpus,
                                            seed=scenario.seed,
                                            scale=scenario.scale,
                                            **kwargs).build())
        else:
            raise ValueError("unknown fuzz workload kind %r" % kind)
    if len(builds) == 1:
        return builds[0]
    per_cpu_ops = [[] for _ in range(scenario.num_cpus)]
    placements, shared_lines = [], {}
    for index, build in enumerate(builds):
        offset = index * _BARRIER_STRIDE
        for cpu, ops in enumerate(build.per_cpu_ops):
            for op in ops:
                if offset and isinstance(op, Barrier):
                    op = Barrier(op.bid + offset)
                per_cpu_ops[cpu].append(op)
        placements.extend(build.placements)
        shared_lines.update(build.shared_lines)
    return WorkloadBuild(name="+".join(b.name for b in builds),
                         per_cpu_ops=per_cpu_ops, placements=placements,
                         shared_lines=shared_lines)


@dataclass(frozen=True)
class FuzzJob:
    """One corpus seed as a sweep job (see
    :class:`~repro.harness.sweep.SweepJob`): the fuzz engine's pooled
    corpus runs and the repro.serve fuzz jobs submit these.

    The seed and scale are the whole content:
    :meth:`~repro.fuzz.scenarios.FuzzScenario.from_seed` is
    deterministic and the job key hashes the simulator source, so the
    scenario is rolled once, worker-side, in :meth:`run`.
    """

    seed: int
    scale: float = 1.0

    def scenario(self):
        return FuzzScenario.from_seed(self.seed, scale=self.scale)

    def run(self):
        return run_case(self.scenario()).to_dict()

    def load(self, payload):
        return CaseResult(**payload)

    def describe(self):
        return "fuzz seed=%d scale=%g" % (self.seed, self.scale)


def run_case(scenario):
    """Run one scenario start-to-finish and return a :class:`CaseResult`.

    The system is closed on every return path, once the oracles and the
    result have read it.
    """
    build = build_workload(scenario)
    tracer = Tracer(TraceConfig(capture_messages=False))
    with System(scenario.config, check_coherence=True, tracer=tracer,
                chaos=scenario.chaos) as system:

        def fail(oracle, exc):
            return CaseResult(seed=scenario.seed, ok=False, oracle=oracle,
                              message=str(exc), cycles=system.events.now,
                              events=system.events.processed,
                              stats=system.stats.as_dict())

        try:
            result = system.run(build.per_cpu_ops,
                                placements=build.placements,
                                max_cycles=scenario.max_cycles,
                                max_events=scenario.max_events)
            violation = check_quiescence(system, tracer)
        except CoherenceViolation as exc:
            return fail("coherence", exc)
        except SimulationError as exc:
            return fail("termination", exc)
        except ProtocolError as exc:
            kind = "liveness" if "livelock" in str(exc) else "protocol"
            return fail(kind, exc)

    if violation is not None:
        oracle, message = violation
        return CaseResult(seed=scenario.seed, ok=False,
                          oracle="oracle:" + oracle, message=message,
                          cycles=result.cycles,
                          events=result.events_processed,
                          stats=dict(result.stats))
    return CaseResult(seed=scenario.seed, ok=True, cycles=result.cycles,
                      events=result.events_processed,
                      stats=dict(result.stats))
