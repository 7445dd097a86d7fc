"""The four end-to-end workloads, each a closed loop of one public call.

A workload is a ``setup(seed, size, work_dir)`` that builds what a user
builds before calling the public API (configs, engine, models, seed list)
and a ``unit(state, log)`` that makes the public call once, checks its
outputs and returns a :class:`Unit`.  The benchmark repeats units for the
run's length.  Inputs depend only on the seed, so every unit of a run must
produce the same digest.

``size`` is ``"full"`` for measurement and ``"tiny"`` for the tests.
"""

import hashlib
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field


@dataclass
class Unit:
    """What one call of a workload did."""

    work: int        # trace ops; model states for verify
    attempted: int   # simulations, fuzz seeds or model checks
    failed: int
    digest: str      # sha256 of the call's deterministic outputs
    counts: dict     # deterministic per-layer counts
    errors: list = field(default_factory=list)


def digest_of(value):
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _error():
    return traceback.format_exc(limit=4)


def sim_counts(results):
    """Summed deterministic counts over ``RunResult`` objects."""
    from repro.common import stats as S

    total = {}
    for result in results:
        for name, value in result.stats.items():
            total[name] = total.get(name, 0) + value
    return {
        "sim.ops": sum(r.ops_executed for r in results),
        "sim.events": sum(r.events_processed for r in results),
        "sim.cycles": sum(r.cycles for r in results),
        "network.messages": sum(v for k, v in total.items()
                                if k.startswith(S.MSG_SENT)),
        "network.bytes": total.get(S.MSG_BYTES, 0),
        "directory.invalidations": total.get(S.MSG_SENT + "INV", 0),
        "cache.l1_hits": total.get(S.HIT_L1, 0),
        "cache.l2_hits": total.get(S.HIT_L2, 0),
        "cache.rac_hits": total.get(S.HIT_RAC, 0),
        "protocol.remote_misses": (total.get(S.MISS_2HOP, 0)
                                   + total.get(S.MISS_3HOP, 0)),
        "protocol.nacks": total.get(S.NACKS, 0),
        "protocol.retries": total.get(S.RETRIES, 0),
        "protocol.updates_sent": total.get(S.UPDATES_SENT, 0),
        "protocol.updates_consumed": total.get(S.UPDATES_CONSUMED, 0),
        "protocol.delegations": total.get(S.DELEGATIONS, 0),
    }


def sim_digest(results):
    return digest_of([[r.cycles, r.ops_executed, r.events_processed, r.stats]
                      for r in results])


def _sim_unit(call, jobs, log):
    """Run ``call`` (a batch of ``jobs`` simulations) and count its work."""
    errors = []
    try:
        call()
    except Exception:
        errors.append(_error())
    results = log.results
    failed = max(0, jobs - len(results)) if errors else 0
    counts = sim_counts(results)
    return Unit(work=counts["sim.ops"], attempted=jobs, failed=failed,
                digest=sim_digest(results), counts=counts, errors=errors)


# ---------------------------------------------------------------------------
# headline: the paper's result, 7 apps x {base, small, large} on 16 nodes
# ---------------------------------------------------------------------------

HEADLINE_SCALE = {"full": 0.15, "tiny": 0.02}


def headline_setup(seed, size, work_dir):
    from repro.harness.sweep import SweepEngine

    return {"seed": seed, "scale": HEADLINE_SCALE[size],
            "engine": SweepEngine(jobs=1, cache=False)}


def headline_unit(state, log):
    from repro.harness import experiments

    outcome = {}

    def call():
        outcome.update(experiments.headline(
            scale=state["scale"], seed=state["seed"], engine=state["engine"]))

    unit = _sim_unit(call, 3 * len(experiments.APPS), log)
    if outcome:
        paper = experiments.PAPER["headline"]
        pairs = [(measured, reported)
                 for config in ("small", "large")
                 for measured, reported in zip(outcome["measured"][config],
                                               paper[config])]
        if not all(math.isfinite(m) for m, _ in pairs):
            unit.failed = unit.attempted
            unit.errors.append("non-finite headline numbers: %r"
                               % (outcome["measured"],))
        unit.counts["analysis.paper_abs_err"] = (
            sum(abs(m - r) for m, r in pairs) / len(pairs))
    return unit


# ---------------------------------------------------------------------------
# storm256: the scaling study's broadcast storm on a 256-node machine
# ---------------------------------------------------------------------------

#: 256 rather than 512 nodes: one 512-node call takes 17-20 s, too long
#: to repeat within a run and to scale by the host speed measured around it.
STORM_NODES = {"full": 256, "tiny": 16}
STORM_FORMATS = ("full", "limited:2")


def storm_setup(seed, size, work_dir):
    from repro.harness.scale import scale_engine

    return {"seed": seed, "nodes": STORM_NODES[size],
            "engine": scale_engine(jobs=1)}


def storm_unit(state, log):
    from repro.harness.scale import run_scale

    def call():
        run_scale(nodes=(state["nodes"],), formats=STORM_FORMATS,
                  seed=state["seed"], engine=state["engine"])

    return _sim_unit(call, len(STORM_FORMATS), log)


# ---------------------------------------------------------------------------
# verify: exhaustive model checks, no simulator code
# ---------------------------------------------------------------------------

def verify_checks(size):
    """(name, model) pairs: the hand-written adaptive model under the
    default ``repro verify`` options, with 4 nodes and delegation but no
    updates or evictions, and with 4 nodes and no delegation; then the
    MESI spec compiled into a model."""
    from repro.mc.model import ProtocolModel
    from repro.spec import get_spec
    from repro.spec.mcgen import SpecModel

    if size == "tiny":
        return [("adaptive-3", ProtocolModel(num_nodes=3)),
                ("mesi-3", SpecModel(get_spec("mesi"), num_nodes=3))]
    four = {"num_nodes": 4, "writers": (1,), "readers": (2, 3)}
    return [
        ("adaptive-3", ProtocolModel(num_nodes=3)),
        ("adaptive-4-dele", ProtocolModel(enable_updates=False,
                                          allow_evictions=False, **four)),
        ("adaptive-4-nodele", ProtocolModel(enable_delegation=False,
                                            enable_updates=False, **four)),
        ("mesi-4", SpecModel(get_spec("mesi"), **four)),
    ]


def verify_setup(seed, size, work_dir):
    return {"checks": verify_checks(size)}


def verify_unit(state, log):
    from repro.mc.engine import ModelChecker
    from repro.mc.invariants import ALL_INVARIANTS

    rows, errors, states, transitions = [], [], 0, 0
    for name, model in state["checks"]:
        checker = ModelChecker(model.initial_states(), model.rules(),
                               ALL_INVARIANTS, quiescent=model.quiescent,
                               max_states=4_000_000, track_traces=False,
                               canonicalize=model.canonical)
        try:
            result = checker.run()
        except Exception:
            errors.append("%s: %s" % (name, _error()))
            rows.append([name, "FAIL"])
            continue
        states += result.states_explored
        transitions += result.transitions
        rows.append([name, result.states_explored, result.transitions,
                     result.max_depth])
    return Unit(work=states, attempted=len(state["checks"]),
                failed=len(errors), digest=digest_of(rows),
                counts={"mc.states": states, "mc.transitions": transitions},
                errors=errors)


# ---------------------------------------------------------------------------
# fuzz: a randomized corpus with chaos and the tracer on
# ---------------------------------------------------------------------------

#: Seeds per (workload kind, chaos on) for each machine size the scenario
#: generator rolls (3, 4, 5, 6 or 8 nodes): 20 per size, 100 per corpus.
#: The mix is fixed so every corpus costs about the same per op: contiguous
#: 150-seed ranges differed by up to 15% in ops per second.
FUZZ_QUOTA = {
    "full": {("pc", True): 6, ("pc", False): 2, ("storm", True): 3,
             ("storm", False): 1, ("migratory", True): 3,
             ("migratory", False): 1, ("mixed", True): 3,
             ("mixed", False): 1},
    "tiny": {("pc", True): 1},
}
FUZZ_NODES = (3, 4, 5, 6, 8)


def _fuzz_kind(scenario):
    kinds = [kind for kind, _ in scenario.workloads]
    if len(kinds) > 1:
        return "mixed"
    if kinds[0] == "migratory":
        return "migratory"
    # Only the storm roll sets three hot lines (fuzz.scenarios).
    return "storm" if scenario.workloads[0][1]["hot_lines"] == 3 else "pc"


def fuzz_corpus(seed, size):
    """The first seeds from ``seed`` upward that fill :data:`FUZZ_QUOTA`."""
    from repro.fuzz.scenarios import FuzzScenario

    want = {(nodes, kind, chaos): count
            for nodes in FUZZ_NODES
            for (kind, chaos), count in FUZZ_QUOTA[size].items()}
    total, corpus = sum(want.values()), []
    for candidate in range(seed, seed + 1000 * total):
        scenario = FuzzScenario.from_seed(candidate)
        key = (scenario.num_cpus, _fuzz_kind(scenario),
               scenario.chaos is not None)
        if want.get(key, 0) > 0:
            want[key] -= 1
            corpus.append(candidate)
            if len(corpus) == total:
                return corpus
    raise RuntimeError("fuzz quota unfilled from seed %d: %r"
                       % (seed, {k: v for k, v in want.items() if v}))


def fuzz_setup(seed, size, work_dir):
    from repro.fuzz.engine import FuzzEngine

    out_dir = os.path.join(work_dir, "fuzz-artifacts")
    return {"seeds": fuzz_corpus(seed, size), "out_dir": out_dir,
            "engine": FuzzEngine(jobs=1, shrink=True, out_dir=out_dir)}


def fuzz_unit(state, log):
    digests, errors = [], []
    report = None
    try:
        report = state["engine"].run_corpus(
            state["seeds"], progress=lambda seed, result:
            digests.append(result.digest))
    except Exception:
        errors.append(_error())
    artifacts = []
    if os.path.isdir(state["out_dir"]):
        artifacts = sorted(os.listdir(state["out_dir"]))
        shutil.rmtree(state["out_dir"])
    attempted = len(state["seeds"])
    if report is None:
        failed = attempted
    else:
        failed = max(len(report.failures), len(artifacts))
        errors.extend("seed %d: %s: %s" % (f.seed, f.result.oracle,
                                           f.result.message)
                      for f in report.failures)
    if artifacts:
        errors.append("artifacts written: %s" % ", ".join(artifacts))
    counts = sim_counts(log.results)
    counts["fuzz.seeds"] = attempted
    counts["fuzz.failures"] = failed
    return Unit(work=counts["sim.ops"], attempted=attempted, failed=failed,
                digest=digest_of(digests), counts=counts, errors=errors)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    unit: object
    default_seed: int   # BENCHMARK.json records the held-out seed


WORKLOADS = {w.name: w for w in (
    Workload("headline", headline_setup, headline_unit, 12345),
    Workload("storm256", storm_setup, storm_unit, 0),
    Workload("verify", verify_setup, verify_unit, 0),
    Workload("fuzz", fuzz_setup, fuzz_unit, 0),
)}
