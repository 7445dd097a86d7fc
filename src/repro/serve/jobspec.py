"""Job-spec validation: client JSON -> content-addressed work units.

A service job arrives as one JSON document and expands into *units*, each
a :class:`~repro.harness.sweep.SweepJob` plus an optional custom runner,
keyed by :func:`~repro.harness.sweep.job_key` — the same content hashes
the sweep engine and its cache use, which is what makes cross-client
dedupe and cache sharing fall out for free.

Three kinds are accepted::

    {"kind": "sim",   "app": "em3d", "system": "base", ...}
    {"kind": "sweep", "apps": ["em3d", "lu"], "systems": ["base", ...]}
    {"kind": "fuzz",  "seeds": [0, 1, 2]}  # or seed_start + count

``system`` names a paper preset (:data:`repro.common.params.EVALUATED_SYSTEMS`
or a serve alias), ``config`` embeds a full
:func:`~repro.common.params.config_to_dict` document; sim specs may also
set ``trace: true`` to record a Perfetto trace alongside the result.
Every validation failure raises :class:`SpecError` with a message naming
the offending field — the API layer maps it to a 400.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..common import params
from ..common.errors import ConfigError
from ..harness.sweep import SweepJob, job_key
from ..protocol.arena import resolve_protocol
from ..workloads import application_names

#: Per-request unit ceiling: one spec may not expand beyond this.
MAX_UNITS = 4096

KINDS = ("sim", "sweep", "fuzz")


class SpecError(ValueError):
    """A job spec failed validation (maps to HTTP 400)."""


@dataclass
class WorkUnit:
    """One executable simulation inside a service job."""

    key: str                      # job_key(job, runner): the cache identity
    job: SweepJob
    runner: Optional[Callable] = None   # module-level custom runner or None
    label: str = ""


@dataclass
class JobSpec:
    """A validated job: its kind and the expanded unit list."""

    kind: str
    units: List[WorkUnit] = field(default_factory=list)
    raw: dict = field(default_factory=dict)


def _is_number(value, types=int):
    """``isinstance(value, types)``, except that a JSON boolean is never a
    number (``bool`` subclasses ``int``, so ``true`` would pass as 1)."""
    return isinstance(value, types) and not isinstance(value, bool)


def _require(doc, name, types, required=False):
    value = doc.get(name)
    if value is None and not required:
        return None
    if value is None:
        raise SpecError("missing required field %r" % name)
    if not isinstance(value, types):
        raise SpecError("field %r must be %s, got %r"
                        % (name, getattr(types, "__name__", types), value))
    return value


def resolve_config(doc):
    """A ``SystemConfig`` from a spec's ``system`` / ``config`` fields."""
    preset = doc.get("system")
    embedded = doc.get("config")
    if preset is not None and embedded is not None:
        raise SpecError("give either 'system' or 'config', not both")
    if embedded is not None:
        if not isinstance(embedded, dict):
            raise SpecError("'config' must be a config_to_dict document")
        try:
            config = params.config_from_dict(embedded)
            resolve_protocol(config.protocol_name)
        except (ConfigError, KeyError, TypeError, ValueError) as err:
            raise SpecError("bad 'config' document: %s" % err)
        return config
    if preset is None:
        preset = "base"
    if not isinstance(preset, str):
        raise SpecError("'system' must be a preset name")
    name = params.SYSTEM_ALIASES.get(preset, preset)
    factory = params.EVALUATED_SYSTEMS.get(name)
    if factory is None:
        raise SpecError("unknown system %r (have: %s)"
                        % (preset, ", ".join(sorted(
                            set(params.EVALUATED_SYSTEMS)
                            | set(params.SYSTEM_ALIASES)))))
    overrides = {}
    nodes = doc.get("nodes")
    if nodes is not None:
        if not _is_number(nodes) or nodes < 2:
            raise SpecError("'nodes' must be an int >= 2")
        overrides["num_nodes"] = nodes
    return factory(**overrides)


def _common_numbers(doc):
    seed = doc.get("seed", 12345)
    scale = doc.get("scale", 1.0)
    if not _is_number(seed):
        raise SpecError("'seed' must be an int")
    if not _is_number(scale, (int, float)) or not 0 < scale <= 4.0:
        raise SpecError("'scale' must be a number in (0, 4]")
    return seed, float(scale)


def traced_sim_runner(job):
    """Worker-side runner for ``trace: true`` sim jobs (module-level so it
    pickles by reference).  Returns the normal sweep payload plus a
    ``trace`` field holding the Perfetto/Chrome JSON document, which the
    service serves at ``/traces/<key>`` and the dashboard links."""
    from ..harness.runner import run_app
    from ..harness.sweep import _payload_from_run
    from ..obs import TraceConfig, Tracer, to_perfetto

    tracer = Tracer(TraceConfig(capture_messages=False))
    run = run_app(job.app, job.config, num_cpus=job.num_cpus, seed=job.seed,
                  scale=job.scale, check_coherence=job.check_coherence,
                  chaos=job.chaos, trace=tracer)
    payload = dict(_payload_from_run(run))
    payload["trace"] = to_perfetto(tracer)
    return payload


def _sim_units(doc):
    app = doc.get("app")
    if app not in application_names():
        raise SpecError("unknown app %r (have: %s)"
                        % (app, ", ".join(application_names())))
    config = resolve_config(doc)
    seed, scale = _common_numbers(doc)
    num_cpus = doc.get("num_cpus")
    if num_cpus is not None and (not _is_number(num_cpus) or num_cpus < 1):
        raise SpecError("'num_cpus' must be a positive int")
    check = doc.get("check_coherence", True)
    if not isinstance(check, bool):
        raise SpecError("'check_coherence' must be a bool")
    trace = doc.get("trace", False)
    if not isinstance(trace, bool):
        raise SpecError("'trace' must be a bool")
    job = SweepJob(app=app, config=config, seed=seed, scale=scale,
                   num_cpus=num_cpus, check_coherence=check)
    runner = traced_sim_runner if trace else None
    return [WorkUnit(key=job_key(job, runner), job=job, runner=runner,
                     label=job.describe())]


def _sweep_units(doc):
    apps = _require(doc, "apps", list, required=True)
    systems = doc.get("systems")
    if systems is None:
        systems = list(params.EVALUATED_SYSTEMS)
    if not isinstance(systems, list) or not systems:
        raise SpecError("'systems' must be a non-empty list of presets")
    if not apps:
        raise SpecError("'apps' must be a non-empty list")
    seed, scale = _common_numbers(doc)
    check = doc.get("check_coherence", True)
    if not isinstance(check, bool):
        raise SpecError("'check_coherence' must be a bool")
    units = []
    for app in apps:
        if app not in application_names():
            raise SpecError("unknown app %r" % app)
        for system in systems:
            config = resolve_config({"system": system,
                                     "nodes": doc.get("nodes")})
            job = SweepJob(app=app, config=config, seed=seed, scale=scale,
                           check_coherence=check)
            units.append(WorkUnit(key=job_key(job), job=job,
                                  label="%s/%s" % (app, system)))
    return units


def _fuzz_units(doc):
    from ..fuzz.runner import run_seed_payload
    from ..fuzz.scenarios import FuzzScenario

    seeds = doc.get("seeds")
    if seeds is None:
        start = doc.get("seed_start", 0)
        count = doc.get("count")
        if not _is_number(start) or not _is_number(count) or count < 1:
            raise SpecError("fuzz needs 'seeds' or 'seed_start' + 'count'")
        seeds = list(range(start, start + count))
    if not isinstance(seeds, list) or not seeds \
            or not all(_is_number(s) for s in seeds):
        raise SpecError("'seeds' must be a non-empty list of ints")
    _, scale = _common_numbers(doc)
    units = []
    for seed in seeds:
        scenario = FuzzScenario.from_seed(seed, scale=scale)
        job = SweepJob(app="fuzz", config=scenario.config, seed=seed,
                       scale=scale, chaos=scenario.chaos)
        units.append(WorkUnit(key=job_key(job, run_seed_payload), job=job,
                              runner=run_seed_payload,
                              label="fuzz seed %d" % seed))
    return units


_EXPANDERS = {"sim": _sim_units, "sweep": _sweep_units, "fuzz": _fuzz_units}


def parse_job(doc):
    """Validate one job document into a :class:`JobSpec` (or SpecError)."""
    if not isinstance(doc, dict):
        raise SpecError("job spec must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError("'kind' must be one of %s, got %r"
                        % ("/".join(KINDS), kind))
    units = _EXPANDERS[kind](doc)
    if len(units) > MAX_UNITS:
        raise SpecError("spec expands to %d units (max %d)"
                        % (len(units), MAX_UNITS))
    return JobSpec(kind=kind, units=units, raw=doc)
