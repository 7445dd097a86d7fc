"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available applications and system presets.
``run APP``
    Run one application on one (or every) system preset and print the
    evaluation metrics.
``arena``
    Race the registered coherence protocols (adaptive, write-invalidate,
    MESI, Dragon) over a workload matrix and print the comparison:
    traffic bytes, hop-class breakdown, miss-latency p50/p95 per cell
    (see docs/protocols.md).
``verify``
    Exhaustively model-check the protocol (paper §2.5).
``area``
    Print the §3.3.1 SRAM budget of a configuration.
``trace``
    Run one application with transaction-level tracing and export a
    Perfetto/Chrome trace or a JSONL event dump (see docs/observability.md).
``sweep NAME``
    Regenerate one paper artefact (table3, figure7..figure12, headline,
    delegation-only) through the parallel sweep engine: fan the
    simulations out over ``--jobs`` worker processes, replay finished
    ones from the on-disk cache, and optionally write the sweep's
    executed/cached accounting as JSON (see docs/performance.md).
``report``
    Run every artefact and write the paper-vs-measured Markdown report
    to ``--output``.
``scale``
    The scaling study: storm traffic on large machines (up to 1024
    nodes), swept over node count x directory format x protocol, with
    per-cell traffic/fan-out/NACK/latency breakdowns and an optional
    JSON report (see docs/scaling.md).
``lint``
    Statically analyze the protocol sources: the SPC spec analyses,
    sim <-> spec conformance, the NACK-retry livelock heuristic, state
    reachability (see docs/static_analysis.md).
``spec``
    Print the guarded-action protocol specs (messages and transitions),
    or with ``--diff`` their structured sim/mc justifications; ``lint``
    checks them (see docs/spec.md).
``fuzz``
    Randomized protocol stress fuzzing with network fault injection:
    run a seed corpus through oracle-checked simulations, shrink any
    failure to a deterministic repro artifact, or replay one
    (see docs/fault_injection.md).
``serve``
    Run the async sweep/fuzz job service: an HTTP JSON API over a
    persistent worker pool with a shared deduplicating result cache,
    SSE progress streams and a live dashboard (see docs/serving.md).
"""

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .analysis import render_table
from .analysis.area import area_of
from .common import params
from .harness import arena as arena_harness
from .harness import experiments, run_app
from .harness import sweep as sweep_mod
from .harness.sweep import SweepEngine, SweepProgress
from .common.errors import (ConfigError, DeadlockError, InvariantViolation,
                            ReproError)
from .mc import ALL_INVARIANTS, ModelChecker, StateSpaceExceeded
from .obs import TraceConfig, Tracer, export_jsonl, export_perfetto
from .spec.registry import SPEC_NAMES
from .workloads import application_names

EXPERIMENTS = {
    "table3": experiments.table3,
    "figure7": experiments.figure7,
    "figure8": experiments.figure8,
    "figure9": experiments.figure9,
    "figure10": experiments.figure10,
    "figure11": experiments.figure11,
    "figure12": experiments.figure12,
    "headline": experiments.headline,
    "delegation-only": experiments.delegation_only,
}


def _engine_flags(parser, jobs=None):
    """Declare the sweep engine's flags (see :func:`_build_engine`)."""
    parser.add_argument("--jobs", type=int, default=jobs, metavar="N",
                        help="worker processes (default: %s)"
                        % ("all CPU cores" if jobs is None else jobs))
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--cache-dir", default=sweep_mod.CACHE_DIR,
                        help="result-cache location (default: %(default)s)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the HPCA 2007 adaptive "
                    "producer-consumer coherence protocol.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show applications and system presets")

    run_p = sub.add_parser("run", help="run one application")
    run_p.add_argument("app", choices=application_names())
    run_p.add_argument("--system", default="all",
                       choices=["all"] + list(params.EVALUATED_SYSTEMS))
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--seed", type=int, default=12345)
    run_p.add_argument("--protocol", default=None,
                       choices=SPEC_NAMES,
                       help="coherence protocol (default: the config's, "
                            "i.e. adaptive)")
    run_p.add_argument("--directory-format", default=None, metavar="FMT",
                       help="directory sharer encoding: full, coarse:G, "
                            "limited:K (default: the config's)")
    run_p.add_argument("--no-check", action="store_true",
                       help="disable online coherence checking (faster)")

    arena_p = sub.add_parser(
        "arena", help="race the arena protocols over a workload matrix")
    arena_p.add_argument("--apps", default=",".join(arena_harness.DEFAULT_APPS),
                         metavar="A,B,...",
                         help="comma-separated applications "
                              "(default: %(default)s)")
    arena_p.add_argument("--protocols",
                         default=",".join(SPEC_NAMES),
                         metavar="P,Q,...",
                         help="comma-separated protocols "
                              "(default: %(default)s)")
    arena_p.add_argument("--base", default="small",
                         choices=sorted({"small", "large", "baseline"}
                                        | set(params.EVALUATED_SYSTEMS)),
                         help="shared base config preset; each protocol "
                              "normalises it onto its own feature set "
                              "(default: %(default)s)")
    arena_p.add_argument("--scale", type=float, default=0.5)
    arena_p.add_argument("--seed", type=int, default=12345)
    _engine_flags(arena_p)
    arena_p.add_argument("--directory-format", default=None, metavar="FMT",
                         help="directory sharer encoding for every cell: "
                              "full, coarse:G, limited:K")
    arena_p.add_argument("--json", dest="json_out", metavar="OUT.json",
                         default=None,
                         help="also write the machine-readable report")

    scale_p = sub.add_parser(
        "scale", help="sweep storm traffic over node count x directory "
                      "format x protocol (the scaling study)")
    scale_p.add_argument("--nodes", default="16,64,256", metavar="N,M,...",
                         help="comma-separated node counts "
                              "(default: %(default)s; the study goes to "
                              "1024)")
    scale_p.add_argument("--formats", default=None, metavar="F,G,...",
                         help="comma-separated directory formats "
                              "(default: full,coarse:8,coarse:16,"
                              "limited:2,limited:4)")
    scale_p.add_argument("--protocols", default="adaptive", metavar="P,Q,...",
                         help="comma-separated protocols "
                              "(default: %(default)s)")
    scale_p.add_argument("--scale", type=float, default=1.0)
    scale_p.add_argument("--seed", type=int, default=0)
    _engine_flags(scale_p)
    scale_p.add_argument("--no-check", action="store_true",
                         help="disable online coherence checking (faster; "
                              "the default keeps the run oracle-checked)")
    scale_p.add_argument("--json", dest="json_out", metavar="OUT.json",
                         default=None,
                         help="also write the machine-readable report")

    verify_p = sub.add_parser("verify", help="model-check the protocol")
    verify_p.add_argument("--protocol", choices=("adaptive", "wi", "mesi"),
                          default="adaptive",
                          help="the protocol whose guarded-action spec is "
                               "compiled into the checked model (default: "
                               "adaptive)")
    verify_p.add_argument("--nodes", type=int, default=3)
    verify_p.add_argument("--no-delegation", action="store_true")
    verify_p.add_argument("--no-updates", action="store_true")
    verify_p.add_argument("--unordered", action="store_true",
                          help="drop per-channel FIFO (expect a "
                               "counterexample)")
    verify_p.add_argument("--max-states", type=int, default=4_000_000)

    area_p = sub.add_parser("area", help="print the SRAM budget (§3.3.1)")
    area_p.add_argument("--system", default="dele32_rac32k",
                        choices=list(params.EVALUATED_SYSTEMS))

    trace_p = sub.add_parser(
        "trace", help="run one app with tracing and export the trace")
    trace_p.add_argument("app", choices=application_names())
    trace_p.add_argument(
        "system", nargs="?", default="pc",
        choices=sorted(set(params.EVALUATED_SYSTEMS)
                       | set(params.SYSTEM_ALIASES)),
        help="system preset or alias (default: pc, the full mechanism)")
    trace_p.add_argument("--scale", type=float, default=1.0)
    trace_p.add_argument("--seed", type=int, default=12345)
    trace_p.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json)")
    trace_p.add_argument("--format", choices=["perfetto", "jsonl"],
                         default=None,
                         help="export format (default: by --out extension; "
                              ".jsonl -> jsonl, else perfetto)")
    trace_p.add_argument("--sample-every", type=int, default=1, metavar="N",
                         help="keep 1-in-N transaction spans (default: 1)")
    trace_p.add_argument("--nodes", default=None, metavar="N,M,...",
                         help="only record spans/events for these nodes")
    trace_p.add_argument("--addr-range", action="append", default=None,
                         metavar="LO:HI",
                         help="only record this [LO, HI) byte range "
                              "(hex ok; repeatable)")
    trace_p.add_argument("--messages", action="store_true",
                         help="also record every network message (large)")
    trace_p.add_argument("--no-check", action="store_true",
                         help="disable online coherence checking (faster)")

    report_p = sub.add_parser(
        "report", help="run every experiment and write a Markdown report")
    report_p.add_argument("--output", required=True, metavar="FILE",
                          help="Markdown file to write")
    report_p.add_argument("--scale", type=float, default=1.0)
    report_p.add_argument("--seed", type=int, default=12345)
    _engine_flags(report_p, jobs=1)

    sweep_p = sub.add_parser(
        "sweep", help="regenerate an artefact via the parallel sweep engine")
    sweep_p.add_argument("name", choices=sorted(EXPERIMENTS))
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--seed", type=int, default=12345)
    _engine_flags(sweep_p)
    sweep_p.add_argument("--json", dest="json_out", metavar="OUT.json",
                         help="also write the sweep's executed/cached "
                              "accounting")
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress the progress/ETA line")
    sweep_p.add_argument("--directory-format", default=None, metavar="FMT",
                         help="override the directory sharer encoding for "
                              "every simulation in the sweep: full, "
                              "coarse:G, limited:K")

    profile_p = sub.add_parser(
        "profile",
        help="cProfile one artefact sweep and print the top-N cost table")
    profile_p.add_argument("name", nargs="?", default="headline",
                           choices=sorted(EXPERIMENTS))
    profile_p.add_argument("--scale", type=float, default=0.1)
    profile_p.add_argument("--seed", type=int, default=12345)
    profile_p.add_argument("--top", type=int, default=20, metavar="N",
                           help="rows in the cost table (default: 20)")
    profile_p.add_argument("--sort", default="tottime",
                           choices=["tottime", "cumtime", "calls"])
    profile_p.add_argument("--out", metavar="FILE.pstats",
                           help="also dump the raw profile for pstats/"
                                "snakeviz-style tooling")

    lint_p = sub.add_parser(
        "lint", help="statically analyze the protocol sources")
    lint_p.add_argument("--root", default=None, metavar="DIR",
                        help="repro package directory to analyze "
                             "(default: this installation's sources)")
    lint_p.add_argument("--allowlist", default=None, metavar="FILE",
                        help="allowlist file (default: lint_allowlist.txt "
                             "at the repo root)")
    lint_p.add_argument("--no-allowlist", action="store_true",
                        help="report raw findings, ignoring any allowlist")
    lint_p.add_argument("--json", dest="json_out", action="store_true",
                        help="emit the machine-readable JSON report")
    lint_p.add_argument("--sarif", metavar="OUT.sarif", default=None,
                        help="also write a SARIF 2.1.0 report to OUT.sarif")
    lint_p.add_argument("--fail-on", choices=["error", "warning", "note"],
                        default="error",
                        help="lowest severity that makes the exit code "
                             "nonzero (default: %(default)s)")
    lint_p.add_argument("--verbose", action="store_true",
                        help="also list allowlisted findings")

    spec_p = sub.add_parser(
        "spec", help="print the guarded-action protocol specs")
    spec_p.add_argument("--protocol", default="all",
                        choices=("all",) + SPEC_NAMES,
                        help="restrict to one protocol (default: all)")
    spec_p.add_argument("--diff", action="store_true",
                        help="print the structured sim/mc justifications "
                             "(only/hoist/replay/note annotations) instead "
                             "of the spec")

    fuzz_p = sub.add_parser(
        "fuzz", help="randomized protocol stress fuzzing (fault injection)")
    fuzz_p.add_argument("--seeds", type=int, default=25, metavar="N",
                        help="number of seeds to run (default: %(default)s)")
    fuzz_p.add_argument("--seed-start", type=int, default=0, metavar="K",
                        help="first seed of the corpus (default: 0)")
    fuzz_p.add_argument("--scale", type=float, default=1.0)
    fuzz_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, in-process)")
    fuzz_p.add_argument("--out-dir", default=None, metavar="DIR",
                        help="repro-artifact directory "
                             "(default: .repro_cache/fuzz)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="write failures unminimised")
    fuzz_p.add_argument("--replay", metavar="ARTIFACT", default=None,
                        help="replay one repro artifact instead of running "
                             "a corpus; exit 1 if it still reproduces")
    fuzz_p.add_argument("--json", dest="json_out", action="store_true",
                        help="emit a machine-readable JSON report")
    fuzz_p.add_argument("--cache", action="store_true",
                        help="replay finished corpus runs from the shared "
                             "result cache (any --jobs)")
    fuzz_p.add_argument("--cache-dir", default=None,
                        help="result-cache location "
                             "(default: %s)" % sweep_mod.CACHE_DIR)

    serve_p = sub.add_parser(
        "serve", help="run the async sweep/fuzz job service")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="listen port; 0 picks an ephemeral port "
                              "(default: %(default)s)")
    serve_p.add_argument("--workers", type=int, default=None, metavar="N",
                         help="worker pool width (default: all CPU "
                              "cores; 0 runs jobs inline on threads)")
    serve_p.add_argument("--cache-dir", default=sweep_mod.CACHE_DIR,
                         help="shared result-cache location "
                              "(default: %(default)s)")
    serve_p.add_argument("--cache-budget-mb", type=float, default=256.0,
                         metavar="MB",
                         help="LRU size budget for the result cache "
                              "(default: %(default)s; 0 disables "
                              "eviction)")
    serve_p.add_argument("--client-budget", type=int, default=4, metavar="N",
                         help="max concurrently-executing units per "
                              "client (default: %(default)s)")
    serve_p.add_argument("--max-retries", type=int, default=2, metavar="N",
                         help="retries (with backoff) after a worker "
                              "crash (default: %(default)s)")
    serve_p.add_argument("--port-file", default=None, metavar="PATH",
                         help="also write the bound port to PATH (for "
                              "scripts wrapping --port 0)")
    return parser


def cmd_list(_args):
    print("Applications (paper Table 2):")
    for app in application_names():
        print("   ", app)
    print("\nSystem presets (paper Figure 7):")
    for name in params.EVALUATED_SYSTEMS:
        print("   ", name)
    return 0


def cmd_run(args):
    systems = (params.EVALUATED_SYSTEMS if args.system == "all"
               else {args.system: params.EVALUATED_SYSTEMS[args.system]})
    overrides = {}
    if args.protocol is not None:
        overrides["protocol_name"] = args.protocol
    if args.directory_format is not None:
        overrides["directory_format"] = args.directory_format
    rows = []
    base_cycles = None
    for name, factory in systems.items():
        run = run_app(args.app, factory(**overrides), seed=args.seed,
                      scale=args.scale, check_coherence=not args.no_check)
        m = run.metrics
        if base_cycles is None:
            base_cycles = m.cycles
        rows.append([name, m.cycles, "%.3f" % (base_cycles / m.cycles),
                     m.remote_misses, m.messages, m.updates_sent])
    print(render_table(
        ["system", "cycles", "speedup", "remote misses", "messages",
         "updates"],
        rows, title="%s (scale %.2f)" % (args.app, args.scale)))
    return 0


def cmd_verify(args):
    from .spec import get_spec
    from .spec.mcgen import SpecModel
    if args.max_states < 1:
        print("repro verify: error: --max-states must be positive, got %d"
              % args.max_states, file=sys.stderr)
        return 2
    dropped = [name for name, flag in (("delegation", args.no_delegation),
                                       ("updates", args.no_updates)) if flag]
    model = SpecModel(
        get_spec(args.protocol).without(*dropped), num_nodes=args.nodes,
        writers=(1,), readers=tuple(range(2, args.nodes)),
        ordered_channels=not args.unordered)

    def check(track_traces):
        return ModelChecker(model.initial_states(), model.rules(),
                            ALL_INVARIANTS, quiescent=model.quiescent,
                            max_states=args.max_states,
                            track_traces=track_traces,
                            canonicalize=model.canonical).run()

    start = time.perf_counter()
    try:
        result = check(track_traces=False)
    except (InvariantViolation, DeadlockError):
        # The fast pass keeps no parent pointers.  Exploration order is
        # deterministic, so a traced re-run stops at the same state and
        # yields its shortest counterexample.
        try:
            check(track_traces=True)
        except (InvariantViolation, DeadlockError) as err:
            print("VIOLATION: %s" % err)
            for step in err.trace:
                print("   ", step)
            return 1
        raise AssertionError("the traced re-run found no violation")
    except StateSpaceExceeded as err:
        # Not a verdict: the space was not exhausted.
        print("INCOMPLETE: %s; raise --max-states" % err)
        return 1
    except ReproError as err:  # SpecExecutionError
        print("VIOLATION: %s" % err)
        return 1
    print("PASS: %d states, %d transitions, depth %d, %.2fs"
          % (result.states_explored, result.transitions, result.max_depth,
             time.perf_counter() - start))
    return 0


def cmd_area(args):
    config = params.EVALUATED_SYSTEMS[args.system]()
    budget = area_of(config)
    rows = [
        ["producer table", budget.producer_table_bytes],
        ["consumer table", budget.consumer_table_bytes],
        ["detector bits", budget.detector_bytes],
        ["RAC", budget.rac_bytes],
        ["total", budget.total_bytes],
    ]
    print(render_table(["component", "bytes"], rows,
                       title="SRAM budget per node: %s (%.1f KB)"
                       % (args.system, budget.total_kb)))
    return 0


def _parse_addr_ranges(specs):
    ranges = []
    for spec in specs:
        try:
            lo_text, hi_text = spec.split(":", 1)
            ranges.append((int(lo_text, 0), int(hi_text, 0)))
        except ValueError:
            raise SystemExit("bad --addr-range %r (expected LO:HI)" % spec)
    return tuple(ranges)


def cmd_trace(args):
    system_name = params.SYSTEM_ALIASES.get(args.system, args.system)
    config = params.EVALUATED_SYSTEMS[system_name]()
    try:
        trace_config = TraceConfig(
            sample_every=args.sample_every,
            nodes=(frozenset(int(n) for n in args.nodes.split(","))
                   if args.nodes else None),
            addr_ranges=(_parse_addr_ranges(args.addr_range)
                         if args.addr_range else None),
            capture_messages=args.messages,
        )
    except ValueError as err:
        raise SystemExit("repro trace: error: %s" % err)
    tracer = Tracer(trace_config)
    run = run_app(args.app, config, seed=args.seed, scale=args.scale,
                  check_coherence=not args.no_check, trace=tracer)
    fmt = args.format or ("jsonl" if args.out.endswith(".jsonl")
                          else "perfetto")
    if fmt == "jsonl":
        export_jsonl(tracer, args.out)
    else:
        export_perfetto(tracer, args.out)
    summary = run.obs or {}
    rows = [
        ["cycles", run.metrics.cycles],
        ["spans recorded", len(tracer.spans)],
        ["events recorded", len(tracer.events)],
        ["misses traced (all paths)",
         sum(h["count"] for h in summary.get("miss_latency", {}).values())],
        ["delegations", run.stats.get("dele.accepted", 0)],
        ["update pushes", run.stats.get("update.intervention", 0)],
        ["NACKs", run.stats.get("protocol.nack", 0)],
    ]
    print(render_table(["metric", "value"], rows,
                       title="%s on %s (scale %.2f) -> %s [%s]"
                       % (args.app, system_name, args.scale, args.out, fmt)))
    for path, hist in sorted(summary.get("miss_latency", {}).items()):
        if hist["count"]:
            print("  %-6s misses: n=%-7d mean=%8.1f cyc  max=%d"
                  % (path, hist["count"], hist["mean"], hist["max"]))
    print("open %s in https://ui.perfetto.dev (or chrome://tracing)"
          % args.out if fmt == "perfetto" else
          "JSONL dump: one record per line, timeline order")
    return 0


def _build_engine(args, quiet=True):
    """The engine :func:`_engine_flags` describe; ``--jobs`` unset or 0
    means every CPU core."""
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    return SweepEngine(jobs=jobs, cache=not args.no_cache,
                       cache_dir=args.cache_dir,
                       progress=None if quiet else SweepProgress())


def _print_matrix(args, engine, report):
    """Print a matrix sweep's report and its run footer, and write its
    ``--json`` document."""
    print(report.render_text())
    sweep = engine.last_report
    print("\n%s: %d cells (%d executed, %d cached), %d workers, %.2fs"
          % (args.command, sweep.total, sweep.executed, sweep.cached,
             engine.effective_jobs, sweep.elapsed))
    if args.json_out:
        _write_json(args.json_out, report.to_json())
    return 0


def _write_json(path, doc):
    with open(path, "w") as fileobj:
        json.dump(doc, fileobj, indent=2, sort_keys=True)
    print("wrote %s" % path)


def cmd_report(args):
    from .analysis.report import full_report
    text = full_report(scale=args.scale, seed=args.seed,
                       engine=_build_engine(args))
    with open(args.output, "w") as fileobj:
        fileobj.write(text)
    print("wrote %s (%d bytes)" % (args.output, len(text)))
    return 0


def cmd_arena(args):
    apps = tuple(a for a in args.apps.split(",") if a)
    protocols = tuple(p for p in args.protocols.split(",") if p)
    base = (params.EVALUATED_SYSTEMS[args.base]()
            if args.base in params.EVALUATED_SYSTEMS
            else getattr(params, args.base)())
    if args.directory_format is not None:
        from dataclasses import replace
        base = replace(base, directory_format=args.directory_format)
    engine = _build_engine(args)
    return _print_matrix(args, engine, arena_harness.run_arena(
        apps=apps, protocols=protocols, base=base, base_name=args.base,
        seed=args.seed, scale=args.scale, engine=engine))


def cmd_scale(args):
    from .harness import scale as scale_harness

    nodes = tuple(int(n) for n in args.nodes.split(",") if n)
    formats = (tuple(f for f in args.formats.split(",") if f)
               if args.formats else scale_harness.DEFAULT_FORMATS)
    protocols = tuple(p for p in args.protocols.split(",") if p)
    engine = _build_engine(args)
    return _print_matrix(args, engine, scale_harness.run_scale(
        nodes=nodes, formats=formats, protocols=protocols, seed=args.seed,
        scale=args.scale, check_coherence=not args.no_check, engine=engine))


def cmd_sweep(args):
    engine = _build_engine(args, quiet=args.quiet)
    # --directory-format threads natively through the experiment into
    # every SweepJob (and therefore into the content-hashed cache keys).
    out = EXPERIMENTS[args.name](scale=args.scale, seed=args.seed,
                                 engine=engine,
                                 directory_format=args.directory_format)
    report = engine.last_report
    print(out["text"])
    print("\nsweep %s: %d jobs (%d unique), %d executed, %d cached, "
          "%d workers, %.2fs"
          % (args.name, report.total, report.unique, report.executed,
             report.cached, engine.effective_jobs, report.elapsed))
    if args.json_out:
        _write_json(args.json_out,
                    dict(dataclasses.asdict(report), name=args.name))
    return 0


def cmd_profile(args):
    """cProfile one artefact sweep (serial, uncached, GC rules identical
    to a bench run) and print the hot-function table plus the per-job
    wall-time histogram the progress hook collects."""
    import cProfile
    import io

    from .analysis.ascii_charts import bar_chart

    progress = SweepProgress(stream=io.StringIO())  # histogram, no output
    engine = SweepEngine(jobs=1, cache=False, progress=progress)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    EXPERIMENTS[args.name](scale=args.scale, seed=args.seed, engine=engine)
    profiler.disable()
    elapsed = time.perf_counter() - started
    profiler.create_stats()

    sort_index = {"calls": 1, "tottime": 2, "cumtime": 3}[args.sort]
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in sorted(
            profiler.stats.items(),
            key=lambda item: item[1][sort_index],
            reverse=True)[:args.top]:
        where = filename
        marker = os.sep + os.path.join("repro", "")
        if marker in where:  # shorten to the package-relative path
            where = "repro/" + where.split(marker, 1)[1].replace(os.sep, "/")
        label = ("%s:%d(%s)" % (where, lineno, func) if lineno
                 else "{%s}" % func)
        rows.append(["%d" % nc, "%.3f" % tt, "%.3f" % ct, label])
    print(render_table(
        ["ncalls", "tottime", "cumtime", "function"], rows,
        title="repro profile %s --scale %g --seed %d (top %d by %s, "
              "%.2fs wall under cProfile)"
              % (args.name, args.scale, args.seed, args.top, args.sort,
                 elapsed)))

    job_ms = progress.job_ms
    if job_ms.count:
        series = []
        lower = 0
        for bound, count in zip(job_ms.bounds, job_ms.counts):
            if count:
                series.append(("%d-%dms" % (lower, bound), count))
            lower = bound
        if job_ms.counts[-1]:
            series.append((">%dms" % job_ms.bounds[-1], job_ms.counts[-1]))
        print()
        print(bar_chart(
            series, fmt="%d",
            title="per-job wall time (%d jobs, mean %.0fms, max %dms)"
                  % (job_ms.count, job_ms.mean, job_ms.max)))

    if args.out:
        profiler.dump_stats(args.out)
        print("\nwrote %s" % args.out)
    return 0


def cmd_lint(args):
    from .lint import (Severity, render_json, render_sarif, render_text,
                       run_lint)
    report = run_lint(root=args.root, allowlist_path=args.allowlist,
                      use_allowlist=not args.no_allowlist)
    if args.json_out:
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    if args.sarif:
        with open(args.sarif, "w") as fileobj:
            fileobj.write(render_sarif(report))
        if not args.json_out:
            print("wrote %s" % args.sarif)
    return report.exit_code(fail_on=Severity(args.fail_on))


def _render_spec(spec):
    lines = ["spec %s (%s)" % (spec.name, spec.description),
             "  mc model: %s" % (spec.mc_model or "none"),
             "  dir states: %s   cache states: %s"
             % ("/".join(spec.dir_states), "/".join(spec.cache_states)),
             "  messages (%d):" % len(spec.messages)]
    for msg in spec.messages:
        extra = []
        if msg.mc:
            extra.append("mc=%s" % "/".join(msg.mc))
        else:
            extra.append("unmodeled: %s" % (msg.note or "?"))
        if msg.data:
            extra.append("data")
        if msg.reply_to:
            extra.append("reply_to=%s" % "/".join(msg.reply_to))
        lines.append("    %-14s %-8s %s" % (msg.name, msg.role,
                                            "  ".join(extra)))
    lines.append("  transitions (%d):" % len(spec.transitions))
    for t in spec.transitions:
        guard = " & ".join("%s in {%s}" % (var, ",".join(vals))
                           for var, vals in t.when) or "true"
        emit = " emit " + "+".join(t.emit) if t.emit else ""
        goes = (" goes " + ",".join("%s=%s" % g for g in t.goes)
                if t.goes else "")
        lines.append("    [%s] %s: on %s if %s%s%s"
                     % (t.actor, t.label, t.on, guard, emit, goes))
    return "\n".join(lines)


def _render_spec_diff(spec):
    # A spec with no model twin (mc_model='') inherits the annotations
    # that justify its base's sim/model gaps; they say nothing true of
    # it, so only its replay edges, a simulator fact, are listed.
    modeled = bool(spec.mc_model)
    lines = ["spec %s — structured conformance justifications:" % spec.name]
    for msg in spec.messages:
        if modeled and not msg.mc:
            lines.append("  unmodeled message %s: %s"
                         % (msg.name, msg.note or "(no note)"))
    for t in spec.transitions:
        if modeled and t.only:
            lines.append("  %s: only=%r — %s"
                         % (t.label, t.only, t.why or "(no why)"))
        if modeled and t.hoist:
            lines.append("  %s: hoisted into model rule %s — %s"
                         % (t.label, t.hoist, t.why or "(no why)"))
        if t.replay:
            why = " — %s" % (t.why or "(no why)") if modeled else ""
            lines.append("  %s: sim replays via %s%s"
                         % (t.label, t.replay, why))
    from .network.message import MsgType
    handled = spec.handled()
    stripped = [mtype.name for mtype in MsgType if mtype.name not in handled]
    if stripped:
        lines.append("  stripped (handled by the full protocol only): %s"
                     % ", ".join(stripped))
    return "\n".join(lines)


def cmd_spec(args):
    from .spec import get_spec

    wanted = sorted(SPEC_NAMES) if args.protocol == "all" else [args.protocol]
    renderer = _render_spec_diff if args.diff else _render_spec
    print("\n\n".join(renderer(get_spec(name)) for name in wanted))
    return 0


def cmd_fuzz(args):
    from .fuzz import FUZZ_DIR, FuzzEngine, replay_artifact

    if args.replay:
        report = replay_artifact(args.replay)
        if args.json_out:
            print(json.dumps({
                "artifact": report.path, "seed": report.seed,
                "reproduced": report.reproduced,
                "expected_oracle": report.expected_oracle,
                "expected_digest": report.expected_digest,
                "actual_digest": report.actual_digest,
                "actual": report.actual.to_dict(),
            }, indent=2, sort_keys=True))
        elif report.reproduced:
            print("REPRODUCED seed %d: %s\n  %s\n  digest %s"
                  % (report.seed, report.actual.oracle,
                     report.actual.message, report.actual_digest))
        else:
            print("no longer reproduces: seed %d (expected %s)\n"
                  "  recorded digest %s\n  fresh run:     %s%s"
                  % (report.seed, report.expected_oracle,
                     report.expected_digest, report.actual_digest,
                     "" if report.actual.ok
                     else "  [still failing: %s]" % report.actual.oracle))
        return 1 if report.reproduced else 0

    engine = FuzzEngine(jobs=args.jobs,
                        out_dir=args.out_dir or FUZZ_DIR,
                        shrink=not args.no_shrink, scale=args.scale,
                        cache=args.cache, cache_dir=args.cache_dir)
    seeds = range(args.seed_start, args.seed_start + args.seeds)

    def progress(seed, result):
        if not args.json_out and not result.ok:
            print("seed %d FAILED [%s] %s"
                  % (seed, result.oracle, result.message))

    started = time.perf_counter()
    report = engine.run_corpus(seeds, progress=progress)
    elapsed = time.perf_counter() - started
    if args.json_out:
        print(json.dumps({
            "seeds": report.seeds, "passed": report.passed,
            "elapsed_s": elapsed,
            "failures": [{
                "seed": f.seed, "oracle": f.result.oracle,
                "message": f.result.message, "artifact": f.artifact_path,
                "shrink_attempts": f.shrink_attempts,
            } for f in report.failures],
        }, indent=2, sort_keys=True))
    else:
        print("fuzz: %d/%d seeds clean (%.1fs)"
              % (report.passed, len(report.seeds), elapsed))
        for failure in report.failures:
            print("  seed %d -> [%s] artifact %s (shrunk in %d attempts)\n"
                  "    replay: python -m repro fuzz --replay %s"
                  % (failure.seed, failure.shrunk_result.oracle,
                     failure.artifact_path, failure.shrink_attempts,
                     failure.artifact_path))
    return 0 if report.ok else 1


def cmd_serve(args):
    import asyncio

    from .serve import JobService, ServiceConfig
    from .serve.api import serve as serve_async

    workers = args.workers if args.workers is not None \
        else (os.cpu_count() or 1)
    budget = int(args.cache_budget_mb * 1024 * 1024) \
        if args.cache_budget_mb else None
    config = ServiceConfig(host=args.host, port=args.port, workers=workers,
                           cache_dir=args.cache_dir, cache_budget=budget,
                           client_budget=args.client_budget,
                           max_retries=args.max_retries)
    service = JobService(config)

    def ready(port):
        print("repro.serve listening on http://%s:%d  (workers=%d, "
              "cache=%s, budget=%s)"
              % (args.host, port, workers, args.cache_dir,
                 "%.0f MB" % args.cache_budget_mb if budget else "off"),
              flush=True)
        if args.port_file:
            with open(args.port_file, "w") as fileobj:
                fileobj.write("%d\n" % port)

    try:
        asyncio.run(serve_async(service, ready=ready))
    except KeyboardInterrupt:
        print("\nrepro.serve: shutting down")
    return 0


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "arena": cmd_arena,
    "scale": cmd_scale,
    "verify": cmd_verify,
    "area": cmd_area,
    "trace": cmd_trace,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "profile": cmd_profile,
    "lint": cmd_lint,
    "spec": cmd_spec,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
}


def main(argv=None):
    """Run one command; a bad configuration is a usage error (exit 2)."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as err:
        print("repro %s: error: %s" % (args.command, err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
