"""Per-layer attribution for the end-to-end benchmark, measured from outside.

Nothing under ``src/`` changes.  Three instruments sit around the public
API instead:

* :class:`Sampler` — a ``SIGPROF`` stack sampler (``ITIMER_PROF``, 1 ms of
  process CPU time).  Each tick is charged to the innermost frame whose file
  lives under ``src/repro``, folded into a layer by :func:`layer_of`.  A
  sampler, not ``cProfile``: cProfile's per-call hook made calls 3.3-3.4x
  slower here and shifts the shares toward call-heavy layers (protocol
  reads 31% of a headline call under cProfile, 21% under sampling).
* :class:`Spans` — in-memory spans (name, start, end, parent, run id) around
  the public entry points in :data:`SPAN_POINTS`, patched where their callers
  look them up.  Self time is a span's duration minus its direct children.
* :class:`RunLog` — keeps every ``RunResult`` that ``System.run`` returns, so
  work counts come from the program's own results.
"""

import collections
import contextlib
import functools
import importlib
import json
import os
import signal
import time

#: The layers, named after the ``src/repro`` packages.  Two modules are
#: split out of their package because they are hot enough to track alone.
LAYERS = ("workloads", "common.events", "network", "protocol", "cache",
          "directory", "sim", "sim.coherence_check", "obs", "harness",
          "analysis", "mc", "spec", "fuzz", "common")

#: Samples taken outside ``src/repro``: the benchmark itself and stdlib
#: frames with no repro caller.
OTHER = "other"

_MODULE_LAYERS = {"common/events.py": "common.events",
                  "sim/coherence_check.py": "sim.coherence_check"}
# Front ends no workload drives are folded into the layer they sit on:
# lint analyses the specs; serve, the CLI and the package root drive runs.
_PACKAGE_LAYERS = {"lint": "spec", "serve": "harness"}
_ROOT_LAYER = "harness"

#: (module, attribute path, span name) of every public entry point wrapped
#: in the traced round.  ``build_workload`` is imported by name into two
#: modules, so both bindings are wrapped.
SPAN_POINTS = (
    ("repro.workloads.base", "IterativePCWorkload.build", "workloads.build"),
    ("repro.workloads.migratory", "MigratoryWorkload.build", "workloads.build"),
    ("repro.fuzz.runner", "build_workload", "workloads.build"),
    ("repro.harness.scale", "build_workload", "workloads.build"),
    ("repro.sim.system", "System.__init__", "sim.setup"),
    ("repro.sim.system", "System.run", "sim.run"),
    ("repro.fuzz.runner", "check_quiescence", "fuzz.oracles"),
    ("repro.mc.engine", "ModelChecker.run", "mc.run"),
    ("repro.harness.sweep", "SweepEngine.run_many", "harness.run_many"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_POINTS))


def layer_of(relpath):
    """The layer of a module path relative to ``src/repro``, or None."""
    relpath = relpath.replace(os.sep, "/")
    if not relpath.endswith(".py"):
        return None
    if relpath in _MODULE_LAYERS:
        return _MODULE_LAYERS[relpath]
    package, sep, _ = relpath.partition("/")
    if not sep:
        return _ROOT_LAYER
    package = _PACKAGE_LAYERS.get(package, package)
    return package if package in LAYERS else None


class Sampler:
    """Counts ``SIGPROF`` ticks per layer while entered (main thread only)."""

    def __init__(self, repro_dir, interval=0.001):
        self.prefix = os.path.realpath(repro_dir) + os.sep
        self.interval = interval
        self.counts = collections.Counter()
        self._file_layers = {}
        self._previous = None

    def _layer_of_file(self, filename):
        try:
            return self._file_layers[filename]
        except KeyError:
            path = os.path.realpath(filename)
            layer = (layer_of(path[len(self.prefix):])
                     if path.startswith(self.prefix) else None)
            self._file_layers[filename] = layer
            return layer

    def _tick(self, signum, frame):
        while frame is not None:
            layer = self._layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[OTHER] += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


class _Patches:
    """Replaces attributes for the duration of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, path, make_wrapper):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class RunLog(_Patches):
    """Records every ``RunResult`` returned by ``System.run`` while entered."""

    def __init__(self):
        super().__init__()
        self.results = []

    def __enter__(self):
        def make(run):
            def logged(system, *args, **kwargs):
                result = run(system, *args, **kwargs)
                self.results.append(result)
                return result
            return logged

        self.wrap("repro.sim.system", "System.run", make)
        return self


class Spans(_Patches):
    """In-memory spans around :data:`SPAN_POINTS` while entered.

    Each span is ``[name, start, end, parent index, run id]``; ``run`` is
    set by the caller to the unit being traced, and :meth:`root` opens the
    unit's own span so every entry-point span has a parent.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.run = 0
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def __enter__(self):
        for module, path, name in SPAN_POINTS:
            def make(function, name=name):
                def spanned(*args, **kwargs):
                    index = self.begin(name)
                    try:
                        return function(*args, **kwargs)
                    finally:
                        self.end(index)
                return spanned

            self.wrap(module, path, make)
        return self

    def self_seconds(self):
        """Span name -> summed self time (duration minus direct children)."""
        children = collections.defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = collections.defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - children[index]
        return dict(totals)


def write_chrome_trace(path, spans, samples, meta):
    """Write spans and the per-layer sample table as Chrome-trace JSON.

    Spans become complete ("X") events whose ``args`` keep the start, end,
    parent span and run id; the sample table rides in ``otherData``.
    Loads in ``chrome://tracing`` and Perfetto.
    """
    origin = min((span[1] for span in spans), default=0.0)
    events = []
    for index, (name, start, end, parent, run) in enumerate(spans):
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": index, "start_s": start - origin,
                     "end_s": end - origin, "parent": parent, "run": run},
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": dict(meta, layer_samples=dict(samples))}
    with open(path, "w") as fileobj:
        json.dump(doc, fileobj, indent=1, sort_keys=True)
