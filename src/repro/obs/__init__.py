"""``repro.obs`` — observability for the coherence simulator.

Transaction-level tracing (:class:`Tracer`, :class:`TraceConfig`),
streaming histograms (:class:`Histogram`, the always-on
:class:`MissCounts`) and trace exporters (Perfetto/Chrome JSON, JSONL).
See ``docs/observability.md``.

Typical use::

    from repro import run_app, small
    from repro.obs import Tracer, export_perfetto

    tracer = Tracer()
    run = run_app("em3d", small(), scale=0.1, trace=tracer)
    export_perfetto(tracer, "trace.json")      # open in ui.perfetto.dev
    print(run.stats["miss.remote_3hop"], len(tracer.spans))
"""

from .export import (
    export_jsonl,
    export_perfetto,
    jsonl_lines,
    jsonl_text,
    to_perfetto,
)
from .metrics import Histogram, MissCounts, exponential_bounds
from .tracer import Event, Span, TraceConfig, Tracer

__all__ = [
    "Event",
    "Histogram",
    "MissCounts",
    "Span",
    "TraceConfig",
    "Tracer",
    "export_jsonl",
    "export_perfetto",
    "exponential_bounds",
    "jsonl_lines",
    "jsonl_text",
    "to_perfetto",
]
