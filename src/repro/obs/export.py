"""Trace exporters: Chrome/Perfetto trace-event JSON and JSONL dumps.

Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` both read the
Chrome trace-event JSON format: one process ("pid") per simulated node,
with two named threads ("tid") per node: "hub transactions" (miss spans
and point events) and "delegation" (delegation lifetimes), so spans nest
visually under each node.  Timestamps are simulation cycles written to
the ``ts``/``dur`` microsecond fields — absolute units don't matter for
inspection, relative ones do.

The JSONL exporter writes one JSON object per record in deterministic
timeline order; traces of the same (workload, config, seed) are
byte-identical, which the test suite asserts.
"""

import io
import json
from dataclasses import asdict

from .tracer import Span

#: Thread ids within each node's Perfetto process, in display order.
TID_HUB = 0          # transaction spans + point events
TID_DELEGATION = 1   # delegation lifetime spans

_THREAD_NAMES = {
    TID_HUB: "hub transactions",
    TID_DELEGATION: "delegation",
}


def _span_perfetto(span):
    args = {"addr": "0x%x" % span.addr, "outcome": span.outcome}
    if span.retries:
        args["retries"] = span.retries
    if span.attempts:
        args["attempts"] = span.attempts
    if span.nacks:
        args["nacks"] = span.nacks
    args.update(span.args)
    end = span.end if span.end is not None else span.start
    return {
        "ph": "X",
        "pid": span.node,
        "tid": TID_DELEGATION if span.kind == "delegation" else TID_HUB,
        "ts": span.start,
        "dur": end - span.start,
        "name": "%s 0x%x" % (span.kind, span.addr),
        "cat": span.kind.split(".")[0],
        "args": args,
    }


def _event_perfetto(event):
    args = {"addr": "0x%x" % event.addr}
    args.update(event.args)
    return {
        "ph": "i",
        "s": "t",
        "pid": event.node,
        "tid": TID_HUB,
        "ts": event.ts,
        "name": event.name,
        "cat": event.name.split(".")[0],
        "args": args,
    }


def to_perfetto(tracer):
    """The Chrome trace-event document for a finished tracer, as a dict."""
    records = tracer.sorted_records()
    nodes = sorted({record.node for record in records})
    trace_events = []
    for node in nodes:
        trace_events.append({
            "ph": "M", "pid": node, "ts": 0, "name": "process_name",
            "args": {"name": "node %d" % node},
        })
        for tid, label in sorted(_THREAD_NAMES.items()):
            trace_events.append({
                "ph": "M", "pid": node, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": label},
            })
    body = []
    for record in records:
        if isinstance(record, Span):
            body.append(_span_perfetto(record))
        else:
            body.append(_event_perfetto(record))
    # Perfetto wants per-track monotone timestamps; records are already in
    # global (ts, id) order, which is monotone within every (pid, tid) too.
    trace_events.extend(body)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "tool": "repro.obs",
            "finalized_at": tracer.finalized_at,
            "spans": len(tracer.spans),
            "events": len(tracer.events),
        },
    }


def jsonl_lines(tracer):
    """Deterministic JSONL lines (no trailing newlines) for every record:
    its dataclass fields plus ``type`` ("span" or "event")."""
    lines = []
    for record in tracer.sorted_records():
        kind = "span" if isinstance(record, Span) else "event"
        lines.append(json.dumps(dict(asdict(record), type=kind),
                                sort_keys=True, separators=(",", ":")))
    return lines


def _open_out(path_or_file):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w"), True


def export_perfetto(tracer, path_or_file):
    """Write the Chrome/Perfetto trace JSON; returns bytes written."""
    out, owned = _open_out(path_or_file)
    try:
        text = json.dumps(to_perfetto(tracer), sort_keys=True)
        out.write(text)
        return len(text)
    finally:
        if owned:
            out.close()


def export_jsonl(tracer, path_or_file):
    """Write one JSON record per line; returns the number of records."""
    out, owned = _open_out(path_or_file)
    try:
        lines = jsonl_lines(tracer)
        for line in lines:
            out.write(line)
            out.write("\n")
        return len(lines)
    finally:
        if owned:
            out.close()


def jsonl_text(tracer):
    """The whole JSONL dump as one string (for determinism checks)."""
    buffer = io.StringIO()
    export_jsonl(tracer, buffer)
    return buffer.getvalue()
