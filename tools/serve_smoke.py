#!/usr/bin/env python
"""CI smoke for ``repro serve``: the real subprocess, the real fleet.

Boots the service the way an operator would (``python -m repro serve``),
drives it over HTTP with :class:`repro.serve.client.ServeClient`, and
asserts the end-to-end contract:

1. the service comes up and answers ``/healthz``;
2. a tiny sweep POSTed to ``/jobs`` runs to ``done``, followed live over
   the job's SSE stream (progress/unit events arrive before the terminal
   ``job`` frame);
3. ``/metrics`` reflects the run (units executed, workers configured,
   no worker crashes or retries);
4. a duplicate POST of the same sweep is served entirely from the shared
   result cache — non-zero hit-rate, zero new executions;
5. a 2-seed fuzz job and a ``trace: true`` sim job run to ``done`` on the
   worker processes (their job types cross the spawn pickle channel), and
   ``/traces/<key>`` serves the traced sim's Perfetto document.

Exit code 0 on success; any assertion or timeout is a failure.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve.client import ServeClient  # noqa: E402

SWEEP = {"kind": "sweep", "apps": ["ocean"], "systems": ["base", "rac32k"],
         "nodes": 4, "scale": 0.05}
FUZZ = {"kind": "fuzz", "seeds": [0, 1]}
TRACED = {"kind": "sim", "app": "ocean", "system": "base", "nodes": 4,
          "scale": 0.05, "trace": True}


def wait_for_port(port_file, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError("serve exited early with code %d"
                               % process.returncode)
        try:
            with open(port_file) as fileobj:
                text = fileobj.read().strip()
            if text:
                return int(text)
        except OSError:
            pass
        time.sleep(0.1)
    raise TimeoutError("service did not write %s within %.0fs"
                       % (port_file, timeout))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    port_file = os.path.join(tmp, "port")
    process = subprocess.Popen([
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--workers", str(args.workers),
        "--cache-dir", os.path.join(tmp, "cache"),
        "--port-file", port_file,
    ])
    try:
        port = wait_for_port(port_file, process)
        client = ServeClient("http://127.0.0.1:%d" % port, client_id="smoke")
        assert client.healthz() == {"ok": True}
        print("serve-smoke: up on port %d" % port)

        job = client.post_job(SWEEP)
        final = client.follow(job["id"], timeout=args.timeout)
        assert final["state"] == "done", final
        kinds = [event for event, _ in final["sse_events"]]
        assert "job" in kinds, kinds
        print("serve-smoke: job %s done, %d SSE events (%s)"
              % (job["id"], len(kinds), ",".join(sorted(set(kinds)))))

        metrics = client.metrics()
        units = metrics["units"]
        assert units["executed"] == len(SWEEP["systems"]), units
        assert metrics["workers"]["fleet"] == args.workers, metrics
        assert metrics["workers"]["crashes"] == 0, metrics["workers"]
        assert metrics["workers"]["retries"] == 0, metrics["workers"]
        for unit in final["units"]:
            payload = client.result(unit["key"])
            assert payload["cycles"] > 0, payload

        repeat = client.post_job(SWEEP)
        refinal = client.follow(repeat["id"], timeout=args.timeout)
        assert refinal["state"] == "done", refinal
        assert all(unit["cached"] for unit in refinal["units"]), refinal
        metrics = client.metrics()
        assert metrics["units"]["executed"] == len(SWEEP["systems"]), \
            metrics["units"]
        assert metrics["cache"]["hit_rate"] > 0, metrics["cache"]
        print("serve-smoke: duplicate POST served from cache "
              "(hit_rate=%.2f, executed still %d)"
              % (metrics["cache"]["hit_rate"],
                 metrics["units"]["executed"]))

        finals = {}
        for name, spec in (("fuzz", FUZZ), ("traced sim", TRACED)):
            posted = client.post_job(spec)
            finals[name] = client.follow(posted["id"], timeout=args.timeout)
            assert finals[name]["state"] == "done", finals[name]
            print("serve-smoke: %s job %s done (%d units)"
                  % (name, posted["id"], len(finals[name]["units"])))
        for unit in finals["fuzz"]["units"]:
            verdict = client.result(unit["key"])
            assert verdict["ok"], verdict
        trace = client.trace(finals["traced sim"]["units"][0]["key"])
        assert trace["traceEvents"], sorted(trace)
        metrics = client.metrics()
        assert metrics["units"]["executed"] == \
            len(SWEEP["systems"]) + len(FUZZ["seeds"]) + 1, metrics["units"]
        assert metrics["workers"]["crashes"] == 0, metrics["workers"]
        print("serve-smoke: /traces served %d trace events"
              % len(trace["traceEvents"]))
        print("serve-smoke: ok")
        return 0
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
