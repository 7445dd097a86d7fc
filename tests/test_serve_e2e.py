"""End-to-end acceptance: a live repro.serve instance over real HTTP.

The ISSUE's acceptance criterion, verbatim: boot ``repro serve`` on an
ephemeral port, POST the same sweep from two concurrent clients, observe
exactly one execution (dedupe), both clients receive identical results,
SSE progress events arrive, ``/metrics`` reports a non-zero cache
hit-rate, and LRU eviction triggers when the cache budget is exceeded.

The server runs with inline workers (``workers=0``) in a background
thread; real worker processes are exercised by ``tools/serve_smoke.py``
in the CI serve-smoke job.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import JobService, ServeAPIError, ServeClient, ServiceConfig
from repro.serve.api import serve

SWEEP = {"kind": "sweep", "apps": ["ocean"], "systems": ["base", "rac32k"],
         "nodes": 4, "scale": 0.05}


class ServerHandle:
    """One live service on an ephemeral port, driven from a thread."""

    def __init__(self, config):
        self.config = config
        self.port = None
        self.service = None
        self._ready = threading.Event()
        self._loop = None
        self._task = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self.service = JobService(self.config)

        def ready(port):
            self.port = port
            self._ready.set()

        try:
            await serve(self.service, ready=ready)
        except asyncio.CancelledError:
            pass

    def start(self):
        self._thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("service did not come up within 10s")
        return self

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(10)
        assert not self._thread.is_alive(), "service thread failed to exit"

    def client(self, client_id="test"):
        return ServeClient("http://127.0.0.1:%d" % self.port,
                           client_id=client_id, timeout=30.0)


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(ServiceConfig(
        port=0, workers=0, cache_dir=str(tmp_path / "cache"),
        cache_budget=None)).start()
    yield handle
    handle.stop()


@pytest.fixture
def tiny_cache_server(tmp_path):
    # Roughly two result payloads: the four-system sweep must evict.
    handle = ServerHandle(ServiceConfig(
        port=0, workers=0, cache_dir=str(tmp_path / "cache"),
        cache_budget=3500)).start()
    yield handle
    handle.stop()


class TestAcceptance:
    def test_concurrent_clients_dedupe_sse_and_hit_rate(self, server):
        """The headline acceptance scenario, start to finish."""

        def submit_and_follow(client_id):
            client = server.client(client_id)
            job = client.post_job(SWEEP)
            return client.follow(job["id"], timeout=60.0)

        with ThreadPoolExecutor(max_workers=2) as pool:
            alice = pool.submit(submit_and_follow, "alice")
            bob = pool.submit(submit_and_follow, "bob")
            alice, bob = alice.result(60), bob.result(60)

        # Both clients finished, over SSE, with live progress events.
        assert alice["state"] == "done" and bob["state"] == "done"
        for final in (alice, bob):
            kinds = {event for event, _ in final["sse_events"]}
            assert "job" in kinds          # terminal state arrived via SSE

        # Exactly one execution per distinct unit; the twin either shared
        # the in-flight run or hit the cache — never re-executed.
        metrics = server.client().metrics()
        assert metrics["units"]["total"] == 2 * len(SWEEP["systems"])
        assert metrics["units"]["executed"] == len(SWEEP["systems"])
        assert metrics["units"]["shared_inflight"] \
            + metrics["units"]["cached"] == len(SWEEP["systems"])

        # Identical results: same content keys, same payloads.
        client = server.client()
        alice_keys = [u["key"] for u in alice["units"]]
        assert alice_keys == [u["key"] for u in bob["units"]]
        for key in alice_keys:
            payload = client.result(key)
            assert payload["cycles"] > 0

        # A repeat POST is served from the cache: non-zero hit-rate.
        repeat = client.post_job(SWEEP)
        final = client.wait(repeat["id"], timeout=30.0)
        assert all(u["cached"] for u in final["units"])
        metrics = client.metrics()
        assert metrics["cache"]["hit_rate"] > 0
        assert metrics["cache"]["hits"] >= len(SWEEP["systems"])
        assert metrics["jobs"]["completed"] == 3
        assert metrics["latency_ms"]["job"]["p95"] > 0

    def test_lru_eviction_triggers_over_budget(self, tiny_cache_server):
        client = tiny_cache_server.client()
        spec = dict(SWEEP, systems=["base", "rac32k", "dele32_rac32k",
                                    "dele1k_rac32k"])
        job = client.post_job(spec)
        final = client.wait(job["id"], timeout=60.0)
        assert final["state"] == "done"
        metrics = client.metrics()
        assert metrics["cache"]["evictions"] >= 1
        size = tiny_cache_server.service.cache.size_bytes()
        assert size <= 3500


class TestEndpoints:
    def test_health_jobs_listing_and_dashboard(self, server):
        client = server.client()
        assert client.healthz() == {"ok": True}
        job = client.post_job({"kind": "sim", "app": "ocean", "nodes": 4,
                               "scale": 0.05})
        final = client.wait(job["id"], timeout=30.0)
        assert final["state"] == "done"
        assert final["units"][0]["result"].startswith("/results/")
        listed = client.list_jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        html = client.dashboard()
        assert "<html" in html.lower()
        assert "/events" in html            # the live SSE feed is wired up

    def test_traced_sim_serves_perfetto_trace(self, server):
        client = server.client()
        job = client.post_job({"kind": "sim", "app": "ocean", "nodes": 4,
                               "scale": 0.05, "trace": True})
        final = client.wait(job["id"], timeout=30.0)
        assert final["state"] == "done"
        key = final["units"][0]["key"]
        trace = client.trace(key)
        assert trace["traceEvents"]

    def test_plain_result_has_no_trace(self, server):
        client = server.client()
        job = client.post_job({"kind": "sim", "app": "ocean", "nodes": 4,
                               "scale": 0.05})
        final = client.wait(job["id"], timeout=30.0)
        with pytest.raises(ServeAPIError) as err:
            client.trace(final["units"][0]["key"])
        assert err.value.status == 404

    def test_delete_requests_cancellation(self, server):
        client = server.client()
        job = client.post_job(SWEEP)
        cancelled = client.delete_job(job["id"])
        assert cancelled["id"] == job["id"]
        final = client.wait(job["id"], timeout=30.0)
        assert final["state"] in ("cancelled", "done")

    def test_error_paths(self, server):
        client = server.client()
        with pytest.raises(ServeAPIError) as err:
            client.post_job({"kind": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServeAPIError) as err:
            client.get_job("j999")
        assert err.value.status == 404
        with pytest.raises(ServeAPIError) as err:
            client.result("deadbeef")
        assert err.value.status == 404
