"""HTTP API end-to-end: a real ThreadingHTTPServer on an ephemeral port.

Covers the acceptance path: a repeated identical ``POST /compile`` is
answered from the persistent store (hit counters prove it) without a
second pipeline execution, and the output is hardware-compliant.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.hardware import get_device
from repro.qasm import parse_qasm
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceClientError,
    build_server,
    serve_url,
    shutdown_service,
    start_in_thread,
)
from repro.verify import is_hardware_compliant

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0], q[4];
cx q[1], q[3];
ccx q[0], q[2], q[4];
measure q -> c;
"""


@pytest.fixture()
def service(tmp_path):
    """A running server + client over a persistent store in tmp_path."""
    store = ResultStore(root=str(tmp_path / "store"))
    server = build_server(port=0, store=store, workers=2)
    start_in_thread(server)
    client = ServiceClient(serve_url(server), timeout=60)
    client.wait_until_healthy()
    try:
        yield client, store
    finally:
        shutdown_service(server)


class TestCompileEndpoint:
    def test_compile_returns_compliant_qasm(self, service):
        client, _ = service
        reply = client.compile(QASM, trials=2)
        assert reply["state"] == "done"
        assert not reply["cached"]
        routed = parse_qasm(reply["result"]["routed_qasm"])
        assert is_hardware_compliant(routed, get_device("ibm_q20_tokyo"))
        metrics = reply["result"]["metrics"]
        assert metrics["g_tot"] == metrics["g_ori"] + metrics["g_add"]
        assert reply["result"]["properties"]["pass_timings"]

    def test_repeat_post_is_a_store_hit(self, service):
        client, store = service
        first = client.compile(QASM, trials=2)
        before = store.stats()
        second = client.compile(QASM, trials=2)
        after = store.stats()
        assert second["cached"]
        assert after["hits"] == before["hits"] + 1
        assert after["puts"] == before["puts"]  # nothing recompiled
        assert (
            second["result"]["routed_qasm"] == first["result"]["routed_qasm"]
        )
        stats = client.stats()
        assert stats["scheduler"]["executions"] == 1
        assert stats["scheduler"]["store_answered"] == 1

    def test_survives_memory_tier_flush(self, service):
        """The second hit can come from disk, not just the LRU."""
        client, store = service
        client.compile(QASM, trials=1)
        store.clear_memory()
        reply = client.compile(QASM, trials=1)
        assert reply["cached"]
        assert store.stats()["disk_hits"] == 1

    def test_async_compile_and_job_poll(self, service):
        client, _ = service
        ack = client.compile(QASM, trials=1, seed=5, wait=False)
        assert "job_id" in ack
        snapshot = client.wait_for_job(ack["job_id"])
        assert snapshot["state"] == "done"
        assert snapshot["result"]["routed_qasm"].startswith("OPENQASM")

    def test_directed_device_pipeline(self, service):
        client, _ = service
        reply = client.compile(
            QASM, device="ibm_qx5", pipeline="directed_device", trials=1
        )
        routed = parse_qasm(reply["result"]["routed_qasm"])
        assert is_hardware_compliant(
            routed, get_device("ibm_qx5"), check_direction=True
        )


class TestBatchEndpoint:
    def test_batch_with_duplicates_and_pipeline_mix(self, service):
        client, _ = service
        reply = client.batch(
            [
                {"qasm": QASM, "trials": 1},
                {"qasm": QASM, "trials": 1},  # duplicate -> coalesces
                {"qasm": QASM, "trials": 1, "pipeline": "fast"},
            ]
        )
        assert reply["failed"] == 0
        assert len(reply["results"]) == 3
        assert reply["results"][0]["id"] == reply["results"][1]["id"]
        stats = client.stats()
        assert stats["scheduler"]["executions"] == 2
        assert stats["scheduler"]["coalesced"] == 1

    def test_batch_per_request_priority_overrides_batch_default(
        self, service
    ):
        client, _ = service
        reply = client.batch(
            [
                {"qasm": QASM, "trials": 1, "seed": 31, "priority": 7},
                {"qasm": QASM, "trials": 1, "seed": 32},
            ],
            priority=2,
        )
        assert reply["results"][0]["priority"] == 7
        assert reply["results"][1]["priority"] == 2

    def test_batch_validation(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.batch([])
        assert excinfo.value.status == 400


class TestReadEndpoints:
    def test_devices_matches_catalog(self, service):
        from repro.hardware.devices import device_catalog

        client, _ = service
        assert client.devices() == device_catalog()

    def test_healthz(self, service):
        client, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_stats_shape(self, service):
        client, _ = service
        client.compile(QASM, trials=1)
        stats = client.stats()
        assert stats["store"]["persistent"]
        assert stats["scheduler"]["workers"] == 2
        assert "paper_default" in stats["scheduler"]["pass_timings"]
        # Engine-cache counters surfaced end-to-end (satellite task).
        assert stats["engine_cache"]["entries"] > 0
        assert stats["requests_served"] > 0


class TestErrorPaths:
    def test_bad_qasm_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile("this is not qasm")
        assert excinfo.value.status == 400

    def test_unknown_device_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(QASM, device="ibm_q9000")
        assert excinfo.value.status == 400
        assert "unknown device" in str(excinfo.value)

    def test_unknown_preset_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(QASM, pipeline="warp_speed")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("preset", ["ensemble", "hybrid"])
    def test_retired_executor_preset_is_400(self, service, preset):
        """Executor-only presets are gone: the 400 names the presets
        that remain."""
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(QASM, pipeline=preset)
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "unknown pipeline preset" in message
        assert "paper_default" in message

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/teapot")
        assert excinfo.value.status == 404

    def test_non_json_body_is_400(self, service):
        client, _ = service
        request = urllib.request.Request(
            f"{client.base_url}/compile",
            data=b"not json at all",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_config_value_is_400(self, service):
        """Un-coercible config values must 400, not drop the socket."""
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(QASM, config={"extended_set_size": "abc"})
        assert excinfo.value.status == 400
        assert "extended_set_size" in str(excinfo.value)

    def test_non_finite_config_value_is_400(self, service):
        """``json.loads`` accepts a bare ``NaN`` literal; the request is
        rejected before it is queued, so nothing is ever compiled."""
        client, _ = service
        body = (
            '{"qasm": %s, "config": {"swap_cost_penalty": NaN}}'
            % json.dumps(QASM)
        )
        request = urllib.request.Request(
            f"{client.base_url}/compile",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert "swap_cost_penalty must be a finite" in error
        scheduler = client.stats()["scheduler"]
        assert scheduler["submitted"] == 0
        assert scheduler["executions"] == 0

    def test_bad_priority_is_400(self, service):
        client, _ = service
        request = urllib.request.Request(
            f"{client.base_url}/compile",
            data=json.dumps({"qasm": QASM, "priority": "high"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "priority" in json.loads(excinfo.value.read())["error"]

    def test_oversized_body_gets_a_400_response(self, service):
        """The 400 must reach a keep-alive client still sending."""
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        client, _ = service
        host, port = client.base_url[len("http://"):].split(":")
        body = b'{"qasm": "' + b"x" * (MAX_BODY_BYTES + 1) + b'"}'
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request(
                "POST",
                "/compile",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"exceeds" in response.read()
        finally:
            conn.close()

    def test_circuit_too_big_for_device_fails_cleanly(self, service):
        client, _ = service
        big = QASM.replace("q[5]", "q[9]").replace("c[5]", "c[9]")
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(big, device="ibm_qx2")  # 9q circuit, 5q device
        assert excinfo.value.status == 500  # surfaces as a failed job
        assert "needs" in str(excinfo.value) or "qubits" in str(excinfo.value)


class TestKeepAliveHygiene:
    def test_post_to_unknown_path_keeps_connection_usable(self, service):
        """The unread body of a 404'd POST must not corrupt the next
        request on the same keep-alive connection."""
        import http.client

        client, _ = service
        host, port = client.base_url[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request(
                "POST",
                "/nope",
                body=b'{"qasm": "junk"}',
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            first.read()
            # Same connection: must parse cleanly as a fresh request.
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert b"ok" in second.read()
        finally:
            conn.close()

    def test_concurrent_first_device_catalog_calls(self, service):
        """GET /devices under concurrent first use returns one clean
        catalog per call (module-level lazy build must not corrupt)."""
        import repro.hardware.devices as devices_mod

        client, _ = service
        devices_mod._CATALOG = None  # force a fresh lazy build
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(client.devices()))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        expected = devices_mod.device_catalog()
        assert all(r == expected for r in results)
        assert len(expected) == len(devices_mod.DEVICE_BUILDERS)


class TestBackpressureHTTP:
    """429 + Retry-After, DELETE /jobs/<id>, and 504 timeout mapping,
    exercised against a deliberately congested one-worker scheduler."""

    @pytest.fixture()
    def congested(self):
        from repro.service import CoalescingScheduler

        release = threading.Event()

        def gated_compile(request, circuit=None, key=None):
            from repro.service.request import execute_request

            release.wait(timeout=30)
            return execute_request(request, circuit=circuit, key=key)

        scheduler = CoalescingScheduler(
            store=ResultStore(),
            workers=1,
            compile_fn=gated_compile,
            max_queue_depth=1,
        )
        server = build_server(port=0, scheduler=scheduler)
        start_in_thread(server)
        client = ServiceClient(serve_url(server), timeout=60)
        client.wait_until_healthy()
        try:
            yield client, scheduler, release
        finally:
            release.set()
            shutdown_service(server)

    def _occupy_worker(self, client):
        """Start one running job (seed 100) so the queue is the only
        remaining capacity, and return its id."""
        ack = client.compile(QASM, trials=1, seed=100, wait=False)
        for _ in range(500):
            if client.job(ack["job_id"])["state"] == "running":
                return ack["job_id"]
            time.sleep(0.01)
        raise AssertionError("blocker never started running")

    def test_full_queue_is_429_with_retry_after(self, congested):
        client, scheduler, release = congested
        running = self._occupy_worker(client)
        queued = client.compile(QASM, trials=1, seed=101, wait=False)
        with pytest.raises(ServiceClientError) as excinfo:
            client.compile(QASM, trials=1, seed=102, wait=False)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1  # header made the round trip
        assert "queue is full" in str(excinfo.value)
        assert client.stats()["scheduler"]["rejected"] == 1
        # A duplicate of in-flight work coalesces instead of bouncing.
        dup = client.compile(QASM, trials=1, seed=101, wait=False)
        assert dup["job_id"] == queued["job_id"]
        release.set()
        assert client.wait_for_job(running)["state"] == "done"
        assert client.wait_for_job(queued["job_id"])["state"] == "done"

    def test_delete_cancels_queued_job(self, congested):
        client, scheduler, release = congested
        self._occupy_worker(client)
        queued = client.compile(QASM, trials=1, seed=103, wait=False)
        reply = client.cancel_job(queued["job_id"])
        assert reply["cancelled"] is True
        assert reply["state"] == "cancelled"
        # A status poll (GET) still answers 200 with the state visible.
        snapshot = client.job(queued["job_id"])
        assert snapshot["state"] == "cancelled"
        # DELETE is idempotent: cancelling again reports the same state.
        again = client.cancel_job(queued["job_id"])
        assert again["cancelled"] is True

    def test_delete_running_thread_job_is_409(self, congested):
        client, scheduler, release = congested
        running = self._occupy_worker(client)
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel_job(running)
        assert excinfo.value.status == 409
        assert "cancel" in str(excinfo.value)
        release.set()
        assert client.wait_for_job(running)["state"] == "done"

    def test_delete_unknown_job_is_404(self, congested):
        client, _, _ = congested
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel_job("job-424242")
        assert excinfo.value.status == 404

    def test_per_request_timeout_maps_to_504(self, congested):
        """A job whose deadline lapses while queued behind the blocker
        comes back as 504 once the worker reaches (and expires) it."""
        client, scheduler, release = congested
        self._occupy_worker(client)
        outcomes = []

        def post():
            try:
                outcomes.append(
                    client._request(
                        "POST",
                        "/compile",
                        {"qasm": QASM, "trials": 1, "seed": 104,
                         "wait": True, "timeout": 0.05},
                    )
                )
            except ServiceClientError as exc:
                outcomes.append(exc)

        poster = threading.Thread(target=post)
        poster.start()
        time.sleep(0.3)  # let the 0.05s deadline lapse in the queue
        release.set()
        poster.join(timeout=60)
        assert not poster.is_alive()
        assert isinstance(outcomes[0], ServiceClientError)
        assert outcomes[0].status == 504
        assert "timed out" in str(outcomes[0])

    def test_invalid_timeout_is_400(self, congested):
        client, _, _ = congested
        with pytest.raises(ServiceClientError) as excinfo:
            client._request(
                "POST",
                "/compile",
                {"qasm": QASM, "timeout": -3},
            )
        assert excinfo.value.status == 400
        assert "timeout" in str(excinfo.value)


class TestConcurrentClients:
    def test_parallel_identical_posts_coalesce(self, service):
        """Acceptance: N concurrent identical HTTP requests -> one
        pipeline execution (everyone gets the same artifact)."""
        client, _ = service
        replies = []
        errors = []

        def post():
            try:
                replies.append(client.compile(QASM, trials=2, seed=17))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(replies) == 6
        outputs = {r["result"]["routed_qasm"] for r in replies}
        assert len(outputs) == 1
        assert client.stats()["scheduler"]["executions"] == 1
