"""TimingService micro-batching and the JSON-over-HTTP server."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import RTLTimer
from repro.runtime.report import RuntimeReport
from repro.serve import ServeConfig, TimingService, start_server
from tests.test_registry import TINY_TIMER_CONFIG


@pytest.fixture(scope="module")
def served_timer(tiny_records):
    return RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4])


@pytest.fixture()
def service(served_timer):
    service = TimingService(served_timer, ServeConfig(max_batch=4))
    yield service
    service.close()


class HeldBatcher:
    """Blocks a service's first model pass until released.

    Batching is work-conserving, so requests share a model pass only when
    they queue behind a running one; holding the first pass makes that
    queueing deterministic instead of a race against the batcher.
    """

    def __init__(self, service):
        self.service = service
        self.entered = threading.Event()
        self.release = threading.Event()
        self.first_batch = []
        execute = service._execute_batch

        def held(batch):
            if not self.entered.is_set():
                self.first_batch.extend(batch)
                self.entered.set()
                self.release.wait(timeout=60.0)
            return execute(batch)

        service._execute_batch = held

    def wait_queued(self, total: int) -> None:
        """Wait until ``total`` requests sit in the held pass or queue behind it."""
        deadline = time.monotonic() + 60.0
        assert self.entered.wait(timeout=60.0), "the first model pass never started"
        while len(self.first_batch) + len(self.service._queue) < total:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.001)


# ---------------------------------------------------------------------------
# TimingService
# ---------------------------------------------------------------------------


def test_concurrent_predicts_match_serial(served_timer, tiny_records, service):
    """N threads through the batched service == serial in-process predicts."""
    results = [None] * len(tiny_records)
    errors = []

    def run(index):
        try:
            results[index] = service.predict(tiny_records[index])
        except BaseException as exc:  # surfaced below as a test failure
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(tiny_records))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    for record, served in zip(tiny_records, results):
        serial = served_timer.predict(record)
        assert served.bitwise_arrival == serial.bitwise_arrival
        assert served.signal_arrival == serial.signal_arrival
        assert served.signal_ranking == serial.signal_ranking
        assert served.signal_slack == serial.signal_slack
        assert served.rank_group == serial.rank_group
        assert served.overall == serial.overall


def test_batching_counter_fires(served_timer, tiny_records, service):
    """Requests queued behind a running model pass share the next one."""
    held = HeldBatcher(service)
    barrier = threading.Barrier(4)
    stats = [None] * 4

    def run(index):
        barrier.wait()
        _, stats[index] = service.predict_with_stats(tiny_records[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    held.wait_queued(4)
    held.release.set()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)

    counters = service.report.counters
    assert counters["serve_requests"] == 4
    assert counters["serve_batches"] < 4, "no request shared a batch"
    assert counters.get("serve_batched_requests", 0) >= 2
    assert max(s["batch_size"] for s in stats) >= 2
    assert service.report.stages.get("serve.predict_batch", 0.0) > 0.0


def test_requests_above_max_batch_split(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(max_batch=2))
    held = HeldBatcher(service)
    try:
        barrier = threading.Barrier(5)
        results = [None] * 5
        stats = [None] * 5

        def run(index):
            barrier.wait()
            results[index], stats[index] = service.predict_with_stats(
                tiny_records[index % len(tiny_records)]
            )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        held.wait_queued(5)
        held.release.set()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results)
        assert service.report.counters["serve_requests"] == 5
        assert service.report.counters["serve_batches"] >= 3  # ceil(5 / 2)
        # Everything queued behind the held pass: the queue drains in
        # max_batch slices.
        assert max(s["batch_size"] for s in stats) == 2
    finally:
        service.close()


def test_nonpositive_max_batch_is_clamped(served_timer, tiny_records):
    """max_batch=0 must not busy-spin the worker and hang every caller."""
    service = TimingService(served_timer, ServeConfig(max_batch=0))
    try:
        prediction = service.predict(tiny_records[0])
        assert prediction.design == tiny_records[0].name
        assert service.report.counters["serve_batches"] == 1
    finally:
        service.close()


def test_predict_after_close_raises(served_timer, tiny_records):
    service = TimingService(served_timer)
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.predict(tiny_records[0])


def test_whatif_through_service(served_timer, tiny_records, service):
    estimates = service.what_if(tiny_records[4], k=4)
    direct = served_timer.what_if(
        tiny_records[4], prediction=served_timer.predict(tiny_records[4]), k=4
    )
    assert [e.wns for e in estimates] == [e.wns for e in direct]
    assert [e.tns for e in estimates] == [e.tns for e in direct]
    assert service.report.counters["serve_whatif_requests"] == 1
    assert service.report.stages["serve.whatif"] > 0.0


def test_runtime_report_has_serve_stages(served_timer, tiny_records, service):
    service.predict(tiny_records[0])
    service.predict(tiny_records[1])
    report = service.runtime_report()
    assert report.stages["serve.predict_p50"] > 0.0
    assert report.counters["serve_requests"] == 2
    derived = report.to_dict()["derived"]
    assert derived["serve_batch_size"] >= 1.0


def test_service_record_cache(served_timer, simple_source, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    service = TimingService(served_timer)
    try:
        first = service.record_for_source(simple_source, name="simple")
        second = service.record_for_source(simple_source, name="simple")
        assert second is first  # in-process cache
        assert service.report.counters.get("serve_record_hits", 0) == 1
    finally:
        service.close()


# ---------------------------------------------------------------------------
# HTTP server
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_server(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(max_batch=4))
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    yield server
    server.shutdown()
    service.close()


def _url(server, path):
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as response:
        return json.loads(response.read())


def test_http_predict_bit_identical(http_server, served_timer, tiny_records):
    record = tiny_records[4]
    response = _post(http_server, "/predict", {"name": record.name})
    serial = served_timer.predict(record)
    assert response["design"] == record.name
    assert response["overall"] == {k: float(v) for k, v in serial.overall.items()}
    assert response["signal_slack"] == {k: float(v) for k, v in serial.signal_slack.items()}
    assert response["ranked_signals"] == serial.ranked_signals()
    assert response["serve"]["batch_size"] >= 1


def test_http_whatif(http_server, served_timer, tiny_records):
    record = tiny_records[4]
    response = _post(http_server, "/whatif", {"name": record.name, "k": 4})
    direct = served_timer.what_if(record, prediction=served_timer.predict(record), k=4)
    assert [c["wns"] for c in response["candidates"]] == [e.wns for e in direct]


def test_http_health_and_metrics(http_server):
    health = _get(http_server, "/health")
    assert health["status"] == "ok"
    # Bundle identity is always surfaced (None for an in-process fit with no
    # manifest); a registry-served promotion fills both fields in.
    assert "active_bundle_id" in health and health["active_bundle_id"] is None
    assert "eval_digest" in health and health["eval_digest"] is None
    _post(http_server, "/predict", {"name": http_server.service.timer.training_designs_[0]})
    metrics = _get(http_server, "/metrics")
    assert metrics["serving"]["requests"] >= 1
    assert "predict_p50" in metrics["serving"]
    assert "active_bundle_id" in metrics["serving"]


def test_http_error_paths(http_server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(http_server, "/nope")
    assert excinfo.value.code == 404

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(http_server, "/predict", {"name": "no-such-design"})
    assert excinfo.value.code == 404

    request = urllib.request.Request(
        _url(http_server, "/predict"),
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(http_server, "/whatif", {"name": "whatever", "k": -3})
    assert excinfo.value.code in (400, 404)


def test_http_post_unknown_path_does_not_desync_keepalive(http_server):
    """A 404'd POST with an unread body must not poison the connection."""
    import http.client

    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.request("POST", "/bogus", body=b'{"x": 1}', headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        # The server closes the connection instead of parsing the leftover
        # body bytes as the next request line; either the follow-up request
        # fails cleanly (closed) or — never — comes back as a 400 desync.
        try:
            conn.request("GET", "/health")
            status = conn.getresponse().status
        except (http.client.HTTPException, ConnectionError, BrokenPipeError):
            status = None
        assert status != 400
    finally:
        conn.close()
    assert _get(http_server, "/health")["status"] == "ok"


def test_record_cache_is_bounded(served_timer, simple_source):
    service = TimingService(served_timer, ServeConfig(record_cache_entries=1))
    try:
        first = service.record_for_source(simple_source, name="one")
        service.record_for_source(simple_source, name="two")
        assert len(service._record_cache) == 1  # LRU evicted the first entry
        again = service.record_for_source(simple_source, name="one")
        assert again is not first  # rebuilt (or disk-cache loaded), not leaked
    finally:
        service.close()


def test_http_source_payload(http_server, served_timer, simple_source):
    response = _post(http_server, "/predict", {"source": simple_source, "name": "simple"})
    record = http_server.service.record_for_source(simple_source, name="simple")
    serial = served_timer.predict(record)
    assert response["overall"] == {k: float(v) for k, v in serial.overall.items()}


def test_service_report_can_merge_into_session_report(served_timer, tiny_records):
    session = RuntimeReport()
    with TimingService(served_timer) as service:
        service.predict(tiny_records[0])
        session.merge(service.runtime_report())
    assert "serve.predict_batch" in session.stages
    assert "serve.predict_p50" in session.stages


# ---------------------------------------------------------------------------
# Resilience: body bounds, load shedding, deadlines, close() races
# ---------------------------------------------------------------------------


def test_http_oversized_body_rejected_with_413(http_server):
    from repro.serve.http import MAX_BODY_BYTES

    request = urllib.request.Request(
        _url(http_server, "/predict"),
        data=b"x" * 16,  # tiny actual body; the declared length is the bound
        headers={
            "Content-Type": "application/json",
            "Content-Length": str(MAX_BODY_BYTES + 1),
        },
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 413
    assert "error" in json.loads(excinfo.value.read())
    # The server stays healthy after refusing the body.
    assert _get(http_server, "/health")["status"] == "ok"


def test_http_chunked_body_rejected(http_server):
    import http.client

    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.putheader("Content-Type", "application/json")
        conn.endheaders()
        conn.send(b"5\r\n{\"a\":\r\n0\r\n\r\n")
        response = conn.getresponse()
        assert response.status == 413
    finally:
        conn.close()


def test_http_shed_request_gets_429_with_retry_after(served_timer, tiny_records):
    service = TimingService(
        served_timer,
        ServeConfig(queue_max=1, retry_after_s=2.5),
    )
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    try:
        # Occupy the single admission slot directly, then hit the server.
        slot = service.admission.admit("predict")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/predict", {"name": tiny_records[0].name})
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "2.5"
        finally:
            slot.__exit__(None, None, None)
        # Slot released: the same request is admitted and answered.
        response = _post(server, "/predict", {"name": tiny_records[0].name})
        assert response["design"] == tiny_records[0].name
        assert service.report.counters["serve_shed"] == 1
    finally:
        server.shutdown()
        service.close()


def test_http_expired_deadline_gets_504(served_timer, tiny_records):
    service = TimingService(served_timer, ServeConfig(deadline_s=1e-6))
    held = HeldBatcher(service)
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    # A long-deadline request occupies the batcher, so the HTTP request
    # waits in the queue until its deadline expires.
    blocker = threading.Thread(
        target=service.predict, args=(tiny_records[1],), kwargs={"deadline_s": 60.0}
    )
    blocker.start()
    try:
        held.wait_queued(1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/predict", {"name": tiny_records[0].name})
        assert excinfo.value.code == 504
        assert service.report.counters.get("serve_deadline_timeouts", 0) >= 1
    finally:
        held.release.set()
        blocker.join(timeout=60.0)
        server.shutdown()
        service.close()


def test_close_drains_inflight_requests(served_timer, tiny_records):
    """predicts racing close(): every caller gets a prediction or a clean
    'closed' error — nobody hangs, nothing is silently dropped."""
    for attempt in range(3):  # several interleavings of the race
        service = TimingService(served_timer)
        outcomes = []
        barrier = threading.Barrier(5)

        def run(index):
            barrier.wait()
            try:
                outcomes.append(("ok", service.predict(tiny_records[index % 4])))
            except RuntimeError as exc:
                outcomes.append(("closed", exc))

        def closer():
            barrier.wait()
            service.close(drain=True, timeout=30.0)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=closer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "a caller hung"
        assert len(outcomes) == 4
        for kind, value in outcomes:
            if kind == "ok":
                assert value.design in {r.name for r in tiny_records}
            else:
                assert "closed" in str(value)
        service.close()  # idempotent


def test_close_without_drain_aborts_queued_requests(served_timer, tiny_records):
    service = TimingService(served_timer)
    held = HeldBatcher(service)
    errors = []

    def run():
        try:
            service.predict(tiny_records[0])
            errors.append(None)
        except RuntimeError as exc:
            errors.append(exc)

    blocker = threading.Thread(target=service.predict, args=(tiny_records[1],))
    blocker.start()
    held.wait_queued(1)
    thread = threading.Thread(target=run)
    thread.start()
    held.wait_queued(2)  # the request waits behind the held model pass
    # The batcher is still busy, so the join times out and close() fails
    # the queued request itself.
    service.close(drain=False, timeout=0.2)
    thread.join(timeout=10.0)
    held.release.set()
    blocker.join(timeout=10.0)
    assert not thread.is_alive()
    assert not blocker.is_alive()
    assert len(errors) == 1  # answered either way; an abort error is legal
    assert "closed" in str(errors[0])


def test_cold_source_requests_never_fingerprint_records(
    http_server, served_timer, simple_source, tmp_path, monkeypatch
):
    """Served records carry their build key, so no request pickles a record."""
    import repro.core.feature_cache as feature_cache
    import repro.runtime.cache as runtime_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    feature_cache.reset_feature_cache()
    calls = []
    original = runtime_cache.record_fingerprint

    def counting(record):
        calls.append(record)
        return original(record)

    monkeypatch.setattr(runtime_cache, "record_fingerprint", counting)
    monkeypatch.setattr(feature_cache, "record_fingerprint", counting)
    try:
        source = simple_source.replace("module simple", "module simple_cold")
        predicted = _post(http_server, "/predict", {"source": source, "name": "simple_cold"})
        assert predicted["design"] == "simple_cold"
        assert calls == []
        whatif = _post(http_server, "/whatif", {"source": source, "name": "simple_cold", "k": 2})
        assert whatif["candidates"]
        assert calls == []
        record = http_server.service.record_for_source(source, name="simple_cold")
        assert record.__dict__["_content_key"] == runtime_cache.record_key(source, None, "simple_cold")
    finally:
        feature_cache.reset_feature_cache()


def test_load_or_build_record_stamps_key_and_drops_stale_fingerprint(simple_source, tmp_path):
    from repro.runtime.cache import ArtifactCache, load_or_build_record, record_key

    cache = ArtifactCache(tmp_path / "records")
    built = load_or_build_record(simple_source, "simple", cache)
    key = record_key(simple_source, None, "simple")
    assert built.__dict__["_content_key"] == key
    # A fingerprint pickled along with a cached record predates the key.
    built.__dict__["_feature_fingerprint"] = "fp:stale"
    cache.put(key, built)
    loaded = load_or_build_record(simple_source, "simple", cache)
    assert loaded is not built
    assert "_feature_fingerprint" not in loaded.__dict__
    assert loaded.__dict__["_content_key"] == key
    assert load_or_build_record(simple_source, "simple", None).__dict__["_content_key"] == key


# ---------------------------------------------------------------------------
# Transport: one write per response, TCP_NODELAY, JSON everywhere
# ---------------------------------------------------------------------------


@pytest.fixture()
def counted_writes(monkeypatch):
    """Record every ``wfile.write`` and the TCP_NODELAY flag of each connection."""
    import socket

    from repro.serve.http import TimingRequestHandler

    writes, nodelay = [], []
    setup = TimingRequestHandler.setup

    class CountingWriter:
        def __init__(self, raw):
            self.raw = raw

        def write(self, data):
            writes.append(bytes(data))
            return self.raw.write(data)

        def __getattr__(self, name):  # flush, closed, ... of the socket writer
            return getattr(self.raw, name)

    def counting_setup(handler):
        setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handler.wfile = CountingWriter(handler.wfile)

    monkeypatch.setattr(TimingRequestHandler, "setup", counting_setup)
    return writes, nodelay


def test_keepalive_health_round_trips_do_not_stall(http_server):
    """Back-to-back requests on one connection pay no delayed-ACK stall."""
    import http.client

    host, port = http_server.server_address
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        elapsed = []
        for _ in range(30):
            started = time.perf_counter()
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert json.loads(response.read())["status"] == "ok"
            elapsed.append(time.perf_counter() - started)
    finally:
        conn.close()
    assert sorted(elapsed)[len(elapsed) // 2] < 0.010


def test_every_response_status_is_one_write(
    counted_writes, served_timer, tiny_records, monkeypatch
):
    import http.client

    from repro.serve.http import MAX_BODY_BYTES

    writes, _ = counted_writes
    service = TimingService(served_timer, ServeConfig(queue_max=1))
    server = start_server(service, port=0)
    for record in tiny_records:
        server.register_record(record)
    host, port = server.server_address

    def exchange(method, path, body=None, headers=None):
        writes.clear()
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        return response.status, payload

    def broken_metrics():
        raise RuntimeError("scrape failed")

    try:
        name = json.dumps({"name": tiny_records[0].name})
        cases = [
            (200, lambda: exchange("POST", "/predict", name)),
            (400, lambda: exchange("POST", "/predict", "this is not json")),
            (404, lambda: exchange("GET", "/nope")),
            (
                413,
                lambda: exchange(
                    "POST", "/predict", "x", {"Content-Length": str(MAX_BODY_BYTES + 1)}
                ),
            ),
            (501, lambda: exchange("PUT", "/predict", name)),
        ]
        for status, send in cases:
            got, payload = send()
            assert got == status, payload
            assert len(writes) == 1, (status, writes)
            assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
        slot = service.admission.admit("predict")
        try:
            got, payload = exchange("POST", "/predict", name)
        finally:
            slot.__exit__(None, None, None)
        assert got == 429 and "error" in payload
        assert len(writes) == 1 and b"\r\nRetry-After: " in writes[0]
        monkeypatch.setattr(service, "metrics", broken_metrics)
        got, payload = exchange("GET", "/metrics")
        assert got == 500 and "scrape failed" in payload["error"]
        assert len(writes) == 1
    finally:
        server.shutdown()
        service.close()


def test_accepted_socket_has_tcp_nodelay(counted_writes, http_server):
    _, nodelay = counted_writes
    assert _get(http_server, "/health")["status"] == "ok"
    assert nodelay and all(flag for flag in nodelay)


def test_unsupported_method_answers_json(http_server):
    request = urllib.request.Request(
        _url(http_server, "/predict"), data=b"{}", method="PUT"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 501
    assert excinfo.value.headers["Content-Type"] == "application/json"
    assert excinfo.value.headers["Connection"] == "close"
    assert "PUT" in json.loads(excinfo.value.read())["error"]


def test_bad_http_version_answers_json(http_server):
    import socket

    with socket.create_connection(http_server.server_address, timeout=30.0) as sock:
        sock.sendall(b"GET /health HTTP/x.y\r\n\r\n")
        chunks = []
        while chunk := sock.recv(65536):  # the server closes after the reply
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.1 400 ")
    assert "Content-Type: application/json" in header_lines
    assert "Connection: close" in header_lines
    assert "version" in json.loads(body)["error"]


def test_predict_stats_report_record_seconds(http_server, tiny_records, simple_source):
    registered = _post(http_server, "/predict", {"name": tiny_records[0].name})["serve"]
    built = _post(http_server, "/predict", {"source": simple_source, "name": "simple"})["serve"]
    for stats in (registered, built):
        assert {"batch_size", "queue_seconds", "latency_seconds", "record_seconds"} <= set(stats)
        assert stats["record_seconds"] >= 0.0
    assert built["record_seconds"] > 0.0
