"""Smoke tests for the stdlib HTTP front end and the serve CLI."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import ServingConfig, SimilarityService, make_server


@pytest.fixture
def server(serving_world, fresh_store):
    model, items = serving_world
    service = SimilarityService(model, fresh_store,
                                ServingConfig(max_wait_ms=0.5),
                                probes=items[:2])
    srv = make_server(service)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    service.close()


def _call(server, path, payload=None, method=None):
    """(status, parsed body) for a request against the test server."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(server.url + path, data=data,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _json(body):
    return json.loads(body.decode())


def test_healthz(server):
    status, body = _call(server, "/healthz")
    assert status == 200
    payload = _json(body)
    assert payload["status"] == "ok"
    assert payload["store_size"] == 16


def test_topk_matches_offline(server, serving_world, fresh_store):
    _, items = serving_world
    query = items[1]
    status, body = _call(server, "/v1/topk",
                         {"trajectory": query.points.tolist(), "k": 5})
    assert status == 200
    payload = _json(body)
    expected_ids, expected_dist = fresh_store.query(query, k=5)
    assert payload["ids"] == [int(i) for i in expected_ids]
    np.testing.assert_allclose(payload["distances"], expected_dist, atol=1e-9)
    assert payload["cached"] is False
    # Second identical request is served from cache.
    status, body = _call(server, "/v1/topk",
                         {"trajectory": query.points.tolist(), "k": 5})
    assert _json(body)["cached"] is True


def test_embed(server, serving_world):
    model, items = serving_world
    status, body = _call(server, "/v1/embed",
                         {"trajectory": items[0].points.tolist()})
    assert status == 200
    embedding = _json(body)["embedding"]
    np.testing.assert_allclose(embedding, model.embed([items[0]])[0],
                               atol=1e-12)


def test_insert_and_delete(server, serving_world):
    _, items = serving_world
    status, body = _call(
        server, "/v1/insert",
        {"trajectories": [t.points.tolist() for t in items[16:18]]})
    assert status == 200
    new_ids = _json(body)["ids"]
    assert new_ids == [16, 17]
    status, body = _call(server, "/healthz")
    assert _json(body)["store_size"] == 18
    status, body = _call(server, "/v1/delete", {"ids": new_ids})
    assert status == 200
    assert _json(body)["removed"] == 2


def test_metrics_exposition_advances(server, serving_world):
    _, items = serving_world
    status, before_body = _call(server, "/metrics")
    assert status == 200

    def counter_value(text, name):
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        return 0.0

    before = counter_value(before_body.decode(), "repro_topk_requests_total")
    _call(server, "/v1/topk", {"trajectory": items[2].points.tolist(),
                               "k": 3})
    status, after_body = _call(server, "/metrics")
    text = after_body.decode()
    assert status == 200
    assert "# TYPE repro_topk_requests_total counter" in text
    assert "# TYPE repro_topk_latency_seconds histogram" in text
    assert "repro_http_requests_total" in text
    after = counter_value(text, "repro_topk_requests_total")
    assert after == before + 1


def test_stats_endpoint(server):
    status, body = _call(server, "/v1/stats")
    assert status == 200
    payload = _json(body)
    assert {"store", "cache", "batcher", "metrics"} <= set(payload)


def test_unknown_route_404(server):
    status, body = _call(server, "/nope")
    assert status == 404
    assert "error" in _json(body)
    status, _ = _call(server, "/v1/nope", {"x": 1})
    assert status == 404


def test_bad_json_400(server):
    request = urllib.request.Request(server.url + "/v1/topk",
                                     data=b"this is not json")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_missing_fields_400(server):
    status, body = _call(server, "/v1/topk", {"k": 3})
    assert status == 400
    assert "trajectory" in _json(body)["error"]
    status, _ = _call(server, "/v1/topk", {}, method="POST")
    assert status == 400
    status, _ = _call(server, "/v1/insert", {"trajectories": "nope"})
    assert status == 400
    status, _ = _call(server, "/v1/delete", {"ids": 7})
    assert status == 400


def test_invalid_trajectory_400(server):
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 1.0, 2.0]], "k": 3})
    assert status == 400
    status, _ = _call(server, "/v1/topk",
                      {"trajectory": [[0.0, 1.0]], "k": "three"})
    assert status == 400


def test_serve_cli_once(bundle_dir, capsys):
    """`python -m repro serve --bundle <dir> --once` full loopback pass."""
    from repro.__main__ import main

    assert main(["serve", "--bundle", str(bundle_dir), "--once"]) == 0
    out = capsys.readouterr().out
    assert "self-test passed" in out
    assert "healthz: 200" in out


def test_serve_cli_bad_bundle(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["serve", "--bundle", str(tmp_path / "nope"),
                 "--once"]) == 2


# ------------------------------------------------- robustness contract (PR 3)

def test_readyz_lifecycle(server):
    service = server.service
    status, body = _call(server, "/readyz")
    assert status == 503
    payload = _json(body)
    assert payload["ready"] is False
    assert payload["checks"]["warmed"] is False
    service.warmup(queries=1)
    status, body = _call(server, "/readyz")
    assert status == 200
    assert _json(body)["ready"] is True
    # liveness stays 200 regardless of readiness
    assert _call(server, "/healthz")[0] == 200


def _force(service, exc):
    def boom(*args, **kwargs):
        raise exc
    service.top_k = boom


def test_shed_request_maps_to_429(server):
    from repro.exceptions import ServiceOverloadedError
    _force(server.service, ServiceOverloadedError("top_k shed: 4/4 in flight"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 429
    assert "shed" in _json(body)["error"]


def test_unavailable_maps_to_503(server):
    from repro.exceptions import ServiceUnavailableError
    _force(server.service, ServiceUnavailableError("breaker open"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 503
    assert "breaker" in _json(body)["error"]


def test_closed_service_maps_to_503(server):
    from repro.exceptions import ServiceClosedError
    _force(server.service, ServiceClosedError("batcher is closed"))
    status, _ = _call(server, "/v1/topk",
                      {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 503


def test_deadline_maps_to_504(server):
    from repro.exceptions import DeadlineExceededError
    _force(server.service, DeadlineExceededError("no answer within 0.05s"))
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 504
    assert "within" in _json(body)["error"]


def test_degraded_answer_serialized(server, serving_world):
    """A breaker-open service with a fallback still answers 200 + degraded."""
    from repro.serving.service import TopKResult

    def degraded(*args, **kwargs):
        return TopKResult(ids=[3, 1], distances=[0.25, 0.5], degraded=True)

    server.service.top_k = degraded
    status, body = _call(server, "/v1/topk",
                         {"trajectory": [[0.0, 0.0], [1.0, 1.0]]})
    assert status == 200
    payload = _json(body)
    assert payload["degraded"] is True
    assert payload["ids"] == [3, 1]


def test_admin_compact_single_process(server):
    status, body = _call(server, "/admin/compact", method="POST")
    assert status == 200
    assert _json(body) == {"compacted": {"0": False}}  # exact backend


def test_admin_reload_unsupported_409(server):
    status, body = _call(server, "/admin/reload", {})
    assert status == 409
    assert "reload" in _json(body)["error"]


# ------------------------------------------------- keep-alive connections

def _raw_exchange(server, request: bytes):
    """Send raw request bytes on one connection; return (socket, reader)."""
    import socket

    host, port = server.server_address[:2]
    sock = socket.create_connection((host, port), timeout=10)
    sock.sendall(request)
    return sock, sock.makefile("rb")


def _read_response(reader):
    """(status, headers dict, body) of the next response on ``reader``."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def _post(path: str, body: bytes, length=None) -> bytes:
    declared = len(body) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {declared}\r\n\r\n").encode() + body


def test_unread_body_of_unknown_route_does_not_poison_keepalive(server):
    """A 404'd POST body is drained, so the next request parses cleanly."""
    sock, reader = _raw_exchange(
        server, _post("/v1/nope", b'{"x": 1}') + _HEALTHZ)
    try:
        status, _, _ = _read_response(reader)
        assert status == 404
        status, headers, body = _read_response(reader)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert _json(body)["status"] == "ok"
    finally:
        sock.close()


@pytest.mark.parametrize("path", ["/v1/topk", "/admin/compact",
                                  "/admin/restart/0"])
def test_oversized_body_closes_the_connection(server, path):
    """A body over MAX_BODY_BYTES is refused unread and the socket closes."""
    from repro.serving.http import MAX_BODY_BYTES

    sock, reader = _raw_exchange(
        server, _post(path, b"", length=MAX_BODY_BYTES + 1))
    try:
        status, headers, body = _read_response(reader)
        assert status == 400
        assert "too large" in _json(body)["error"]
        assert headers["connection"] == "close"
        assert reader.read() == b""  # server closed; nothing else parsed
    finally:
        sock.close()


@pytest.mark.parametrize("headers, error", [
    ("Content-Length: 12x", "invalid Content-Length"),
    ("Transfer-Encoding: chunked", "chunked"),
])
def test_unreadable_body_closes_the_connection(server, headers, error):
    """A body whose length the server cannot trust is refused unread."""
    sock, reader = _raw_exchange(
        server, f"POST /v1/topk HTTP/1.1\r\nHost: t\r\n{headers}\r\n\r\n"
        .encode())
    try:
        status, headers_out, body = _read_response(reader)
        assert status == 400
        assert error in _json(body)["error"]
        assert headers_out["connection"] == "close"
    finally:
        sock.close()


@pytest.mark.parametrize("path", ["/admin/compact", "/admin/restart/0"])
def test_optional_admin_body_is_drained(server, path):
    sock, reader = _raw_exchange(
        server, _post(path, b'{"ignored": true}') + _HEALTHZ)
    try:
        status, _, _ = _read_response(reader)
        assert status in (200, 409)  # restart: in-process tier answers 409
        status, _, body = _read_response(reader)
        assert status == 200
        assert _json(body)["status"] == "ok"
    finally:
        sock.close()


def test_keepalive_closed_loop_has_no_stall(server, serving_world):
    """Back-to-back requests on one connection are not held ~40 ms each.

    With Nagle's algorithm on the server socket and a response written in
    two sends, every response waited for the client's delayed ACK.
    """
    import http.client
    import statistics
    import time

    _, items = serving_world
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    body = json.dumps({"trajectory": items[1].points.tolist(), "k": 3,
                       "use_cache": False})
    try:
        for method, path, payload in (("GET", "/healthz", None),
                                      ("POST", "/v1/topk", body)):
            times = []
            for _ in range(20):
                start = time.perf_counter()
                conn.request(method, path, body=payload)
                response = conn.getresponse()
                response.read()
                times.append(time.perf_counter() - start)
                assert response.status == 200
            assert statistics.median(times) < 0.010, (path, times)
    finally:
        conn.close()
