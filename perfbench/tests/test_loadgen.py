"""Load generator: lateness accounting, failures, percentile helper."""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
from loadgen import Request


class _StallingHandler(BaseHTTPRequestHandler):
    """Stalls the first request for ``server.stall_s``; refuses /shed."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        with self.server.lock:
            self.server.seen += 1
            first = self.server.seen == 1
        if first:
            time.sleep(self.server.stall_s)
        status = 429 if self.path == "/shed" else 200
        body = json.dumps({"ok": status == 200}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.seen = 0
    server.stall_s = 0.3
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()
    assert not thread.is_alive()


def _schedule(count, spacing, path="/ok"):
    return [Request(i * spacing, "POST", path, {"i": i}) for i in range(count)]


def test_open_loop_charges_a_stall_to_the_requests_behind_it(stub):
    port = stub.server_address[1]
    outcomes, _ = loadgen.open_loop("127.0.0.1", port, _schedule(5, 0.05),
                                    seconds=10.0, connections=1)
    assert [o.request.body["i"] for o in outcomes] == [0, 1, 2, 3, 4]
    assert all(o.ok for o in outcomes)
    # Request 1 was due at 0.05 s but its connection was stuck in the
    # 0.3 s stall: it went out ~0.25 s late, and its latency counts from
    # when it was due, not from when it was finally sent.
    second = outcomes[1]
    assert second.late >= 0.2
    assert second.latency_from_due >= second.late + (
        second.done - second.sent) - 1e-9
    assert second.latency_from_due > 0.2 > second.latency_from_send
    assert loadgen.tail([o.late for o in outcomes])[1] >= 0.1
    assert outcomes[0].late < 0.05


def test_open_loop_drops_requests_due_after_the_run(stub):
    port = stub.server_address[1]
    stub.stall_s = 0.0
    outcomes, _ = loadgen.open_loop("127.0.0.1", port, _schedule(10, 0.1),
                                    seconds=0.45, connections=2)
    assert len(outcomes) == 5


def test_refused_requests_count_as_missing_every_limit(stub):
    port = stub.server_address[1]
    stub.stall_s = 0.0
    schedule = _schedule(2, 0.0) + _schedule(1, 0.0, path="/shed")
    outcomes, _ = loadgen.open_loop("127.0.0.1", port, schedule,
                                    seconds=10.0, connections=1)
    failed = [o for o in outcomes if not o.ok]
    assert len(failed) == 1 and failed[0].status == 429
    assert math.isinf(failed[0].latency_from_due)


def test_transport_failure_is_status_zero():
    client = loadgen.Client("127.0.0.1", 1, timeout=1.0)
    assert client.call("GET", "/") == (0, None)


def test_closed_loop_requests_are_due_when_sent(stub):
    port = stub.server_address[1]
    outcomes, elapsed = loadgen.closed_loop(
        "127.0.0.1", port, _schedule(100, 0.0), seconds=0.5)
    assert 0 < len(outcomes) < 100
    assert elapsed >= 0.5
    assert all(o.late == 0.0 for o in outcomes)


@pytest.mark.parametrize("count,expected", [
    (10_000, 99.9), (2_000, 99.5), (1_000, 99.0), (500, 98.0),
    (200, 95.0), (100, 90.0), (60, 80.0), (40, 75.0), (25, 60.0),
    (20, 50.0), (5, 50.0)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert loadgen.tail_percentile(count) == expected
    higher = [p for p in loadgen.TAIL_LADDER if p > expected]
    for pct in higher:
        assert count * (100 - pct) / 100 < loadgen.TAIL_BEYOND - 1e-9


def test_tail_returns_percentile_value_and_sample_count():
    values = [float(v) for v in range(1, 101)]
    pct, value, count = loadgen.tail(values)
    assert (pct, count) == (90.0, 100)
    assert value == pytest.approx(90.1)
    assert sum(v > value for v in values) == 10


def test_percentile_with_failures_lands_on_infinity():
    values = [1.0] * 8 + [math.inf] * 2
    assert loadgen.percentile(values, 50) == 1.0
    assert math.isinf(loadgen.percentile(values, 95))
