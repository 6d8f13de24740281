"""Load generator: seeded schedules driven over stock keep-alive HTTP.

One process, at most ``nproc`` sender threads, each owning one
:class:`http.client.HTTPConnection` that it keeps alive for the whole
run. Nothing here sets socket options or opens a fresh connection per
request: a client that did either would hide stalls a real client pays.
A connection is only replaced after it fails, as any client would.

Two loop shapes:

* :func:`closed_loop` sends the next request when the previous answer
  arrives, so a slow server receives less load. Latency runs from send.
* :func:`open_loop` sends each request at its scheduled due time
  regardless of earlier answers (up to one in flight per connection).
  Latency runs from the *due* time, so a stall also charges the requests
  queued behind it; how late the generator sent is recorded separately.

Failed or refused requests (transport errors, HTTP status >= 400) are
kept in the results and count as missing every latency limit.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 85.0, 80.0,
               75.0, 70.0, 60.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float:
    """Highest :data:`TAIL_LADDER` percentile with >= 10 samples beyond it.

    Falls back to the median when even that has fewer than ten samples
    beyond it (a run too short to have a tail).
    """
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND - 1e-9:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; ``inf`` samples sort last."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * pct / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi or ordered[hi] == ordered[lo]:
        return ordered[lo]
    if math.isinf(ordered[hi]):
        return ordered[hi]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, sample_count)`` of the tail of ``values``."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct), len(values)


@dataclass
class Request:
    """One scheduled request: when it is due and what it sends."""

    due: float                      # seconds after the run starts
    method: str
    path: str
    body: Optional[dict] = None
    tag: str = ""                   # workload-defined kind ("topk", ...)
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What happened to one request (times are ``time.monotonic``)."""

    request: Request
    conn: int                       # sender/connection index
    seq: int                        # order on that connection
    due: float
    sent: float
    done: float
    status: int                     # HTTP status; 0 = transport failure
    payload: Optional[dict]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_from_due(self) -> float:
        return (self.done - self.due) if self.ok else math.inf

    @property
    def latency_from_send(self) -> float:
        return (self.done - self.sent) if self.ok else math.inf

    @property
    def late(self) -> float:
        return max(0.0, self.sent - self.due)


class Client:
    """One keep-alive connection; reconnects only after a failure."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str,
             body: Optional[dict] = None) -> Tuple[int, Optional[dict]]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {
            "Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, None
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return response.status, payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def fetch(port: int, path: str, host: str = "127.0.0.1") -> dict:
    """One GET on its own connection (snapshots, not measured)."""
    client = Client(host, port)
    try:
        status, payload = client.call("GET", path)
    finally:
        client.close()
    return payload if status == 200 and payload is not None else {}


def _send(client: Client, request: Request, conn: int, seq: int,
          due: Optional[float] = None) -> Outcome:
    """Send now; ``due=None`` (closed loop) means due when sent."""
    sent = time.monotonic()
    status, payload = client.call(request.method, request.path,
                                  request.body)
    return Outcome(request, conn, seq, sent if due is None else due, sent,
                   time.monotonic(), status, payload)


Prepare = Optional[Callable[[Request], Request]]
Observe = Optional[Callable[[Outcome], None]]


def closed_loop(host: str, port: int, schedule: Sequence[Request],
                seconds: float) -> Tuple[List[Outcome], float]:
    """Send ``schedule`` back to back on one connection for ``seconds``.

    Returns the outcomes and the wall time.
    """
    client = Client(host, port)
    outcomes: List[Outcome] = []
    start = time.monotonic()
    try:
        for seq, request in enumerate(schedule):
            if time.monotonic() - start >= seconds:
                break
            outcomes.append(_send(client, request, 0, seq))
    finally:
        client.close()
    return outcomes, time.monotonic() - start


def open_loop(host: str, port: int, schedule: Sequence[Request],
              seconds: float, connections: int, prepare: Prepare = None,
              observe: Observe = None) -> Tuple[List[Outcome], float]:
    """Send each request at ``start + request.due`` over ``connections``.

    Requests are taken in schedule order by whichever connection is free;
    a request whose connection is still busy when it falls due is sent
    late, and its latency still counts from the due time. Requests due
    after ``seconds`` are not sent. ``prepare`` may rewrite a request
    just before it is sent (e.g. to reference an id an earlier answer
    assigned) and ``observe`` sees each outcome as it arrives.
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes: List[Outcome] = []
    start = time.monotonic()

    def sender(conn: int) -> None:
        client = Client(host, port)
        seq = 0
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if (index >= len(schedule)
                            or schedule[index].due >= seconds):
                        return
                    cursor[0] += 1
                request = schedule[index]
                due = start + request.due
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                if prepare is not None:
                    request = prepare(request)
                outcome = _send(client, request, conn, seq, due)
                seq += 1
                if observe is not None:
                    observe(outcome)
                with lock:
                    outcomes.append(outcome)
        finally:
            client.close()

    threads = [threading.Thread(target=sender, args=(c,),
                                name=f"loadgen-{c}")
               for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda o: o.due)
    return outcomes, time.monotonic() - start


def poll_loop(host: str, port: int, path: str, stop: threading.Event,
              outcomes: List[Outcome], conn: int = 1) -> None:
    """Closed-loop GET ``path`` on one connection until ``stop`` is set,
    appending each outcome to ``outcomes`` as it arrives."""
    client = Client(host, port)
    request = Request(0.0, "GET", path, tag="poll")
    try:
        seq = 0
        while not stop.is_set():
            outcomes.append(_send(client, request, conn, seq))
            seq += 1
    finally:
        client.close()
