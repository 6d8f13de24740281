"""Per-layer metrics of a traced run.

Inputs: the server's spans (see ``spans.py``), the client outcomes of the
same run, and ``/v1/stats`` (plus ``/v1/stream``) snapshots taken just
before and after it. Counters that live in the shard worker processes
(search, WAL) come from the snapshot deltas; everything else from spans.
Every workload reports every name in :data:`PER_LAYER`; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

import loadgen
import spans as span_lib

#: name -> unit, grouped by the module the numbers describe.
PER_LAYER: Dict[str, str] = {
    # serving.http
    "http.overhead_p50_ms": "ms", "http.overhead_tail_ms": "ms",
    # serving.service / serving.sharding coordinator
    "service.topk_p50_ms": "ms", "service.self_p50_ms": "ms",
    # serving.cache
    "cache.lookups": "count", "cache.hit_ratio": "ratio",
    # resilience.admission
    "admission.shed": "count",
    # serving.batching
    "batcher.wait_p50_ms": "ms", "batcher.wait_tail_ms": "ms",
    "batcher.batch_size_mean": "count", "batcher.padding_ratio": "ratio",
    # core.encoder + nn, batched embed
    "encoder.batch_p50_ms": "ms", "encoder.us_per_point": "us",
    "encoder.busy_share": "ratio",
    # core.encoder + nn, prefix fold
    "prefix.us_per_point": "us", "prefix.calls": "count",
    # core.store + core.backends + index.ann
    "search.p50_ms": "ms", "search.candidates_mean": "count",
    "store.upsert_p50_ms": "ms",
    # serving.sharding + serving.router
    "shard.scatter_p50_ms": "ms", "shard.search_busy_p50_ms": "ms",
    "shard.write_busy_p50_ms": "ms", "shard.pipe_p50_ms": "ms",
    "router.merge_p50_ms": "ms", "shard.partial_share": "ratio",
    # serving.wal
    "wal.appends": "count", "wal.fsyncs": "count", "wal.fsync_mean_ms": "ms",
    "wal.bytes_per_append": "bytes",
    # streaming.window
    "window.us_per_point": "us", "window.applied": "count",
    "window.buffered": "count", "window.duplicate": "count",
    "window.late": "count", "window.evicted_segments": "count",
    # streaming.ingest
    "ingest.call_p50_ms": "ms", "ingest.backlog_mean": "count",
    "ingest.degraded_share": "ratio",
    # the benchmark's own code: whether the run is valid
    "loadgen.late_tail_ms": "ms", "loadgen.poll_p50_ms": "ms",
    "trace.overhead_share": "ratio",
}

#: Client latency must equal layer self times + HTTP overhead within this.
DECOMPOSE_TOLERANCE = 0.05
#: Root spans of requests the load generator measures (not snapshots).
MEASURED_PATHS = ("/v1/topk", "/v1/insert", "/v1/delete", "/v1/ingest",
                  "/v1/stream")


def snapshot(port: int, workload: str) -> dict:
    out = {"stats": loadgen.fetch(port, "/v1/stats")}
    if workload == "ingest_stream":
        out["stream"] = loadgen.fetch(port, "/v1/stream")
    return out


def _p50(values: List[float]) -> float:
    return loadgen.percentile(values, 50) if values else 0.0


def _tail(values: List[float]) -> float:
    return loadgen.tail(values)[1] if values else 0.0


def _get(tree: Optional[dict], *path, default=0.0):
    for key in path:
        if not isinstance(tree, dict) or key not in tree:
            return default
        tree = tree[key]
    return tree


def _workers(stats: dict) -> List[dict]:
    workers = _get(stats, "store", "sharding", "workers", default={})
    return list(workers.values()) if isinstance(workers, dict) else []


def _search_counters(stats: dict) -> tuple:
    backends = [w.get("search", {}) for w in _workers(stats)] or [
        _get(stats, "store", "search_backend", default={})]
    return (sum(b.get("queries", 0) for b in backends),
            sum(b.get("candidates_scanned", 0) for b in backends))


def _wal_counters(snap: dict) -> Dict[str, float]:
    wals = [_get(w, "durability", "wal", default={}) or {}
            for w in _workers(snap["stats"])]
    if "stream" in snap:
        wals.append(snap["stream"].get("wal", {}))
    return {key: sum(w.get(key, 0) for w in wals)
            for key in ("appended", "fsyncs", "fsync_seconds", "bytes")}


def pair_requests(outcomes: List[loadgen.Outcome],
                  roots: List[tuple]) -> List[tuple]:
    """Match client requests to server root spans by connection and order.

    The server reads no request id. A root span with the same path that
    starts while a client connection's first request is outstanding (on
    the shared clock) marks that connection's server side, and the rest
    of the requests pair up in order on it. Only the start is compared:
    the handler may still be returning after the client has its answer.
    """
    by_conn: Dict[int, List[tuple]] = {}
    for root in sorted(roots, key=lambda s: s[4]):
        by_conn.setdefault(root[6]["conn"], []).append(root)
    clients: Dict[int, List[loadgen.Outcome]] = {}
    for outcome in sorted(outcomes, key=lambda o: o.sent):
        clients.setdefault(outcome.conn, []).append(outcome)
    pairs = []
    for sent in clients.values():
        first = sent[0]
        inside = [(root[4], key, index)
                  for key, server in by_conn.items()
                  for index, root in enumerate(server)
                  if first.sent <= root[4] <= first.done
                  and root[6]["path"] == first.request.path]
        if not inside:
            continue
        _, key, index = min(inside)
        server = by_conn.pop(key)[index:]
        pairs.extend((o, s) for o, s in zip(sent, server)
                     if o.request.path == s[6]["path"])
    return pairs


def per_layer(workload, run, untraced, trace: dict, before: dict,
              after: dict) -> tuple:
    """Returns ``(metrics, checks)`` for one traced run."""
    all_spans = [tuple(s) for s in trace["spans"]]
    start = min((o.sent for o in run.outcomes), default=0.0)
    end = max((o.done for o in run.outcomes), default=start)
    window = [s for s in all_spans if start <= s[4] <= end]
    by_name: Dict[str, List[tuple]] = {}
    for s in window:
        by_name.setdefault(s[3], []).append(s)
    self_time = span_lib.self_times(all_spans)
    children: Dict[int, List[int]] = {}
    for s in all_spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s[0])
    by_id = {s[0]: s for s in all_spans}

    def durations(name: str) -> List[float]:
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def ms(values: List[float]) -> List[float]:
        return [v * 1e3 for v in values]

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    checks: Dict[str, object] = {}

    # serving.http: client latency minus the service call it wraps.
    roots = [s for s in all_spans if s[3] == "http.request"
             and s[6]["path"] in MEASURED_PATHS]
    primary = {id(o) for o in workload.primary(run)}
    overhead, latency, accounted = [], [], []
    layer_self: Dict[str, List[float]] = {}
    for outcome, root in pair_requests(run.outcomes + run.polls, roots):
        if id(outcome) not in primary or not outcome.ok:
            continue
        service = [by_id[c] for c in children.get(root[0], ())
                   if by_id[c][3].startswith("service.")]
        if not service:
            continue
        client = outcome.done - outcome.sent
        overhead.append(client - (service[0][5] - service[0][4]))
        latency.append(client)
        subtree, todo = [], [service[0][0]]
        while todo:
            span_id = todo.pop()
            subtree.append(span_id)
            todo.extend(children.get(span_id, ()))
        accounted.append(sum(self_time[i] for i in subtree)
                         + overhead[-1])
        for span_id in subtree:
            layer_self.setdefault(by_id[span_id][3], []).append(
                self_time[span_id])
    m["http.overhead_p50_ms"] = _p50(ms(overhead))
    m["http.overhead_tail_ms"] = _tail(ms(overhead))
    checks["paired_requests"] = len(overhead)
    if latency:
        error = abs(_p50(accounted) - _p50(latency)) / _p50(latency)
        checks["decompose_error"] = round(error, 6)
        checks["decomposes"] = error <= DECOMPOSE_TOLERANCE
        # Mean self time per request, by span name.
        shares = {name: sum(values) / len(latency) * 1e3
                  for name, values in layer_self.items()}
        shares["http.overhead"] = statistics.mean(overhead) * 1e3
        checks["mean_self_ms"] = {k: round(v, 3) for k, v in
                                  sorted(shares.items(),
                                         key=lambda kv: -kv[1])}
        checks["largest_layer"] = max(shares, key=shares.get)
    else:
        checks["decomposes"] = False

    # serving.service / coordinator
    topk = by_name.get("service.top_k", [])
    m["service.topk_p50_ms"] = _p50(ms([s[5] - s[4] for s in topk]))
    m["service.self_p50_ms"] = _p50(ms([self_time[s[0]] for s in topk]))

    # serving.cache (single-process tier only) and admission.
    hits = _get(after["stats"], "cache", "hits") - _get(
        before["stats"], "cache", "hits")
    misses = _get(after["stats"], "cache", "misses") - _get(
        before["stats"], "cache", "misses")
    m["cache.lookups"] = hits + misses
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    shed = 0.0
    for path in (("stats", "resilience", "admission", "shed"),
                 ("stream", "admission", "shed")):
        shed += _get(after, *path) - _get(before, *path)
    m["admission.shed"] = shed

    # serving.batching + core.encoder (query-path batchers only).
    waits = durations("batcher.wait")
    m["batcher.wait_p50_ms"] = _p50(ms(waits))
    m["batcher.wait_tail_ms"] = _tail(ms(waits))
    batches = [b for b in trace["batches"] if start <= b["start"] <= end]
    if batches:
        busy = [b["end"] - b["start"] for b in batches]
        points = sum(b["points"] for b in batches)
        m["batcher.batch_size_mean"] = statistics.mean(
            b["size"] for b in batches)
        m["batcher.padding_ratio"] = points / max(
            1, sum(b["padded"] for b in batches))
        m["encoder.batch_p50_ms"] = _p50(ms(busy))
        m["encoder.us_per_point"] = sum(busy) / max(1, points) * 1e6
        m["encoder.busy_share"] = sum(busy) / max(1e-9, end - start)

    # core.encoder prefix fold (stream re-embedding).
    folds = by_name.get("prefix.extend", [])
    if folds:
        m["prefix.calls"] = len(folds)
        m["prefix.us_per_point"] = sum(s[5] - s[4] for s in folds) / max(
            1, sum(s[6]["points"] for s in folds)) * 1e6

    # core.store / backends / index.ann, and the shard pipes.
    calls = by_name.get("shard.call", [])
    search_calls = [s for s in calls if s[6]["op"] == "search"
                    and "busy" in s[6]]
    write_calls = [s for s in calls if s[6]["op"] in ("insert", "delete")
                   and "busy" in s[6]]
    if search_calls:
        m["search.p50_ms"] = _p50(ms([s[6]["busy"] for s in search_calls]))
        m["shard.search_busy_p50_ms"] = m["search.p50_ms"]
        m["shard.pipe_p50_ms"] = _p50(ms(
            [(s[5] - s[4]) - s[6]["busy"] for s in search_calls]))
        scatter: Dict[int, List[tuple]] = {}
        for s in search_calls:
            scatter.setdefault(s[2], []).append(s)
        m["shard.scatter_p50_ms"] = _p50(ms(
            [max(s[5] for s in group) - min(s[4] for s in group)
             for group in scatter.values()]))
    else:
        m["search.p50_ms"] = _p50(ms(durations("store.search")))
    m["shard.write_busy_p50_ms"] = _p50(ms(
        [s[6]["busy"] for s in write_calls]))
    m["router.merge_p50_ms"] = _p50(ms(durations("router.merge")))
    answered = [o for o in workload.primary(run)
                if o.ok and o.request.path == "/v1/topk"]
    if answered and calls:
        m["shard.partial_share"] = sum(
            bool(o.payload.get("partial")) for o in answered) / len(answered)
    queries = _search_counters(after["stats"])[0] - _search_counters(
        before["stats"])[0]
    scanned = _search_counters(after["stats"])[1] - _search_counters(
        before["stats"])[1]
    m["search.candidates_mean"] = scanned / queries if queries else 0.0
    m["store.upsert_p50_ms"] = _p50(ms(durations("store.upsert")))

    # serving.wal (worker and stream WALs, from counter deltas).
    wal_after, wal_before = _wal_counters(after), _wal_counters(before)
    delta = {k: wal_after[k] - wal_before[k] for k in wal_after}
    m["wal.appends"] = delta["appended"]
    m["wal.fsyncs"] = delta["fsyncs"]
    if delta["fsyncs"]:
        m["wal.fsync_mean_ms"] = delta["fsync_seconds"] / delta[
            "fsyncs"] * 1e3
    if delta["appended"]:
        m["wal.bytes_per_append"] = delta["bytes"] / delta["appended"]

    # streaming.window / streaming.ingest
    if "stream" in after:
        applies = by_name.get("window.apply", [])
        if applies:
            window_s = sum(durations("window.apply")) + sum(
                durations("window.classify"))
            m["window.us_per_point"] = window_s / len(applies) * 1e6
        counters = {"window.applied": "applied",
                    "window.duplicate": "duplicates",
                    "window.late": "late_dropped",
                    "window.evicted_segments": "segments_evicted"}
        for name, key in counters.items():
            m[name] = _get(after, "stream", "window", key) - _get(
                before, "stream", "window", key)
        m["window.buffered"] = _get(after, "stream", "window", "buffered")
        m["ingest.call_p50_ms"] = _p50(ms(durations("ingest.call")))
        polls = [p for p in run.polls if p.ok]
        if polls:
            m["ingest.backlog_mean"] = statistics.mean(
                p.payload["dirty_segments"] for p in polls)
            m["loadgen.poll_p50_ms"] = _p50(ms(
                [p.done - p.sent for p in polls]))
            m["ingest.degraded_share"] = sum(
                bool(p.payload["degraded"]) for p in polls) / len(polls)

    # the benchmark's own code
    m["loadgen.late_tail_ms"] = _tail(ms([o.late for o in run.outcomes]))
    traced_p50 = _p50([o.latency_from_due for o in workload.primary(run)])
    plain_p50 = _p50([o.latency_from_due
                      for o in workload.primary(untraced)])
    if plain_p50:
        m["trace.overhead_share"] = traced_p50 / plain_p50 - 1.0

    from workloads import metric

    metrics = {name: metric(value, PER_LAYER[name]) for name, value in
               m.items()}
    metrics["http.overhead_p50_ms"]["count"] = len(overhead)
    metrics["http.overhead_tail_ms"].update(
        count=len(overhead), pct=loadgen.tail_percentile(len(overhead)))
    return metrics, checks
