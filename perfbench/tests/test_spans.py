"""Span wrappers: install/remove, request hand-off, self time."""

import threading

import pytest

import spans


def test_self_time_subtracts_the_union_of_children():
    tree = [
        (1, None, 1, "root", 0.0, 10.0, {}),
        (2, 1, 1, "a", 1.0, 4.0, {}),
        (3, 1, 1, "b", 3.0, 6.0, {}),     # overlaps a: union is 1..6
        (4, 1, 1, "c", 9.0, 12.0, {}),    # runs past the parent: clipped
        (5, 2, 1, "a.child", 2.0, 3.0, {}),
    ]
    self_time = spans.self_times(tree)
    assert self_time[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time[2] == pytest.approx(2.0)
    assert self_time[5] == pytest.approx(1.0)
    assert self_time[4] == pytest.approx(3.0)


def test_nested_spans_share_a_request_id():
    recorder = spans.Recorder()
    with recorder.span("outer"):
        with recorder.span("inner", size=3):
            pass
    with recorder.span("next"):
        pass
    inner, outer, nxt = recorder.spans
    assert inner[1] == outer[0] and inner[2] == outer[2]
    assert inner[6] == {"size": 3}
    assert outer[1] is None and nxt[2] != outer[2]


def _targets():
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.encoder import TrajectoryEncoder
    from repro.core.store import EmbeddingStore
    from repro.serving import sharding
    from repro.serving.batching import MicroBatcher
    from repro.serving.service import SimilarityService
    from repro.streaming.window import SlidingWindowStore

    return [(SimilarityService, "top_k"), (MicroBatcher, "__init__"),
            (MicroBatcher, "submit"), (MicroBatcher, "__call__"),
            (EmbeddingStore, "query_embedding"),
            (TrajectoryEncoder, "extend_prefix"),
            (SlidingWindowStore, "apply"), (sharding, "merge_top_k"),
            (sharding._ShardHandle, "call"),
            (ThreadPoolExecutor, "submit")]


def test_install_then_uninstall_restores_every_original():
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in _targets()}
    patches = spans.install(spans.Recorder())
    try:
        changed = [key for key, fn in originals.items()
                   if key[0].__dict__[key[1]] is fn]
        assert not changed
    finally:
        spans.uninstall(patches)
    assert all(owner.__dict__[attr] is originals[(owner, attr)]
               for owner, attr in originals)


def test_batched_work_is_charged_to_the_submitting_request():
    from repro.datasets.trajectory import Trajectory
    from repro.serving.batching import MicroBatcher

    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        batcher = MicroBatcher(lambda items: [len(i.points) for i in items],
                               max_batch_size=4, max_wait_s=0.01,
                               name="test-batcher")
        try:
            results = {}

            def caller(n):
                with recorder.span("request"):
                    results[n] = batcher(Trajectory([[0.0, 0.0]] * n))

            threads = [threading.Thread(target=caller, args=(n,))
                       for n in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            batcher.close()
    finally:
        spans.uninstall(patches)
    assert results == {2: 2, 3: 3}
    by_id = {s[0]: s for s in recorder.spans}
    calls = [s for s in recorder.spans if s[3] == "batcher.call"]
    for name in ("batcher.wait", "encoder.batch"):
        children = [s for s in recorder.spans if s[3] == name]
        assert len(children) == 2
        for child in children:
            parent = by_id[child[1]]
            assert parent[3] == "batcher.call" and child[2] == parent[2]
            assert parent[4] <= child[4] <= child[5] <= parent[5]
    assert {c[2] for c in calls} == {
        s[2] for s in recorder.spans if s[3] == "request"}
    assert sum(b["size"] for b in recorder.batches) == 2
    assert sum(b["points"] for b in recorder.batches) == 5


def test_client_requests_pair_with_their_connections_server_spans():
    import layers
    import loadgen

    def outcome(conn, path, sent, done):
        return loadgen.Outcome(loadgen.Request(0.0, "GET", path), conn, 0,
                               sent, sent, done, 200, {})

    def root(span_id, conn, path, start, end):
        return (span_id, None, span_id, "http.request", start, end,
                {"path": path, "conn": conn})

    # A poller that started before the measured sender, interleaved.
    client = [outcome(1, "/poll", 0.0, 1.0), outcome(0, "/send", 0.5, 0.9),
              outcome(1, "/poll", 1.0, 2.0), outcome(0, "/send", 1.5, 1.9)]
    # The first send's handler returns after its client already has the
    # answer (0.95 > 0.9): pairing must still find it.
    server = [root(1, 77, "/poll", 0.1, 0.95), root(2, 42, "/send", 0.6,
                                                   0.95),
              root(3, 77, "/poll", 1.1, 1.9), root(4, 42, "/send", 1.6,
                                                   1.8)]
    pairs = layers.pair_requests(client, server)
    assert sorted((o.conn, o.sent, s[0]) for o, s in pairs) == [
        (0, 0.5, 2), (0, 1.5, 4), (1, 0.0, 1), (1, 1.0, 3)]
