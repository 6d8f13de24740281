"""Span recording for the traced run, from outside the program.

The traced server installs wrappers around the calls into each layer
(:func:`install`) before it builds the service, so no code under
``src/`` changes. Each wrapper records a span: name, start, end, parent
span and request id, all on ``time.monotonic`` (one clock for the server
and the load generator, which run on the same host). Spans stay in
memory and are written once, when the server exits.

Parent tracking is per thread. Two places hand work to another thread,
and the wrappers carry the request across them: the micro-batcher (the
submit wrapper remembers which request each item belongs to, and the
batch function wrapper records that item's queue wait and encode as
children of the request's span) and the sharded tier's scatter pool
(the executor ``submit`` wrapper runs the task under the caller's span).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span_id, parent_id, request_id, name, start, end, attrs)
Span = Tuple[int, Optional[int], int, str, float, float, dict]

#: The stream ingester's re-embed batcher; its items are segment ids, not
#: requests, so only its encoder calls are traced (as ``prefix.extend``).
STREAM_BATCHER = "stream-encoder"


class Recorder:
    """In-memory span sink shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.batches: List[dict] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, Tuple[Optional[int], int, float]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Tuple[int, int, dict]]:
        """``(span_id, request_id, attrs)`` of this thread's open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._span_ids)
        request_id = parent[1] if parent else next(self._request_ids)
        entry = (span_id, request_id, attrs)
        start = time.monotonic()
        stack.append(entry)
        try:
            yield attrs
        finally:
            stack.pop()
            self.spans.append((span_id, parent[0] if parent else None,
                               request_id, name, start, time.monotonic(),
                               attrs))

    @contextmanager
    def adopt(self, entry: Optional[Tuple[int, int, dict]]):
        """Run a block on this thread as if inside ``entry`` (a parent)."""
        if entry is None:
            yield
            return
        stack = self._stack()
        stack.append(entry)
        try:
            yield
        finally:
            stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], request_id: int, **attrs) -> None:
        self.spans.append((next(self._span_ids), parent, request_id, name,
                           start, end, attrs))

    # ---------------------------------------------- micro-batcher hand-off

    def submitted(self, item) -> None:
        entry = self.current()
        with self._lock:
            self._pending[id(item)] = (
                entry[0] if entry else None,
                entry[1] if entry else next(self._request_ids),
                time.monotonic())

    def wrap_batch_fn(self, batch_fn: Callable) -> Callable:
        @functools.wraps(batch_fn)
        def traced_batch(items):
            start = time.monotonic()
            try:
                return batch_fn(items)
            finally:
                end = time.monotonic()
                lengths = [len(getattr(item, "points", ())) for item in items]
                self.batches.append({
                    "start": start, "end": end, "size": len(items),
                    "points": sum(lengths),
                    "padded": len(items) * max(lengths, default=0)})
                for item in items:
                    with self._lock:
                        parent, request_id, submitted = self._pending.pop(
                            id(item), (None, 0, start))
                    self.record("batcher.wait", submitted, start, parent,
                                request_id)
                    self.record("encoder.batch", start, end, parent,
                                request_id, size=len(items))
        return traced_batch

    def dump(self) -> dict:
        return {"spans": list(self.spans), "batches": list(self.batches)}


def _wrap(recorder: Recorder, fn: Callable, name: str,
          attrs: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, **(attrs(args) if attrs else {})):
            return fn(*args, **kwargs)
    return wrapper


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def install(recorder: Recorder) -> list:
    """Wrap every traced layer boundary; returns the undo list.

    Must run before the service is built: the micro-batcher captures its
    batch function at construction, and the sharded tier forks its
    workers from whatever the classes look like then.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.encoder import TrajectoryEncoder
    from repro.core.store import EmbeddingStore
    from repro.serving import sharding
    from repro.serving.batching import MicroBatcher
    from repro.serving.service import SimilarityService
    from repro.serving.wal import ShardWAL
    from repro.streaming.ingest import StreamIngestor
    from repro.streaming.window import SlidingWindowStore

    patches: list = []
    plain = [
        (SimilarityService, "top_k", "service.top_k"),
        (SimilarityService, "insert", "service.insert"),
        (SimilarityService, "delete", "service.delete"),
        (SimilarityService, "stream_ingest", "service.stream_ingest"),
        (sharding.ShardedService, "top_k", "service.top_k"),
        (sharding.ShardedService, "insert", "service.insert"),
        (sharding.ShardedService, "delete", "service.delete"),
        (MicroBatcher, "__call__", "batcher.call"),
        (EmbeddingStore, "query_embedding", "store.search"),
        (EmbeddingStore, "upsert_embeddings", "store.upsert"),
        (StreamIngestor, "ingest", "ingest.call"),
        (SlidingWindowStore, "classify", "window.classify"),
        (SlidingWindowStore, "apply", "window.apply"),
        (ShardWAL, "append", "wal.append"),
    ]
    for owner, attr, name in plain:
        _patch(patches, owner, attr,
               _wrap(recorder, owner.__dict__[attr], name))
    _patch(patches, TrajectoryEncoder, "extend_prefix", _wrap(
        recorder, TrajectoryEncoder.extend_prefix, "prefix.extend",
        lambda args: {"points": int(len(args[2]))}))
    _patch(patches, sharding._ShardHandle, "call", _wrap(
        recorder, sharding._ShardHandle.call, "shard.call",
        lambda args: {"op": args[1], "shard": args[0].shard_id}))
    _patch(patches, sharding, "merge_top_k", _wrap(
        recorder, sharding.merge_top_k, "router.merge"))

    recv = sharding._ShardHandle._recv_locked

    @functools.wraps(recv)
    def traced_recv(self, *args, **kwargs):
        reply = recv(self, *args, **kwargs)
        entry = recorder.current()
        if entry is not None:
            entry[2]["busy"] = float(reply[3])
        return reply

    _patch(patches, sharding._ShardHandle, "_recv_locked", traced_recv)

    pool_submit = ThreadPoolExecutor.submit

    @functools.wraps(pool_submit)
    def traced_pool_submit(self, fn, *args, **kwargs):
        entry = recorder.current()

        def run(*a, **kw):
            with recorder.adopt(entry):
                return fn(*a, **kw)
        return pool_submit(self, run, *args, **kwargs)

    _patch(patches, ThreadPoolExecutor, "submit", traced_pool_submit)

    batcher_init = MicroBatcher.__init__
    batcher_submit = MicroBatcher.submit
    traced_batchers: set = set()

    @functools.wraps(batcher_init)
    def traced_init(self, batch_fn, *args, name: str = "micro-batcher",
                    **kwargs):
        if name != STREAM_BATCHER:
            batch_fn = recorder.wrap_batch_fn(batch_fn)
            traced_batchers.add(id(self))
        batcher_init(self, batch_fn, *args, name=name, **kwargs)

    @functools.wraps(batcher_submit)
    def traced_submit(self, item, *args, **kwargs):
        if id(self) in traced_batchers:
            recorder.submitted(item)
        return batcher_submit(self, item, *args, **kwargs)

    _patch(patches, MicroBatcher, "__init__", traced_init)
    _patch(patches, MicroBatcher, "submit", traced_submit)
    return patches


def install_http(recorder: Recorder, handler_class) -> list:
    """Wrap the HTTP handler's request entry points (root spans)."""
    patches: list = []
    for attr in ("do_GET", "do_POST"):
        _patch(patches, handler_class, attr, _wrap(
            recorder, handler_class.__dict__[attr], "http.request",
            lambda args: {"path": args[0].path, "conn": id(args[0])}))
    return patches


def uninstall(patches: list) -> None:
    """Undo :func:`install` / :func:`install_http` (last patch first)."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ------------------------------------------------------------------ analysis

def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span_id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out
