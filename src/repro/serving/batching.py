"""Futures-based micro-batcher for the encoder hot path.

The encoder is far cheaper per trajectory when it runs on a padded batch
than on single items (the recurrence is vectorised across the batch
dimension), but online clients arrive one request at a time. The
:class:`MicroBatcher` bridges the two: callers ``submit()`` individual
trajectories and immediately get a :class:`~concurrent.futures.Future`;
a single worker thread coalesces whatever is queued and resolves each
future with its own row of the batched encoder output.

Waiting for stragglers is contention-aware, with no extra knob: when the
queue is empty after the first item is taken and the previous dispatch
held a single item, the item dispatches at once, so a lone caller pays
no flush wait. Otherwise (items already queued, or the previous batch
coalesced two or more) the worker holds for up to ``max_wait_s`` after
the first item, dispatching early the moment ``max_batch_size`` items
are pending. ``max_wait_s`` is thus a ceiling that applies only under
contention; under load, items that arrive during one encode form the
next batch either way.

Failure isolation: when a batched call raises, the worker retries each
item of the batch individually so the exception lands only on the
future(s) whose input actually caused it; items that succeed alone still
get results.

Robustness contract (see DESIGN.md "Operational robustness"):

* ``submit`` accepts an optional monotonic **deadline**; an item whose
  deadline has already passed when its batch is assembled is failed with
  :class:`~repro.exceptions.DeadlineExceededError` instead of wasting
  encoder time on an answer nobody is waiting for.
* ``close`` never strands a caller: with ``drain=True`` (default) queued
  work is finished first, and anything still pending when the drain
  times out — or everything queued, with ``drain=False`` — is failed
  with a clear :class:`~repro.exceptions.ServiceClosedError` rather than
  leaving futures hanging forever. ``submit`` after close raises the
  same typed error.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..exceptions import DeadlineExceededError, ServiceClosedError

__all__ = ["MicroBatcher", "BatcherClosedError"]

_LOG = logging.getLogger(__name__)


#: A queued request: (item, future, deadline, monotonic submit time).
_Entry = Tuple[Any, "Future", Optional[float], float]


class BatcherClosedError(ServiceClosedError):
    """Raised when submitting to (or draining from) a closed batcher."""


def _fail_future(future: "Future", exc: BaseException) -> None:
    """Set an exception on a future unless it already completed/cancelled."""
    if not future.set_running_or_notify_cancel():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:  # pragma: no cover - lost benign race
        pass


class MicroBatcher:
    """Coalesce concurrent single-item requests into batched calls.

    Parameters
    ----------
    batch_fn:
        ``batch_fn(items) -> sequence`` mapping a list of N inputs to N
        per-item results, order-aligned. For the serving layer this is the
        padded batch encoder returning an (N, d) array.
    max_batch_size:
        Dispatch immediately once this many items are pending.
    max_wait_s:
        Under contention (see the module docstring), wait at most this
        long after the first item of a batch for more before dispatching
        a partial batch. 0 dispatches whatever is queued without waiting.
    on_batch:
        Optional ``on_batch(batch_size, seconds)`` observer, called after
        every dispatched batch (success or failure) — the metrics hook.
    on_wait:
        Optional ``on_wait(seconds)`` observer, called once per dispatched
        item with its queue wait (``submit`` to the start of its batch).
    """

    def __init__(self, batch_fn: Callable[[List[Any]], Sequence],
                 max_batch_size: int = 16, max_wait_s: float = 0.002,
                 on_batch: Optional[Callable[[int, float], None]] = None,
                 name: str = "micro-batcher",
                 on_wait: Optional[Callable[[float], None]] = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self._batch_fn = batch_fn
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self._on_batch = on_batch
        self._on_wait = on_wait
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._queue: "Deque[_Entry]" = deque()
        self._closed = False
        self._last_batch_size = 0
        self._batches_dispatched = 0
        self._items_dispatched = 0
        self._deadline_expired = 0
        self._worker = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------- client API

    def submit(self, item: Any,
               deadline: Optional[float] = None) -> "Future":
        """Enqueue one item; returns the future of its per-item result.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp; when
        the worker assembles the item's batch after that instant, the
        future fails with :class:`DeadlineExceededError` instead of being
        encoded.
        """
        future: "Future" = Future()
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher is closed")
            self._queue.append((item, future, deadline, time.monotonic()))
            self._has_work.notify()
        return future

    def __call__(self, item: Any, timeout: Optional[float] = None,
                 deadline: Optional[float] = None) -> Any:
        """Convenience: submit and block for the result."""
        return self.submit(item, deadline=deadline).result(timeout=timeout)

    def close(self, timeout: Optional[float] = 10.0,
              drain: bool = True) -> None:
        """Stop accepting work and shut the worker down.

        With ``drain=True`` queued items are still dispatched, then the
        worker is joined for up to ``timeout`` seconds; anything *still*
        queued afterwards (a wedged ``batch_fn``) is failed with
        :class:`ServiceClosedError`. With ``drain=False`` every queued
        future fails immediately — the fast path for emergency shutdown.
        Either way no caller is left waiting on a future forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending: "List[_Entry]" = []
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
            self._has_work.notify_all()
        for _, future, _, _ in pending:
            _fail_future(future, ServiceClosedError(
                "service shut down before this request was processed"))
        self._worker.join(timeout=timeout)
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
        for _, future, _, _ in leftovers:
            _fail_future(future, ServiceClosedError(
                "service shut down before this request was processed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats(self) -> dict:
        with self._lock:
            batches = self._batches_dispatched
            items = self._items_dispatched
            expired = self._deadline_expired
        return {
            "batches": batches,
            "items": items,
            "mean_batch_size": (items / batches) if batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "max_wait_s": self.max_wait_s,
            "deadline_expired": expired,
        }

    # ---------------------------------------------------------------- worker

    def _collect(self) -> "List[_Entry]":
        """Block until work exists, then gather one batch (deadline-aware).

        Holds for stragglers only under contention: when items are
        already queued behind the first, or the previous dispatch
        coalesced two or more. Returns an empty list only when the
        batcher is closed and fully drained.
        """
        with self._lock:
            while not self._queue and not self._closed:
                self._has_work.wait()
            if not self._queue:
                return []
            batch = [self._queue.popleft()]
            if not self._queue and self._last_batch_size <= 1:
                return batch
            deadline = time.monotonic() + self.max_wait_s
            while len(batch) < self.max_batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._has_work.wait(timeout=remaining)
                if not self._queue and (self._closed
                                        or time.monotonic() >= deadline):
                    break
            self._last_batch_size = len(batch)
            return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._dispatch(batch)

    def _dispatch(self, batch: "List[_Entry]") -> None:
        now = time.monotonic()
        expired = [(item, fut) for item, fut, dl, _ in batch
                   if dl is not None and now > dl]
        for _, fut in expired:
            _fail_future(fut, DeadlineExceededError(
                "request deadline expired before encoding started"))
        if expired:
            with self._lock:
                self._deadline_expired += len(expired)
        live = [(item, fut, submitted) for item, fut, dl, submitted in batch
                if not (dl is not None and now > dl)
                and fut.set_running_or_notify_cancel()]
        if not live:
            return
        start = time.monotonic()
        if self._on_wait is not None:
            for _, _, submitted in live:
                self._observe(self._on_wait, start - submitted)
        live = [(item, fut) for item, fut, _ in live]
        items = [item for item, _ in live]
        try:
            results = self._batch_fn(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(items)} items")
        except BaseException as exc:  # noqa: BLE001 — forwarded to futures
            self._resolve_individually(live, exc)
        else:
            for (_, fut), result in zip(live, results):
                try:
                    fut.set_result(result)
                except InvalidStateError:  # pragma: no cover - benign race
                    pass
        finally:
            elapsed = time.monotonic() - start
            with self._lock:
                self._batches_dispatched += 1
                self._items_dispatched += len(live)
            if self._on_batch is not None:
                self._observe(self._on_batch, len(live), elapsed)

    @staticmethod
    def _observe(observer: Callable, *args) -> None:
        try:
            observer(*args)
        except Exception:  # observer bugs must not kill the worker
            _LOG.exception("micro-batcher observer raised")

    def _resolve_individually(self, live: "List[Tuple[Any, Future]]",
                              batch_exc: BaseException) -> None:
        """Batched call failed: isolate the failure to the offending items."""
        if len(live) == 1:
            live[0][1].set_exception(batch_exc)
            return
        for item, fut in live:
            try:
                results = self._batch_fn([item])
                if len(results) != 1:
                    raise RuntimeError(
                        f"batch_fn returned {len(results)} results for 1 item")
            except BaseException as exc:  # noqa: BLE001
                fut.set_exception(exc)
            else:
                fut.set_result(results[0])
