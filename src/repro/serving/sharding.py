"""Sharded scatter-gather serving tier: the forked-worker shard set.

Scales the in-process tier past one GIL by splitting the embedding store
across N worker *processes*, each owning one consistent-hash partition
(see :mod:`repro.core.partition`) with its own
:class:`~repro.core.backends.SearchBackend` and an optional encoder
replica. :class:`WorkerShards` implements the coordinator's shard-set
interface over them; :class:`ShardedService` is the coordinator
(:class:`~repro.serving.service.SimilarityService`) over that set, plus
the worker-only operations (``reload``, ``restart_shard``, ``ring``,
``shards``, ``shard_busy_seconds``).

* **Queries** encode once (through the coordinator's micro-batcher),
  fan the query *embedding* out to every shard in parallel, and merge
  per-shard top-k with the deterministic ``(distance, id)`` order
  (:func:`~repro.serving.router.merge_top_k`) — so a sharded answer is
  id-identical to the single-store exact scan.
* **Mutations** route to exactly one shard by hashing the trajectory id
  on the ring; the shard set owns the global id space.
* **Failures** are per-shard: each worker sits behind its own
  :class:`~repro.resilience.CircuitBreaker`, and a dead/slow/tripped
  shard drops out of the scatter — the query still answers from the
  surviving shards, flagged ``partial=True`` (and never cached) — until
  every shard is unavailable
  (:class:`~repro.exceptions.ShardUnavailableError`).
* **Reload** is zero-downtime and two-phase: ``prepare`` loads the new
  partition/bundle generation in every worker *alongside* the old one
  (requests keep answering from the old), then ``activate`` flips each
  worker and the coordinator's encoder atomically; any prepare failure
  aborts the whole reload and the old generation keeps serving.

Worker protocol (one ``multiprocessing`` pipe per shard, request serial
per worker): requests are ``(req_id, op, payload)`` tuples, replies are
``(req_id, status, result, busy_s)`` where ``busy_s`` is the worker-side
wall time spent on the request — the input to the critical-path
throughput model in ``benchmarks/bench_sharded_serving.py``. The parent
matches replies by ``req_id`` and silently drains stale replies left by
timed-out calls, so one slow request can never mis-pair a later one.
Workers are spawned with the ``fork`` start method **before** the
coordinator starts any threads (micro-batcher, scatter pool) — forking a
threaded process is undefined behaviour.

Fault injection: ``request_hooks={shard_id: hook}`` installs an object
whose ``trigger()`` runs in the worker before each request —
:class:`repro.testing.faults.KillWorkerOnce` slots in directly, which is
how the degraded-mode tests kill exactly one shard exactly once.
``wal_hooks={shard_id: hook}`` reaches deeper: the hook fires inside the
WAL append path (``after_write`` / ``before_fsync`` / ``after_fsync``),
which is how the crash-chaos tests kill a worker mid-group-commit.

Durability (``durable_dir=...``): each worker keeps a per-shard
write-ahead log (:mod:`repro.serving.wal`) and acknowledges a mutation
only after its record is fsynced, so ``restart_shard`` and a cold
coordinator start recover to an id-identical store (snapshot + WAL
replay) including the global ``next_id``. With
``config.replicas > 0`` each shard also runs warm-standby workers that
tail the primary's acked WAL; when a primary dies the shard set
*promotes* a replica (it catches up to the end of the log, repairs any
torn tail, and takes over the WAL for append) instead of degrading to a
partial answer, then respawns a replacement replica that rebuilds from
the shared snapshot+WAL. The old primary is always torn down before
promotion so the log never has two appenders.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from pathlib import Path
from typing import (Callable, ClassVar, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.partition import (HashRing, load_partition,
                              load_partition_manifest)
from ..core.store import EmbeddingStore
from ..datasets.trajectory import Trajectory
from ..exceptions import (ConfigurationError, CorruptArtifactError,
                          NotFittedError, PartialWriteError, ReloadError,
                          ReproError, ServiceClosedError,
                          ShardUnavailableError)
from ..resilience.breaker import CLOSED as _BREAKER_CLOSED
from ..resilience.breaker import CircuitBreaker
from .bundle import load_bundle_model
from .metrics import MetricsRegistry
from .router import group_by_shard, merge_top_k
from .service import ServingConfig, SimilarityService
from .wal import (OP_DELETE, OP_INSERT, ShardDurability, ShardWAL,
                  WALGapError, WALTailer)

PathLike = Union[str, Path]

__all__ = ["ShardedConfig", "ShardedService", "ShardRequestError",
           "WorkerShards"]

_LOG = logging.getLogger(__name__)

_BOOT_REQ_ID = 0  # the worker's unsolicited "I'm up" message


class ShardRequestError(ReproError):
    """A shard worker processed the request but raised while doing so.

    Transport-level failures (dead worker, timeout, open breaker) raise
    :class:`~repro.exceptions.ShardUnavailableError` instead and count
    against the shard's circuit breaker; this error does not — the
    worker is healthy, the request was bad.
    """


@dataclass
class ShardedConfig(ServingConfig):
    """Tunables of the sharded serving tier.

    Every :class:`~repro.serving.service.ServingConfig` field means the
    same here, with these tier defaults: the circuit breaker (encoder
    and each shard's) opens after 3 consecutive failures and stays open
    5 s, the result cache is off, and ``index`` is ``"exact"`` or
    ``"ivf"`` — each shard's local backend (``nlist=0`` auto-sizes per
    shard). The worker-only fields:

    Attributes
    ----------
    request_timeout_s:
        Per-shard call timeout: a shard that does not answer within this
        window is treated as unavailable for that request (and the
        failure counts toward its breaker).
    boot_timeout_s:
        How long to wait for a worker to load its partition at startup,
        restart, and reload-prepare.
    fsync_window_ms:
        Group-commit window for durable tiers: 0 fsyncs on every ack;
        a positive window batches fsyncs, trading up to that much ack
        latency for amortised disk flushes under concurrent writers.
    wal_segment_bytes:
        WAL log-rotation threshold per shard.
    replicas:
        Warm-standby workers per shard tailing the primary's acked WAL;
        requires ``durable_dir`` on the service. 0 disables replication.
    """

    INDEXES: ClassVar[Tuple[str, ...]] = ("exact", "ivf")

    cache_capacity: int = 0
    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    request_timeout_s: float = 30.0
    boot_timeout_s: float = 120.0
    fsync_window_ms: float = 0.0
    wal_segment_bytes: int = 64 << 20
    replicas: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.request_timeout_s <= 0:
            raise ConfigurationError("request_timeout_s must be positive")
        if self.boot_timeout_s <= 0:
            raise ConfigurationError("boot_timeout_s must be positive")
        if self.fsync_window_ms < 0:
            raise ConfigurationError("fsync_window_ms must be >= 0")
        if self.wal_segment_bytes < 4096:
            raise ConfigurationError("wal_segment_bytes must be >= 4096")
        if self.replicas < 0:
            raise ConfigurationError("replicas must be >= 0")


# --------------------------------------------------------------------- worker


def _backend_spec(boot: Dict) -> Tuple[str, Dict]:
    """(backend name, backend options) from a boot spec."""
    if boot.get("index") == "ivf":
        return "ivf", {"nlist": boot.get("nlist", 0),
                       "nprobe": boot.get("nprobe", 8)}
    return boot.get("index", "exact"), {}


def _shard_base_tag(boot: Dict, shard_id: int) -> str:
    """sha256 of the shard's partition file — the durability base tag.

    Snapshot + WAL state only composes with the exact partition bytes
    it was recorded against; a reload (new bytes, new tag) resets it.
    """
    manifest = load_partition_manifest(boot["partition_dir"])
    return str(manifest["shards"][shard_id]["sha256"])


def _apply_wal_record(store: EmbeddingStore, record) -> List[int]:
    """Idempotently apply one WAL record; returns the ids it touched.

    Replay-safe by construction: inserts skip ids already present,
    deletes skip ids already gone — so replaying a prefix that partially
    overlaps the snapshot (or a coordinator retry after failover) never
    double-applies.
    """
    if record.op == OP_INSERT:
        fresh = ~store.contains(record.ids)
        if not fresh.any():
            return []
        return store.add_embeddings(record.embeddings[fresh],
                                    ids=record.ids[fresh])
    present = store.contains(record.ids)
    if not present.any():
        return []
    touched = [int(i) for i in record.ids[present]]
    store.remove(touched)
    return touched


def _recover_durable(shard_id: int, boot: Dict, model, wal_hook,
                     prebuilt_store: Optional[EmbeddingStore] = None
                     ) -> Tuple[EmbeddingStore, Dict]:
    """Recover a durable shard: snapshot (or base partition) + WAL replay.

    Primaries open the WAL for append — repairing a torn tail — and
    replay every record past the snapshot's ``applied_lsn``; replicas
    attach a read-only tailer instead (they must never truncate or
    append the shared log). Returns ``(store, dur_state)`` where
    ``dur_state`` carries the durability handles the dispatch loop uses.
    """
    role = boot.get("role", "primary")
    base = _shard_base_tag(boot, shard_id)
    dur = ShardDurability(Path(boot["durable_dir"]) / f"shard-{shard_id:04d}",
                          base, read_only=(role == "replica"))
    backend, options = _backend_spec(boot)
    snapshot = dur.snapshot_path()
    if snapshot is not None:
        store = EmbeddingStore.load(snapshot, model=model, backend=backend,
                                    **options)
    elif prebuilt_store is not None:
        store = prebuilt_store
    else:
        store = load_partition(boot["partition_dir"], shard_id, model=model,
                               backend=backend, **options)
    applied = dur.applied_lsn
    if role == "replica":
        tailer = WALTailer(dur.directory, applied_lsn=applied)
        for record in tailer.poll():
            _apply_wal_record(store, record)
        return store, {"dur": dur, "wal": None, "tailer": tailer,
                       "applied_lsn": tailer.last_lsn, "role": role}
    wal, applied = _open_primary_wal(dur, boot, store, applied, wal_hook)
    return store, {"dur": dur, "wal": wal, "tailer": None,
                   "applied_lsn": applied, "role": role}


def _open_primary_wal(dur: ShardDurability, boot: Dict,
                      store: EmbeddingStore, applied: int,
                      wal_hook) -> Tuple[ShardWAL, int]:
    """Open the shard WAL for append and replay records past ``applied``.

    Opening for append repairs any torn tail; returns ``(wal, applied)``
    with ``applied`` advanced to the last replayed LSN.
    """
    wal = ShardWAL(dur.directory,
                   segment_bytes=boot.get("wal_segment_bytes", 64 << 20),
                   fsync_window_ms=boot.get("fsync_window_ms", 0.0),
                   hook=wal_hook)
    for record in wal.drain_recovered():
        if record.lsn > applied:
            _apply_wal_record(store, record)
            applied = record.lsn
    return wal, applied


def _load_generation(shard_id: int, boot: Dict, wal_hook=None,
                     attach_durability: bool = True) -> Dict:
    """Load one (partition, model) generation from a boot spec.

    ``boot`` keys: ``partition_dir`` (required), ``bundle_dir``
    (optional encoder replica — ``None`` gives a search-only worker),
    ``index``/``nlist``/``nprobe`` (per-shard backend), and for durable
    tiers ``durable_dir``/``fsync_window_ms``/``wal_segment_bytes``/
    ``role``. ``attach_durability=False`` loads the partition only —
    the reload *prepare* path, which must not touch the WAL the active
    generation still appends to.
    """
    model = None
    if boot.get("bundle_dir"):
        model, _ = load_bundle_model(boot["bundle_dir"])
    if boot.get("durable_dir") and attach_durability:
        store, dur_state = _recover_durable(shard_id, boot, model, wal_hook)
    else:
        backend, options = _backend_spec(boot)
        store = load_partition(boot["partition_dir"], shard_id, model=model,
                               backend=backend, **options)
        dur_state = None
    return {"store": store, "model": model, "boot": dict(boot),
            "dur": dur_state}


def _shard_worker_main(conn, shard_id: int, boot: Dict, hook,
                       wal_hook=None) -> None:
    """Entry point of one shard worker process.

    Serial request loop over the pipe: recv ``(req_id, op, payload)``,
    answer ``(req_id, status, result, busy_s)``. The first message is
    unsolicited (req_id 0): a boot report, or the boot error if the
    partition/bundle failed to load. ``hook`` (when given) is triggered
    before each request — the fault-injection seam; ``wal_hook`` fires
    inside the WAL append path (crash-chaos seam).
    """
    try:
        active = _load_generation(shard_id, boot, wal_hook=wal_hook)
    except Exception as exc:
        try:
            conn.send((_BOOT_REQ_ID, "error",
                       f"{type(exc).__name__}: {exc}", 0.0))
        finally:
            conn.close()
        return
    staged: Optional[Dict] = None
    generation = 0
    boot_report = {"shard": shard_id, "pid": os.getpid(),
                   "count": len(active["store"])}
    if active["dur"] is not None:
        boot_report.update({
            "role": active["dur"]["role"],
            "applied_lsn": active["dur"]["applied_lsn"],
            "next_id": active["store"].next_id})
    conn.send((_BOOT_REQ_ID, "ok", boot_report, 0.0))

    def require_primary(op: str) -> None:
        dur = active["dur"]
        if dur is not None and dur["role"] != "primary":
            raise ValueError(
                f"shard {shard_id} replica refuses {op!r}: replicas are "
                f"read-only tailers until promoted")

    def log_mutation(opcode: int, ids, embeddings=None) -> None:
        """WAL-first: the record is durable before the store mutates."""
        dur = active["dur"]
        if dur is None:
            return
        dur["applied_lsn"] = dur["wal"].append(opcode, ids,
                                               embeddings=embeddings)

    def catch_up() -> Dict:
        """Replica: apply newly acked primary records; rebuild on gap."""
        nonlocal active
        dur = active["dur"]
        if dur is None or dur["role"] != "replica":
            raise ValueError(f"shard {shard_id} is not a replica")
        try:
            records = dur["tailer"].poll()
        except WALGapError:
            # The primary truncated past our cursor (snapshot+truncate
            # while we lagged): rebuild from the shared snapshot.
            store, dur_state = _recover_durable(
                shard_id, active["boot"], active["model"], None)
            active = {**active, "store": store, "dur": dur_state}
            return {"applied_lsn": dur_state["applied_lsn"],
                    "count": len(store), "rebuilt": True}
        for record in records:
            _apply_wal_record(active["store"], record)
        dur["applied_lsn"] = dur["tailer"].last_lsn
        return {"applied_lsn": dur["applied_lsn"],
                "count": len(active["store"]), "rebuilt": False}

    def promote() -> Dict:
        """Replica -> primary: drain the log tail, take over for append.

        The coordinator guarantees the old primary is dead before this
        runs, so opening the WAL for append (which repairs a torn tail)
        is safe — there is exactly one appender per shard log.
        """
        nonlocal active
        dur = active["dur"]
        if dur is None:
            raise ValueError(f"shard {shard_id} is not durable")
        if dur["role"] == "primary":
            return {"count": len(active["store"]),
                    "next_id": active["store"].next_id,
                    "applied_lsn": dur["applied_lsn"]}
        boot_p = {**active["boot"], "role": "primary"}
        try:
            for record in dur["tailer"].poll():
                _apply_wal_record(active["store"], record)
            applied = dur["tailer"].last_lsn
        except WALGapError:
            store, dur_state = _recover_durable(
                shard_id, boot_p, active["model"], wal_hook)
            active = {**active, "boot": boot_p, "store": store,
                      "dur": dur_state}
            return {"count": len(store), "next_id": store.next_id,
                    "applied_lsn": dur_state["applied_lsn"]}
        # Replay whatever the tailer had not seen yet (normally nothing).
        wal, applied = _open_primary_wal(dur["dur"], boot_p, active["store"],
                                         applied, wal_hook)
        base = dur["dur"]
        base.read_only = False
        active = {**active, "boot": boot_p,
                  "dur": {"dur": base, "wal": wal, "tailer": None,
                          "applied_lsn": applied, "role": "primary"}}
        return {"count": len(active["store"]),
                "next_id": active["store"].next_id,
                "applied_lsn": applied}

    def dispatch(op: str, payload):
        nonlocal active, staged, generation
        store = active["store"]
        dur = active["dur"]
        if op == "ping":
            report = {"shard": shard_id, "pid": os.getpid(),
                      "count": len(store), "generation": generation}
            if dur is not None:
                report.update({"role": dur["role"],
                               "applied_lsn": dur["applied_lsn"],
                               "next_id": store.next_id})
            return report
        if op == "search":
            embedding, k = payload
            if len(store) == 0:
                return np.zeros(0, dtype=np.int64), np.zeros(0)
            return store.query_embedding(embedding, k)
        if op == "insert":
            require_primary(op)
            ids, kind, data = payload
            if kind == "embeddings":
                vectors = np.asarray(data)
            else:  # trajectories: encode on the worker's model replica
                model = active["model"]
                if model is None:
                    raise NotFittedError(
                        "shard has no encoder replica (search-only); "
                        "send embeddings")
                vectors = model.embed([Trajectory(p) for p in data])
            id_arr = np.asarray(ids, dtype=np.int64)
            fresh = ~store.contains(id_arr)  # idempotent retry: skip dupes
            if fresh.any():
                log_mutation(OP_INSERT, id_arr[fresh],
                             np.asarray(vectors)[fresh])
                store.add_embeddings(np.asarray(vectors)[fresh],
                                     ids=id_arr[fresh])
            return {"applied": [int(i) for i in id_arr],
                    "count": int(fresh.sum())}
        if op == "delete":
            require_primary(op)
            id_arr = np.unique(np.asarray(list(payload), dtype=np.int64))
            present = store.contains(id_arr)
            touched = [int(i) for i in id_arr[present]]
            if touched:
                log_mutation(OP_DELETE, id_arr[present])
                store.remove(touched)
            return {"removed": len(touched), "ids": touched}
        if op == "compact":
            require_primary(op)
            compact = getattr(store.backend, "compact", None)
            compacted = False
            if compact is not None:
                compact()
                compacted = True
            if dur is None:
                return compacted
            dur["dur"].commit_snapshot(
                store.save, count=len(store), next_id=store.next_id,
                applied_lsn=dur["applied_lsn"], wal=dur["wal"])
            return {"compacted": compacted,
                    "snapshot_generation": dur["dur"].generation}
        if op == "catch_up":
            return catch_up()
        if op == "promote":
            return promote()
        if op == "ids":
            return sorted(int(i) for i in store.ids)
        if op == "stats":
            report = {"shard": shard_id, "pid": os.getpid(),
                      "count": len(store), "generation": generation,
                      "staged": None if staged is None
                      else len(staged["store"]),
                      "search": store.search_stats()}
            if dur is not None:
                report["durability"] = {
                    "role": dur["role"],
                    "applied_lsn": dur["applied_lsn"],
                    "snapshot_generation": dur["dur"].generation,
                    "wal": (None if dur["wal"] is None
                            else dur["wal"].stats())}
            return report
        if op == "prepare":
            # Load the new generation's partition only: the active
            # generation still owns the WAL, and a second appender (or a
            # premature base-tag reset) would corrupt it. Durability
            # re-attaches at activation.
            staged = _load_generation(shard_id, payload,
                                      attach_durability=False)
            return {"count": len(staged["store"])}
        if op == "activate":
            if staged is None:
                raise ReloadError("activate without a prepared generation")
            if dur is not None and dur["wal"] is not None:
                dur["wal"].close()
            new = staged
            staged = None
            if new["boot"].get("durable_dir"):
                store2, dur_state = _recover_durable(
                    shard_id, new["boot"], new["model"], wal_hook,
                    prebuilt_store=new["store"])
                new = {**new, "store": store2, "dur": dur_state}
            active = new
            generation += 1
            return {"generation": generation, "count": len(active["store"])}
        if op == "abort":
            had = staged is not None
            staged = None
            return had
        if op == "shutdown":
            return "bye"
        raise ValueError(f"unknown op {op!r}")

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        req_id, op, payload = request
        # CPU time, not wall: when shards outnumber cores the workers
        # time-slice, and wall time would book a neighbour's quantum as
        # this shard's work — poisoning the bench's critical-path
        # projection. The worker is single-threaded, so process CPU
        # time is exactly this request's compute.
        start = time.process_time()
        try:
            if hook is not None:
                hook.trigger()
            status, result = "ok", dispatch(op, payload)
        except Exception as exc:
            status, result = "error", f"{type(exc).__name__}: {exc}"
        busy = time.process_time() - start
        try:
            conn.send((req_id, status, result, busy))
        except (BrokenPipeError, OSError):
            break
        if op == "shutdown" and status == "ok":
            break
    dur = active.get("dur")
    if dur is not None and dur.get("wal") is not None:
        try:
            dur["wal"].close()
        except OSError:
            _LOG.exception("shard %d: WAL close failed on exit", shard_id)
    conn.close()


# --------------------------------------------------------------- parent side


class _ShardHandle:
    """Parent-side proxy for one shard worker: pipe + process + breaker.

    Thread-safe: ``call`` serialises requests to the worker under the
    handle lock (the worker itself is a serial loop), tracks the
    worker's cumulative busy time, and converts transport failures
    (dead worker, timeout) into
    :class:`~repro.exceptions.ShardUnavailableError` while counting
    them against the shard's circuit breaker.
    """

    def __init__(self, shard_id: int, boot: Dict, hook,
                 failure_threshold: int, reset_timeout_s: float,
                 boot_timeout_s: float,
                 ctx: Optional[multiprocessing.context.BaseContext] = None,
                 wal_hook=None):
        self.shard_id = shard_id
        self._boot = dict(boot)
        self._hook = hook
        self._wal_hook = wal_hook
        self.boot_info: Dict = {}
        self._failure_threshold = failure_threshold
        self._reset_timeout_s = reset_timeout_s
        self._boot_timeout_s = boot_timeout_s
        self._ctx = ctx or multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self.breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                      reset_timeout_s=reset_timeout_s)
        self._conn = None
        self._proc = None
        self._req_seq = _BOOT_REQ_ID
        self._requests = 0
        self._failures = 0
        self._busy_s = 0.0
        self._spawn_locked()

    # -------------------------------------------------------------- lifecycle

    def _spawn_locked(self) -> None:
        """Fork the worker and wait for its boot report.

        Caller must hold ``self._lock`` (or be ``__init__``, before the
        handle is shared).
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self.shard_id, self._boot, self._hook,
                  self._wal_hook),
            name=f"repro-shard-{self.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        self._conn, self._proc = parent_conn, proc
        self._req_seq = _BOOT_REQ_ID
        reply = self._recv_locked(
            time.monotonic() + self._boot_timeout_s, _BOOT_REQ_ID)
        if reply[1] != "ok":
            self._teardown_locked()
            raise ShardUnavailableError(
                f"shard {self.shard_id} failed to boot: {reply[2]}")
        self.boot_info = reply[2] if isinstance(reply[2], dict) else {}

    def _teardown_locked(self) -> None:
        """Close the pipe and reap the process. Caller must hold
        ``self._lock``."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._conn = None
        self._proc = None

    def restart(self) -> None:
        """Respawn the worker from its current boot spec.

        An explicit operator action (tests, ``shard-tool``, admin): the
        circuit breaker is replaced by a fresh closed one, so the first
        request after a successful restart goes straight through instead
        of waiting out the open window.
        """
        with self._lock:
            self._teardown_locked()
            self._spawn_locked()
            self.breaker = CircuitBreaker(
                failure_threshold=self._failure_threshold,
                reset_timeout_s=self._reset_timeout_s)

    def close(self) -> None:
        """Best-effort graceful shutdown, then teardown."""
        with self._lock:
            if self._conn is not None and self._proc is not None \
                    and self._proc.is_alive():
                try:
                    self._req_seq += 1
                    self._conn.send((self._req_seq, "shutdown", None))
                    self._recv_locked(time.monotonic() + 2.0, self._req_seq)
                except (ShardUnavailableError, OSError):
                    pass  # dying worker: terminate below either way
            self._teardown_locked()

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._proc is not None and self._proc.is_alive()

    # --------------------------------------------------------------- requests

    def _recv_locked(self, deadline: float, want_req_id: int):
        """Wait for the reply to ``want_req_id``, draining stale replies.

        Caller must hold ``self._lock``. Raises
        :class:`ShardUnavailableError` on timeout or a dead worker
        (without touching the breaker — the caller decides).
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} did not answer in time")
            try:
                ready = _mp_wait([self._conn, self._proc.sentinel],
                                 timeout=remaining)
                if self._conn not in ready:
                    if self._proc.sentinel in ready:
                        raise EOFError("worker process died")
                    continue  # timed out this round; loop re-checks
                reply = self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} worker died: {exc}") from exc
            if reply[0] < want_req_id:
                continue  # stale reply from a timed-out earlier call
            return reply

    def call(self, op: str, payload, timeout: Optional[float] = None):
        """One request/reply round-trip with the worker.

        Raises :class:`ShardUnavailableError` when the worker is down,
        its breaker is open, or the reply misses ``timeout`` — those
        count as breaker failures. A worker-side exception raises
        :class:`ShardRequestError` and does *not* trip the breaker.
        """
        with self._lock:
            if self._conn is None or self._proc is None:
                raise ShardUnavailableError(
                    f"shard {self.shard_id} is down")
            if not self.breaker.allow():
                raise ShardUnavailableError(
                    f"shard {self.shard_id} circuit breaker is open")
            self._req_seq += 1
            req_id = self._req_seq
            deadline = time.monotonic() + (timeout if timeout is not None
                                           else 3600.0)
            try:
                self._conn.send((req_id, op, payload))
                reply = self._recv_locked(deadline, req_id)
            except ShardUnavailableError:
                self._failures += 1
                self.breaker.record_failure()
                if self._proc is not None and not self._proc.is_alive():
                    self._teardown_locked()
                raise
            except (BrokenPipeError, OSError) as exc:
                self._failures += 1
                self.breaker.record_failure()
                self._teardown_locked()
                raise ShardUnavailableError(
                    f"shard {self.shard_id} pipe broke: {exc}") from exc
            _, status, result, busy = reply
            self._requests += 1
            self._busy_s += float(busy)
            self.breaker.record_success()
        if status != "ok":
            raise ShardRequestError(f"shard {self.shard_id}: {result}")
        return result

    def stats(self) -> Dict:
        with self._lock:
            return {"shard": self.shard_id,
                    "alive": (self._proc is not None
                              and self._proc.is_alive()),
                    "requests": self._requests,
                    "transport_failures": self._failures,
                    "busy_seconds": self._busy_s,
                    "breaker": self.breaker.stats()}


class WorkerShards:
    """The forked-worker shard set: one worker process per partition.

    The shard-set interface of
    :class:`~repro.serving.service.InProcessShards` over
    :class:`_ShardHandle` pipes. Owns the global id space and the row
    count, and the tier's own metrics; ``on_change`` runs after a
    replica promotion so the coordinator can drop cached answers.
    """

    def __init__(self, partition_dir: PathLike,
                 bundle_dir: Optional[PathLike], config: ShardedConfig,
                 request_hooks: Optional[Dict] = None,
                 durable_dir: Optional[PathLike] = None,
                 wal_hooks: Optional[Dict] = None):
        self.config = config
        self.partition_dir = Path(partition_dir)
        self.bundle_dir = None if bundle_dir is None else Path(bundle_dir)
        self.durable_dir = None if durable_dir is None else Path(durable_dir)
        if config.replicas > 0 and self.durable_dir is None:
            raise ConfigurationError(
                "replicas require durable_dir: a standby tails the "
                "primary's WAL, which only exists on a durable tier")
        manifest = load_partition_manifest(self.partition_dir)
        self.num_shards = int(manifest["num_shards"])
        self.dim = int(manifest["embedding_dim"])
        self.ring = HashRing(self.num_shards, vnodes=int(manifest["vnodes"]))
        hooks = dict(request_hooks or {})
        self._wal_hooks = dict(wal_hooks or {})
        boot = self._boot_spec(self.partition_dir, self.bundle_dir)
        # Workers MUST fork before any coordinator thread exists
        # (micro-batcher, scatter pool): forking a threaded process can
        # deadlock the child on locks held by threads that don't exist
        # there.
        self._ctx = multiprocessing.get_context("fork")
        self._shards: List[_ShardHandle] = []
        self._replicas: Dict[int, List[_ShardHandle]] = {
            s: [] for s in range(self.num_shards)}
        try:
            for shard_id in range(self.num_shards):
                self._shards.append(_ShardHandle(
                    shard_id, boot, hooks.get(shard_id),
                    config.breaker_failure_threshold,
                    config.breaker_reset_s, config.boot_timeout_s,
                    ctx=self._ctx, wal_hook=self._wal_hooks.get(shard_id)))
            for shard_id in range(self.num_shards):
                for _ in range(config.replicas):
                    self._replicas[shard_id].append(
                        self._spawn_replica_handle(shard_id))
        except Exception:
            for handle in self._all_handles():
                handle.close()
            raise

        self.on_change: Callable[[], object] = lambda: None
        self._lock = threading.Lock()
        self._next_id = int(manifest["next_id"])
        self._count = int(manifest["total_count"])
        self._closed = False
        self._failover_lock = threading.Lock()

        self.registry = reg = MetricsRegistry()
        self._m_partial = reg.counter(
            "repro_partial_answers_total",
            "Top-k answers missing at least one shard.")
        self._m_shard_requests = reg.counter(
            "repro_shard_requests_total", "Per-shard requests issued.")
        self._m_shard_failures = reg.counter(
            "repro_shard_failures_total",
            "Per-shard transport failures (dead worker, timeout).")
        self._m_reloads = reg.counter(
            "repro_reloads_total", "Successful generation flips.")
        self._h_scatter = reg.histogram(
            "repro_scatter_seconds",
            "Fan-out + merge time per top-k (excludes encoding).")
        self._m_failovers = reg.counter(
            "repro_failovers_total",
            "Replica promotions after a primary failure.")
        self._g_breaker = reg.gauge(
            "repro_shard_breaker_open",
            "1 when the shard's circuit breaker is open/half-open.")
        self._g_fsync = reg.gauge(
            "repro_wal_fsync_seconds",
            "Duration of the shard's most recent WAL fsync.")

        self._pool = ThreadPoolExecutor(
            max_workers=max(2, self.num_shards),
            thread_name_prefix="repro-scatter")
        if self.durable_dir is not None:
            # WAL replay may have advanced shards past the partition
            # manifest's id space; adopt the workers' recovered state.
            self._resync_id_space()

    # ---------------------------------------------------- durability plumbing

    def _boot_spec(self, partition_dir: Path,
                   bundle_dir: Optional[Path]) -> Dict:
        """The boot dict every worker (primary and replica) forks with."""
        return {"partition_dir": str(partition_dir),
                "bundle_dir": None if bundle_dir is None else str(bundle_dir),
                "index": self.config.index, "nlist": self.config.nlist,
                "nprobe": self.config.nprobe,
                "durable_dir": (None if self.durable_dir is None
                                else str(self.durable_dir)),
                "fsync_window_ms": self.config.fsync_window_ms,
                "wal_segment_bytes": self.config.wal_segment_bytes,
                "role": "primary"}

    def _all_handles(self) -> List[_ShardHandle]:
        # Runs without _failover_lock on purpose: it is also the cleanup
        # path of __init__, which can fail before that lock exists.
        # Promotion swaps list slots atomically (CPython) and handles
        # close idempotently, so a stale snapshot here is harmless.
        # repro: disable=lockset
        handles = list(self._shards)
        for standby in self._replicas.values():
            handles.extend(standby)
        return handles

    def _spawn_replica_handle(self, shard_id: int) -> _ShardHandle:
        """Fork one warm-standby worker for ``shard_id``.

        Safe to call after coordinator threads exist *only* because
        replica workers re-exec nothing and take no coordinator locks —
        but the initial fleet is still forked before any thread starts;
        post-thread spawns reuse the same (fork) path the existing
        ``restart_shard`` admin action already exercises.
        """
        boot = {**self._boot_spec(self.partition_dir, self.bundle_dir),
                "role": "replica"}
        return _ShardHandle(
            shard_id, boot, None,
            self.config.breaker_failure_threshold,
            self.config.breaker_reset_s,
            self.config.boot_timeout_s, ctx=self._ctx)

    def _resync_id_space(self) -> None:
        """Adopt recovered per-shard state into the id space and count.

        After WAL replay a shard may hold rows (and a ``next_id``
        high-water mark) the partition manifest has never heard of; the
        global id space must start past every shard's recovered ids or a
        fresh insert would collide with a recovered one.
        """
        counts: List[int] = []
        next_ids: List[int] = []
        for handle in self._shards:
            try:
                info = handle.call("ping", None, self.config.boot_timeout_s)
            except (ShardUnavailableError, ShardRequestError) as exc:
                _LOG.warning("id-space resync skipped shard %d: %s",
                             handle.shard_id, exc)
                continue
            counts.append(int(info.get("count", 0)))
            if "next_id" in info:
                next_ids.append(int(info["next_id"]))
        with self._lock:
            self._next_id = max([self._next_id] + next_ids)
            if len(counts) == self.num_shards:
                self._count = sum(counts)

    def _tail_replicas(self, shard_id: int) -> None:
        """Nudge the shard's standbys to apply newly acked WAL records."""
        for replica in self._replicas.get(shard_id, ()):
            try:
                replica.call("catch_up", None, self.config.request_timeout_s)
            except (ShardUnavailableError, ShardRequestError) as exc:
                _LOG.warning("replica catch-up failed on shard %d: %s",
                             shard_id, exc)

    def _promote(self, shard_id: int, failed: _ShardHandle) -> None:
        """Promote a standby to primary after the primary failed.

        Serialised under ``_failover_lock``; racing scatter legs that
        all saw the same dead primary are detected by handle identity —
        promotion swaps the handle, so a ``failed`` that is no longer
        installed means another leg already promoted. (Liveness checks
        race here: right after SIGKILL ``Process.is_alive()`` can still
        report True, and one failure leaves the breaker closed.) The old
        primary's handle is closed (worker terminated) *before* the
        standby takes over the WAL so the log never has two appenders.
        """
        with self._failover_lock:
            current = self._shards[shard_id]
            if current is not failed:
                return  # another caller already promoted
            standbys = self._replicas.get(shard_id, [])
            if not standbys:
                raise ShardUnavailableError(
                    f"shard {shard_id} is down and has no replica")
            current.close()
            replica = standbys.pop(0)
            try:
                info = replica.call("promote", None,
                                    self.config.boot_timeout_s)
            except (ShardUnavailableError, ShardRequestError) as exc:
                replica.close()
                raise ShardUnavailableError(
                    f"shard {shard_id}: replica promotion failed: "
                    f"{exc}") from exc
            replica._boot["role"] = "primary"
            replica._hook = current._hook
            self._shards[shard_id] = replica
            self._m_failovers.inc()
            with self._lock:
                self._next_id = max(self._next_id,
                                    int(info.get("next_id", 0)))
            self.on_change()
            _LOG.warning(
                "shard %d: promoted replica (count=%d, applied_lsn=%d)",
                shard_id, info.get("count", -1), info.get("applied_lsn", -1))
            try:
                standbys.append(self._spawn_replica_handle(shard_id))
            except (ShardUnavailableError, OSError) as exc:
                _LOG.warning("shard %d: could not respawn a replacement "
                             "replica: %s", shard_id, exc)

    def _shard_call(self, shard_id: int, op: str, payload,
                    timeout: Optional[float]):
        """One shard request with transparent failover.

        On a transport failure the shard set promotes a standby (when
        one exists) and retries the request exactly once — callers see a
        complete answer instead of a partial/failed one. Mutation retry
        is safe because shard mutations are idempotent by id.
        """
        handle = self._shards[shard_id]
        try:
            return handle.call(op, payload, timeout)
        except ShardUnavailableError:
            if not self._replicas.get(shard_id):
                raise
            self._promote(shard_id, handle)
            return self._shards[shard_id].call(op, payload, timeout)

    # --------------------------------------------------------------- scatter

    def _call_timeout(self, deadline: Optional[float]) -> float:
        limit = self.config.request_timeout_s
        if deadline is None:
            return limit
        return max(0.0, min(limit, deadline - time.monotonic()))

    def _scatter(self, op: str, payload, deadline: Optional[float],
                 shard_ids: Optional[Sequence[int]] = None
                 ) -> "Tuple[Dict[int, object], List[int]]":
        """Fan one request to shards in parallel; returns (results, failed).

        ``results`` maps shard id -> worker result for every shard that
        answered; ``failed`` lists shards that were unavailable
        (transport failures only — a worker-side exception propagates as
        :class:`ShardRequestError`)."""
        # Unlocked fast-fail: _closed flips once, under _lock, in close();
        # a scatter racing the flip either errors here or fails on the
        # closed worker pipes — both surface ServiceClosedError. Taking
        # _lock on every scatter would serialise the hot path for a
        # shutdown-only check.
        # repro: disable=lockset
        if self._closed:
            raise ServiceClosedError("sharded service is closed")
        targets = (range(self.num_shards) if shard_ids is None
                   else list(shard_ids))
        timeout = self._call_timeout(deadline)
        futures = {s: self._pool.submit(self._shard_call, s, op, payload,
                                        timeout)
                   for s in targets}
        results: Dict[int, object] = {}
        failed: List[int] = []
        error: Optional[ShardRequestError] = None
        for s, fut in futures.items():
            self._m_shard_requests.inc()
            try:
                results[s] = fut.result()
            except ShardUnavailableError:
                self._m_shard_failures.inc()
                failed.append(s)
            except ShardRequestError as exc:
                error = exc
        if error is not None:
            raise error
        return results, failed

    # ------------------------------------------------------ shard-set surface

    def search(self, embedding: np.ndarray, k: int,
               deadline: Optional[float]
               ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Scatter to every shard, merge by ``(distance, id)``."""
        start = time.monotonic()
        results, failed = self._scatter("search", (embedding, k), deadline)
        if not results:
            raise ShardUnavailableError(
                f"all {self.num_shards} shards unavailable")
        ids, distances = merge_top_k(list(results.values()), k)
        self._h_scatter.observe(time.monotonic() - start)
        if failed:
            self._m_partial.inc()
            _LOG.warning("partial top-k: shards %s unavailable", failed)
        return ids, distances, bool(failed)

    def insert(self, embeddings: np.ndarray,
               deadline: Optional[float]) -> List[int]:
        """Assign the next ids and route each row to its owning shard.

        Rows owned by an unavailable shard raise
        :class:`~repro.exceptions.PartialWriteError` after the live
        shards applied theirs; re-sent ids no-op at the shard, so the
        caller can retry the whole batch.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[1] != self.dim:
            raise ValueError(
                f"expected embeddings of shape (n, {self.dim}), got "
                f"{embeddings.shape}")
        if embeddings.shape[0] == 0:
            return []
        with self._lock:
            assigned = list(range(self._next_id,
                                  self._next_id + embeddings.shape[0]))
            self._next_id += embeddings.shape[0]
        results, failed = self._route_write(
            "insert", assigned, deadline,
            lambda rows: ([assigned[p] for p in rows], "embeddings",
                          embeddings[rows]))
        inserted = sum(int(r["count"]) for r in results)
        with self._lock:
            self._count += inserted
        if failed:
            raise PartialWriteError(
                f"insert lost rows owned by unavailable shard(s) {failed} "
                f"({inserted} of {len(assigned)} rows inserted)",
                applied_ids=[int(i) for r in results for i in r["applied"]])
        return assigned

    def delete(self, ids: Sequence[int]) -> int:
        results, failed = self._route_write(
            "delete", ids, None, lambda rows: [ids[p] for p in rows])
        removed = sum(int(r["removed"]) for r in results)
        with self._lock:
            self._count -= removed
        if failed:
            raise PartialWriteError(
                f"delete could not reach shard(s) {failed} "
                f"({removed} rows removed elsewhere)",
                applied_ids=[int(i) for r in results for i in r["ids"]])
        return removed

    def _route_write(self, op: str, ids: Sequence[int],
                     deadline: Optional[float], payload
                     ) -> "Tuple[List[Dict], List[int]]":
        """Send each owning shard ``payload(positions)`` of a write batch.

        Returns the answering shards' results and the unavailable shards;
        standbys of every shard that applied its sub-batch catch up.
        """
        results: List[Dict] = []
        failed: List[int] = []
        for shard_id, positions in group_by_shard(self.ring, ids).items():
            try:
                results.append(self._shard_call(
                    shard_id, op, payload(positions),
                    self._call_timeout(deadline)))
            except ShardUnavailableError:
                self._m_shard_failures.inc()
                failed.append(shard_id)
                continue
            self._tail_replicas(shard_id)
        return results, failed

    def compact(self) -> Dict[int, bool]:
        """Compact every reachable shard (unavailable ones are omitted).

        On a durable tier this also folds each shard's live store into a
        fresh checksummed snapshot generation and truncates its WAL;
        replicas are caught up *first* so truncation cannot strand them
        mid-log (a lagging replica that still misses records rebuilds
        from the new snapshot via the WAL-gap path).
        """
        if self.durable_dir is not None:
            for shard_id in range(self.num_shards):
                self._tail_replicas(shard_id)
        results, _ = self._scatter("compact", None, None)
        return {s: (bool(v["compacted"]) if isinstance(v, dict) else bool(v))
                for s, v in results.items()}

    def size(self) -> int:
        with self._lock:
            return self._count

    def handles(self) -> List[_ShardHandle]:
        return list(self._shards)

    def stats(self) -> Dict:
        shard_stats = [h.stats() for h in self.handles()]
        worker_stats, _ = self._scatter("stats", None, None)
        with self._lock:
            next_id = self._next_id
        return {
            "store": {"next_id": next_id, "sharding": {
                "num_shards": self.num_shards,
                "ring_vnodes": self.ring.vnodes,
                "index": self.config.index,
                "shards": shard_stats,
                "workers": {str(s): w for s, w in
                            sorted(worker_stats.items())},
            }},
            "durability": {
                "durable_dir": (None if self.durable_dir is None
                                else str(self.durable_dir)),
                "fsync_window_ms": self.config.fsync_window_ms,
                "replicas": self.config.replicas,
                "failovers": self._m_failovers.value,
                "replica_handles": {
                    str(s): [r.stats() for r in standbys]
                    for s, standbys in sorted(self._replicas.items())
                    if standbys},
            },
        }

    def readiness(self) -> Dict[str, bool]:
        shard_checks = {f"shard_{h.shard_id}_alive": h.alive
                        for h in self.handles()}
        return {"all_shards_alive": all(shard_checks.values()),
                **shard_checks}

    def refresh_metrics(self) -> None:
        """Breaker gauges, and the fsync gauges of a durable tier."""
        for handle in self.handles():
            is_open = handle.breaker.state != _BREAKER_CLOSED
            self._g_breaker.set(1.0 if is_open else 0.0,
                                shard=str(handle.shard_id))
        if self.durable_dir is None:
            return
        try:
            worker_stats, _ = self._scatter("stats", None, None)
        except (ReproError, OSError) as exc:
            _LOG.warning("metrics: worker stats scatter failed: %s", exc)
            return
        for s, report in worker_stats.items():
            wal = (report.get("durability") or {}).get("wal") or {}
            if "last_fsync_seconds" in wal:
                self._g_fsync.set(float(wal["last_fsync_seconds"]),
                                  shard=str(s))

    def close(self) -> None:
        """Stop the scatter pool, then every worker."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)
        for handle in self._all_handles():
            handle.close()

    # ------------------------------------------------------- worker-only ops

    def reload(self, partition_dir: Optional[PathLike],
               bundle_dir: Optional[PathLike]) -> Tuple[Dict, object]:
        """See :meth:`ShardedService.reload`; returns (report, new model)."""
        with self._failover_lock:
            current_partition, current_bundle = (self.partition_dir,
                                                 self.bundle_dir)
        new_partition = (current_partition if partition_dir is None
                         else Path(partition_dir))
        new_bundle = (current_bundle if bundle_dir is None
                      else Path(bundle_dir))
        try:
            manifest = load_partition_manifest(new_partition)
        except CorruptArtifactError as exc:
            raise ReloadError(
                f"cannot reload from {new_partition}: {exc}") from exc
        if int(manifest["num_shards"]) != self.num_shards:
            raise ReloadError(
                f"cannot reload across shard counts ({manifest['num_shards']}"
                f" != {self.num_shards}); run shard-tool split + restart")
        if int(manifest["embedding_dim"]) != self.dim:
            raise ReloadError(
                f"new partitions have embedding_dim "
                f"{manifest['embedding_dim']}, serving {self.dim}")
        new_model = None
        if new_bundle is not None:
            new_model, _ = load_bundle_model(new_bundle)
            if new_model.config.embedding_dim != self.dim:
                raise ReloadError(
                    "new bundle's embedding_dim does not match the tier")
        boot = self._boot_spec(new_partition, new_bundle)

        prepared, failed = self._scatter("prepare", boot, None)
        if failed or len(prepared) < self.num_shards:
            self._scatter("abort", None, None,
                          shard_ids=sorted(prepared))
            raise ReloadError(
                f"prepare failed on shard(s) "
                f"{sorted(set(range(self.num_shards)) - set(prepared))}; "
                f"old generation keeps serving")

        activated, failed = self._scatter("activate", None, None)
        handles = self.handles()
        for shard_id in failed:
            # A worker that died between prepare and activate: restart
            # it straight onto the new generation so the tier converges.
            handle = handles[shard_id]
            handle._boot = boot
            try:
                handle.restart()
                activated[shard_id] = {"restarted": True}
            except ShardUnavailableError:
                _LOG.warning("shard %d unavailable after reload; it will "
                             "serve the new generation once restarted",
                             shard_id)
        for handle in handles:
            handle._boot = dict(boot)
        for shard_id, standbys in self._replicas.items():
            for replica in standbys:
                # Standbys tail the old generation's WAL, which the new
                # base tag just invalidated: restart them onto the new
                # generation (a standby restart never blocks serving).
                replica._boot = {**boot, "role": "replica"}
                try:
                    replica.restart()
                except ShardUnavailableError as exc:
                    _LOG.warning("shard %d replica restart after reload "
                                 "failed: %s", shard_id, exc)
        with self._failover_lock:
            # A failover racing the reload must spawn its standby from
            # the *new* generation's boot spec, never a torn pair.
            self.partition_dir = new_partition
            self.bundle_dir = new_bundle
        with self._lock:
            self._next_id = max(self._next_id, int(manifest["next_id"]))
            self._count = int(manifest["total_count"])
        self._m_reloads.inc()
        return ({"partition_dir": str(new_partition),
                 "activated": sorted(activated),
                 "total_count": int(manifest["total_count"])}, new_model)

    def restart(self, shard_id: int) -> Dict:
        """Respawn one worker; a durable one recovers snapshot + WAL."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id}")
        handle = self.handles()[shard_id]
        handle.restart()
        if self.durable_dir is not None:
            self._resync_id_space()
        return handle.stats()


class ShardedService(SimilarityService):
    """The coordinator over a :class:`WorkerShards` set.

    Parameters
    ----------
    partition_dir:
        Directory written by :func:`repro.core.partition.save_partitions`
        (or ``python -m repro shard-tool split``); fixes the shard count.
    bundle_dir:
        Serving bundle whose model becomes the coordinator's encoder and
        every worker's encoder replica. ``None`` builds a *search-only*
        tier: ``query_embedding``/``insert_embeddings`` work, trajectory
        entry points raise :class:`~repro.exceptions.NotFittedError`.
    config:
        :class:`ShardedConfig`.
    request_hooks:
        ``{shard_id: hook}`` fault-injection hooks; each worker calls
        ``hook.trigger()`` before every request (see
        :class:`repro.testing.faults.KillWorkerOnce`).
    durable_dir:
        Root directory for per-shard WALs and snapshots. ``None`` keeps
        the pre-durability behaviour: mutations live only in worker
        memory and restarts rebuild from the partition files.
    wal_hooks:
        ``{shard_id: hook}`` crash-injection hooks fired inside the
        primary's WAL append path (see
        :class:`repro.testing.faults.KillAtWALPoint`).
    """

    # The traced benchmark (perfbench/spans.py) wraps these entry points
    # by looking them up in this class's own __dict__, so the coordinator's
    # functions are bound here as well as inherited.
    top_k = SimilarityService.top_k
    insert = SimilarityService.insert
    delete = SimilarityService.delete

    def __init__(self, partition_dir: PathLike,
                 bundle_dir: Optional[PathLike] = None,
                 config: Optional[ShardedConfig] = None,
                 request_hooks: Optional[Dict] = None,
                 durable_dir: Optional[PathLike] = None,
                 wal_hooks: Optional[Dict] = None):
        config = config or ShardedConfig()
        shard_set = WorkerShards(partition_dir, bundle_dir, config,
                                 request_hooks=request_hooks,
                                 durable_dir=durable_dir, wal_hooks=wal_hooks)
        model = None
        try:
            if bundle_dir is not None:
                model, _ = load_bundle_model(bundle_dir)
                if model.config.embedding_dim != shard_set.dim:
                    raise ConfigurationError(
                        f"bundle embedding_dim "
                        f"{model.config.embedding_dim} != partition "
                        f"manifest {shard_set.dim}")
            super().__init__(model, shard_set, config)
        except Exception:
            shard_set.close()
            raise
        shard_set.on_change = self._invalidate

    def reload(self, partition_dir: Optional[PathLike] = None,
               bundle_dir: Optional[PathLike] = None) -> Dict:
        """Zero-downtime flip to a new partition/bundle generation.

        Two phases: every worker *prepares* (loads the new generation
        alongside the one still serving), then every worker *activates*
        (atomic in-worker swap; the worker is serial, so no request ever
        sees a half-flipped store) and the coordinator swaps its own
        encoder and starts a new cache generation. Any prepare failure
        aborts everywhere and the old generation keeps serving —
        :class:`ReloadError`.

        The shard count is fixed for the life of the tier; resharding is
        the offline ``shard-tool split`` + restart path.
        """
        report, model = self._shard_set.reload(partition_dir, bundle_dir)
        if model is not None:
            self.model = model
        return {"generation": self._invalidate(), **report}

    def restart_shard(self, shard_id: int) -> Dict:
        """Respawn one worker from its current boot spec (admin path).

        On a durable tier the restarted worker recovers snapshot + WAL,
        and the shard set re-adopts its id space so recovered rows
        survive the restart id-identically.
        """
        stats = self._shard_set.restart(shard_id)
        self._invalidate()
        return stats

    @property
    def ring(self) -> HashRing:
        """The id-routing ring (identical to shard-tool split's)."""
        return self._shard_set.ring

    @property
    def shards(self) -> List[_ShardHandle]:
        """Per-shard handles — a read-only diagnostics surface."""
        return self._shard_set.handles()

    def shard_busy_seconds(self) -> List[float]:
        """Cumulative worker-side busy time per shard (bench input)."""
        return [h.stats()["busy_seconds"] for h in self._shard_set.handles()]
