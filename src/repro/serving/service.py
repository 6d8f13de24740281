"""The similarity-query service: one coordinator over a shard set.

:class:`SimilarityService` is the long-lived object the paper's §VI-A
deployment pattern implies but one-shot scripts never build: the trained
encoder wrapped with a micro-batcher (so concurrent queries share padded
encoder calls), an LRU result cache, and metrics, in front of a *shard
set* holding the rows. It is transport-agnostic — :mod:`repro.serving.http`
exposes it over HTTP, tests and benchmarks drive it in-process. Shard
sets: :class:`InProcessShards` (one store, called inline) and the
forked-worker set of :class:`~repro.serving.sharding.ShardedService`.

Consistency model: every write bumps a generation counter that is part
of every cache key, so stale cache entries die with their generation;
partial answers (a shard was missing) are never cached.

Robustness model (DESIGN.md "Operational robustness"): requests are
validated at the boundary (:class:`InvalidTrajectoryError` or
``ValueError`` for a bad ``k`` — never deep inside the encoder),
admitted through a bounded :class:`~repro.resilience.AdmissionGate`
(full ⇒ typed :class:`ServiceOverloadedError`, the HTTP 429/load-shedding
path), carry a deadline through the micro-batcher, and encode behind a
:class:`~repro.resilience.CircuitBreaker`. When the encoder trips the
breaker, ``top_k`` degrades to the grid-index approximate path (cell
overlap counts via :class:`~repro.index.GridInvertedIndex`) instead of
failing — answers are marked ``degraded`` and counted.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.model import MetricModel
from ..core.store import EmbeddingStore
from ..dataquality import QualityReport, SanitizeConfig, sanitize
from ..datasets.trajectory import Trajectory
from ..exceptions import (ConfigurationError, DeadlineExceededError,
                          InvalidTrajectoryError, NotFittedError,
                          PartialWriteError, ReloadError, ServiceClosedError,
                          ServiceOverloadedError, ServiceUnavailableError)
from ..index.grid_index import GridInvertedIndex
from ..resilience.admission import AdmissionGate
from ..resilience.breaker import CircuitBreaker
from .batching import MicroBatcher
from .bundle import Bundle, load_bundle
from .cache import LRUCache, result_key
from .metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry

PathLike = Union[str, Path]

__all__ = ["InProcessShards", "ServingConfig", "SimilarityService",
           "TopKResult"]

_DEFAULT = object()  # sentinel: timeout=None means "no deadline"


@dataclass
class ServingConfig:
    """Tunables of the online service.

    Attributes
    ----------
    max_batch_size:
        Encoder micro-batch cap; concurrent requests beyond this start the
        next batch.
    max_wait_ms:
        How long the batcher holds a partial batch for stragglers after
        its first request arrives. 0 dispatches immediately (lowest
        latency, least coalescing).
    cache_capacity:
        LRU result-cache entries; 0 disables caching.
    default_k:
        ``k`` used when a query does not specify one.
    max_points:
        Longest trajectory accepted at the boundary; longer requests fail
        validation with :class:`InvalidTrajectoryError` (0 disables).
    max_inflight:
        Concurrent ``top_k``/``embed`` requests admitted; the rest are
        shed with :class:`ServiceOverloadedError` (HTTP 429). 0 disables.
    breaker_failure_threshold / breaker_reset_s:
        Consecutive encoder failures that open the circuit breaker, and
        how long it stays open before probing the encoder again.
    default_timeout_s:
        Per-request deadline when the caller does not pass one
        (``None`` disables deadlines by default).
    sanitize:
        Boundary mode. ``False`` (default) keeps the strict contract —
        malformed input raises :class:`InvalidTrajectoryError`.
        ``True`` switches to *repair-with-report*: requests pass through
        :func:`repro.dataquality.sanitize` (spikes removed, duplicates
        collapsed, out-of-grid points clamped), answers carry a
        ``quality`` report, and only unrepairable input (e.g. no finite
        points at all) is rejected.
    sanitize_config:
        :class:`~repro.dataquality.SanitizeConfig` for sanitize mode.
        ``None`` derives one from the model: bbox = the encoder's grid,
        ``max_jump`` = 100 grid cells. Ignored when ``sanitize=False``.
    index:
        Store search strategy: ``"exact"`` (default, brute-force scan)
        or ``"ivf"`` (sub-linear ANN via
        :class:`~repro.index.ann.IVFIndex`; the service installs the
        backend on its store at startup). ``"keep"`` leaves whatever
        backend the store already has — the hook for serving a
        memory-mapped index built offline with ``python -m repro index
        build``.
    nlist:
        IVF cell count; 0 picks ``auto_nlist(len(store))`` (~sqrt(N)).
        Only used when ``index="ivf"``.
    nprobe:
        IVF cells scanned per query (the recall/latency dial). Only
        used when ``index="ivf"``.
    """

    #: Accepted ``index`` values (a tier may narrow them).
    INDEXES: ClassVar[Tuple[str, ...]] = ("exact", "ivf", "keep")

    max_batch_size: int = 16
    max_wait_ms: float = 2.0
    cache_capacity: int = 1024
    default_k: int = 10
    max_points: int = 100_000
    max_inflight: int = 0
    breaker_failure_threshold: int = 5
    breaker_reset_s: float = 30.0
    default_timeout_s: Optional[float] = 30.0
    sanitize: bool = False
    sanitize_config: Optional[SanitizeConfig] = None
    index: str = "exact"
    nlist: int = 0
    nprobe: int = 8

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be >= 0")
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be >= 0")
        if self.default_k < 1:
            raise ConfigurationError("default_k must be >= 1")
        if self.max_points < 0:
            raise ConfigurationError("max_points must be >= 0")
        if self.max_inflight < 0:
            raise ConfigurationError("max_inflight must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise ConfigurationError("breaker_reset_s must be >= 0")
        if (self.default_timeout_s is not None
                and self.default_timeout_s <= 0):
            raise ConfigurationError(
                "default_timeout_s must be positive (or None)")
        if self.index not in self.INDEXES:
            raise ConfigurationError(
                f"index must be one of {', '.join(map(repr, self.INDEXES))}"
                f"; got {self.index!r}")
        if self.nlist < 0:
            raise ConfigurationError("nlist must be >= 0 (0 = auto)")
        if self.nprobe < 1:
            raise ConfigurationError("nprobe must be >= 1")


@dataclass(frozen=True)
class TopKResult:
    """Answer to one top-k query.

    ``degraded`` marks approximate answers produced by the grid-index
    fallback while the encoder breaker is open; their ``distances`` are
    pseudo-distances (``1 / (1 + cell overlap)``), comparable within the
    answer but not to embedding distances.

    ``quality`` is the sanitize-mode boundary report (what was repaired
    in the query before answering); ``None`` in strict mode. It is
    recomputed per request, so even cache hits report accurately.

    ``partial`` marks sharded answers that are missing at least one
    shard (dead worker / open breaker / timeout): the ids are exact for
    the surviving partitions but rows owned by unavailable shards could
    not be considered. Always ``False`` from the in-process shard set.
    """

    ids: List[int]
    distances: List[float]
    cached: bool = False
    degraded: bool = False
    quality: Optional[Dict] = None
    partial: bool = False

    def to_json(self) -> Dict:
        return {"ids": self.ids, "distances": self.distances,
                "cached": self.cached, "degraded": self.degraded,
                "quality": self.quality, "partial": self.partial}


class InProcessShards:
    """The in-process shard set: one :class:`EmbeddingStore`, called inline.

    The shard-set interface (shared with
    :class:`~repro.serving.sharding.WorkerShards`): ``search(embedding,
    k, deadline) -> (ids, distances, partial)``; ``insert(embeddings,
    deadline) -> ids`` (the set assigns ids); ``delete``, ``compact``,
    ``size``, ``dim``, ``num_shards``; ``stats()`` as ``{section:
    fields}`` (``store`` merges into the coordinator's); extra
    ``readiness()`` checks; ``refresh_metrics()``; ``close()``. A shard
    set is built before its coordinator (workers fork before any thread
    starts), so it creates the service's ``registry``.
    """

    num_shards = 1

    def __init__(self, store: EmbeddingStore, config: ServingConfig):
        # Install the configured search backend before the first query;
        # "keep" preserves a backend attached out-of-band (e.g. a
        # memory-mapped IVF index built offline).
        if config.index == "ivf":
            store.use_backend("ivf", nlist=config.nlist,
                              nprobe=config.nprobe)
        elif config.index == "exact" and store.backend.name != "exact":
            store.use_backend("exact")
        self.store = store
        self.dim = int(store.embeddings.shape[1])
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self._m_candidates = self.registry.counter(
            "repro_search_candidates_total",
            "Store rows scanned across all top-k searches.")
        self._h_candidates = self.registry.histogram(
            "repro_topk_candidates",
            "Store rows scanned per top-k query (ANN probes a fraction "
            "of the database; exact scans all of it).",
            buckets=(10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0))

    def search(self, embedding: np.ndarray, k: int,
               deadline: Optional[float]
               ) -> Tuple[np.ndarray, np.ndarray, bool]:
        with self._lock:
            before = self.store.search_stats().get("candidates_scanned", 0)
            ids, distances = self.store.query_embedding(embedding, k)
            scanned = (self.store.search_stats().get("candidates_scanned", 0)
                       - before)
        if scanned > 0:
            self._m_candidates.inc(scanned)
            self._h_candidates.observe(scanned)
        return ids, distances, False

    def insert(self, embeddings: np.ndarray,
               deadline: Optional[float]) -> List[int]:
        with self._lock:
            return self.store.add_embeddings(embeddings)

    def delete(self, ids: Sequence[int]) -> int:
        with self._lock:
            return self.store.remove(ids)

    def compact(self) -> Dict[int, bool]:
        """``{0: False}`` when the backend has nothing to compact (exact)."""
        with self._lock:
            compact = getattr(self.store.backend, "compact", None)
            if compact is None:
                return {0: False}
            compact()
            return {0: True}

    def size(self) -> int:
        with self._lock:
            return len(self.store)

    def stats(self) -> Dict:
        with self._lock:
            return {"store": {"next_id": self.store.next_id,
                              "search_backend": self.store.search_stats()}}

    def readiness(self) -> Dict[str, bool]:
        return {}

    def refresh_metrics(self) -> None:
        pass

    def close(self) -> None:
        pass


class SimilarityService:
    """Online trajectory-similarity queries over a model + shard set.

    Parameters
    ----------
    model:
        Fitted :class:`MetricModel` (the O(L) encoder). ``None`` gives a
        search-only service: ``query_embedding``/``insert_embeddings``
        work, trajectory entry points raise :class:`NotFittedError`.
    store:
        :class:`EmbeddingStore` holding the database embeddings (the
        O(N·d) search side), mutated in place by ``insert``/``delete``;
        the service wraps it in an :class:`InProcessShards`. Any other
        shard set is used as given (see
        :class:`~repro.serving.sharding.ShardedService`).
    config:
        :class:`ServingConfig`; defaults are sensible for tests.
    probes:
        Representative trajectories for :meth:`warmup` and self-tests.
    fallback_index:
        Optional :class:`GridInvertedIndex` over the same ids as the
        store; enables the degraded ``top_k`` path while the encoder
        breaker is open. Kept in sync by ``insert``/``delete``. Without
        it, breaker-open queries raise :class:`ServiceUnavailableError`.
    """

    def __init__(self, model: Optional[MetricModel], store,
                 config: Optional[ServingConfig] = None,
                 probes: Optional[Sequence[Trajectory]] = None,
                 fallback_index: Optional[GridInvertedIndex] = None):
        self.config = config or ServingConfig()
        self.model = model
        if isinstance(store, EmbeddingStore):
            self.store: Optional[EmbeddingStore] = store
            store = InProcessShards(store, self.config)
        else:
            self.store = None
        self._shard_set = store
        self.num_shards = store.num_shards
        self._sanitize_config: Optional[SanitizeConfig] = None
        grid = None if model is None else model._require_fitted().grid
        if self.config.sanitize and grid is not None:
            sanitize_cfg = self.config.sanitize_config
            if sanitize_cfg is None:
                sanitize_cfg = SanitizeConfig(max_jump=100.0 * grid.cell_size)
            if sanitize_cfg.bbox is None:
                sanitize_cfg = sanitize_cfg.with_bbox(grid.bbox)
            self._sanitize_config = sanitize_cfg
        self.probes: List[Trajectory] = list(probes or [])
        self.fallback_index = fallback_index
        self.stream = None  # optional StreamIngestor; see attach_stream()
        self.registry = store.registry
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._generation = 0
        self._cache = LRUCache(self.config.cache_capacity)
        self._closed = False
        self._warmed = False

        reg = self.registry
        self._m_queries = reg.counter(
            "repro_topk_requests_total", "Top-k queries answered.")
        self._m_embeds = reg.counter(
            "repro_embed_requests_total", "Embed-only requests answered.")
        self._m_inserts = reg.counter(
            "repro_inserted_trajectories_total", "Trajectories inserted.")
        self._m_deletes = reg.counter(
            "repro_deleted_trajectories_total", "Trajectories deleted.")
        self._m_cache_hits = reg.counter(
            "repro_cache_hits_total", "Top-k answers served from cache.")
        self._m_cache_misses = reg.counter(
            "repro_cache_misses_total", "Top-k answers computed fresh.")
        self._m_errors = reg.counter(
            "repro_request_errors_total", "Requests that raised.")
        self._m_shed = reg.counter(
            "repro_shed_requests_total",
            "Requests refused by the admission gate (HTTP 429).")
        self._m_degraded = reg.counter(
            "repro_degraded_answers_total",
            "Top-k answers served by the grid-index fallback.")
        self._m_validation = reg.counter(
            "repro_validation_errors_total",
            "Requests rejected at input validation.")
        self._m_sanitize_repaired = reg.counter(
            "repro_sanitize_repaired_total",
            "Requests whose trajectory was repaired by the sanitizer.")
        self._m_sanitize_rejected = reg.counter(
            "repro_sanitize_rejected_total",
            "Requests the sanitizer could not repair (rejected).")
        self._m_deadline = reg.counter(
            "repro_deadline_exceeded_total",
            "Requests dropped because their deadline expired.")
        self._m_encoder_failures = reg.counter(
            "repro_encoder_failures_total", "Batched encoder calls that raised.")
        self._m_breaker_transitions = reg.counter(
            "repro_breaker_transitions_total",
            "Encoder circuit-breaker state transitions.")
        self._h_latency = reg.histogram(
            "repro_topk_latency_seconds", "End-to-end top-k latency.")
        self._h_encode = reg.histogram(
            "repro_encode_batch_seconds", "Batched encoder call latency.")
        self._h_batch_size = reg.histogram(
            "repro_encode_batch_size", "Trajectories per encoder batch.",
            buckets=DEFAULT_SIZE_BUCKETS)

        self._gate = AdmissionGate(self.config.max_inflight)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            on_transition=lambda old, new: self._m_breaker_transitions.inc())

        self._batcher: Optional[MicroBatcher] = None
        if model is not None:
            self._batcher = MicroBatcher(
                self._encode_batch,
                max_batch_size=self.config.max_batch_size,
                max_wait_s=self.config.max_wait_ms / 1000.0,
                on_batch=self._record_batch,
                name="repro-encode-batcher")

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_bundle(cls, bundle: Union[Bundle, PathLike],
                    config: Optional[ServingConfig] = None,
                    verify: bool = True,
                    fallback_index: Optional[GridInvertedIndex] = None
                    ) -> "SimilarityService":
        """Build a service from a :class:`Bundle` or a bundle directory."""
        if not isinstance(bundle, Bundle):
            bundle = load_bundle(bundle, verify=verify)
        return cls(bundle.model, bundle.store, config=config,
                   probes=bundle.probes, fallback_index=fallback_index)

    # ------------------------------------------------------------ encoder path

    def _encode_batch(self, trajectories: List[Trajectory]) -> np.ndarray:
        if not self.breaker.allow():
            raise ServiceUnavailableError("encoder circuit breaker is open")
        try:
            out = self.model.embed(trajectories,
                                   batch_size=self.config.max_batch_size)
        except Exception:
            self._m_encoder_failures.inc()
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return out

    def _record_batch(self, batch_size: int, seconds: float) -> None:
        self._h_batch_size.observe(batch_size)
        self._h_encode.observe(seconds)

    def _require_batcher(self) -> MicroBatcher:
        if self._batcher is None:
            raise NotFittedError(
                "this service has no encoder (search-only); use "
                "query_embedding/insert_embeddings")
        return self._batcher

    def _resolve_deadline(self, timeout):
        """Map a caller timeout to (timeout_s, monotonic deadline)."""
        if timeout is _DEFAULT:
            timeout = self.config.default_timeout_s
        if timeout is None:
            return None, None
        return timeout, time.monotonic() + timeout

    @contextmanager
    def _deadline_errors(self, timeout: Optional[float]):
        """Turn an expired wait on the encoder into a counted typed error."""
        try:
            yield
        except FuturesTimeoutError as exc:
            self._m_deadline.inc()
            raise DeadlineExceededError(
                f"no answer within {timeout}s") from exc
        except DeadlineExceededError:
            self._m_deadline.inc()
            raise

    @contextmanager
    def _counted(self):
        """Count a request that raised (and a shed one separately)."""
        try:
            yield
        except ServiceOverloadedError:
            self._m_shed.inc()
            self._m_errors.inc()
            raise
        except Exception:
            self._m_errors.inc()
            raise

    def embed(self, trajectory: Trajectory,
              timeout: Optional[float] = _DEFAULT) -> np.ndarray:
        """Embedding of one trajectory via the micro-batcher."""
        self._m_embeds.inc()
        with self._counted():
            batcher = self._require_batcher()
            query, _ = self._admit_trajectory(trajectory)
            timeout, deadline = self._resolve_deadline(timeout)
            with self._gate.admit("embed"), self._deadline_errors(timeout):
                return batcher(query, timeout=timeout, deadline=deadline)

    # ------------------------------------------------------------- boundary

    def _admit_trajectory(self, trajectory
                          ) -> "tuple[Trajectory, Optional[QualityReport]]":
        """Boundary admission under the configured mode.

        Strict mode (default): anything malformed raises
        :class:`InvalidTrajectoryError`, no report. Sanitize mode: repair
        the input with a :class:`~repro.dataquality.QualityReport`; only
        unrepairable input still raises (and counts as rejected). Either
        way a trajectory over ``max_points`` is rejected.
        """
        config = self._sanitize_config
        try:
            if config is None:
                report = None
                traj = (trajectory if isinstance(trajectory, Trajectory)
                        else Trajectory(trajectory))
            else:
                traj, report = sanitize(
                    getattr(trajectory, "points", trajectory), config,
                    traj_id=getattr(trajectory, "traj_id", None))
        except (InvalidTrajectoryError, TypeError, ValueError) as exc:
            self._m_validation.inc()
            if config is not None:
                self._m_sanitize_rejected.inc()
            if isinstance(exc, InvalidTrajectoryError):
                raise
            raise InvalidTrajectoryError(
                f"not a valid trajectory: {exc}") from exc
        if report is not None and report.modified:
            self._m_sanitize_repaired.inc()
        limit = self.config.max_points
        if limit and len(traj.points) > limit:
            self._m_validation.inc()
            raise InvalidTrajectoryError(
                f"trajectory has {len(traj.points)} points "
                f"(limit {limit})")
        return traj, report

    def _check_k(self, k) -> int:
        """``k`` or the default; a bad one fails before any encoder work."""
        if k is None:
            return self.config.default_k
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) \
                or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        return int(k)

    # ------------------------------------------------------------- query path

    def top_k(self, trajectory: Trajectory, k: Optional[int] = None,
              use_cache: bool = True,
              timeout: Optional[float] = _DEFAULT) -> TopKResult:
        """Top-k ids + embedding distances for a query trajectory.

        Bit-for-bit identical to the offline
        :meth:`EmbeddingStore.query` path when the request runs alone;
        under concurrency, padded-batch reduction order may differ by
        float rounding (~1 ulp), never enough to reorder non-tied
        neighbours. Sharded answers missing a shard are ``partial``. While
        the encoder breaker is open, answers come from the grid-index
        fallback (marked ``degraded=True``) when one is configured.
        """
        start = time.monotonic()
        try:
            with self._counted():
                query, report = self._admit_trajectory(trajectory)
                k = self._check_k(k)
                timeout, deadline = self._resolve_deadline(timeout)
                quality = None if report is None else report.to_json()
                with self._gate.admit("top_k"):
                    return self._answer_top_k(query, k, use_cache, timeout,
                                              deadline, quality=quality)
        finally:
            self._h_latency.observe(time.monotonic() - start)

    def _answer_top_k(self, query: Trajectory, k: int, use_cache: bool,
                      timeout: Optional[float], deadline: Optional[float],
                      quality: Optional[Dict] = None) -> TopKResult:
        batcher = self._require_batcher()
        # The cache key is built from the *sanitized* points, so distinct
        # dirty requests that repair to the same clean trajectory share an
        # entry; `quality` is re-derived per request even on hits. A
        # disabled cache (capacity 0) is skipped, not probed.
        use_cache = use_cache and self._cache.capacity > 0
        if use_cache:
            with self._lock:
                generation = self._generation
            key = result_key(query.points, k, self.model.config.measure,
                             generation)
            hit = self._cache.get(key)
            if hit is not None:
                self._m_queries.inc()
                self._m_cache_hits.inc()
                return TopKResult(ids=list(hit[0]),
                                  distances=list(hit[1]), cached=True,
                                  quality=quality)
            self._m_cache_misses.inc()
        try:
            with self._deadline_errors(timeout):
                embedding = batcher(query, timeout=timeout,
                                    deadline=deadline)
        except (DeadlineExceededError, ServiceClosedError,
                ServiceOverloadedError):
            raise
        except Exception as exc:
            if (self.fallback_index is not None
                    and (isinstance(exc, ServiceUnavailableError)
                         or self.breaker.state == "open")):
                return self._degraded_top_k(query, k, quality=quality)
            raise
        result = self._search(embedding, k, deadline, quality=quality)
        if use_cache and not result.partial:
            self._cache.put(key, (result.ids, result.distances))
        return result

    def _search(self, embedding: np.ndarray, k: int,
                deadline: Optional[float],
                quality: Optional[Dict] = None) -> TopKResult:
        if deadline is not None and time.monotonic() > deadline:
            self._m_deadline.inc()
            raise DeadlineExceededError(
                "deadline expired before the store search")
        ids, distances, partial = self._shard_set.search(embedding, k,
                                                         deadline)
        self._m_queries.inc()
        return TopKResult(ids=[int(i) for i in ids],
                          distances=[float(d) for d in distances],
                          quality=quality, partial=partial)

    def query_embedding(self, embedding: np.ndarray,
                        k: Optional[int] = None,
                        timeout=_DEFAULT) -> TopKResult:
        """Top-k for an already-computed query embedding (no cache)."""
        with self._counted():
            k = self._check_k(k)
            embedding = np.asarray(embedding, dtype=np.float64)
            dim = self._shard_set.dim
            if embedding.shape != (dim,):
                raise ValueError(f"expected embedding of shape ({dim},), "
                                 f"got {embedding.shape}")
            _, deadline = self._resolve_deadline(timeout)
            with self._gate.admit("query_embedding"):
                return self._search(embedding, k, deadline)

    def _degraded_top_k(self, query: Trajectory, k: int,
                        quality: Optional[Dict] = None) -> TopKResult:
        """Approximate answer from grid-cell overlap (no encoder involved).

        Candidates are ranked by how many of the query's (ring-expanded)
        cells they share; ties break on id for determinism. The
        pseudo-distance ``1 / (1 + overlap)`` preserves that ranking.
        """
        index = self.fallback_index
        cells = index.grid.to_cells(np.asarray(query.points))
        expanded = {(x + dx, y + dy)
                    for x, y in {(int(cx), int(cy)) for cx, cy in cells}
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        with self._lock:
            counts = index.match_counts(sorted(expanded))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        self._m_degraded.inc()
        self._m_queries.inc()
        return TopKResult(ids=[int(i) for i, _ in ranked],
                          distances=[1.0 / (1.0 + c) for _, c in ranked],
                          degraded=True, quality=quality)

    # --------------------------------------------------------------- mutation

    def _invalidate(self) -> int:
        """Start a new generation, dropping every cached answer."""
        with self._lock:
            self._generation += 1
            generation = self._generation
        self._cache.clear()
        return generation

    def insert(self, trajectories: Sequence[Trajectory]) -> List[int]:
        """Encode + insert trajectories; returns their assigned ids.

        Embeddings come from the micro-batcher under the request deadline
        (an expired one raises :class:`DeadlineExceededError` and inserts
        nothing). In sanitize mode, inserted trajectories are repaired
        the same way queries are, so the store only ever holds clean
        data.
        """
        items = [self._admit_trajectory(t)[0] for t in trajectories]
        if not items:
            return []
        timeout, deadline = self._resolve_deadline(_DEFAULT)
        with self._counted(), self._deadline_errors(timeout):
            batcher = self._require_batcher()
            futures = [batcher.submit(t, deadline=deadline) for t in items]
            embeddings = np.stack([
                f.result(timeout=None if deadline is None else
                         max(0.0, deadline - time.monotonic()))
                for f in futures])
        assigned = self.insert_embeddings(embeddings, deadline=deadline)
        index = self.fallback_index
        if index is not None:
            with self._lock:
                for traj, traj_id in zip(items, assigned):
                    index.insert(traj_id, np.asarray(traj.points))
        return assigned

    def insert_embeddings(self, embeddings: np.ndarray,
                          deadline: Optional[float] = None) -> List[int]:
        """Insert precomputed embedding rows; returns their assigned ids.

        On the sharded tier a write that reached only some shards raises
        :class:`~repro.exceptions.PartialWriteError` listing the applied
        ids; those rows still count and still invalidate the cache.
        """
        applied: List[int] = []
        with self._counted():
            try:
                applied = self._shard_set.insert(embeddings, deadline)
            except PartialWriteError as exc:
                applied = exc.applied_ids
                raise
            finally:
                if applied:
                    self._invalidate()
                    self._m_inserts.inc(len(applied))
            return applied

    def delete(self, ids: Sequence[int]) -> int:
        """Remove entries by id; returns how many were removed."""
        id_list = [int(i) for i in ids]
        if not id_list:
            return 0
        removed = 0
        with self._counted():
            try:
                removed = self._shard_set.delete(id_list)
            except PartialWriteError as exc:
                removed = len(exc.applied_ids)
                raise
            finally:
                self._invalidate()
                self._m_deletes.inc(removed)
            index = self.fallback_index
            if index is not None:
                with self._lock:
                    for traj_id in id_list:
                        index.remove(traj_id)
            return removed

    # ----------------------------------------------------------- maintenance

    def compact(self) -> Dict[int, bool]:
        """Fold pending inserts/tombstones on every shard's index.

        Returns ``{shard: compacted}``; ``False`` means the shard's
        backend has nothing to compact (the exact scan has no deferred
        state). Serves ``/admin/compact`` on either tier.
        """
        return self._shard_set.compact()

    def size(self) -> int:
        """Rows across the shard set."""
        return self._shard_set.size()

    # -------------------------------------------------------- streaming ingest

    def attach_stream(self, ingestor) -> None:
        """Attach a :class:`~repro.streaming.ingest.StreamIngestor`.

        Enables the ``/v1/ingest`` and ``/v1/stream`` HTTP routes.
        Lifecycle stays with the caller: the ingester owns its own WAL and
        snapshot directory, so closing this service does *not* close it.
        """
        self.stream = ingestor

    def stream_ingest(self, rows: Sequence[Sequence[float]]) -> Dict:
        """Apply ``[source_id, seq, t, x, y]`` rows to the attached stream.

        The transport-facing half of :meth:`attach_stream` — rows arrive
        as plain lists (JSON), are validated into
        :class:`~repro.streaming.events.StreamPoint`, and acknowledged
        only after the ingester's WAL fsync. Raises
        :class:`~repro.exceptions.ReloadError` when no stream is attached
        (the HTTP layer maps it to 409, the capability-missing status).
        """
        if self.stream is None:
            raise ReloadError("this service has no stream ingester attached "
                              "(build one with repro.streaming and call "
                              "attach_stream)")
        from ..streaming.events import StreamPoint
        points = []
        for row in rows:
            if len(row) != 5:
                raise ValueError("each point must be [source_id, seq, t, x, y]"
                                 f", got {row!r}")
            source_id, seq, t, x, y = row
            points.append(StreamPoint(source_id=int(source_id), seq=int(seq),
                                      t=float(t), x=float(x), y=float(y)))
        result = self.stream.ingest(points)
        return {"accepted": result.accepted, "applied": result.applied,
                "buffered": result.buffered,
                "duplicates": result.duplicates, "late": result.late,
                "evicted_segments": result.evicted_segments,
                "lsn": result.lsn, "degraded": result.degraded}

    def stream_stats(self) -> Dict:
        """Operational snapshot of the attached stream ingester."""
        if self.stream is None:
            raise ReloadError("this service has no stream ingester attached")
        return self.stream.stats()

    # ------------------------------------------------------------- lifecycle

    def warmup(self, queries: int = 4) -> int:
        """Run a few probe queries through the full path; returns how many.

        Exercises the encoder, the batcher and the search so the first
        real request does not pay first-touch allocation costs. Uses the
        bundle's probes when present, otherwise a synthetic two-point
        trajectory inside the model's grid; a search-only service sends
        random embeddings through every shard instead. A completed warmup
        flips the service to ready (see :meth:`readiness`).
        """
        served = 0
        if self.model is None:
            rng = np.random.default_rng(0)
            for _ in range(max(1, queries)):
                self.query_embedding(
                    rng.standard_normal(self._shard_set.dim), k=1)
                served += 1
        else:
            for probe in self.probes[:queries] or [self.synthetic_probe()]:
                if self.size() > 0:
                    self.top_k(probe, k=1, use_cache=False)
                else:
                    self.embed(probe)
                served += 1
        with self._lock:
            self._warmed = True
        return served

    def synthetic_probe(self) -> Trajectory:
        """A short trajectory through the centre of the model's grid."""
        if self.model is None:
            raise NotFittedError(
                "a search-only service has no encoder grid")
        encoder = self.model._require_fitted()
        xmin, ymin, xmax, ymax = encoder.grid.bbox
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        step = encoder.grid.cell_size
        return Trajectory([[cx - step, cy], [cx, cy], [cx + step, cy]])

    def readiness(self) -> Dict:
        """Readiness checks for ``/readyz`` (distinct from liveness).

        Ready means: the store has data, :meth:`warmup` completed, the
        encoder breaker is not open, the service is accepting work, and
        every shard is up (sharded tier).
        """
        with self._lock:
            warmed = self._warmed
            closed = self._closed
        checks = {
            "store_nonempty": self.size() > 0,
            "warmed": warmed,
            "encoder_breaker_closed": self.breaker.state != "open",
            "accepting_requests": not closed,
        }
        checks.update(self._shard_set.readiness())
        return {"ready": all(checks.values()), "checks": checks}

    def stats(self) -> Dict:
        """JSON-friendly operational snapshot (also the ``/v1/stats`` body)."""
        with self._lock:
            generation = self._generation
        sections = self._shard_set.stats()
        model_config = None if self.model is None else self.model.config
        store = {"size": self.size(), "generation": generation,
                 "embedding_dim": self._shard_set.dim,
                 "measure": getattr(model_config, "measure", None),
                 **sections.pop("store", {})}
        index = self.fallback_index
        return {
            "store": store,
            "sanitize_mode": self._sanitize_config is not None,
            "cache": self._cache.stats(),
            "batcher": (None if self._batcher is None
                        else self._batcher.stats()),
            "resilience": {
                "breaker": self.breaker.stats(),
                "admission": self._gate.stats(),
                "fallback_index": (None if index is None else
                                   {"size": index.size}),
            },
            **sections,
            "readiness": self.readiness(),
            "stream": None if self.stream is None else self.stream.stats(),
            "uptime_seconds": time.monotonic() - self._started,
            "metrics": self.registry.snapshot(),
        }

    def render_metrics(self) -> str:
        """Prometheus text exposition (the ``/metrics`` body)."""
        if not self.closed:
            self._shard_set.refresh_metrics()
        return self.registry.render()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, drain: bool = True) -> None:
        """Shut down: the batcher (pending futures never hang, see the
        batcher docs), then the shard set."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._batcher is not None:
            self._batcher.close(drain=drain)
        self._shard_set.close()

    def __enter__(self) -> "SimilarityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
