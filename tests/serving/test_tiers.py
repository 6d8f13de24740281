"""One coordinator, two shard sets: the in-process and sharded tiers agree.

The ``make_tier`` tests run against both :class:`SimilarityService` over
its in-process store and a 2-shard :class:`ShardedService` built from
the same bundle, so a behaviour of the coordinator (boundary checks,
deadlines, metrics, cache) is pinned on both tiers at once; the oracle
for answers is the offline exact :class:`EmbeddingStore` scan. The
cache-safety tests need workers to kill, so they run on the sharded
tier only.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.partition import save_partitions
from repro.core.store import EmbeddingStore
from repro.exceptions import DeadlineExceededError, InvalidTrajectoryError
from repro.serving import (ServingConfig, ShardedConfig, ShardedService,
                           SimilarityService, load_bundle)
from repro.testing import FlakyCallable
from repro.testing.faults import KillWorkerOnce

from tests.serving.conftest import WrappedModel

pytestmark = pytest.mark.sharding


def _partitions(bundle_dir, path, num_shards=2):
    store = load_bundle(bundle_dir).store
    save_partitions(path, np.asarray(store.ids, dtype=np.int64),
                    store.embeddings, num_shards=num_shards,
                    next_id=store.next_id)
    return path


@pytest.fixture(params=["in_process", "sharded"])
def make_tier(request, bundle_dir, tmp_path):
    """``make_tier(**config_fields)`` builds the parametrized tier once."""
    services = []

    def build(**fields):
        if request.param == "in_process":
            service = SimilarityService.from_bundle(
                bundle_dir, ServingConfig(**fields))
        else:
            service = ShardedService(
                _partitions(bundle_dir, tmp_path / "parts"),
                bundle_dir=bundle_dir, config=ShardedConfig(**fields))
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()


def _reference(bundle_dir):
    store = load_bundle(bundle_dir).store
    reference = EmbeddingStore(None, dim=store.embeddings.shape[1])
    reference.add_embeddings(store.embeddings, ids=store.ids)
    return reference


# ----------------------------------------------------------------- parity


def test_same_sequence_gives_id_identical_answers(make_tier, bundle_dir,
                                                  serving_world):
    _, items = serving_world
    # Single-item batches: every embedding the tier computes equals
    # service.embed() of the same trajectory, so the oracle can mirror it.
    service = make_tier(max_batch_size=1, cache_capacity=64)
    reference = _reference(bundle_dir)

    new = items[16:19]
    assigned = service.insert(new)
    assert assigned == [16, 17, 18]
    reference.add_embeddings(np.stack([service.embed(t) for t in new]),
                             ids=assigned)
    # Exact duplicates of items[0]'s embedding: ties broken by id.
    twin = service.embed(items[0])
    twins = service.insert_embeddings(np.stack([twin, twin]))
    reference.add_embeddings(np.stack([twin, twin]), ids=twins)
    assert service.delete([3, 17, 999]) == 2
    reference.remove([3, 17])

    def check(query):
        q = service.embed(query)
        for k in (1, 5, len(reference)):
            want_ids, want_dist = reference.query_embedding(q, k)
            got = service.top_k(query, k=k, use_cache=False)
            assert got.ids == [int(i) for i in want_ids]
            np.testing.assert_allclose(got.distances, want_dist, rtol=1e-9)
            assert not got.partial
            assert service.top_k(query, k=k).ids == got.ids
            assert service.top_k(query, k=k).cached

    check(items[0])
    assert set(twins) <= set(service.top_k(items[0], k=4).ids)
    assert set(service.compact()) == set(range(service.num_shards))
    check(items[0])
    check(items[5])

    stats = service.stats()
    assert stats["store"]["size"] == service.size() == len(reference)
    assert stats["cache"]["hits"] > 0 and stats["cache"]["capacity"] == 64
    assert stats["resilience"]["admission"]["shed"] == 0
    if service.num_shards == 1:
        assert stats["store"]["search_backend"]["kind"] == "exact"
    else:
        workers = stats["store"]["sharding"]["workers"]
        assert sum(w["count"] for w in workers.values()) == len(reference)


# -------------------------------------------------------- boundary checks


@pytest.mark.parametrize("bad_k", [True, 2.5, 0, -1, "3"])
def test_bad_k_is_rejected_before_encoding(make_tier, serving_world, bad_k):
    _, items = serving_world
    service = make_tier()
    items_before = service.stats()["batcher"]["items"]
    with pytest.raises(ValueError):
        service.top_k(items[0], k=bad_k)
    assert service.stats()["batcher"]["items"] == items_before
    assert service.registry.snapshot()["repro_request_errors_total"] == 1


def test_invalid_trajectory_counts_on_both_tiers(make_tier):
    service = make_tier()
    with pytest.raises(InvalidTrajectoryError):
        service.top_k([[0.0, float("nan")]], k=3)
    assert service.registry.snapshot()["repro_validation_errors_total"] == 1
    assert "repro_validation_errors_total 1" in service.render_metrics()
    assert "repro_sanitize_rejected_total 0" in service.render_metrics()


@pytest.mark.faults
def test_insert_past_its_deadline_is_a_counted_504(make_tier,
                                                   serving_world):
    _, items = serving_world
    service = make_tier(default_timeout_s=0.05, max_wait_ms=0.0)
    size = service.size()
    model = service.model
    service.model = WrappedModel(model, FlakyCallable(
        model.embed, latency_s=0.3, latency_on=(1,)))
    with pytest.raises(DeadlineExceededError):
        service.insert(items[16:18])
    snap = service.registry.snapshot()
    assert snap["repro_request_errors_total"] == 1
    assert snap["repro_deadline_exceeded_total"] == 1
    assert service.size() == size


# ------------------------------------------------------------ cache safety


def _generation(service):
    return service.stats()["store"]["generation"]


@pytest.mark.faults
def test_partial_answers_are_never_cached(bundle_dir, serving_world,
                                          tmp_path):
    _, items = serving_world
    hook = KillWorkerOnce(None, tmp_path / "killed.marker")
    config = ShardedConfig(cache_capacity=64, breaker_failure_threshold=1,
                           breaker_reset_s=60.0, request_timeout_s=10.0)
    parts = _partitions(bundle_dir, tmp_path / "parts")
    with ShardedService(parts, bundle_dir=bundle_dir, config=config,
                        request_hooks={1: hook}) as service:
        # The first scatter kills shard 1: partial, and so never cached.
        for _ in range(2):
            answer = service.top_k(items[0], k=5)
            assert answer.partial and not answer.cached
        assert service.stats()["cache"]["size"] == 0

        generation = _generation(service)
        service.restart_shard(1)
        assert _generation(service) == generation + 1
        healed = service.top_k(items[0], k=5)
        assert not healed.partial and not healed.cached
        assert service.top_k(items[0], k=5).cached

        report = service.reload(partition_dir=parts)
        assert report["generation"] == _generation(service) == generation + 2
        again = service.top_k(items[0], k=5)
        assert not again.cached and again.ids == healed.ids


@pytest.mark.faults
@pytest.mark.durability
def test_replica_promotion_starts_a_new_generation(bundle_dir, serving_world,
                                                   tmp_path):
    _, items = serving_world
    config = ShardedConfig(cache_capacity=64, replicas=1,
                           request_timeout_s=10.0)
    parts = _partitions(bundle_dir, tmp_path / "parts")
    with ShardedService(parts, bundle_dir=bundle_dir, config=config,
                        durable_dir=tmp_path / "durable") as service:
        first = service.top_k(items[0], k=5)
        assert service.top_k(items[0], k=5).cached
        generation = _generation(service)

        os.kill(service.shards[0]._proc.pid, signal.SIGKILL)
        service.query_embedding(service.embed(items[0]), k=5)  # fails over
        assert service.stats()["durability"]["failovers"] == 1
        assert _generation(service) == generation + 1
        again = service.top_k(items[0], k=5)
        assert not again.cached and not again.partial
        assert again.ids == first.ids
