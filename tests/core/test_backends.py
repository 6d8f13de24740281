"""Store round-trips at the search-backend boundary (repro.core.backends)."""

import numpy as np
import pytest

from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
from repro.core.backends import (ExactBackend, IVFBackend, SearchBackend,
                                 make_backend)
from repro.core.store import EmbeddingStore
from repro.exceptions import ConfigurationError
from repro.index.ann import IVFConfig, IVFIndex


@pytest.fixture(scope="module")
def world():
    ds = generate_porto(PortoConfig(num_trajectories=80, min_points=8,
                                    max_points=14), seed=13)
    seeds = list(ds)[:20]
    rest = list(ds)[20:]
    model = NeuTraj(NeuTrajConfig(measure="hausdorff", embedding_dim=8,
                                  epochs=2, sampling_num=3, batch_anchors=8,
                                  cell_size=500.0, seed=0))
    model.fit(seeds)
    return model, rest


# ------------------------------------------------------------ construction

def test_make_backend_resolution():
    assert isinstance(make_backend(None), ExactBackend)
    assert isinstance(make_backend("exact"), ExactBackend)
    ivf = make_backend("ivf", nlist=4, nprobe=2)
    assert isinstance(ivf, IVFBackend)
    assert ivf.config.nlist == 4 and ivf.config.nprobe == 2
    passthrough = ExactBackend()
    assert make_backend(passthrough) is passthrough


def test_make_backend_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        make_backend("annoy")
    with pytest.raises(ConfigurationError):
        make_backend("exact", nlist=4)
    with pytest.raises(ConfigurationError):
        make_backend("ivf", bogus_option=1)
    with pytest.raises(ConfigurationError):
        make_backend(ExactBackend(), nlist=4)


def test_store_default_backend_is_exact(world):
    model, items = world
    store = EmbeddingStore(model)
    assert store.backend.name == "exact"
    assert store.search_stats()["kind"] == "exact"


# ---------------------------------------------------- exact vs ivf answers

def test_ivf_backend_matches_exact_on_small_store(world):
    """With nprobe >= nlist the IVF path degenerates to an exact scan."""
    model, items = world
    exact = EmbeddingStore(model)
    exact.add(items)
    ivf = EmbeddingStore(model, backend="ivf", nlist=4, nprobe=4, seed=0)
    ivf.add(items)
    for query in items[:8]:
        want, want_d = exact.query(query, k=5)
        got, got_d = ivf.query(query, k=5)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got_d, want_d, atol=1e-4)


def test_exact_backend_counts_full_scans(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items[:10])
    store.query(items[0], k=3)
    stats = store.search_stats()
    assert stats["queries"] == 1
    assert stats["candidates_scanned"] == 10


@pytest.mark.parametrize("rows,dim", [(1, 3), (3001, 7), (5000, 32),
                                      (700, 128)])
def test_exact_scan_blocks_are_bit_identical_to_whole_table(rows, dim):
    """The blocked scan gives the whole-table expression's exact bits."""
    rng = np.random.default_rng(rows + dim)
    store = EmbeddingStore(None, dim=dim)
    table = rng.normal(scale=50.0, size=(rows, dim))
    store.add_embeddings(table)
    for query in rng.normal(scale=50.0, size=(4, dim)):
        diffs = table - query[None, :]
        want = np.sqrt((diffs * diffs).sum(axis=1))
        got = store.backend._distances(query)
        assert got.tobytes() == want.tobytes()
        ids, dists = store.query_embedding(query, k=min(10, rows))
        order = np.lexsort((np.arange(rows), want))[:min(10, rows)]
        assert ids.tolist() == order.tolist()
        assert dists.tobytes() == want[order].tobytes()


def test_ivf_backend_scans_fraction(world):
    model, items = world
    store = EmbeddingStore(model, backend="ivf", nlist=8, nprobe=2, seed=0)
    store.add(items)
    store.query(items[0], k=3)
    stats = store.search_stats()
    assert stats["kind"] == "ivf"
    assert 0 < stats["candidates_scanned"] < len(items)


def test_use_backend_switches_both_ways(world):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items)
    want, _ = store.query(items[1], k=5)
    store.use_backend("ivf", nlist=4, nprobe=4, seed=0)
    got, _ = store.query(items[1], k=5)
    np.testing.assert_array_equal(got, want)
    store.use_backend("exact")
    back, _ = store.query(items[1], k=5)
    np.testing.assert_array_equal(back, want)


# ------------------------------------------------- mutation + id stability

@pytest.mark.parametrize("backend_kwargs", [
    {"backend": "exact"},
    {"backend": "ivf", "nlist": 4, "nprobe": 4, "seed": 0},
])
def test_insert_delete_query_id_stability(world, backend_kwargs):
    model, items = world
    store = EmbeddingStore(model, **backend_kwargs)
    first = store.add(items[:20])
    removed = store.remove(first[5:10])
    assert removed == 5
    second = store.add(items[20:30])
    # ids never recycle, even across deletes
    assert min(second) > max(first)
    assert len(store) == 25
    for probe_pos in (0, 3, 12):
        ids, _ = store.query(items[probe_pos], k=25)
        assert set(first[5:10]).isdisjoint(ids.tolist())
    # a surviving row is still its own nearest neighbour
    ids, dist = store.query(items[2], k=1)
    assert ids[0] == first[2]
    assert dist[0] == pytest.approx(0.0, abs=1e-4)


# ----------------------------------------------------------- persistence

@pytest.mark.parametrize("backend_kwargs", [
    {"backend": "exact"},
    {"backend": "ivf", "nlist": 4, "nprobe": 4, "seed": 0},
])
def test_save_load_roundtrip_per_backend(world, tmp_path, backend_kwargs):
    model, items = world
    store = EmbeddingStore(model, **backend_kwargs)
    store.add(items[:30])
    store.remove([3, 4])
    store.save(tmp_path / "store.npz")
    reloaded = EmbeddingStore.load(tmp_path / "store.npz", model,
                                   **backend_kwargs)
    assert reloaded.backend.name == backend_kwargs["backend"]
    assert reloaded.ids == store.ids
    assert reloaded.next_id == store.next_id
    want, _ = store.query(items[7], k=5)
    got, _ = reloaded.query(items[7], k=5)
    np.testing.assert_array_equal(got, want)


def test_mmap_index_reopen_after_restart(world, tmp_path):
    """Offline-built IVF index attaches to a freshly loaded store."""
    model, items = world
    store = EmbeddingStore(model)
    store.add(items)
    store.save(tmp_path / "store.npz")
    index = IVFIndex.build(
        np.asarray(store.ids, dtype=np.int64),
        np.ascontiguousarray(store.embeddings, dtype=np.float32),
        IVFConfig(nlist=4, nprobe=4, seed=0))
    index.save(tmp_path / "ivf")

    # "restart": new store from disk + mmap'd index, no rebuild
    reloaded = EmbeddingStore.load(tmp_path / "store.npz", model)
    mapped = IVFIndex.load(tmp_path / "ivf", mmap=True)
    backend = reloaded.use_backend(IVFBackend(index=mapped))
    assert backend.index is mapped  # id sets matched: kept, not rebuilt
    want, _ = store.query(items[0], k=5)
    got, _ = reloaded.query(items[0], k=5)
    np.testing.assert_array_equal(got, want)


def test_stale_mmap_index_is_rebuilt(world, tmp_path):
    model, items = world
    store = EmbeddingStore(model)
    store.add(items)
    index = IVFIndex.build(
        np.asarray(store.ids, dtype=np.int64),
        np.ascontiguousarray(store.embeddings, dtype=np.float32),
        IVFConfig(nlist=4, nprobe=4, seed=0))
    index.save(tmp_path / "ivf")
    store.remove(store.ids[:3])  # store moved on; index is stale
    mapped = IVFIndex.load(tmp_path / "ivf", mmap=True)
    backend = store.use_backend(IVFBackend(index=mapped))
    assert backend.index is not mapped  # mismatch detected -> rebuilt
    assert backend.index.live_count == len(store)


# ------------------------------------------------------------- recall gate

def test_backend_interface_is_abstract():
    backend = SearchBackend()
    with pytest.raises(NotImplementedError):
        backend.rebuild()
    with pytest.raises(NotImplementedError):
        backend.search(np.zeros(4), 1)
    with pytest.raises(NotImplementedError):
        backend.stats()
