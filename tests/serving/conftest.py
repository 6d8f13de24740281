"""Shared fixtures for the serving-layer tests.

One small NeuTraj is trained once per session and shared by every test in
this package; the database/store/bundle fixtures derive from it.
"""

import pytest

from repro import NeuTraj, NeuTrajConfig, PortoConfig, generate_porto
from repro.core.store import EmbeddingStore
from repro.serving import save_bundle


@pytest.fixture(scope="session")
def serving_world():
    """(model, database trajectories) trained once for the whole session."""
    ds = generate_porto(PortoConfig(num_trajectories=44, min_points=8,
                                    max_points=14), seed=31)
    items = list(ds)
    model = NeuTraj(NeuTrajConfig(measure="hausdorff", embedding_dim=8,
                                  epochs=2, sampling_num=3, batch_anchors=8,
                                  cell_size=500.0, seed=0))
    model.fit(items[:20])
    return model, items[20:]


@pytest.fixture
def fresh_store(serving_world):
    """A store over the first 16 database items (4 left for inserts)."""
    model, items = serving_world
    store = EmbeddingStore(model)
    store.add(items[:16])
    return store


@pytest.fixture
def bundle_dir(serving_world, fresh_store, tmp_path):
    model, items = serving_world
    path = tmp_path / "bundle"
    save_bundle(path, model, fresh_store, probes=items[:3],
                metadata={"origin": "tests"})
    return path


class WrappedModel:
    """Delegate everything to the real model except ``embed``."""

    def __init__(self, model, embed):
        self._model = model
        self.embed = embed

    def __getattr__(self, name):
        return getattr(self._model, name)
