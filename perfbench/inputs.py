"""Seeded inputs and the program-side set-up each workload serves from.

Two halves, kept apart because only the second is timed as ``setup_s``:

* :func:`make_inputs` turns ``--seed`` into raw data (Porto-like
  trajectories) on disk. It is the benchmark's stand-in for a real
  dataset, generated once per run.
* :func:`build` is what an operator does before serving: train the
  encoder on a seed pool, embed the database, and write the serving
  bundle (plus, for the sharded tier, the partitions). It runs in its
  own process, once per set-up repetition, through public API only.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: Workload -> sizes. ``db`` is the number of embedded real trajectories.
SIZES: Dict[str, Dict] = {
    "serial_topk": {"db": 10_000},
    # Real embeddings plus synthetic rows drawn around them. 5k real rows
    # (not 10k) keep three set-ups per run inside the time budget.
    "sharded_mixed": {"db": 5_000, "rows": 200_000, "shards": 2},
    # The service only needs a non-empty store to be ready; the load is
    # the stream, sized in workloads.py.
    "ingest_stream": {"db": 1_000},
}

MODEL = {"measure": "hausdorff", "embedding_dim": 32, "epochs": 1,
         "sampling_num": 5, "batch_anchors": 20, "seed_pool": 40}
#: Spread of synthetic rows around the real embedding they are drawn
#: from, as a share of each dimension's standard deviation.
SYNTHETIC_SPREAD = 0.1


def porto(count: int, seed: int, min_points: int = 10,
          max_points: int = 60) -> List:
    from repro.datasets.porto import PortoConfig, generate_porto

    return list(generate_porto(
        PortoConfig(num_trajectories=count, min_points=min_points,
                    max_points=max_points), seed=seed))


def save_trajectories(path: Path, trajectories: Sequence) -> None:
    points = [np.asarray(t.points, dtype=np.float64) for t in trajectories]
    lengths = np.array([len(p) for p in points], dtype=np.int64)
    np.savez(path, points=np.concatenate(points), lengths=lengths)


def load_trajectories(path: Path) -> List:
    from repro.datasets.trajectory import Trajectory

    with np.load(path) as payload:
        points, lengths = payload["points"], payload["lengths"]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [Trajectory(points[bounds[i]:bounds[i + 1]], traj_id=i)
            for i in range(len(lengths))]


def make_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Write the workload's raw database trajectories; returns the file."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "db.npz"
    save_trajectories(path, porto(SIZES[workload]["db"], seed))
    return path


def build(workload: str, seed: int, db_path: Path, out: Path) -> None:
    """Train, embed and write the bundle (and partitions) under ``out``."""
    from repro import NeuTraj, NeuTrajConfig
    from repro.core.partition import save_partitions
    from repro.core.store import EmbeddingStore
    from repro.serving import save_bundle

    db = load_trajectories(db_path)
    model = NeuTraj(NeuTrajConfig(
        measure=MODEL["measure"], embedding_dim=MODEL["embedding_dim"],
        epochs=MODEL["epochs"], sampling_num=MODEL["sampling_num"],
        batch_anchors=MODEL["batch_anchors"], seed=seed))
    model.fit(db[:MODEL["seed_pool"]])
    store = EmbeddingStore(model)
    store.add(db)
    probes = db[:4]
    if workload != "sharded_mixed":
        save_bundle(out / "bundle", model, store, probes=probes)
        return
    sizes = SIZES[workload]
    real = store.embeddings
    rng = np.random.default_rng(seed)
    extra = sizes["rows"] - len(real)
    around = real[rng.integers(0, len(real), extra)]
    synthetic = around + rng.standard_normal(around.shape) * (
        real.std(axis=0) * SYNTHETIC_SPREAD)
    table = np.vstack([real, synthetic])
    save_bundle(out / "bundle", model, None, probes=probes)
    save_partitions(out / "partitions", np.arange(len(table)), table,
                    sizes["shards"])
