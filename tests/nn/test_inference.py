"""The forward-only inference path agrees with the tape path.

``SAMLSTM.infer`` / ``LSTM.infer`` (what ``TrajectoryEncoder.embed`` and
``extend_prefix`` run) must give the same final states as the taped
``forward`` to within 1e-12: with mixed lengths (padding), scan windows
that reach past the grid edge, and centre cells off the grid entirely.
"""

import numpy as np
import pytest

from repro.core.config import NeuTrajConfig
from repro.core.encoder import TrajectoryEncoder
from repro.datasets import Grid, Trajectory
from repro.datasets.grid import CoordinateNormalizer
from repro.nn import LSTM, SAMLSTM, SpatialMemory, lengths_to_mask
from repro.nn.tensor import no_grad

TOL = 1e-12
BATCHES = (1, 5, 17)


def _filled_memory(grid_shape, d, seed):
    """A memory with non-zero cells, so every read actually contributes."""
    memory = SpatialMemory(grid_shape, d, bandwidth=2)
    rng = np.random.default_rng(seed)
    memory.data = np.tanh(rng.normal(size=memory.data.shape))
    return memory


def _batch(rng, batch, dim_in=2):
    lengths = rng.integers(1, 61, size=batch)
    inputs = rng.normal(size=(batch, int(lengths.max()), dim_in))
    return inputs, lengths


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("seed", range(3))
def test_samlstm_infer_matches_forward(batch, seed):
    rng = np.random.default_rng(seed)
    d, grid_shape = 8, (6, 5)
    rnn = SAMLSTM(2, d, np.random.default_rng(seed))
    memory = _filled_memory(grid_shape, d, seed)
    inputs, lengths = _batch(rng, batch)
    # Centre cells span the edge rows/columns and lie up to 3 cells off
    # the grid on every side, so windows are partly or wholly outside.
    cells = np.stack([rng.integers(-3, grid_shape[0] + 3, inputs.shape[:2]),
                      rng.integers(-3, grid_shape[1] + 3, inputs.shape[:2])],
                     axis=-1)
    mask = lengths_to_mask(lengths, inputs.shape[1])
    with no_grad():
        expected = rnn(inputs, cells, mask, memory).data
    h, c = rnn.infer(inputs, cells, lengths, memory)
    assert np.abs(h - expected).max() <= TOL
    assert c.shape == h.shape


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("seed", range(3))
def test_lstm_infer_matches_forward(batch, seed):
    rng = np.random.default_rng(seed)
    rnn = LSTM(2, 8, np.random.default_rng(seed))
    inputs, lengths = _batch(rng, batch)
    mask = lengths_to_mask(lengths, inputs.shape[1])
    with no_grad():
        expected = rnn(inputs, mask).data
    h, _ = rnn.infer(inputs, lengths)
    assert np.abs(h - expected).max() <= TOL


def test_samlstm_infer_leaves_memory_untouched():
    rnn = SAMLSTM(2, 4, np.random.default_rng(0))
    memory = _filled_memory((4, 4), 4, 0)
    before = memory.table.copy()
    rng = np.random.default_rng(1)
    inputs, lengths = _batch(rng, 5)
    cells = rng.integers(0, 4, size=inputs.shape[:2] + (2,))
    rnn.infer(inputs, cells, lengths, memory)
    assert np.array_equal(memory.table, before)


def _encoder(use_sam, seed):
    grid = Grid((0.0, 0.0, 1000.0, 1000.0), cell_size=100.0)
    normalizer = CoordinateNormalizer(mean=[500.0, 500.0],
                                      std=[250.0, 250.0])
    cfg = NeuTrajConfig(embedding_dim=8, use_sam=use_sam, cell_size=100.0,
                        seed=seed)
    enc = TrajectoryEncoder(grid, normalizer, cfg,
                            np.random.default_rng(seed))
    if use_sam:
        enc.memory.data = _filled_memory(grid.shape, 8, seed).data
    return enc


@pytest.mark.parametrize("use_sam", [True, False])
@pytest.mark.parametrize("batch", BATCHES)
def test_embed_matches_taped_encode(use_sam, batch):
    """``embed`` (inference path) vs ``encode`` (tape) on raw trajectories.

    Points fall inside the grid, exactly on its edges, and outside it
    (clipped to the edge cells), with lengths 1-60.
    """
    enc = _encoder(use_sam, seed=batch)
    rng = np.random.default_rng(batch)
    edges = np.array([0.0, 1000.0, 999.999, 100.0])
    trajectories = []
    for length in rng.integers(1, 61, size=batch):
        points = rng.uniform(-300.0, 1300.0, size=(int(length), 2))
        on_edge = rng.random(points.shape) < 0.2
        points[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        trajectories.append(Trajectory(points))
    with no_grad():
        expected = enc.encode(trajectories).data
    got = enc.embed(trajectories, batch_size=4)
    assert np.abs(got - expected).max() <= TOL


@pytest.mark.parametrize("use_sam", [True, False])
def test_prefix_fold_matches_taped_encode(use_sam):
    enc = _encoder(use_sam, seed=3)
    rng = np.random.default_rng(3)
    points = rng.uniform(-100.0, 1100.0, size=(30, 2))
    state = enc.extend_prefix(enc.encode_prefix(points[:11]), points[11:])
    with no_grad():
        expected = enc.encode([Trajectory(points)]).data[0]
    assert np.abs(state.embedding - expected).max() <= TOL


def test_fused_weights_follow_replaced_parameters():
    """Inference sees weights an optimizer step or a load assigns."""
    enc = _encoder(True, seed=0)
    traj = [Trajectory(np.random.default_rng(0).uniform(0, 1000, (9, 2)))]
    before = enc.embed(traj)
    state = enc.state_dict()
    enc.load_state_dict({k: v * 1.5 for k, v in state.items()})
    with no_grad():
        expected = enc.encode(traj).data
    after = enc.embed(traj)
    assert not np.allclose(after, before)
    assert np.abs(after - expected).max() <= TOL


def test_gather_matches_naive_window_read_off_the_grid():
    """Window rows pointing at the zero row read exactly like a bounds check."""
    p, q, w = 5, 4, 2
    memory = _filled_memory((p, q), 3, 7)
    cells = np.array([[gx, gy] for gx in range(-4, p + 4)
                      for gy in range(-4, q + 4)])
    expected = np.zeros((len(cells), (2 * w + 1) ** 2, 3))
    for b, (gx, gy) in enumerate(cells):
        k = 0
        for dx in range(-w, w + 1):
            for dy in range(-w, w + 1):
                x, y = gx + dx, gy + dy
                if 0 <= x < p and 0 <= y < q:
                    expected[b, k] = memory.data[x, y]
                k += 1
    assert np.array_equal(memory.gather(cells), expected)
