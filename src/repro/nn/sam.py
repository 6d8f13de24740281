"""Spatial Attention Memory (SAM) and the SAM-augmented LSTM (paper §IV).

The SAM module is a grid-based external memory: a tensor ``M`` of shape
(P, Q, d) holding one embedding per grid cell of the discretised space.
The augmented recurrent unit adds a fourth *spatial* gate ``s_t`` and, at
each step,

* **reads** (Eq. 4): scans the (2w+1)² window of grid cells around the
  current input cell, attends over them with the intermediate cell state
  and mixes the result back into the cell state, and
* **writes** (Eq. 5): stores the new cell state into the current grid cell,
  gated by ``sigma(s_t)``.

Following the released implementation, the memory is *external state*:
reads treat stored embeddings as constants and writes store detached
values — gradients flow through the attention weights and the read
projection, not through history.

Two stabilisations (both ablatable) keep long CPU trainings healthy; we
found the literal equations drift otherwise (cell-state magnitudes past 10,
saturating ``tanh`` and costing ~20 HR@10 points on our workloads):

* the spatial gate's bias starts at ``SPATIAL_GATE_BIAS`` (negative), so
  the additive memory path opens only where training finds it useful —
  the standard highway/GRU-style initialisation for additive gates;
* writes store ``tanh(c_t)`` (``bounded=True``), bounding the stored
  embeddings to the same range the attention reader was designed for.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .layers import Linear
from .rnn import (cached_on, fold_longest_first, fuse_gates, gate_arrays,
                  project_rows)
from .module import Module, Parameter
from .tensor import Tensor, concat, unstack, where

#: Initial bias of the spatial gate: strongly negative so the memory path
#: starts nearly closed and opens only where it reduces the loss.
SPATIAL_GATE_BIAS = -4.0


class SpatialMemory:
    """Grid-based memory tensor ``M`` with windowed gather and gated scatter.

    Parameters
    ----------
    grid_shape:
        (P, Q) number of grid cells along each axis.
    hidden_size:
        Width ``d`` of each stored cell embedding.
    bandwidth:
        Scan half-width ``w``; reads return the (2w+1)² surrounding cells.
    bounded:
        Store ``tanh(values)`` on writes (default True), keeping cell
        embeddings in (-1, 1) regardless of cell-state drift.
    """

    def __init__(self, grid_shape: Tuple[int, int], hidden_size: int,
                 bandwidth: int = 2, bounded: bool = True):
        if bandwidth < 0:
            raise ValueError("bandwidth must be >= 0")
        self.grid_shape = (int(grid_shape[0]), int(grid_shape[1]))
        self.hidden_size = int(hidden_size)
        self.bandwidth = int(bandwidth)
        self.bounded = bool(bounded)
        p, q = self.grid_shape
        # Flat (P·Q + 1, d) cell table; ``data`` is a (P, Q, d) view of
        # all but the last row, which stays zero so window positions
        # outside the grid read as zeros through a plain ``take``.
        self.table = np.zeros((p * q + 1, self.hidden_size), dtype=np.float64)
        offsets = np.arange(-bandwidth, bandwidth + 1, dtype=np.int64)
        ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
        # (K, 2) window offsets in row-major scan order, K = (2w+1)^2.
        self._window = np.stack([ox.ravel(), oy.ravel()], axis=1)

    @property
    def data(self) -> np.ndarray:
        """(P, Q, d) cell embeddings, a view of :attr:`table`."""
        p, q = self.grid_shape
        return self.table[:-1].reshape(p, q, self.hidden_size)

    @data.setter
    def data(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        p, q = self.grid_shape
        if value.shape != (p, q, self.hidden_size):
            raise ValueError(f"memory data must have shape "
                             f"{(p, q, self.hidden_size)}, got {value.shape}")
        self.table[:-1] = value.reshape(p * q, self.hidden_size)

    @property
    def window_size(self) -> int:
        return len(self._window)

    def reset(self) -> None:
        """Zero the memory (used between training runs / datasets)."""
        self.table[:] = 0.0

    def copy(self) -> "SpatialMemory":
        clone = SpatialMemory(self.grid_shape, self.hidden_size,
                              self.bandwidth, bounded=self.bounded)
        clone.table = self.table.copy()
        return clone

    def window_rows(self, cells: np.ndarray) -> np.ndarray:
        """:attr:`table` rows of the scan windows around ``cells`` (..., 2).

        Returns (..., K) row indices; window positions outside the grid
        point at the table's trailing zero row.
        """
        cells = np.asarray(cells, dtype=np.int64)
        gx = cells[..., 0:1] + self._window[:, 0]
        gy = cells[..., 1:2] + self._window[:, 1]
        p, q = self.grid_shape
        rows = gx * q
        rows += gy
        # One unsigned compare per axis tests 0 <= g < size.
        outside = gx.view(np.uint64) >= p
        outside |= gy.view(np.uint64) >= q
        rows[outside] = p * q
        return rows

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """Read the scan windows around a batch of grid cells.

        Parameters
        ----------
        cells:
            Integer array (B, 2) of (gx, gy) cell coordinates.

        Returns
        -------
        (B, K, d) array of the surrounding grid-cell embeddings; positions
        outside the grid read as zeros.
        """
        return self.table.take(self.window_rows(cells), axis=0)

    def write(self, cells: np.ndarray, values: np.ndarray, gates: np.ndarray,
              mask: Optional[np.ndarray] = None) -> None:
        """Gated sparse update ``M(g) = sig(s)*c + (1-sig(s))*M(g)`` (Eq. 5).

        Writes follow batch order, matching the per-trajectory semantics of
        the paper (a later sample in the batch sees earlier writes to the
        same cell). The update is a vectorised scatter: samples hitting
        *distinct* cells are blended in one fancy-indexed assignment, and
        duplicate cells are resolved by last-writer chaining — round ``r``
        applies the ``r``-th writer of every duplicated cell, so the chained
        result is bit-identical to the sequential loop.
        """
        cells = np.asarray(cells, dtype=int)
        values = np.asarray(values, dtype=np.float64)
        if self.bounded:
            values = np.tanh(values)
        gate_weight = _sigmoid(np.asarray(gates, dtype=np.float64))
        p, q = self.grid_shape
        valid = ((cells[:, 0] >= 0) & (cells[:, 0] < p)
                 & (cells[:, 1] >= 0) & (cells[:, 1] < q))
        if mask is not None:
            valid &= np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(valid)
        if rows.size == 0:
            return
        gx = cells[rows, 0]
        gy = cells[rows, 1]
        flat = gx * q + gy
        # Stable sort groups duplicate cells while preserving batch order
        # inside each group; ``rank`` is each row's position in its group.
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        group_start = np.flatnonzero(
            np.concatenate([[True], sorted_flat[1:] != sorted_flat[:-1]]))
        group_id = np.cumsum(
            np.concatenate([[True], sorted_flat[1:] != sorted_flat[:-1]])) - 1
        rank = np.arange(len(sorted_flat), dtype=np.intp) - group_start[group_id]
        for r in range(int(rank.max()) + 1):
            sel = order[rank == r]  # one writer per cell -> scatter is safe
            g = gate_weight[rows[sel]]
            self.data[gx[sel], gy[sel]] = (
                g * values[rows[sel]]
                + (1.0 - g) * self.data[gx[sel], gy[sel]])

    def occupancy(self) -> float:
        """Fraction of grid cells holding a non-zero embedding."""
        nonzero = np.any(self.data != 0.0, axis=-1)
        return float(nonzero.mean())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same stable one-exp logistic as the autodiff ops.
    e = np.exp(-np.abs(x))
    pos = 1.0 / (1.0 + e)
    return np.where(x >= 0, pos, e * pos)


class SAMLSTMCell(Module):
    """SAM-augmented LSTM step (paper Eq. 1-6).

    Produces four sigmoid gates ``[f, i, s, o]`` from the coordinate input
    and previous hidden state, forms the intermediate cell state, augments it
    with the attention read from :class:`SpatialMemory` scaled by the spatial
    gate, writes the result back, and emits the hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.w_gates = Parameter(init.xavier_uniform((4 * d, input_size), rng))
        self.u_gates = Parameter(init.orthogonal((4 * d, d), rng))
        bias = init.lstm_forget_bias(init.zeros(4 * d), d)
        bias[2 * d:3 * d] = SPATIAL_GATE_BIAS
        self.b_gates = Parameter(bias)
        self.w_cand = Parameter(init.xavier_uniform((d, input_size), rng))
        self.u_cand = Parameter(init.orthogonal((d, d), rng))
        self.b_cand = Parameter(init.zeros(d))
        # Attention read projection W_his: concat([c_hat, mix]) -> d.
        self.read_proj = Linear(2 * d, d, rng)

    def forward(self, x: Tensor, grid_cells: np.ndarray, h_prev: Tensor,
                c_prev: Tensor, memory: SpatialMemory,
                write: bool = True, step_mask: Optional[np.ndarray] = None
                ) -> Tuple[Tensor, Tensor]:
        d = self.hidden_size
        gates = (x @ self.w_gates.transpose()
                 + h_prev @ self.u_gates.transpose() + self.b_gates).sigmoid()
        f_t = gates[:, 0 * d:1 * d]
        i_t = gates[:, 1 * d:2 * d]
        s_t = gates[:, 2 * d:3 * d]
        o_t = gates[:, 3 * d:4 * d]
        cand = (x @ self.w_cand.transpose()
                + h_prev @ self.u_cand.transpose() + self.b_cand).tanh()
        c_hat = f_t * c_prev + i_t * cand

        c_his = self.read(c_hat, grid_cells, memory)
        c_t = c_hat + s_t * c_his
        if write:
            memory.write(grid_cells, c_t.data, s_t.data, mask=step_mask)
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def project_inputs(self, inputs: np.ndarray) -> Tuple[list, list]:
        """Hoisted input projections for a whole (B, T, in) sequence.

        One ``(B·T, in) @ W`` matmul per weight (biases folded in) instead
        of one per timestep; returns per-step (B, 4d) and (B, d) tensors.
        """
        batch, steps, _ = inputs.shape
        flat = Tensor(inputs.reshape(batch * steps, -1))
        x_gates = (flat @ self.w_gates.transpose() + self.b_gates
                   ).reshape(batch, steps, 4 * self.hidden_size
                             ).transpose(1, 0, 2)
        x_cand = (flat @ self.w_cand.transpose() + self.b_cand
                  ).reshape(batch, steps, self.hidden_size).transpose(1, 0, 2)
        return unstack(x_gates), unstack(x_cand)

    def step(self, x_gates_t: Tensor, x_cand_t: Tensor,
             grid_cells: np.ndarray, h_prev: Tensor, c_prev: Tensor,
             memory: SpatialMemory, write: bool = True,
             step_mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Fused step on pre-projected inputs (see :meth:`project_inputs`).

        When ``step_mask`` is given the padded-step carry (``h``/``c`` keep
        their previous values where the mask is False) is folded into the
        fused core instead of costing two extra ``where`` tape nodes.
        """
        window = memory.gather(grid_cells)
        h_t, c_t, s_t = self.step_core(x_gates_t, x_cand_t, h_prev, c_prev,
                                       window, step_mask=step_mask)
        if write:
            memory.write(grid_cells, c_t.data, s_t, mask=step_mask)
        return h_t, c_t

    def read(self, c_hat: Tensor, grid_cells: np.ndarray,
             memory: SpatialMemory) -> Tensor:
        """Attention read (§IV-C1): scan, attend, mix, project."""
        window = Tensor(memory.gather(grid_cells))  # (B, K, d), constant
        # Attention scores: (B, K, d) @ (B, d, 1) -> (B, K).
        scores = (window @ c_hat.reshape(c_hat.shape[0], c_hat.shape[1], 1)
                  ).reshape(window.shape[0], window.shape[1])
        attn = scores.softmax(axis=-1)
        # mix = G^T A: (B, d, K) @ (B, K, 1) -> (B, d).
        mix = (window.transpose(0, 2, 1)
               @ attn.reshape(attn.shape[0], attn.shape[1], 1)
               ).reshape(c_hat.shape)
        cat = concat([c_hat, mix], axis=-1)
        return self.read_proj(cat).tanh()

    def step_core(self, x_gates_t: Tensor, x_cand_t: Tensor, h_prev: Tensor,
                  c_prev: Tensor, window: np.ndarray,
                  step_mask: Optional[np.ndarray] = None
                  ) -> Tuple[Tensor, Tensor, np.ndarray]:
        """Recurrent projections → gates → candidate → read → states, fused.

        Computes the whole recurrence core — recurrent matmuls, sigmoid
        gate slab, candidate ``tanh``, intermediate cell state, attention
        read over ``window`` and the output states — in raw numpy with a
        hand-written backward, so each timestep adds two tape nodes
        (``c_t``, ``h_t``) instead of ~20. Forward runs the exact numpy
        operations of the legacy per-step path, keeping the two
        bit-identical. ``window`` is a constant: reads do not
        backpropagate into stored history.

        ``step_mask`` (B,) folds the padded-step carry into the same two
        nodes: rows with a False mask emit ``h_prev``/``c_prev`` unchanged
        and route their gradients straight back to the previous states,
        exactly as the standalone ``where`` carry would.

        Returns ``(h_t, c_t, s_t_data)`` — the spatial-gate values are
        needed by the caller for the memory write.
        """
        u_gates, u_cand = self.u_gates, self.u_cand
        weight, bias = self.read_proj.weight, self.read_proj.bias
        batch, d = c_prev.shape
        h_data = h_prev.data
        pre = x_gates_t.data + h_data @ u_gates.data.transpose()
        cand_pre = x_cand_t.data + h_data @ u_cand.data.transpose()
        slab = _sigmoid(pre)
        f_t = slab[:, 0 * d:1 * d]
        i_t = slab[:, 1 * d:2 * d]
        s_t = slab[:, 2 * d:3 * d]
        o_t = slab[:, 3 * d:4 * d]
        cand = np.tanh(cand_pre)
        c_hat = f_t * c_prev.data + i_t * cand

        scores = (window @ c_hat.reshape(batch, d, 1)
                  ).reshape(batch, window.shape[1])
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn = e / e.sum(axis=-1, keepdims=True)
        mix = (window.transpose(0, 2, 1)
               @ attn.reshape(batch, -1, 1)).reshape(batch, d)
        cat = np.concatenate([c_hat, mix], axis=-1)
        c_his = np.tanh(cat @ weight.data.transpose() + bias.data)
        c_t_data = c_hat + s_t * c_his
        tanh_ct = np.tanh(c_t_data)
        h_t_data = o_t * tanh_ct
        if step_mask is not None:
            carry = ~np.asarray(step_mask, dtype=bool)[:, None]
            c_t_data = np.where(carry, c_prev.data, c_t_data)
            h_t_data = np.where(carry, h_prev.data, h_t_data)
        else:
            carry = None

        def backward_c(grad: np.ndarray) -> None:
            if carry is not None:
                if c_prev.requires_grad:
                    c_prev._accumulate(np.where(carry, grad, 0.0))
                grad = np.where(carry, 0.0, grad)
            g_s = grad * c_his * s_t * (1.0 - s_t)
            g_read = grad * s_t * (1.0 - c_his * c_his)
            if bias.requires_grad:
                bias._accumulate(g_read.sum(axis=0))
            if weight.requires_grad:
                weight._accumulate(g_read.transpose() @ cat)
            g_cat = g_read @ weight.data
            g_mix = g_cat[:, d:]
            g_attn = (window @ g_mix.reshape(batch, d, 1)
                      ).reshape(batch, -1)
            dot = (g_attn * attn).sum(axis=-1, keepdims=True)
            g_scores = attn * (g_attn - dot)
            g_c_hat = grad + g_cat[:, :d] + (
                window.transpose(0, 2, 1)
                @ g_scores.reshape(batch, -1, 1)).reshape(batch, d)
            # (B, 3d) gradient of the [f, i, s] block of ``pre``.
            g_fis = np.concatenate(
                [g_c_hat * c_prev.data * f_t * (1.0 - f_t),
                 g_c_hat * cand * i_t * (1.0 - i_t),
                 g_s], axis=-1)
            g_cand_pre = g_c_hat * i_t * (1.0 - cand * cand)
            if x_gates_t.requires_grad:
                x_gates_t._accumulate_into((Ellipsis, slice(0, 3 * d)), g_fis)
            if x_cand_t.requires_grad:
                x_cand_t._accumulate(g_cand_pre)
            if h_prev.requires_grad:
                h_prev._accumulate(g_fis @ u_gates.data[:3 * d]
                                   + g_cand_pre @ u_cand.data)
            if u_gates.requires_grad:
                u_gates._accumulate_into(slice(0, 3 * d),
                                         g_fis.transpose() @ h_data)
            if u_cand.requires_grad:
                u_cand._accumulate(g_cand_pre.transpose() @ h_data)
            if c_prev.requires_grad:
                c_prev._accumulate(g_c_hat * f_t)

        c_t = Tensor._make(
            c_t_data,
            (x_gates_t, x_cand_t, h_prev, c_prev, u_gates, u_cand,
             weight, bias),
            backward_c)

        def backward_h(grad: np.ndarray) -> None:
            if carry is not None:
                if h_prev.requires_grad:
                    h_prev._accumulate(np.where(carry, grad, 0.0))
                grad = np.where(carry, 0.0, grad)
            g_o = grad * tanh_ct * o_t * (1.0 - o_t)
            if x_gates_t.requires_grad:
                x_gates_t._accumulate_into((Ellipsis, slice(3 * d, 4 * d)),
                                           g_o)
            if h_prev.requires_grad:
                h_prev._accumulate(g_o @ u_gates.data[3 * d:])
            if u_gates.requires_grad:
                u_gates._accumulate_into(slice(3 * d, 4 * d),
                                         g_o.transpose() @ h_data)
            if c_t.requires_grad:
                c_t._accumulate(grad * o_t * (1.0 - tanh_ct * tanh_ct))

        h_t = Tensor._make(h_t_data, (x_gates_t, h_prev, u_gates, c_t),
                           backward_h)
        return h_t, c_t, s_t


class SAMLSTM(Module):
    """Run a :class:`SAMLSTMCell` over padded (coords, grid-cells) sequences.

    ``forward`` consumes coordinates (B, T, input_size), integer grid cells
    (B, T, 2) and a boolean mask (B, T). Memory writes happen only when
    ``update_memory`` is True (training); inference is read-only so that
    embeddings are deterministic.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, fused: bool = True):
        self.hidden_size = hidden_size
        self.cell = SAMLSTMCell(input_size, hidden_size, rng)
        self.fused = fused

    def forward(self, inputs: np.ndarray, grid_cells: np.ndarray,
                mask: np.ndarray, memory: SpatialMemory,
                update_memory: bool = False, return_sequence: bool = False):
        inputs = np.asarray(inputs, dtype=np.float64)
        grid_cells = np.asarray(grid_cells, dtype=int)
        mask = np.asarray(mask, dtype=bool)
        batch, steps, _ = inputs.shape
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        if self.fused:
            x_gates, x_cand = self.cell.project_inputs(inputs)
        outputs = []
        for t in range(steps):
            step_mask = mask[:, t]
            if self.fused:
                # The padded-step carry is folded into the fused core.
                h, c = self.cell.step(
                    x_gates[t], x_cand[t], grid_cells[:, t, :], h, c, memory,
                    write=update_memory, step_mask=step_mask)
            else:
                h_new, c_new = self.cell(
                    Tensor(inputs[:, t, :]), grid_cells[:, t, :], h, c,
                    memory, write=update_memory, step_mask=step_mask)
                h = where(step_mask[:, None], h_new, h)
                c = where(step_mask[:, None], c_new, c)
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return h, outputs
        return h

    def infer(self, inputs: np.ndarray, grid_cells: np.ndarray,
              lengths: np.ndarray, memory: SpatialMemory,
              h0: Optional[np.ndarray] = None,
              c0: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward-only final states ``(h, c)``; the memory is read-only.

        The inference twin of :meth:`forward` (``update_memory=False``),
        equal to it to rounding but allocating no ``Tensor``:

        * gates and candidate share one fused 5d-wide recurrent matmul
          and one ``tanh`` (see :func:`~repro.nn.rnn.fuse_gates`);
        * the scan-window rows of every step are computed once per batch
          (:meth:`SpatialMemory.window_rows`), and each step gathers its
          (B, K, d) window with one ``take`` — out-of-grid positions hit
          the table's zero row instead of a per-step mask write;
        * rows run longest first and drop out as they end
          (:func:`~repro.nn.rnn.fold_longest_first`), so padding is free.

        ``h0``/``c0`` (B, d) resume a fold from a saved prefix state.
        """
        cell = self.cell
        d = self.hidden_size
        read = cell.read_proj
        w, u_t, b, read_t, read_b = cached_on(
            cell, gate_arrays(cell) + (read.weight.data, read.bias.data),
            lambda: fuse_gates(cell, 4 * d) + (
                np.ascontiguousarray(read.weight.data.T, dtype=np.float64),
                read.bias.data))
        table = memory.table
        x_proj, order = project_rows(inputs, lengths, w, b)
        rows = memory.window_rows(
            np.asarray(grid_cells, dtype=np.int64)[order].transpose(1, 0, 2))
        gate_buf = np.empty((5, len(order), d), dtype=np.float64)

        def step(t: int, h: np.ndarray, c: np.ndarray):
            n = len(h)
            z = h @ u_t
            z += x_proj[t, :n]
            # One tanh over the fused slab, written gate-major so that each
            # gate's (n, d) block is contiguous for the ops below.
            g = np.tanh(z.reshape(n, 5, d).transpose(1, 0, 2),
                        out=gate_buf[:, :n])
            sig = g[:4]  # [f, i, s, o]; g[4] is the candidate
            sig *= 0.5
            sig += 0.5
            c_hat = g[0] * c
            c_hat += g[1] * g[4]
            window = table.take(rows[t, :n], axis=0)  # (n, K, d)
            attn = window @ c_hat[:, :, None]  # (n, K, 1) scores
            attn -= attn.max(axis=1, keepdims=True)
            np.exp(attn, out=attn)
            attn /= attn.sum(axis=1, keepdims=True)
            mix = attn.transpose(0, 2, 1) @ window  # (n, 1, d)
            c = np.concatenate([c_hat, mix[:, 0]], axis=1) @ read_t
            c += read_b
            np.tanh(c, out=c)
            c *= g[2]
            c += c_hat
            h = np.tanh(c)
            h *= g[3]
            return h, c

        return fold_longest_first(step, lengths, order, h0, c0, d)
