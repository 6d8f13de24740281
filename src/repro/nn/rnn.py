"""Batched LSTM over variable-length coordinate sequences.

This is the backbone shared by the Siamese baseline and the NT-No-SAM
ablation; :mod:`repro.nn.sam` extends the same structure with the spatial
attention memory. Gate layout follows the paper's Eq. 1-2 with the spatial
gate removed: a single sigmoid block produces ``[forget, input, output]``
and a separate tanh block produces the candidate cell state.

Two execution paths produce numerically equivalent results:

* the **fused** path (default) hoists the input projections of *all*
  timesteps into one ``(B·T, in) @ W`` matmul per sequence and uses the
  fused :func:`~repro.nn.tensor.lstm_gates` op per step — this is the
  training hot path;
* the **legacy** path (``fused=False``) runs :meth:`LSTMCell.forward`
  step by step exactly as written in the paper equations; it is kept as
  the equivalence/benchmark baseline.

Inference does not build a tape at all: :meth:`LSTM.infer` is a
forward-only numpy fold (one fused recurrent matmul per step, no
``Tensor``) over rows sorted longest first, so padded steps cost
nothing. :func:`project_rows` and :func:`fold_longest_first` are shared
with the SAM-LSTM's inference path.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, lstm_gates, unstack, where


class LSTMCell(Module):
    """Single LSTM step. Inputs ``x``: (B, input_size); states: (B, hidden)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        d = hidden_size
        self.w_gates = Parameter(init.xavier_uniform((3 * d, input_size), rng))
        self.u_gates = Parameter(init.orthogonal((3 * d, d), rng))
        self.b_gates = Parameter(init.lstm_forget_bias(init.zeros(3 * d), d))
        self.w_cand = Parameter(init.xavier_uniform((d, input_size), rng))
        self.u_cand = Parameter(init.orthogonal((d, d), rng))
        self.b_cand = Parameter(init.zeros(d))

    def forward(self, x: Tensor, h_prev: Tensor, c_prev: Tensor
                ) -> Tuple[Tensor, Tensor]:
        d = self.hidden_size
        gates = (x @ self.w_gates.transpose()
                 + h_prev @ self.u_gates.transpose() + self.b_gates).sigmoid()
        f_t = gates[:, 0 * d:1 * d]
        i_t = gates[:, 1 * d:2 * d]
        o_t = gates[:, 2 * d:3 * d]
        cand = (x @ self.w_cand.transpose()
                + h_prev @ self.u_cand.transpose() + self.b_cand).tanh()
        c_t = f_t * c_prev + i_t * cand
        h_t = o_t * c_t.tanh()
        return h_t, c_t

    def project_inputs(self, inputs: np.ndarray) -> Tuple[list, list]:
        """Hoisted input projections for a whole (B, T, in) sequence.

        One ``(B·T, in) @ W`` matmul per weight (biases folded in) instead
        of one per timestep; returns per-step (B, 3d) and (B, d) tensors.
        """
        batch, steps, _ = inputs.shape
        flat = Tensor(inputs.reshape(batch * steps, -1))
        x_gates = (flat @ self.w_gates.transpose() + self.b_gates
                   ).reshape(batch, steps, 3 * self.hidden_size
                             ).transpose(1, 0, 2)
        x_cand = (flat @ self.w_cand.transpose() + self.b_cand
                  ).reshape(batch, steps, self.hidden_size).transpose(1, 0, 2)
        return unstack(x_gates), unstack(x_cand)

    def step(self, x_gates_t: Tensor, x_cand_t: Tensor, h_prev: Tensor,
             c_prev: Tensor, u_gates_t: Optional[Tensor] = None,
             u_cand_t: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Fused step on pre-projected inputs (see :meth:`project_inputs`).

        ``u_gates_t`` / ``u_cand_t`` are the transposed recurrent weights;
        pass them in when stepping a whole sequence so the transpose nodes
        are built once instead of per step.
        """
        if u_gates_t is None:
            u_gates_t = self.u_gates.transpose()
        if u_cand_t is None:
            u_cand_t = self.u_cand.transpose()
        pre = x_gates_t + h_prev @ u_gates_t
        f_t, i_t, o_t = lstm_gates(pre, 3)
        cand = (x_cand_t + h_prev @ u_cand_t).tanh()
        c_t = f_t * c_prev + i_t * cand
        h_t = o_t * c_t.tanh()
        return h_t, c_t


class LSTM(Module):
    """Run an :class:`LSTMCell` over padded sequences with a validity mask.

    ``forward`` consumes coordinates of shape (B, T, input_size) and a boolean
    mask (B, T); padded steps carry the previous state through so the final
    state equals the state at each sequence's true end. ``fused`` selects the
    hoisted-projection fast path (default) or the legacy per-step reference.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, fused: bool = True):
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.fused = fused

    def forward(self, inputs: np.ndarray, mask: np.ndarray,
                return_sequence: bool = False):
        inputs = np.asarray(inputs, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        batch, steps, _ = inputs.shape
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=np.float64))
        if self.fused:
            x_gates, x_cand = self.cell.project_inputs(inputs)
            u_gates_t = self.cell.u_gates.transpose()
            u_cand_t = self.cell.u_cand.transpose()
        outputs = []
        for t in range(steps):
            if self.fused:
                h_new, c_new = self.cell.step(x_gates[t], x_cand[t], h, c,
                                              u_gates_t, u_cand_t)
            else:
                h_new, c_new = self.cell(Tensor(inputs[:, t, :]), h, c)
            step_mask = mask[:, t][:, None]
            h = where(step_mask, h_new, h)
            c = where(step_mask, c_new, c)
            if return_sequence:
                outputs.append(h)
        if return_sequence:
            return h, outputs
        return h

    def infer(self, inputs: np.ndarray, lengths: np.ndarray,
              h0: Optional[np.ndarray] = None,
              c0: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward-only final states ``(h, c)`` of a padded batch.

        ``inputs`` is (B, T, input_size); row ``b`` is valid for its first
        ``lengths[b]`` steps. Matches :meth:`forward`'s final state to
        rounding but allocates no ``Tensor``: gates and candidate share
        one fused 4d-wide recurrent matmul and one ``tanh`` per step (see
        :func:`fuse_gates`). ``h0``/``c0`` (B, d) resume a fold.
        """
        cell = self.cell
        d = self.hidden_size
        w, u_t, b = cached_on(cell, gate_arrays(cell),
                              lambda: fuse_gates(cell, 3 * d))
        x_proj, order = project_rows(inputs, lengths, w, b)
        gate_buf = np.empty((4, len(order), d), dtype=np.float64)

        def step(t: int, h: np.ndarray, c: np.ndarray):
            n = len(h)
            z = h @ u_t
            z += x_proj[t, :n]
            # Gate-major tanh output: each gate's (n, d) block contiguous.
            g = np.tanh(z.reshape(n, 4, d).transpose(1, 0, 2),
                        out=gate_buf[:, :n])
            sig = g[:3]  # [f, i, o]; g[3] is the candidate
            sig *= 0.5
            sig += 0.5
            c = g[0] * c
            c += g[1] * g[3]
            h = np.tanh(c)
            h *= g[2]
            return h, c

        return fold_longest_first(step, lengths, order, h0, c0, d)


def gate_arrays(cell: Module) -> Tuple[np.ndarray, ...]:
    """The ``.data`` arrays a cell's fused gate projection is built from."""
    return (cell.w_gates.data, cell.u_gates.data, cell.b_gates.data,
            cell.w_cand.data, cell.u_cand.data, cell.b_cand.data)


def fuse_gates(cell: Module, gate_rows: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fused ``(W, U^T, b)`` for a cell's gate and candidate blocks.

    Stacks ``[w_gates; w_cand]`` (and ``u``, ``b`` alike) so one matmul
    yields every pre-activation, with the first ``gate_rows`` rows (the
    sigmoid gates) halved: ``sigmoid(x) = (1 + tanh(x / 2)) / 2``, and
    halving is exact in binary floating point, so a single ``tanh`` over
    the fused slab serves gates and candidate alike. ``U^T`` is returned
    C-contiguous: a transposed view costs numpy a copy per matmul.
    """
    w_gates, u_gates, b_gates, w_cand, u_cand, b_cand = gate_arrays(cell)
    u = np.concatenate([u_gates * 0.5, u_cand])
    return (np.concatenate([w_gates * 0.5, w_cand]),
            np.ascontiguousarray(u.T, dtype=np.float64),
            np.concatenate([b_gates * 0.5, b_cand]))


def cached_on(module: Module, sources: Tuple[np.ndarray, ...],
              build: Callable[[], tuple]) -> tuple:
    """``build()``, cached on ``module`` while ``sources`` stay the same.

    Optimizers and ``load_state_dict`` assign new ``Parameter.data``
    arrays rather than writing into them (the tape-discipline lint rule
    forbids in-place writes outside this package), so the identity of
    the source arrays is an exact staleness check for weights derived
    from them.
    """
    cached = module.__dict__.get("_inference_cache")
    if cached is None or len(cached[0]) != len(sources) or not all(
            a is b for a, b in zip(cached[0], sources)):
        cached = (sources, build())
        module._inference_cache = cached
    return cached[1]


def project_rows(inputs: np.ndarray, lengths: np.ndarray,
                 weight: np.ndarray, bias: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Time-major input projections of a batch sorted longest first.

    Returns ``(x_proj, order)``: ``order`` sorts ``lengths`` descending
    and ``x_proj[t, i]`` is ``inputs[order[i], t] @ weight.T + bias``.
    The projection runs one input column at a time — as fast as a GEMM
    for the 2-wide coordinate input, and every output row depends only
    on its own input row (a BLAS GEMM may block, and so round,
    differently with the row count). Projecting a chunk of points at
    once therefore equals projecting them one by one, which keeps the
    incremental prefix fold chunk-invariant.
    """
    order = np.argsort(-np.asarray(lengths, dtype=np.int64), kind="stable")
    rows = np.asarray(inputs, dtype=np.float64)[order].transpose(1, 0, 2)
    out = rows[..., 0:1] * weight[:, 0]
    for j in range(1, weight.shape[1]):
        out += rows[..., j:j + 1] * weight[:, j]
    out += bias
    return out, order


def fold_longest_first(step: Callable, lengths: np.ndarray,
                       order: np.ndarray, h0: Optional[np.ndarray],
                       c0: Optional[np.ndarray], hidden_size: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``step(t, h, c) -> (h, c)`` over a batch sorted longest first.

    ``order`` sorts ``lengths`` descending and the step's inputs are laid
    out in that order (see :func:`project_rows`). At step ``t`` only the
    leading rows with ``length > t`` are passed in, so a row's state
    freezes at its last valid step with no per-step carry mask and no
    work on padding. ``h0``/``c0`` default to zeros. Returns the final
    ``(h, c)`` in the original row order.
    """
    sorted_lengths = np.asarray(lengths, dtype=np.int64)[order]
    batch = len(order)
    h_final = (np.zeros((batch, hidden_size), dtype=np.float64) if h0 is None
               else np.array(h0, dtype=np.float64))
    c_final = (np.zeros((batch, hidden_size), dtype=np.float64) if c0 is None
               else np.array(c0, dtype=np.float64))
    live = int(np.count_nonzero(sorted_lengths))
    h, c = h_final[order[:live]], c_final[order[:live]]
    for t in range(int(sorted_lengths[0]) if batch else 0):
        if sorted_lengths[live - 1] <= t:
            # Rows are sorted, so the ones still running are a prefix.
            now = int(np.count_nonzero(sorted_lengths > t))
            h_final[order[now:live]], c_final[order[now:live]] = \
                h[now:], c[now:]
            h, c, live = h[:now], c[:now], now
        h, c = step(t, h, c)
    h_final[order[:live]], c_final[order[:live]] = h, c
    return h_final, c_final


def lengths_to_mask(lengths: np.ndarray, max_len: Optional[int] = None) -> np.ndarray:
    """Boolean mask (B, T) that is True for valid positions."""
    lengths = np.asarray(lengths, dtype=int)
    if max_len is None:
        max_len = int(lengths.max()) if lengths.size else 0
    return np.arange(max_len, dtype=np.int64)[None, :] < lengths[:, None]
