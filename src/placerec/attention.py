"""Multi-head attention, shared by the encoder backbone and the decoder
aggregator.

Per-head projections are stored stacked: w_q[(heads, d, d_h)] holds one
d x d_h matrix per head, biases as (heads, 1, d_h). A projection runs as one
GEMM against the heads merged side by side (`merged_heads`, a (d, heads *
d_h) matrix), and its output splits back into heads. Queries and keys may
carry different leading batch shapes as long as they broadcast (a rank-2
query against a rank-3 key batch is the common case inside the decoder).

`mha` is written over an op set (see `ops`): the taped wrappers by default,
or the bare kernels with every weight an ndarray, as the frozen encoder
and extraction's decoder blocks run it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Param, Tensor
from .errors import ShapeError, ValidationError
from .ops import matmul  # noqa: F401  (kept as a module attribute for tracers)


@dataclass
class MHAParams:
    heads: int
    w_q: Param
    b_q: Param
    w_k: Param
    b_k: Param
    w_v: Param
    b_v: Param
    w_o: Param
    b_o: Param

    def params(self) -> list[Param]:
        return [self.w_q, self.b_q, self.w_k, self.b_k,
                self.w_v, self.b_v, self.w_o, self.b_o]

    def param_count(self) -> int:
        return sum(p.size for p in self.params())


def init_mha(rng: np.random.Generator, d: int, heads: int,
             trainable: bool = True, name: str = "mha",
             std: float = 0.02) -> MHAParams:
    if d % heads:
        raise ValidationError(f"width {d} not divisible by heads {heads}")
    dh = d // heads

    def w(shape, nm):
        return Param(rng.normal(0.0, std, shape), trainable, f"{name}.{nm}")

    def z(shape, nm):
        return Param(np.zeros(shape), trainable, f"{name}.{nm}")

    return MHAParams(
        heads=heads,
        w_q=w((heads, d, dh), "wq"), b_q=z((heads, 1, dh), "bq"),
        w_k=w((heads, d, dh), "wk"), b_k=z((heads, 1, dh), "bk"),
        w_v=w((heads, d, dh), "wv"), b_v=z((heads, 1, dh), "bv"),
        w_o=w((d, d), "wo"), b_o=z((d,), "bo"),
    )


def merged_heads(w, op):
    """(heads, d, d_h) per-head projections -> one (d, heads * d_h) matrix,
    the heads side by side."""
    h, d, dh = w.shape
    return op.reshape(op.transpose_axes(w, (1, 0, 2)), (d, h * dh))


def _heads_in(x, w, b, op):
    # (B, n, d) -> (B, heads, n, d_h): one GEMM against the merged heads
    bsz, n, _ = x.shape
    h, _, dh = w.shape
    y = op.reshape(op.matmul(x, merged_heads(w, op)), (bsz, n, h, dh))
    return op.add(op.transpose_axes(y, (0, 2, 1, 3)), b)


def mha(q, k, v, p: MHAParams, op=ops) -> Tensor:
    """softmax(q k^T / sqrt(d_h)) v per head, heads concatenated, projected by w_o."""
    if k.shape != v.shape:
        raise ShapeError(f"key/value shapes differ: {k.shape} vs {v.shape}")
    if len(q.shape) not in (2, 3) or len(k.shape) not in (2, 3):
        raise ShapeError(f"mha expects rank 2 or 3 inputs, got {q.shape} and {k.shape}")
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise ShapeError(f"query width {d} != key width {k.shape[-1]}")
    if d != p.w_q.shape[1]:
        raise ShapeError(f"input width {d} does not match attention params {p.w_q.shape}")
    heads = p.heads
    dh = d // heads

    flat = len(q.shape) == 2 and len(k.shape) == 2
    q3, k3, v3 = (x if len(x.shape) == 3 else op.reshape(x, (1,) + tuple(x.shape))
                  for x in (q, k, v))

    qh = _heads_in(q3, p.w_q, p.b_q, op)         # (Bq, h, a, d_h)
    kh = _heads_in(k3, p.w_k, p.b_k, op)         # (Bk, h, b, d_h)
    vh = _heads_in(v3, p.w_v, p.b_v, op)

    logits = op.scale(op.matmul(qh, op.transpose(kh)), 1.0 / math.sqrt(dh))
    attn = op.softmax_rows(logits)                # (B, h, a, b)
    ctx = op.matmul(attn, vh)                     # (B, h, a, d_h)

    bsz, _, a, _ = ctx.shape
    merged = op.reshape(op.transpose_axes(ctx, (0, 2, 1, 3)), (bsz, a, heads * dh))
    out = op.linear(merged, p.w_o, p.b_o)
    if flat:
        out = op.reshape(out, tuple(out.shape[1:]))
    return out
