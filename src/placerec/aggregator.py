"""Decoder-based feature aggregation.

M learnable queries cross-attend to the projected token features through a
stack of simplified decoder blocks (self-attention + cross-attention, post
norm, no feedforward), then a two-FC head reshapes M x d into d_out x M_out
and the row-major flatten is L2-normalized into the global descriptor.

Cross-attention is the only place image content enters, and attention over
keys is order-free, so the descriptor is invariant to any permutation of the
input token rows.

`project_in`, `decoder_block`, `head` and `aggregate` are written over an
op set (see `ops`): the taped float64 wrappers by default, as training and
the gradient check run them, or the bare kernels on `backbone.as_arrays` of
the params, as extraction (float32) and the probe mirror (float64) run them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .attention import MHAParams, init_mha, mha
from .autodiff import Param
from .errors import ShapeError, ValidationError
from .schema import check, setting


@dataclass
class AggregatorConfig:
    d: int = setting(64, ge=1)
    l_dec: int = setting(2, key="L_dec", ge=0)     # decoder blocks
    m: int = setting(16, key="M", ge=1)            # learnable queries
    heads: int = setting(4, ge=1)
    d_out: int = setting(16, ge=1)                 # reduced width d'
    m_out: int = setting(16, key="M_out", ge=1)    # adjusted query count M'
    seed: int = setting(3, ge=0)

    def validate(self) -> None:
        check(self, "aggregator")
        if self.d % self.heads:
            raise ValidationError(f"width {self.d} not divisible by heads {self.heads}")

    @property
    def descriptor_dim(self) -> int:
        return self.d_out * self.m_out


@dataclass
class DecoderBlockParams:
    self_attn: MHAParams
    cross_attn: MHAParams
    ln1_g: Param
    ln1_b: Param
    ln2_g: Param
    ln2_b: Param

    def params(self) -> list[Param]:
        return (self.self_attn.params() + self.cross_attn.params()
                + [self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b])

    def param_count(self) -> int:
        return sum(p.size for p in self.params())


def decoder_block_param_count(d: int) -> int:
    """Closed form: two biased MHAs plus two LN pairs, no feedforward."""
    return 2 * (4 * d * d + 4 * d) + 4 * d


@dataclass
class Aggregator:
    cfg: AggregatorConfig
    queries: Param
    w1: Param
    b1: Param
    blocks: list[DecoderBlockParams] = field(default_factory=list)
    w2: Param = None
    b2: Param = None
    w3: Param = None
    b3: Param = None

    def params(self) -> list[Param]:
        out = [self.queries, self.w1, self.b1]
        for b in self.blocks:
            out.extend(b.params())
        out.extend([self.w2, self.b2, self.w3, self.b3])
        return out


def build_aggregator(cfg: AggregatorConfig) -> Aggregator:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    # Fan-in scaled projections keep the cross-attention (image) pathway
    # comparable to the query pathway at init; a 0.02 std there makes every
    # descriptor start out nearly collinear and training stalls breaking
    # the collapse. Query embeddings keep the token-embedding scale.
    fan = 1.0 / math.sqrt(d)

    def w(shape, nm, std):
        return Param(rng.normal(0.0, std, shape), True, f"agg.{nm}")

    def zeros(shape, nm):
        return Param(np.zeros(shape), True, f"agg.{nm}")

    def ones(shape, nm):
        return Param(np.ones(shape), True, f"agg.{nm}")

    agg = Aggregator(
        cfg=cfg,
        queries=w((cfg.m, d), "queries", 0.02),
        w1=w((d, d), "in_w", fan), b1=zeros((d,), "in_b"),
    )
    for i in range(cfg.l_dec):
        agg.blocks.append(DecoderBlockParams(
            self_attn=init_mha(rng, d, cfg.heads, name=f"agg.b{i}.self", std=fan),
            cross_attn=init_mha(rng, d, cfg.heads, name=f"agg.b{i}.cross", std=fan),
            ln1_g=ones((d,), f"b{i}.ln1_g"), ln1_b=zeros((d,), f"b{i}.ln1_b"),
            ln2_g=ones((d,), f"b{i}.ln2_g"), ln2_b=zeros((d,), f"b{i}.ln2_b"),
        ))
    agg.w2 = w((d, cfg.d_out), "head_w2", fan)
    agg.b2 = zeros((cfg.d_out,), "head_b2")
    agg.w3 = w((cfg.m, cfg.m_out), "head_w3", 1.0 / math.sqrt(cfg.m))
    agg.b3 = zeros((cfg.m_out,), "head_b3")
    return agg


def project_in(x, w1, b1, op=ops):
    """F = X W_1 + b_1 over all N+1 tokens, class token included."""
    return op.linear(x, w1, b1)


def decoder_block(o_prev, f_tokens, blk: DecoderBlockParams, op=ops):
    """Q_i = LN(selfMHA(O) + O); O_i = LN(crossMHA(Q_i, F, F) + Q_i)."""
    s = mha(o_prev, o_prev, o_prev, blk.self_attn, op)
    q = op.layer_norm(op.add(s, o_prev), blk.ln1_g, blk.ln1_b)
    c = mha(q, f_tokens, f_tokens, blk.cross_attn, op)
    return op.layer_norm(op.add(c, q), blk.ln2_g, blk.ln2_b)


def head(o, w2, b2, w3, b3, batch, op=ops):
    """Decoder output O (.., M, d) -> unit descriptors: FC to (.., M, d'),
    FC across queries to (.., d', M'), row-major flatten, L2 norm. A rank-2
    O with a `batch` (not None) gives that many copies of its descriptor."""
    c = op.linear(op.transpose(op.linear(o, w2, b2)), w3, b3)
    dim = c.shape[-2] * c.shape[-1]
    if len(c.shape) == 3:
        flat = op.reshape(c, (c.shape[0], dim))
    elif batch is None:
        flat = op.reshape(c, (dim,))
    else:
        # L_dec = 0 leaves the queries untouched: one descriptor for the batch
        flat = op.concat_rows([op.reshape(c, (1, dim))] * batch)
    return op.l2_normalize(flat)


def aggregate(x, agg: Aggregator, op=ops):
    """Token features (n, d) or (B, n, d) -> unit descriptor (D,) or (B, D)."""
    if len(x.shape) not in (2, 3):
        raise ShapeError(f"aggregate expects rank 2 or 3 input, got {tuple(x.shape)}")
    if x.shape[-1] != agg.cfg.d:
        raise ShapeError(f"token width {x.shape[-1]} != aggregator width {agg.cfg.d}")

    f_tokens = project_in(x, agg.w1, agg.b1, op)
    o = agg.queries
    for blk in agg.blocks:
        o = decoder_block(o, f_tokens, blk, op)
    batch = x.shape[0] if len(x.shape) == 3 else None
    return head(o, agg.w2, agg.b2, agg.w3, agg.b3, batch, op)
