"""Decoder-based feature aggregation.

M learnable queries cross-attend to the projected token features through a
stack of simplified decoder blocks (self-attention + cross-attention, post
norm, no feedforward), then a two-FC head reshapes M x d into d_out x M_out
and the row-major flatten is L2-normalized into the global descriptor.

Cross-attention is the only place image content enters, and attention over
keys is order-free, so the descriptor is invariant to any permutation of the
input token rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import MHAParams, init_mha, mha
from .autodiff import Param, Tensor, as_tensor
from .errors import ShapeError, ValidationError
from .ops import add, l2_normalize, layer_norm, linear, reshape, transpose
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


def project_in(x, w1, b1) -> Tensor:
    """F = X W_1 + b_1 over all N+1 tokens, class token included."""
    return linear(x, w1, b1)


def decoder_block(o_prev, f_tokens, blk: DecoderBlockParams) -> Tensor:
    """Q_i = LN(selfMHA(O) + O); O_i = LN(crossMHA(Q_i, F, F) + Q_i)."""
    s = mha(o_prev, o_prev, o_prev, blk.self_attn)
    q = layer_norm(add(s, o_prev), blk.ln1_g, blk.ln1_b)
    c = mha(q, f_tokens, f_tokens, blk.cross_attn)
    return layer_norm(add(c, q), blk.ln2_g, blk.ln2_b)


def aggregate(x, agg: Aggregator) -> Tensor:
    """Token features (n, d) or (B, n, d) -> unit descriptor (D,) or (B, D)."""
    xt = as_tensor(x)
    if xt.ndim not in (2, 3):
        raise ShapeError(f"aggregate expects rank 2 or 3 input, got {xt.shape}")
    if xt.shape[-1] != agg.cfg.d:
        raise ShapeError(f"token width {xt.shape[-1]} != aggregator width {agg.cfg.d}")

    f_tokens = project_in(xt, agg.w1, agg.b1)
    o = agg.queries.read()
    for blk in agg.blocks:
        o = decoder_block(o, f_tokens, blk)

    a = linear(o, agg.w2, agg.b2)       # (.., M, d')
    c = linear(transpose(a), agg.w3, agg.b3)  # (.., d', M')

    dim = agg.cfg.descriptor_dim
    if c.ndim == 2:
        flat = reshape(c, (dim,))
        if xt.ndim == 3:
            # L_dec = 0 leaves the queries untouched; replicate the constant
            # descriptor across the batch
            flat = add(reshape(flat, (1, dim)),
                       Tensor(np.zeros((xt.shape[0], dim))))
    else:
        flat = reshape(c, (c.shape[0], dim))
    return l2_normalize(flat)
