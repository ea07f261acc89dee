"""Plain-array pipeline forward for finite-difference probes.

The full-pipeline gradient check re-evaluates the loss ~150k times on a
single core, which a taped graph cannot afford. This module mirrors the
exact op formulas (same epsilons, reduction axes, normalizations) on raw
ndarrays, with two structural shortcuts:

- per-head attention projections are pre-merged into single (d, d) matrices
  (the softmax scale folded into the query side), so projections are one
  BLAS call each;
- the forward is staged as y -> F -> o_0 .. o_L -> loss, and inside each
  decoder block down to the attention intermediates (projected heads,
  softmax weights, merged context, residual sums); a probe recomputes only
  what the poked parameter feeds and takes every other value from the
  base-point cache (the poke cannot reach it).

pipeline_gradcheck cross-checks this path against the op-built loss at the
base point before trusting it; any drift between the two implementations
fails loudly there or as a blown finite-difference residual.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .autodiff import Tensor
from .errors import ValidationError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _gelu(x):
    return x * (0.5 * (1.0 + erf(x * _INV_SQRT2)))


def _ln(x, g, b, eps=1e-6):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * (1.0 / d)
    xm = x - mu
    inv = 1.0 / np.sqrt(np.square(xm).sum(axis=-1, keepdims=True) * (1.0 / d) + eps)
    return (xm * inv) * g + b


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _lin(x, w):
    # x (..., d) @ w (d, k) as one BLAS call over all leading axes
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])


def _heads_split(y, heads):
    # (..., n, h*dh) -> (..., h, n, dh)
    return y.reshape(y.shape[:-1] + (heads, y.shape[-1] // heads)).swapaxes(-3, -2)


def _heads_merge(y):
    # (..., h, n, dh) -> (..., n, h*dh)
    y = y.swapaxes(-3, -2)
    return y.reshape(y.shape[:-2] + (-1,))


class _FastMHA:
    def __init__(self, p):
        self.p = p
        self.heads = p.heads
        d = p.w_q.value.data.shape[1]
        self.qscale = 1.0 / np.sqrt(d // p.heads)
        self.merged = {id(w): self._merge_for(w) for w in (p.w_q, p.w_k, p.w_v)}
        # intermediates a poke of each param leaves at their base-point values
        self.untouched = {}
        for ws, keep in (((p.w_q, p.b_q), ("kh", "vh")), ((p.w_k, p.b_k), ("qh", "vh")),
                         ((p.w_v, p.b_v), ("probs",)), ((p.w_o, p.b_o), ("ctx",))):
            for w in ws:
                self.untouched[id(w)] = keep

    def _merge_for(self, w_param):
        # (heads, d, d_h) -> (d, heads*d_h); query side carries the 1/sqrt(d_h)
        h, d, dh = w_param.value.data.shape
        m = np.ascontiguousarray(w_param.value.data.transpose(1, 0, 2)).reshape(d, h * dh)
        return m * self.qscale if w_param is self.p.w_q else m

    def _project(self, x, w, b):
        return _heads_split(_lin(x, self.merged[id(w)]), self.heads) + b

    def __call__(self, q, kv, reuse=None):
        """(output, intermediates) of attention from q over kv.

        The intermediates are qh, kh, vh (projected heads), probs (softmax
        weights) and ctx (heads merged, before w_o). `reuse` holds base-point
        values of some of them that the current poke cannot reach; they are
        taken as they are and their inputs are not recomputed.
        """
        p = self.p
        v = dict(reuse) if reuse else {}
        if "ctx" not in v:
            if "probs" not in v:
                if "qh" not in v:
                    v["qh"] = self._project(q, p.w_q, p.b_q.value.data * self.qscale)
                if "kh" not in v:
                    v["kh"] = self._project(kv, p.w_k, p.b_k.value.data)
                v["probs"] = _softmax(v["qh"] @ v["kh"].swapaxes(-1, -2))
            if "vh" not in v:
                v["vh"] = self._project(kv, p.w_v, p.b_v.value.data)
            v["ctx"] = _heads_merge(v["probs"] @ v["vh"])
        return v["ctx"] @ p.w_o.value.data + p.b_o.value.data, v


class FastPipeline:
    """Adapters + aggregator + loss on fixed feature-stack arrays with a
    fixed mined pair selection; probe(param) evaluates the loss with that
    parameter poked in place."""

    def __init__(self, model, layers, mining, loss_cfg):
        self.model = model
        self.layers = [l.data if isinstance(l, Tensor) else np.asarray(l, dtype=np.float64)
                       for l in layers]
        if self.layers[0].ndim != 3:
            raise ValidationError("FastPipeline expects batched (B, n, d) feature stacks")
        self.batch = self.layers[0].shape[0]
        self.scale = model.run_cfg.lopa.scale
        self.cfg = loss_cfg

        agg = model.aggregator
        self.attn = {}
        self._merged_owner = {}
        self._attn_of = {}          # attention param -> (block index, side, module)
        for i, blk in enumerate(agg.blocks):
            for side, ap in (("self", blk.self_attn), ("cross", blk.cross_attn)):
                fm = _FastMHA(ap)
                self.attn[id(ap)] = fm
                for w in (ap.w_q, ap.w_k, ap.w_v):
                    self._merged_owner[id(w)] = fm
                for w in ap.params():
                    self._attn_of[id(w)] = (i, side, fm)
        self._dirty = None
        self._dirty_ref = None

        # stage s of a param: recompute from that stage on, reuse cache above.
        # 0 = adapters, 1 = input projection, 2+i = decoder block i, last = head
        self.n_blocks = len(agg.blocks)
        self.stage_of = {}
        for fn in model.adapters:
            for p in fn.params():
                self.stage_of[id(p)] = 0
        for p in (agg.w1, agg.b1):
            self.stage_of[id(p)] = 1
        self.stage_of[id(agg.queries)] = 2
        for i, blk in enumerate(agg.blocks):
            for p in blk.params():
                self.stage_of[id(p)] = 2 + i
        for p in (agg.w2, agg.b2, agg.w3, agg.b3):
            self.stage_of[id(p)] = 2 + self.n_blocks

        self._pack_mining(mining)
        # base-point caches: y, F, and o and the intermediates of each block
        self.base_y = self.adapted()
        self.base_f = self.f_tokens(self.base_y)
        self.base_o, self.base_blocks = [], []
        o = agg.queries.value.data
        for i in range(self.n_blocks):
            o, inter = self.block(i, o, self.base_f)
            self.base_o.append(o)
            self.base_blocks.append(inter)
        self.reuse = {pid: self._reuse_for(pid) for pid in self.stage_of}

    def _reuse_for(self, pid):
        """Per block from the poked param's own on: the base-point block
        intermediates the poke cannot reach (None for a block to recompute)."""
        s = self.stage_of[pid]
        if s >= 2 + self.n_blocks:
            return []
        if s < 2:
            # F moves; block 0 keeps what comes from the queries alone
            if self.n_blocks == 0:
                return []
            b0 = self.base_blocks[0]
            return [{"q": b0["q"], "cross": {"qh": b0["cross"]["qh"]}}] + [None] * (self.n_blocks - 1)
        # F is fixed, so every cross attention keeps its keys and values
        kv = [{"cross": {k: b["cross"][k] for k in ("kh", "vh")}} for b in self.base_blocks]
        i = s - 2
        base, blk = self.base_blocks[i], self.model.aggregator.blocks[i]
        if pid in self._attn_of:
            _, side, fm = self._attn_of[pid]
            keep = {k: base[side][k] for k in fm.untouched[pid]}
            own = {"self": keep, **kv[i]} if side == "self" else {"q": base["q"], "cross": keep}
        elif pid in (id(blk.ln1_g), id(blk.ln1_b)):
            own = {"pre1": base["pre1"], **kv[i]}
        elif pid in (id(blk.ln2_g), id(blk.ln2_b)):
            own = {"pre2": base["pre2"]}
        else:
            own = kv[i]                             # the queries: block 0 from its input on
        return [own] + kv[i + 1:]

    def _pack_mining(self, mining):
        # t = coef * s + off over (2, B, L+1): side 0 the kept positives
        # (coef -alpha), side 1 the kept negatives (coef beta), padding at
        # -inf, and a last column fixed at t = 0 that holds the 1 of
        # log(1 + sum exp(t)) and makes the shift max(0, max t) a plain max
        cfg = self.cfg
        b = len(mining.pos)
        width = max((len(x) for x in mining.pos + mining.neg), default=0) + 1
        self.pair_idx = np.zeros((2, b, width), dtype=np.intp)
        self.pair_coef = np.zeros((2, b, width))
        self.pair_off = np.full((2, b, width), -np.inf)
        self.pair_off[:, :, -1] = 0.0
        for side, (kept, coef) in enumerate(((mining.pos, -cfg.alpha), (mining.neg, cfg.beta))):
            for q in range(b):
                k = len(kept[q])
                self.pair_idx[side, q, :k] = kept[q]
                self.pair_coef[side, q, :k] = coef
                self.pair_off[side, q, :k] = -coef * cfg.lam
        self.rows = np.arange(b)[:, None]
        self.pair_div = np.array([cfg.alpha, cfg.beta])[:, None]

    # forward stages -------------------------------------------------------

    def adapted(self):
        s = self.scale
        y = self.layers[0] + self.layers[1]
        for i, f in enumerate(self.model.adapters):
            if i > 0:
                y = y + self.layers[i + 1]
            y = _lin(_gelu(_lin(y, f.w_d.value.data)), f.w_u.value.data) * s + y
        return y

    def f_tokens(self, y):
        agg = self.model.aggregator
        return _lin(y, agg.w1.value.data) + agg.b1.value.data

    def block(self, i, o_prev, f_tok, reuse=None):
        """(output, intermediates) of decoder block i.

        The intermediates are self and cross (attention intermediates, see
        _FastMHA), pre1 and pre2 (residual sums before each layer norm) and
        q (the cross-attention queries); `reuse` holds some of them to take
        as they are.
        """
        blk = self.model.aggregator.blocks[i]
        r = dict(reuse) if reuse else {}
        if "pre2" not in r:
            if "q" not in r:
                if "pre1" not in r:
                    out, r["self"] = self.attn[id(blk.self_attn)](o_prev, o_prev, r.get("self"))
                    r["pre1"] = out + o_prev
                r["q"] = _ln(r["pre1"], blk.ln1_g.value.data, blk.ln1_b.value.data)
            out, r["cross"] = self.attn[id(blk.cross_attn)](r["q"], f_tok, r.get("cross"))
            r["pre2"] = out + r["q"]
        return _ln(r["pre2"], blk.ln2_g.value.data, blk.ln2_b.value.data), r

    def head_loss(self, o) -> float:
        agg = self.model.aggregator
        a = o @ agg.w2.value.data + agg.b2.value.data
        c = a.swapaxes(-1, -2) @ agg.w3.value.data + agg.b3.value.data
        dim = agg.cfg.descriptor_dim
        if c.ndim == 2:
            flat = np.broadcast_to(c.reshape(dim), (self.batch, dim))
        else:
            flat = c.reshape(self.batch, dim)
        desc = flat / np.sqrt(np.square(flat).sum(axis=-1, keepdims=True))
        s = desc @ desc.T

        # log(1 + sum exp(t)) per query and side, shifted by the row max as
        # loss._lse1p does; the t = 0 column keeps that max >= 0
        t = self.pair_coef * s[self.rows, self.pair_idx] + self.pair_off
        m = t.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.exp(t - m).sum(axis=-1))
        return float((lse / self.pair_div).sum() / s.shape[0])

    def full_loss(self) -> float:
        f_tok = self.f_tokens(self.adapted())
        return self._loss_from(0, f_tok, [None] * self.n_blocks)

    def _loss_from(self, first, f_tok, reuses):
        # blocks first.. with their reuse dicts, then the head
        o = self.base_o[first - 1] if first > 0 else self.model.aggregator.queries.value.data
        for i, reuse in zip(range(first, self.n_blocks), reuses):
            o, _ = self.block(i, o, f_tok, reuse)
        return self.head_loss(o)

    # probing ---------------------------------------------------------------

    def probe(self, param) -> float:
        """Loss with `param` poked in place, recomputing only what it feeds."""
        pid = id(param)
        if self._dirty is not None and self._dirty != pid:
            # previous poke target was restored by the caller; resync its merge
            prev_fm, prev_w = self._dirty_ref
            prev_fm.merged[self._dirty] = prev_fm._merge_for(prev_w)
            self._dirty = None
        owner = self._merged_owner.get(pid)
        if owner is not None:
            owner.merged[pid] = owner._merge_for(param)
            self._dirty = pid
            self._dirty_ref = (owner, param)

        s = self.stage_of[pid]
        y = self.base_y if s > 0 else self.adapted()
        f_tok = self.base_f if s > 1 else self.f_tokens(y)
        first = max(0, s - 2)
        return self._loss_from(first, f_tok, self.reuse[pid])
