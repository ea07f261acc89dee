"""Plain-array pipeline forward for finite-difference probes.

The full-pipeline gradient check re-evaluates the loss ~150k times (two
probes per trainable scalar, dealt over one forked worker per CPU), which a
taped graph cannot afford. The adapters, the input projection and the head
run the shared definitions (`adapters.adapt_fn`, `aggregator.project_in`,
`aggregator.head`) on the float64 bare kernels, on the live param values of
each evaluation, and the loss comes from `loss.ms_kernel`, the kernel
`ms_loss` tapes, on pair tables built once from the fixed mining. Only the
decoder blocks are restated here, on raw ndarrays with the same epsilons,
reduction axes and normalizations as the ops, because of two structural
shortcuts:

- per-head attention projections are pre-merged into single (d, d) matrices
  (`attention.merged_heads`, with the softmax scale folded into the query
  side), so projections are one BLAS call each;
- the forward is staged as the input of each adapter -> y -> F -> o_0 ..
  o_L -> loss, and inside each decoder block down to the attention
  intermediates (projected heads, softmax weights, merged context, residual
  sums); a probe recomputes only what the poked parameter feeds and takes
  every other value from the base-point cache (the poke cannot reach it).

pipeline_gradcheck cross-checks this path against the op-built loss at the
base point before trusting it; any drift between the two implementations
fails loudly there or as a blown finite-difference residual.
"""
from __future__ import annotations

import numpy as np

from .adapters import adapt_fn
from .aggregator import head, project_in
from .attention import merged_heads
from .autodiff import Tensor
from .backbone import as_arrays
from .errors import ValidationError
from .loss import ms_kernel, pair_tables
from .ops import Kernels


def _ln(x, g, b, eps=1e-6):
    # the mean as a sum times 1/d, which costs less than ndarray.mean at
    # these small shapes
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * (1.0 / d)
    xm = x - mu
    inv = 1.0 / np.sqrt(np.square(xm).sum(axis=-1, keepdims=True) * (1.0 / d) + eps)
    return (xm * inv) * g + b


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
        # the query side carries the 1/sqrt(d_h)
        m = merged_heads(w_param.value.data, Kernels)
        return m * self.qscale if w_param is self.p.w_q else m

    def _project(self, x, w, b):
        return _heads_split(Kernels.matmul(x, self.merged[id(w)]), self.heads) + b

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
                v["probs"] = Kernels.softmax_rows(v["qh"] @ v["kh"].swapaxes(-1, -2))
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
        self.pairs = pair_tables(mining, loss_cfg)

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
        self.adapter_of = {}
        for i, fn in enumerate(model.adapters):
            for p in fn.params():
                self.stage_of[id(p)] = 0
                self.adapter_of[id(p)] = i
        for p in (agg.w1, agg.b1):
            self.stage_of[id(p)] = 1
        self.stage_of[id(agg.queries)] = 2
        for i, blk in enumerate(agg.blocks):
            for p in blk.params():
                self.stage_of[id(p)] = 2 + i
        for p in (agg.w2, agg.b2, agg.w3, agg.b3):
            self.stage_of[id(p)] = 2 + self.n_blocks

        # base-point caches: the input of each adapter, y, F, and o and the
        # intermediates of each block
        self.base_in = []
        y = self.layers[0]
        for i in range(len(model.adapters)):
            self.base_in.append(y + self.layers[i + 1])
            y = self._adapter(i, self.base_in[i])
        self.base_y = y
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

    # forward stages -------------------------------------------------------

    def _adapter(self, i, y):
        return adapt_fn(y, as_arrays(self.model.adapters[i], np.float64), self.scale, Kernels)

    def adapted(self, first=0):
        """y after the last adapter, recomputed from adapter `first` on; the
        input of that one is its base-point value (the adapters before it
        cannot change)."""
        y = self._adapter(first, self.base_in[first])
        for i in range(first + 1, len(self.model.adapters)):
            y = self._adapter(i, y + self.layers[i + 1])
        return y

    def f_tokens(self, y):
        agg = self.model.aggregator
        return project_in(y, agg.w1.value.data, agg.b1.value.data, Kernels)

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
        desc = head(o, agg.w2.value.data, agg.b2.value.data, agg.w3.value.data,
                    agg.b3.value.data, self.batch, Kernels)
        return ms_kernel(Kernels.matmul(desc, Kernels.transpose(desc)), *self.pairs)[0]

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
        y = self.base_y if s > 0 else self.adapted(self.adapter_of[pid])
        f_tok = self.base_f if s > 1 else self.f_tokens(y)
        first = max(0, s - 2)
        return self._loss_from(first, f_tok, self.reuse[pid])
