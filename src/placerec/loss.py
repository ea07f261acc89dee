"""Multi-similarity loss with online hard pair mining.

Batches are P places x K views. All pairwise cosine similarities come from
one Gram matrix of the unit-norm descriptor rows; mining keeps only pairs
that are informative relative to the hardest opposing pair plus a margin,
and the loss softly weights the survivors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, as_tensor, tape_record, taping, mark_constant
from .errors import ContractError, ShapeError
from .ops import matmul, transpose
from .schema import check, setting


@dataclass
class LossConfig:
    # log(1 + n) / alpha, the positive term, overflows below this floor
    alpha: float = setting(1.0, ge=1e-300)
    beta: float = setting(50.0, gt=0)
    lam: float = setting(0.0, key="lambda")   # similarity offset lambda
    margin: float = 0.1                       # mining margin epsilon

    def validate(self) -> None:
        check(self, "loss")


def similarity_matrix(descriptors) -> Tensor:
    """Gram matrix S = D D^T of unit-norm descriptor rows."""
    d = as_tensor(descriptors)
    if d.ndim != 2:
        raise ShapeError(f"descriptors must be rank 2, got {d.shape}")
    norms = np.linalg.norm(d.data, axis=1)
    bad = ~(np.abs(norms - 1.0) <= 1e-6)     # NaN rows fail too
    if bad.any():
        q = int(np.argmax(bad))
        raise ContractError(f"descriptor row {q} has norm {norms[q]:.9f}, expected 1")
    return matmul(d, transpose(d))


@dataclass
class MiningResult:
    """Kept pair indices per query; queries lacking raw positives or
    negatives are skipped entirely."""
    pos: list = field(default_factory=list)   # per-query int arrays
    neg: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def kept_pos(self) -> int:
        return int(sum(len(p) for p in self.pos))

    @property
    def kept_neg(self) -> int:
        return int(sum(len(n) for n in self.neg))


def mine_pairs(s, place_ids, margin: float) -> MiningResult:
    """Keep negatives harder than the hardest positive minus the margin and
    positives easier than the hardest negative plus the margin.

    Selection reads detached similarity values; the thresholds use raw
    similarities only.
    """
    sv = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
    if sv.ndim != 2 or sv.shape[0] != sv.shape[1]:
        raise ShapeError(f"similarity matrix must be square, got {sv.shape}")
    ids = np.asarray(place_ids)
    b = sv.shape[0]
    if ids.shape != (b,):
        raise ShapeError(f"expected {b} place ids, got shape {ids.shape}")

    out = MiningResult()
    empty = np.empty(0, dtype=np.intp)
    for q in range(b):
        same = ids == ids[q]
        same[q] = False                      # diagonal never a pair
        pos_idx = np.flatnonzero(same)
        neg_idx = np.flatnonzero(ids != ids[q])
        if len(pos_idx) == 0 or len(neg_idx) == 0:
            out.skipped.append(q)
            out.pos.append(empty)
            out.neg.append(empty)
            continue
        hardest_pos = sv[q, pos_idx].min()
        hardest_neg = sv[q, neg_idx].max()
        out.neg.append(neg_idx[sv[q, neg_idx] > hardest_pos - margin])
        out.pos.append(pos_idx[sv[q, pos_idx] < hardest_neg + margin])
    return out


def _lse1p(t: np.ndarray):
    """log(1 + sum(exp(t))) and the softmax-like weights exp(t)/(1+sum),
    stable for t up to beta-scale magnitudes."""
    if t.size == 0:
        return 0.0, t
    m = max(0.0, float(t.max()))
    w = np.exp(t - m)
    z = np.exp(-m) + w.sum()
    return m + np.log(z), w / z


def ms_loss(s, mining: MiningResult, cfg: LossConfig) -> Tensor:
    """Scalar loss averaged over all B queries, skipped ones included."""
    cfg.validate()
    st = as_tensor(s)
    sv = st.data
    b = sv.shape[0]
    if len(mining.pos) != b or len(mining.neg) != b:
        raise ShapeError(
            f"mining result covers {len(mining.pos)} queries, matrix has {b}")

    total = 0.0
    grad = np.zeros_like(sv)
    for q in range(b):
        p, n = mining.pos[q], mining.neg[q]
        lp, wp = _lse1p(-cfg.alpha * (sv[q, p] - cfg.lam))
        ln_, wn = _lse1p(cfg.beta * (sv[q, n] - cfg.lam))
        total += lp / cfg.alpha + ln_ / cfg.beta
        grad[q, p] -= wp / b
        grad[q, n] += wn / b

    out = Tensor(total / b)
    if taping():
        def bwd(g, acc):
            acc(st.uid, g * grad)
        tape_record(out, bwd, (grad,))
    else:
        mark_constant(out)
    return out
