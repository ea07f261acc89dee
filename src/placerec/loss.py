"""Multi-similarity loss with online hard pair mining.

Batches are P places x K views. All pairwise cosine similarities come from
one Gram matrix of the unit-norm descriptor rows; mining keeps only pairs
that are informative relative to the hardest opposing pair plus a margin,
and the loss softly weights the survivors. Mining yields one dense (2, B, B)
keep mask, `pair_tables` turns it into the coefficients and offsets of the
exponents, and `ms_kernel` computes the loss from them, and dL/ds on
request; `ms_loss` tapes that kernel and the probe mirror takes its loss.
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
    """keep[0, q, j] marks j a kept positive of query q, keep[1, q, j] a kept
    negative; queries lacking raw positives or negatives keep nothing and are
    listed in `skipped`."""
    keep: np.ndarray                          # bool, (2, B, B)
    skipped: list = field(default_factory=list)

    @property
    def kept_pos(self) -> int:
        return int(np.count_nonzero(self.keep[0]))

    @property
    def kept_neg(self) -> int:
        return int(np.count_nonzero(self.keep[1]))


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

    same = ids[:, None] == ids[None, :]
    pos = same & ~np.eye(b, dtype=bool)      # diagonal never a pair
    neg = ~same
    skip = ~(pos.any(axis=1) & neg.any(axis=1))
    hardest_pos = np.where(pos, sv, np.inf).min(axis=1, keepdims=True)
    hardest_neg = np.where(neg, sv, -np.inf).max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):     # inf - inf on skipped rows only
        keep = np.stack([pos & (sv < hardest_neg + margin), neg & (sv > hardest_pos - margin)])
    keep[:, skip] = False
    return MiningResult(keep, np.flatnonzero(skip).tolist())


def pair_tables(mining: MiningResult, cfg: LossConfig):
    """(coef, off) with t = coef * s + off the exponent of every pair: coef
    is -alpha on the positive side and beta on the negative one, off is
    -coef * lambda on kept pairs and -inf on the rest."""
    coef = np.array([-cfg.alpha, cfg.beta]).reshape(2, 1, 1)
    return coef, np.where(mining.keep, -coef * cfg.lam, -np.inf)


def ms_kernel(s: np.ndarray, coef: np.ndarray, off: np.ndarray):
    """(loss, grad) from the pair tables: the mean over the B queries of
    log(1 + sum exp(t)) / |coef| on each side, shifted by max(0, max t) so
    it stays finite at beta-scale exponents. grad() forms dL/ds from the
    same exponentials, so a caller that needs only the loss never pays for
    it."""
    t = coef * s + off
    m = np.maximum(t.max(axis=-1, keepdims=True), 0.0)
    w = np.exp(t - m)
    z = np.exp(-m) + w.sum(axis=-1, keepdims=True)
    b = s.shape[0]
    loss = float(((m + np.log(z)) / np.abs(coef)).sum()) / b

    def grad():
        return (np.sign(coef) * (w / z)).sum(axis=0) / b

    return loss, grad


def ms_loss(s, mining: MiningResult, cfg: LossConfig) -> Tensor:
    """Scalar loss averaged over all B queries, skipped ones included."""
    cfg.validate()
    st = as_tensor(s)
    if mining.keep.shape != (2,) + st.shape:
        raise ShapeError(
            f"mining mask has shape {mining.keep.shape}, matrix {st.shape}")
    loss, dloss = ms_kernel(st.data, *pair_tables(mining, cfg))

    out = Tensor(loss)
    if taping():
        grad = dloss()

        def bwd(g, acc):
            acc(st.uid, g * grad)
        tape_record(out, bwd, (grad,))
    else:
        mark_constant(out)
    return out
