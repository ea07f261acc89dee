"""Similarity, online hard mining, and the pairwise exponential loss."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placerec.autodiff import Param, Tape, Tensor
from placerec.errors import ContractError, ShapeError
from placerec.gradcheck import grad_check
from placerec.loss import (
    LossConfig,
    mine_pairs,
    ms_kernel,
    ms_loss,
    pair_tables,
    similarity_matrix,
)
from placerec.ops import l2_normalize


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_force_mining(sv, place_ids, eps):
    """Independent oracle: same rule, loops and max/min instead of argmask."""
    pids = np.asarray(place_ids)
    b = sv.shape[0]
    kept_pos, kept_neg, skipped = [], [], []
    for q in range(b):
        pos = [j for j in range(b) if j != q and pids[j] == pids[q]]
        neg = [j for j in range(b) if pids[j] != pids[q]]
        if not pos or not neg:
            kept_pos.append([])
            kept_neg.append([])
            skipped.append(q)
            continue
        easiest_pos = min(sv[q, j] for j in pos)
        hardest_neg = max(sv[q, j] for j in neg)
        kept_neg.append([j for j in neg if sv[q, j] > easiest_pos - eps])
        kept_pos.append([j for j in pos if sv[q, j] < hardest_neg + eps])
    return kept_pos, kept_neg, skipped


def per_query_loss(sv, pos, neg, cfg):
    """Independent oracle: the loss and dL/ds query by query. Each side adds
    log(1 + sum exp(t)) / |coef| with t = coef * (s - lambda), coef -alpha
    on the kept positives and beta on the kept negatives, shifted by
    max(0, max t); its gradient is the softmax-like weights, signed."""
    b = sv.shape[0]
    total, grad = 0.0, np.zeros_like(sv)
    for q in range(b):
        for idx, coef in ((pos[q], -cfg.alpha), (neg[q], cfg.beta)):
            if not idx:
                continue
            t = coef * (sv[q, idx] - cfg.lam)
            m = max(0.0, float(t.max()))
            w = np.exp(t - m)
            z = np.exp(-m) + w.sum()
            total += (m + math.log(z)) / abs(coef)
            grad[q, idx] = math.copysign(1.0, coef) * (w / z) / b
    return total / b, grad


# similarity -----------------------------------------------------------------

def test_similarity_symmetric_unit_diag(rng):
    s = similarity_matrix(Tensor(unit_rows(rng, 6, 8))).data
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(s), np.ones(6), atol=1e-9)


def test_similarity_identical_and_orthogonal():
    d = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = similarity_matrix(Tensor(d)).data
    assert abs(s[0, 1] - 1.0) < 1e-12
    assert abs(s[0, 2]) < 1e-12


def test_similarity_rejects_non_unit_rows():
    with pytest.raises(ContractError):
        similarity_matrix(Tensor([[3.0, 4.0], [1.0, 0.0]]))


def test_similarity_rejects_nan_rows():
    with pytest.raises(ContractError, match="row 1"):
        similarity_matrix(Tensor([[1.0, 0.0], [np.nan, 0.0]]))


# mining ---------------------------------------------------------------------

def test_mining_separated_batch_keeps_nothing():
    # positives at 0.9, negatives at 0.1, margin 0.1: already separated
    s = np.array([
        [1.0, 0.9, 0.1, 0.1],
        [0.9, 1.0, 0.1, 0.1],
        [0.1, 0.1, 1.0, 0.9],
        [0.1, 0.1, 0.9, 1.0],
    ])
    res = mine_pairs(Tensor(s), [0, 0, 1, 1], 0.1)
    assert res.kept_pos == 0 and res.kept_neg == 0
    assert res.skipped == []


def test_mining_keeps_near_boundary_negative():
    # negative at 0.85 with easiest positive 0.9: 0.85 > 0.9 - 0.1, kept
    s = np.array([
        [1.0, 0.9, 0.85],
        [0.9, 1.0, 0.1],
        [0.85, 0.1, 1.0],
    ])
    res = mine_pairs(Tensor(s), [0, 0, 1], 0.1)
    assert res.keep[1, 0, 2]


def test_mining_infinite_margin_keeps_everything(rng):
    d = unit_rows(rng, 6, 4)
    s = similarity_matrix(Tensor(d))
    res = mine_pairs(s, [0, 0, 0, 1, 1, 1], float("inf"))
    for q in range(6):
        assert res.keep[0, q].sum() == 2 and res.keep[1, q].sum() == 3


def test_mining_singleton_place_skipped(rng):
    s = similarity_matrix(Tensor(unit_rows(rng, 3, 4)))
    res = mine_pairs(s, [0, 1, 1], 0.1)
    assert res.skipped == [0]
    assert not res.keep[:, 0].any()


def test_mining_rejects_non_square():
    with pytest.raises(ShapeError):
        mine_pairs(Tensor(np.ones((2, 3))), [0, 1], 0.1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mining_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    b = 16
    pids = rng.integers(0, 5, size=b)
    s = similarity_matrix(Tensor(unit_rows(rng, b, 8)))
    res = mine_pairs(s, pids.tolist(), 0.1)
    op, on, osk = brute_force_mining(s.data, pids, 0.1)
    for q in range(b):
        assert np.flatnonzero(res.keep[0, q]).tolist() == sorted(op[q])
        assert np.flatnonzero(res.keep[1, q]).tolist() == sorted(on[q])
    assert res.skipped == osk


# loss -----------------------------------------------------------------------

def test_worked_example():
    """One query, one positive at 0.5, one negative at 0.2."""
    s = Tensor(np.array([[1.0, 0.5, 0.2]]))
    mining = _manual_mining(pos=[[1]], neg=[[2]])
    cfg = LossConfig(alpha=1.0, beta=50.0, lam=0.0)
    got = float(ms_loss(s, mining, cfg).data)
    expect = math.log(1 + math.exp(-0.5)) + math.log(1 + math.exp(10.0)) / 50
    assert abs(got - expect) < 1e-12
    assert abs(got - 0.674077) < 1e-5


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(2, 12),
       alpha=st.floats(1e-3, 1e3), beta=st.floats(1e-3, 800.0), lam=st.floats(-1.0, 1.0))
def test_kernel_matches_per_query_loss(seed, b, alpha, beta, lam):
    rng = np.random.default_rng(seed)
    pids = rng.integers(0, b // 2 + 1, size=b)      # singleton places: skipped queries
    s = similarity_matrix(Tensor(unit_rows(rng, b, 4))).data
    cfg = LossConfig(alpha=alpha, beta=beta, lam=lam)
    loss, grad = ms_kernel(s, *pair_tables(mine_pairs(s, pids, cfg.margin), cfg))
    pos, neg, _ = brute_force_mining(s, pids, cfg.margin)
    want_loss, want_grad = per_query_loss(s, pos, neg, cfg)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    # below the smallest normal double exp(t - m) carries fewer significant bits
    np.testing.assert_allclose(grad(), want_grad, rtol=1e-12, atol=np.finfo(float).tiny)


def _manual_mining(pos, neg, skipped=()):
    from placerec.loss import MiningResult

    # B query rows over the square batch, or wider to hold the largest index
    width = max([len(pos)] + [j + 1 for row in pos + neg for j in row])
    keep = np.zeros((2, len(pos), width), dtype=bool)
    for side, rows in enumerate((pos, neg)):
        for q, row in enumerate(rows):
            keep[side, q, row] = True
    return MiningResult(keep=keep, skipped=list(skipped))


def test_empty_pairs_zero_loss():
    s = Tensor(np.eye(2))
    mining = _manual_mining(pos=[[], []], neg=[[], []])
    assert float(ms_loss(s, mining, LossConfig()).data) == 0.0


def test_loss_nonnegative_random(rng):
    for _ in range(20):
        d = unit_rows(rng, 8, 6)
        s = similarity_matrix(Tensor(d))
        pids = rng.integers(0, 3, size=8).tolist()
        mining = mine_pairs(s, pids, 0.1)
        assert float(ms_loss(s, mining, LossConfig()).data) >= 0.0


def test_loss_batch_order_invariance(rng):
    d = unit_rows(rng, 6, 8)
    pids = [0, 0, 1, 1, 2, 2]
    cfg = LossConfig()
    s = similarity_matrix(Tensor(d))
    base = float(ms_loss(s, mine_pairs(s, pids, cfg.margin), cfg).data)
    perm = rng.permutation(6)
    sp = similarity_matrix(Tensor(d[perm]))
    pp = [pids[i] for i in perm]
    got = float(ms_loss(sp, mine_pairs(sp, pp, cfg.margin), cfg).data)
    assert abs(base - got) < 1e-12


def test_beta_term_stable_at_similarity_one():
    s = Tensor(np.array([[1.0, 1.0, 1.0]]))
    mining = _manual_mining(pos=[[1]], neg=[[2]])
    v = float(ms_loss(s, mining, LossConfig(beta=50.0)).data)
    assert np.isfinite(v)
    # (1/50)·log(1+e^50) is within 1e-9 of 1.0
    assert abs(v - (math.log(1 + math.exp(-1.0)) + 1.0)) < 1e-9


def test_monotonicity_direction():
    """Raising a kept negative raises the loss; raising a kept positive lowers it."""
    cfg = LossConfig()
    mining = _manual_mining(pos=[[1]], neg=[[2]])

    def loss_at(sp, sn):
        return float(ms_loss(Tensor(np.array([[1.0, sp, sn]])), mining, cfg).data)

    assert loss_at(0.5, 0.3) > loss_at(0.5, 0.2)
    assert loss_at(0.6, 0.2) < loss_at(0.5, 0.2)


def test_gradient_through_descriptors(rng):
    raw = Param(rng.normal(size=(6, 8)), name="raw")
    pids = [0, 0, 1, 1, 2, 2]
    cfg = LossConfig()
    # mining is frozen at the base point, as in a real training step
    mining = mine_pairs(similarity_matrix(Tensor(
        raw.value.data / np.linalg.norm(raw.value.data, axis=1, keepdims=True))),
        pids, cfg.margin)
    assert mining.kept_pos > 0 and mining.kept_neg > 0

    def f():
        return ms_loss(similarity_matrix(l2_normalize(raw.read())), mining, cfg)

    report = grad_check(f, [raw], tol=1e-5)
    assert report.ok, report.summary()
