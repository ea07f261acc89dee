"""Acceptance checks for the full pipeline, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines with measured numbers. Criteria 1 and 8 are timed; the whole
file is a few minutes of single-core work.
"""
import time

import numpy as np
import pytest

from placerec.adapters import lopa_forward, memory_report
from placerec.aggregator import aggregate
from placerec.autodiff import Tensor
from placerec.config import RunConfig, run_config_from_dict
from placerec.loss import LossConfig, MiningResult, mine_pairs, ms_loss
from placerec.model import (
    build_model,
    feature_stack,
    pipeline_gradcheck,
    trainable_params,
)
from placerec.retrieval import build_index, knn, recall_at_n
from placerec.synth import SynthConfig, generate
from placerec.training import Adam, Trainer, epoch_mean_loss, train_step
from placerec.retrieval import evaluate_model

# toy config used throughout: d=64, depth 4, L_dec=2, M=8, 16 patch tokens
TOY = {"aggregator": {"M": 8}}
_PROBE_PLACES = [0, 0, 1, 1, 2, 2, 3, 3]


def _verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _toy_model():
    return build_model(run_config_from_dict(TOY))


def _images(rng, cfg, count):
    b = cfg.backbone
    return [rng.normal(size=(b.image_size, b.image_size, b.channels))
            for _ in range(count)]


# 1. full-pipeline gradient fidelity ----------------------------------------

def test_criterion_1_gradient_fidelity():
    model = _toy_model()
    rng = np.random.default_rng(0)
    images = _images(rng, model.run_cfg, len(_PROBE_PLACES))
    report = pipeline_gradcheck(model, images, list(_PROBE_PLACES), tol=1e-5)
    ok = report.ok and report.seconds <= 120.0
    assert _verdict(
        1, ok,
        f"{report.checked} trainable scalars, max_rel_err={report.max_rel_err:.3e} "
        f"(tol 1e-5), {report.seconds:.1f}s (budget 120s)")


# 2. ladder with zero up-projections reduces to the plain feature sum -------

def test_criterion_2_zero_up_projection_identity():
    model = _toy_model()
    rng = np.random.default_rng(1)
    worst = 0.0
    for img in _images(rng, model.run_cfg, 20):
        stack = feature_stack(model, img)
        y = lopa_forward(stack, model.adapters, model.run_cfg.lopa)
        target = sum(t.data for t in stack)
        worst = max(worst, float(np.abs(y.data - target).max()))
    assert _verdict(2, worst <= 1e-12,
                    f"max |y_L - sum z_i| = {worst:.3e} over 20 images (tol 1e-12)")


# 3. encoder params never move, encoder grads never appear ------------------

def test_criterion_3_frozen_encoder_contract():
    model = _toy_model()
    rng = np.random.default_rng(2)
    images = _images(rng, model.run_cfg, len(_PROBE_PLACES))
    stacks = [[t.data for t in feature_stack(model, img)] for img in images]
    before = [p.value.data.tobytes() for p in model.backbone.params()]

    opt = Adam(trainable_params(model), lr=model.run_cfg.train.lr)
    grads_clean = True
    for _ in range(25):
        train_step(model, stacks, list(_PROBE_PLACES), model.run_cfg.loss, opt)
        grads_clean &= all(np.all(p.grad == 0.0) for p in model.backbone.params())
    after = [p.value.data.tobytes() for p in model.backbone.params()]
    identical = before == after
    assert _verdict(
        3, identical and grads_clean,
        f"25 steps: encoder bit-identical={identical}, "
        f"encoder grads zero after every backward={grads_clean}")


# 4. adapter memory structure ------------------------------------------------

def test_criterion_4_memory_structure():
    cfg = run_config_from_dict(TOY)
    lopa = memory_report("lopa", cfg.backbone, cfg.lopa)
    serial = memory_report("serial", cfg.backbone, cfg.lopa)
    b, lp = cfg.backbone, cfg.lopa
    expected = b.depth * 2 * b.d * lp.rank
    ok = (lopa["backbone_retained_bytes"] == 0
          and serial["backbone_retained_bytes"] > 0
          and lopa["trainable_params"] == expected == 2048)
    assert _verdict(
        4, ok,
        f"retained encoder bytes: ladder={lopa['backbone_retained_bytes']}, "
        f"serial={serial['backbone_retained_bytes']}; "
        f"trainable params {lopa['trainable_params']} (closed form {expected})")


# 5. aggregator invariants ---------------------------------------------------

def test_criterion_5_aggregator_invariants():
    model = _toy_model()
    agg, cfg = model.aggregator, model.run_cfg.aggregator
    rng = np.random.default_rng(5)
    for p in agg.params():
        p.value = Tensor(p.value.data + rng.normal(0.0, 0.05, p.value.data.shape))

    n_tokens = (model.run_cfg.backbone.image_size // model.run_cfg.backbone.patch_size) ** 2 + 1
    x = rng.normal(size=(1000, n_tokens, cfg.d))
    y = aggregate(Tensor(x), agg).data
    norm_err = float(np.abs(np.linalg.norm(y, axis=1) - 1.0).max())

    perms = [rng.permutation(n_tokens) for _ in range(1000)]
    xp = np.stack([x[i][perms[i]] for i in range(1000)])
    yp = aggregate(Tensor(xp), agg).data
    perm_err = float(np.abs(y - yp).max())

    d = cfg.d
    per_block = 2 * (4 * d * d + 4 * d) + 4 * d
    counts = [sum(p.value.data.size for p in blk.params()) for blk in agg.blocks]
    audit = len(counts) == cfg.l_dec and all(c == per_block for c in counts)

    ok = norm_err <= 1e-9 and perm_err <= 1e-9 and audit
    assert _verdict(
        5, ok,
        f"1000 inputs: max |norm-1|={norm_err:.3e}, max permutation drift={perm_err:.3e} "
        f"(tol 1e-9); per-block params {counts} == {per_block} (no FFN)")


# 6. loss oracle and mining oracle -------------------------------------------

def _mine_oracle(s, ids, margin):
    """Straight-loop restatement of the pair-keeping rule."""
    b = len(ids)
    pos, neg, skipped = [], [], []
    for q in range(b):
        p_raw = [j for j in range(b) if ids[j] == ids[q] and j != q]
        n_raw = [j for j in range(b) if ids[j] != ids[q]]
        if not p_raw or not n_raw:
            skipped.append(q)
            pos.append([])
            neg.append([])
            continue
        hardest_pos = min(s[q, j] for j in p_raw)
        hardest_neg = max(s[q, j] for j in n_raw)
        neg.append([j for j in n_raw if s[q, j] > hardest_pos - margin])
        pos.append([j for j in p_raw if s[q, j] < hardest_neg + margin])
    return pos, neg, skipped


def test_criterion_6_loss_and_mining_oracles():
    # worked example: one positive at 0.5, one negative at 0.2
    s = np.array([[1.0, 0.5, 0.2]])
    mining = MiningResult(keep=np.array([[[False, True, False]], [[False, False, True]]]))
    val = float(ms_loss(s, mining, LossConfig()).data)
    worked_ok = abs(val - 0.674077) <= 1e-5

    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(100):
        d = rng.normal(size=(16, 8))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        s = d @ d.T
        ids = rng.integers(0, 5, size=16).tolist()
        got = mine_pairs(s, ids, margin=0.1)
        pos, neg, skipped = _mine_oracle(s, ids, 0.1)
        same = (got.skipped == skipped
                and all(np.flatnonzero(got.keep[0, q]).tolist() == pos[q] for q in range(16))
                and all(np.flatnonzero(got.keep[1, q]).tolist() == neg[q] for q in range(16)))
        mismatches += 0 if same else 1

    ok = worked_ok and mismatches == 0
    assert _verdict(
        6, ok,
        f"worked example {val:.9f} vs 0.674077 (tol 1e-5); "
        f"mining mismatches {mismatches}/100 batches of 16")


# 7. retrieval oracles --------------------------------------------------------

def _knn_oracle(ids, mat, q, k):
    scores = mat @ q
    order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
    return [ids[j] for j in order[:k]]


def _recall_oracle(ranked, gt, ns):
    hits = {n: 0 for n in ns}
    for cand, pos in zip(ranked, gt):
        first = None
        for i, cid in enumerate(cand):
            if cid in pos:
                first = i + 1
                break
        for n in ns:
            if first is not None and first <= n:
                hits[n] += 1
    return {n: 100.0 * hits[n] / len(ranked) for n in ns}


def test_criterion_7_retrieval_oracles():
    rng = np.random.default_rng(7)
    n, dim, ns = 64, 32, (1, 5, 10)
    knn_bad = recall_bad = 0
    for _ in range(100):
        mat = rng.normal(size=(n, dim))
        mat[1] = mat[0]          # forced score ties; ids break them
        mat[3] = mat[2]
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        ids = [f"i{j:03d}" for j in rng.permutation(n)]
        index = build_index(ids, mat)

        ranked, gt = [], []
        for _ in range(8):
            q = rng.normal(size=dim)
            q /= np.linalg.norm(q)
            k = int(rng.integers(1, n + 1))
            if knn(index, q, k) != _knn_oracle(ids, mat, q, k):
                knn_bad += 1
            full = knn(index, q, n)
            ranked.append(full)
            gt.append(set(rng.choice(ids, size=4, replace=False).tolist()))
        got = recall_at_n(ranked, gt, ns)
        if got.recall_at != _recall_oracle(ranked, gt, ns):
            recall_bad += 1

    ok = knn_bad == 0 and recall_bad == 0
    assert _verdict(
        7, ok,
        f"knn mismatches {knn_bad}/800 queries, recall mismatches {recall_bad}/100 "
        f"instances (n={n}, D={dim}, exact)")


# 8 + 9. desk-scale end-to-end run and ablation direction ---------------------

@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("desk") / "corpus")
    cfg = SynthConfig()   # 32 places x 4 views: 2 train / 1 db / 1 query
    manifest = generate(cfg, out)
    return out, manifest


def _train_and_eval(run_cfg, desk_corpus):
    data_dir, manifest = desk_corpus
    model = build_model(run_cfg)
    trainer = Trainer(model, manifest, data_dir, run_cfg.loss, run_cfg.train, log=None)
    history = trainer.run()
    result = evaluate_model(model, manifest, data_dir, ns=(1, 5))
    return history, result


@pytest.fixture(scope="module")
def main_run(desk_corpus):
    start = time.monotonic()
    history, result = _train_and_eval(RunConfig(), desk_corpus)
    return history, result, time.monotonic() - start


def test_criterion_8_desk_scale_run(main_run):
    history, result, seconds = main_run
    r1, r5 = result.recall_at[1], result.recall_at[5]
    first = epoch_mean_loss(history, 1)
    last = epoch_mean_loss(history, 20)
    ok = r1 >= 95.0 and r5 == 100.0 and last < 0.2 * first and seconds <= 600.0
    assert _verdict(
        8, ok,
        f"R@1={r1:.2f} (>=95), R@5={r5:.2f} (=100), "
        f"epoch-20 loss {last:.4f} vs epoch-1 {first:.4f} "
        f"(ratio {last / first:.3f} < 0.2), {seconds:.1f}s (budget 600s)")


def test_criterion_9_ablation_direction(desk_corpus, main_run):
    _, full_result, _ = main_run
    head_only = run_config_from_dict({"aggregator": {"L_dec": 0}})
    _, base_result = _train_and_eval(head_only, desk_corpus)

    full_r1 = full_result.recall_at[1]
    base_r1 = base_result.recall_at[1]
    equal = full_r1 == base_r1
    print("ablation report (fixed corpus, fixed seeds)")
    print(f"  decoder blocks L_dec=2, M=16: R@1 {full_r1:.2f}")
    print(f"  head only      L_dec=0, M=16: R@1 {base_r1:.2f}")
    print(f"  equal: {'yes - inspect both runs' if equal else 'no'}")
    assert _verdict(
        9, full_r1 >= base_r1,
        f"R@1 {full_r1:.2f} (L_dec=2) >= {base_r1:.2f} (L_dec=0)"
        + ("; EQUAL - flagged for inspection" if equal else ""))
