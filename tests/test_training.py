"""Optimizer, schedule, and the step/epoch training loop."""
import numpy as np
import pytest

from placerec.autodiff import Param, Tape, Tensor
from placerec.config import TrainConfig
from placerec.errors import ValidationError
from placerec.gradcheck import grad_check
from placerec.model import all_params, batch_stacks, build_model, feature_stack, trainable_params
from placerec.ops import matmul, sum_all
from placerec.training import Adam, StepResult, Trainer, epoch_mean_loss, lr_at, train_step
from placerec.loss import LossConfig


def reference_adam(values, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Straight textbook Adam, no in-place tricks; returns final values."""
    v = [x.copy() for x in values]
    m = [np.zeros_like(x) for x in values]
    s = [np.zeros_like(x) for x in values]
    for t, grads in enumerate(grads_seq, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            s[i] = b2 * s[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1 ** t)
            shat = s[i] / (1 - b2 ** t)
            v[i] = v[i] - lr * mhat / (np.sqrt(shat) + eps)
    return v


def test_adam_matches_reference(rng):
    w = rng.normal(size=(3, 2))
    x = rng.normal(size=(4, 3))
    p = Param(w.copy(), name="w")
    opt = Adam([p], lr=0.01)
    grads = []
    for _ in range(5):
        with Tape() as tape:
            loss = sum_all(matmul(Tensor(x), p.read()))
        tape.backward(loss)
        grads.append([p.grad.copy()])
        opt.step()
    expect = reference_adam([w], grads, lr=0.01)[0]
    np.testing.assert_allclose(p.value.data, expect, atol=1e-12)


def test_adam_zero_lr_is_identity(rng):
    p = Param(rng.normal(size=(4,)), name="p")
    before = p.value.data.copy()
    opt = Adam([p], lr=0.0)
    with Tape() as tape:
        loss = sum_all(p.read())
    tape.backward(loss)
    opt.step()
    np.testing.assert_array_equal(p.value.data, before)


def test_adam_clears_grads_on_step(rng):
    p = Param(rng.normal(size=(3,)), name="p")
    opt = Adam([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    assert not p.grad.any()


def test_adam_skips_frozen_params():
    frozen = Param(np.ones(3), trainable=False)
    live = Param(np.ones(3))
    opt = Adam([frozen, live], lr=0.1)
    live.grad[:] = 1.0
    frozen.grad[:] = 1.0  # should never happen, but even so: untouched
    before = frozen.value.data.copy()
    opt.step()
    np.testing.assert_array_equal(frozen.value.data, before)


def test_adam_requires_trainables():
    with pytest.raises(ValidationError):
        Adam([Param(np.ones(2), trainable=False)], lr=0.1)


def test_lr_schedule():
    cfg = TrainConfig(lr=1.0, lr_decay=0.7, decay_every=3)
    assert lr_at(cfg, 0) == lr_at(cfg, 1) == lr_at(cfg, 2) == 1.0
    assert abs(lr_at(cfg, 3) - 0.7) < 1e-15
    assert abs(lr_at(cfg, 5) - 0.7) < 1e-15
    assert abs(lr_at(cfg, 6) - 0.49) < 1e-15


def test_logline_format():
    r = StepResult(step=3, epoch=1, lr=0.001, loss=1.25, kept_pos=4, kept_neg=9, skipped=0)
    line = r.logline()
    fields = dict(kv.split("=") for kv in line.split())
    assert fields["step"] == "3"
    assert fields["kept_neg"] == "9"
    assert float(fields["loss"]) == 1.25


def _toy_batch(model, rng, n_places=4, per=2):
    images = [rng.normal(size=(8, 8, 1)) for _ in range(n_places * per)]
    pids = [i // per for i in range(n_places * per)]
    stacks = [[t.data for t in feature_stack(model, img)] for img in images]
    return stacks, pids


def test_train_step_updates_only_trainables(tiny_run_config, rng):
    model = build_model(tiny_run_config)
    stacks, pids = _toy_batch(model, rng)
    frozen_before = [p.value.data.copy() for p in all_params(model) if not p.trainable]
    train_before = [p.value.data.copy() for p in trainable_params(model)]
    opt = Adam(trainable_params(model), lr=1e-3)
    res = train_step(model, stacks, pids, LossConfig(), opt)
    assert np.isfinite(res.loss)
    frozen_after = [p.value.data for p in all_params(model) if not p.trainable]
    for b, a in zip(frozen_before, frozen_after):
        np.testing.assert_array_equal(b, a)
    assert any(not np.array_equal(b, a.value.data)
               for b, a in zip(train_before, trainable_params(model)))


def test_empty_mining_step_skips_backward(tiny_run_config, rng, monkeypatch):
    """No mined pair: no backward sweep, and the parameters move exactly as
    an Adam step on zero gradients moves them."""
    model, twin = build_model(tiny_run_config), build_model(tiny_run_config)
    stacks, pids = _toy_batch(model, rng)
    opt = Adam(trainable_params(model), lr=1e-3)
    twin_opt = Adam(trainable_params(twin), lr=1e-3)
    for m, o in ((model, opt), (twin, twin_opt)):   # non-zero Adam moments
        train_step(m, stacks, pids, LossConfig(), o)

    sweeps = []
    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward",
                        lambda tape, root: sweeps.append(root) or backward(tape, root))
    # every image its own place: no query has a positive, mining keeps nothing
    res = train_step(model, stacks, list(range(len(stacks))), LossConfig(), opt)
    assert (res.kept_pos, res.kept_neg, res.loss) == (0, 0, 0.0)
    assert sweeps == []
    twin_opt.step()
    assert opt.t == twin_opt.t == 2
    for a, b in zip(trainable_params(model), trainable_params(twin)):
        np.testing.assert_array_equal(a.value.data, b.value.data)
        np.testing.assert_array_equal(opt.m[id(a)], twin_opt.m[id(b)])
        np.testing.assert_array_equal(opt.v[id(a)], twin_opt.v[id(b)])


def test_fixed_batch_loss_decreases(rng):
    """50 steps at lr 1e-3 on one fixed 4-place batch: decreasing after the
    warmup, allowing 10% transient violations."""
    from placerec.config import RunConfig

    model = build_model(RunConfig())
    images = [rng.normal(size=(32, 32, 1)) for _ in range(8)]
    pids = [i // 2 for i in range(8)]
    stacks = [[t.data for t in feature_stack(model, img)] for img in images]
    opt = Adam(trainable_params(model), lr=1e-3)
    losses = [train_step(model, stacks, pids, LossConfig(), opt).loss for _ in range(50)]
    diffs = np.diff(losses[5:])
    violations = int((diffs > 0).sum())
    assert losses[-1] < losses[0]
    assert violations <= int(0.10 * len(diffs)) + 1


def test_epoch_mean_loss():
    hist = [
        StepResult(1, 1, 0.1, 2.0, 1, 1, 0),
        StepResult(2, 1, 0.1, 4.0, 1, 1, 0),
        StepResult(3, 2, 0.1, 1.0, 1, 1, 0),
    ]
    assert epoch_mean_loss(hist, 1) == 3.0
    assert epoch_mean_loss(hist, 2) == 1.0


def test_trainer_runs_and_logs(tiny_run_config, tmp_path, rng):
    from placerec.synth import SynthConfig, Perturbation, generate

    scfg = SynthConfig(places=4, views_per_place=4, image_size=8,
                       perturbation=Perturbation(), seed=1)
    manifest = generate(scfg, tmp_path)
    model = build_model(tiny_run_config)
    lines = []
    trainer = Trainer(model, manifest, tmp_path, LossConfig(), tiny_run_config.train,
                      log=lines.append)
    history = trainer.run()
    assert len(history) == len(lines) > 0
    assert all(h.step == i + 1 for i, h in enumerate(history))
    assert {h.epoch for h in history} == {1, 2}


def test_trainer_cache_fill_is_batched_and_bit_identical(tiny_run_config, tmp_path, monkeypatch):
    """A batch's cache misses share one encoder pass, and the cached arrays
    equal the per-image feature stacks bit for bit."""
    import placerec.training as training
    from placerec.synth import Perturbation, SynthConfig, generate, load_image

    scfg = SynthConfig(places=4, views_per_place=4, image_size=8,
                       perturbation=Perturbation(), seed=1)
    manifest = generate(scfg, tmp_path)
    model = build_model(tiny_run_config)
    calls = []
    monkeypatch.setattr(training, "feature_stack",
                        lambda m, images: calls.append(len(images)) or feature_stack(m, images))
    trainer = Trainer(model, manifest, tmp_path, LossConfig(), tiny_run_config.train, log=None)
    ids = [r.image_id for r in manifest.split_rows("train")]
    trainer.fill(ids[:3] + ids[:1])
    trainer.fill(ids)
    trainer.run()
    assert calls == [3, len(ids) - 3]
    for image_id in ids:
        single = feature_stack(model, load_image(tmp_path, image_id))
        cached = trainer.stack_for(image_id)
        assert len(cached) == len(single)
        for c, z in zip(cached, single):
            np.testing.assert_array_equal(c, z.data)
    assert calls == [3, len(ids) - 3]
