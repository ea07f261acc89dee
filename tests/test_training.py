"""Optimizer, schedule, and the step/epoch training loop."""
import os

import numpy as np
import pytest

from placerec.autodiff import Param, Tape, Tensor
from placerec.config import TrainConfig
from placerec import fanout, training
from placerec.errors import NumericalError, ValidationError
from placerec.fanout import PeerPipes, fan_out, shared_array
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


def test_split_adam_equals_the_whole_buffer_step(rng):
    """Two processes, each stepping its half of the flat scalars, end with the
    values of one process stepping all of them, bit for bit. 9 scalars: the
    cut at 4 falls inside the second tensor."""
    shapes = [(3,), (2, 3)]
    init = [rng.normal(size=s) for s in shapes]
    g0s, g1s = ([[rng.normal(size=s) for s in shapes] for _ in range(5)] for _ in range(2))

    params = [Param(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
    opt = Adam(params, lr=0.01)
    for g0, g1 in zip(g0s, g1s):
        for p, a, b in zip(params, g0, g1):
            p.grad += a
            p.grad += b
        opt.step()
    whole = opt.values.copy()

    params = [Param(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
    values, grads = shared_array((9,)), shared_array((2, 9))
    opt = Adam(params, lr=0.01, values=values, grad=grads[0])

    def share(rank):
        with pipes.peer(rank) as peer:
            opt.split(grads, rank)
            for step in zip(g0s, g1s):
                for p, g in zip(params, step[rank]):
                    p.grad += g
                opt.step(peer)
        return (opt.m.size, opt.v.size), None

    with PeerPipes() as pipes:
        assert fan_out(2, share, "test replica") == [(4, 4), (5, 5)]
    assert values.tobytes() == whole.tobytes()
    expect = reference_adam(init, [[a + b for a, b in zip(g0, g1)] for g0, g1 in zip(g0s, g1s)],
                            lr=0.01)
    np.testing.assert_allclose(values, np.concatenate([e.ravel() for e in expect]), atol=1e-12)


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
    np.testing.assert_array_equal(opt.m, twin_opt.m)
    np.testing.assert_array_equal(opt.v, twin_opt.v)


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
    """A fill's cache misses share one encoder pass, and the cached arrays
    equal the per-image feature stacks bit for bit."""
    import placerec.model as pr_model
    from placerec.synth import Perturbation, SynthConfig, generate, load_image

    scfg = SynthConfig(places=4, views_per_place=4, image_size=8,
                       perturbation=Perturbation(), seed=1)
    manifest = generate(scfg, tmp_path)
    model = build_model(tiny_run_config)
    calls = []
    monkeypatch.setattr(pr_model, "feature_stack",
                        lambda m, images, *op: calls.append(len(images))
                        or feature_stack(m, images, *op))
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


def test_trainer_cache_holds_float32_and_batch_stacks_upcasts(tiny_run_config, tmp_path):
    from placerec.synth import Perturbation, SynthConfig, generate, load_image

    scfg = SynthConfig(places=2, views_per_place=4, image_size=8,
                       perturbation=Perturbation(), seed=1)
    manifest = generate(scfg, tmp_path)
    model = build_model(tiny_run_config)
    trainer = Trainer(model, manifest, tmp_path, LossConfig(), tiny_run_config.train, log=None)
    ids = [r.image_id for r in manifest.split_rows("train")][:3]
    trainer.fill(ids)
    cached = [trainer.stack_for(i) for i in ids]
    assert all(z.dtype == np.float32 for s in cached for z in s)
    layers = batch_stacks(cached)
    for l, z in enumerate(layers):
        assert z.data.dtype == np.float64
        for j, image_id in enumerate(ids):
            single = feature_stack(model, load_image(tmp_path, image_id))[l]
            np.testing.assert_array_equal(z.data[j], single.data)


def _failing_pair(tiny_run_config, tmp_path, monkeypatch, error):
    """Run a two-process Trainer expecting `error`; then no descriptor is
    left open and no child is left, reaped or not."""
    from placerec.synth import Perturbation, SynthConfig, generate

    scfg = SynthConfig(places=4, views_per_place=4, image_size=8,
                       perturbation=Perturbation(), seed=1)
    manifest = generate(scfg, tmp_path)
    trainer = Trainer(build_model(tiny_run_config), manifest, tmp_path, LossConfig(),
                      tiny_run_config.train, log=None)
    monkeypatch.setattr(training, "_workers", lambda: 2)
    fds = len(os.listdir("/proc/self/fd"))
    with error:
        trainer.run()
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pair_failing_in_the_replica_leaves_no_descriptor_or_child(tiny_run_config, tmp_path,
                                                                   monkeypatch):
    parent, describe = os.getpid(), training.describe_stack

    def failing(model, layers):
        if os.getpid() != parent:
            raise ValidationError("bad shard 1")
        return describe(model, layers)

    monkeypatch.setattr(training, "describe_stack", failing)
    _failing_pair(tiny_run_config, tmp_path, monkeypatch,
                  pytest.raises(ValidationError, match="^bad shard 1$"))


def test_pair_losing_each_other_leaves_no_descriptor_or_child(tiny_run_config, tmp_path,
                                                              monkeypatch):
    """The replica passes every barrier without waiting: the two meet
    different numbers of barriers, which is an error of its own."""
    parent, barrier = os.getpid(), fanout.Peer.barrier
    monkeypatch.setattr(fanout.Peer, "barrier",
                        lambda peer: None if os.getpid() != parent else barrier(peer))
    _failing_pair(tiny_run_config, tmp_path, monkeypatch,
                  pytest.raises(NumericalError, match="different numbers of barriers"))
