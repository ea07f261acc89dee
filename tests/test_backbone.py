"""Frozen transformer encoder: shapes, determinism, frozen accounting."""
import numpy as np
import pytest

from placerec.autodiff import Tape
from placerec.backbone import (
    ViTConfig,
    as_arrays,
    build_backbone,
    encode,
    encoder_block,
    forward_collect,
    patch_embed,
)
from placerec.errors import ShapeError, ValidationError
from placerec.ops import Kernels, patchify
from placerec.autodiff import Tensor


CFG = ViTConfig(image_size=8, patch_size=4, d=16, depth=2, heads=2, seed=5)


def image(rng, cfg=CFG):
    return rng.normal(size=(cfg.image_size, cfg.image_size, cfg.channels))


def test_token_count_is_patches_plus_cls(rng):
    bb = build_backbone(CFG)
    z = patch_embed(Tensor(image(rng)), bb)
    n = (CFG.image_size // CFG.patch_size) ** 2
    assert z.shape == (n + 1, CFG.d)


def test_all_params_frozen():
    bb = build_backbone(CFG)
    assert all(not p.trainable for p in bb.params())


def test_weights_deterministic_by_seed():
    a = build_backbone(CFG)
    b = build_backbone(CFG)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.value.data, pb.value.data)


def test_different_seed_different_weights():
    other = ViTConfig(image_size=8, patch_size=4, d=16, depth=2, heads=2, seed=6)
    a = build_backbone(CFG)
    b = build_backbone(other)
    assert any(
        not np.array_equal(pa.value.data, pb.value.data)
        for pa, pb in zip(a.params(), b.params())
    )


def test_forward_collect_returns_every_stage(rng):
    bb = build_backbone(CFG)
    stack = forward_collect(Tensor(image(rng)), bb)
    assert len(stack) == CFG.depth + 1  # z_0 (embedding) plus one per block
    n = (CFG.image_size // CFG.patch_size) ** 2
    for z in stack:
        assert z.shape == (n + 1, CFG.d)


def test_forward_is_deterministic(rng):
    bb = build_backbone(CFG)
    img = Tensor(image(rng))
    a = forward_collect(img, bb)
    b = forward_collect(img, bb)
    for za, zb in zip(a, b):
        np.testing.assert_array_equal(za.data, zb.data)


def test_batched_forward_matches_per_image_bit_for_bit(rng):
    bb = build_backbone(CFG)
    imgs = np.stack([image(rng) for _ in range(5)])
    batched = forward_collect(Tensor(imgs), bb)
    assert len(batched) == CFG.depth + 1
    for i in range(len(imgs)):
        single = forward_collect(Tensor(imgs[i]), bb)
        for zb, zs in zip(batched, single):
            assert zb.shape == (len(imgs),) + zs.shape
            np.testing.assert_array_equal(zb.data[i], zs.data)


def test_patch_embed_rejects_wrong_batch_shape(rng):
    bb = build_backbone(CFG)
    with pytest.raises(ShapeError):
        patch_embed(Tensor(rng.normal(size=(2, 8, 4, 1))), bb)
    with pytest.raises(ShapeError):
        patch_embed(Tensor(rng.normal(size=(1, 2, 8, 8, 1))), bb)


def test_frozen_run_retains_no_bytes(rng):
    bb = build_backbone(CFG)
    with Tape() as tape:
        forward_collect(Tensor(image(rng)), bb, frozen=True)
    assert tape.retained_bytes() == 0
    assert tape.op_count(frozen=True) > 0
    assert tape.op_count(frozen=False) == 0


def test_unfrozen_reference_run_retains_bytes(rng):
    bb = build_backbone(CFG)
    with Tape() as tape:
        forward_collect(Tensor(image(rng)), bb, frozen=False)
    assert tape.retained_bytes() > 0


def test_patchify_rejects_misaligned_image(rng):
    with pytest.raises(ShapeError):
        patchify(Tensor(rng.normal(size=(7, 7, 1))), 4)


def test_config_validation():
    with pytest.raises(ValidationError):
        ViTConfig(image_size=8, patch_size=3, d=16, depth=2, heads=2).validate()
    with pytest.raises(ValidationError):
        ViTConfig(image_size=8, patch_size=4, d=15, depth=2, heads=2).validate()


# the bare float32 executor ------------------------------------------------------

def test_bare_executor_layers_are_float32(rng):
    # an np.float64 scalar anywhere in the encoder (NEP 50) would turn these float64
    bb = build_backbone(CFG)
    imgs = np.stack([image(rng) for _ in range(3)]).astype(np.float32)
    layers = encode(imgs, as_arrays(bb, np.float32), Kernels)
    assert len(layers) == CFG.depth + 1
    assert [z.dtype for z in layers] == [np.float32] * len(layers)
    frozen = forward_collect(Tensor(imgs), bb)
    for z32, z in zip(layers, frozen):
        assert z.data.dtype == np.float64
        np.testing.assert_array_equal(z.data, z32.astype(np.float64))


def test_kernel_executor_in_float64_equals_taped_wrappers_bit_for_bit(rng):
    bb = build_backbone(CFG)
    for imgs in (image(rng), np.stack([image(rng) for _ in range(4)])):
        bare = encode(imgs, as_arrays(bb, np.float64), Kernels)
        with Tape():
            taped = forward_collect(Tensor(imgs), bb, frozen=False)
        assert [z.dtype for z in bare] == [np.float64] * len(bare)
        for zb, zt in zip(bare, taped):
            np.testing.assert_array_equal(zb, zt.data)


def test_frozen_forward_tracks_float64_reference(rng):
    bb = build_backbone(CFG)
    img = image(rng)
    for zf, zr in zip(forward_collect(img, bb), forward_collect(img, bb, frozen=False)):
        assert zf.shape == zr.shape
        np.testing.assert_allclose(zf.data, zr.data, rtol=0, atol=1e-6 * np.abs(zr.data).max())


def test_frozen_forward_reads_weights_at_each_call(rng):
    # load_model replaces p.value after build_model; no cast may outlive a call
    bb = build_backbone(CFG)
    img = image(rng)
    before = forward_collect(img, bb)[-1].data
    bb.blocks[-1].b2.value = Tensor(np.full(CFG.d, 0.5))
    after = forward_collect(img, bb)[-1].data
    np.testing.assert_allclose(after - before, 0.5, rtol=0, atol=1e-5)


def test_frozen_run_marks_each_returned_layer(rng):
    bb = build_backbone(CFG)
    with Tape() as tape:
        stack = forward_collect(Tensor(image(rng)), bb)
    assert tape.op_count("backbone", frozen=True) == len(stack) == CFG.depth + 1
    assert tape.op_count() == CFG.depth + 1


def test_one_image_runs_as_a_batch_of_one(rng, monkeypatch):
    import placerec.backbone as backbone

    shapes = []
    real = backbone.encode
    monkeypatch.setattr(backbone, "encode",
                        lambda x, bb, op: shapes.append(x.shape) or real(x, bb, op))
    stack = forward_collect(image(rng), build_backbone(CFG))
    assert shapes == [(1, CFG.image_size, CFG.image_size, CFG.channels)]
    assert stack[0].shape == ((CFG.image_size // CFG.patch_size) ** 2 + 1, CFG.d)
