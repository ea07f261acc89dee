"""Frozen transformer encoder: shapes, determinism, frozen accounting."""
import numpy as np
import pytest

from placerec.autodiff import Tape
from placerec.backbone import (
    ViTConfig,
    build_backbone,
    encoder_block,
    forward_collect,
    load_feature_stack,
    patch_embed,
    save_feature_stack,
)
from placerec.errors import ShapeError, ValidationError
from placerec.ops import patchify
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


def test_feature_stack_roundtrip(tmp_path, rng):
    bb = build_backbone(CFG)
    stack = forward_collect(Tensor(image(rng)), bb)
    path = tmp_path / "stack.edtf"
    save_feature_stack(path, stack)
    back = load_feature_stack(path)
    assert len(back) == len(stack)
    for za, zb in zip(stack, back):
        np.testing.assert_allclose(zb.data, za.data, atol=1e-6)  # stored as f32
