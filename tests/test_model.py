"""Model assembly and checkpointing: save/load identity, name audit, mismatch rejection."""
import numpy as np
import pytest

from placerec.config import RunConfig, run_config_from_dict
from placerec.errors import ContractError, FormatError
from placerec.fileformats import read_checkpoint, write_checkpoint
from placerec.model import (
    all_params,
    build_model,
    describe_stack,
    feature_stack,
    kernel_model,
    load_model,
    named_params,
    save_model,
    trainable_params,
)
from placerec.ops import Kernels


@pytest.fixture
def model(tiny_run_config):
    return build_model(tiny_run_config)


def _images(rng, cfg, n):
    b = cfg.backbone
    return [rng.normal(size=(b.image_size, b.image_size, b.channels)) for _ in range(n)]


def test_trainable_partition(model):
    every = all_params(model)
    train = trainable_params(model)
    assert 0 < len(train) < len(every)
    assert all(p.trainable for p in train)
    frozen = [p for p in every if not p.trainable]
    assert len(frozen) + len(train) == len(every)
    # the frozen side is exactly the encoder
    assert set(id(p) for p in frozen) == set(id(p) for p in model.backbone.params())


def test_named_params_unique_and_complete(model):
    names = named_params(model)
    assert len(names) == len(all_params(model))
    assert all(isinstance(k, str) and k for k in names)


def test_duplicate_name_rejected(model):
    clash = model.adapters[0].params()[0].name
    model.aggregator.params()[0].name = clash
    with pytest.raises(ContractError, match="duplicate param name"):
        named_params(model)


def test_empty_name_rejected(model):
    model.adapters[0].params()[0].name = ""
    with pytest.raises(ContractError, match="unnamed param"):
        named_params(model)


def test_save_load_descriptors_bit_identical(tmp_path, model, rng):
    imgs = _images(rng, model.run_cfg, 3)
    # perturb trainables away from init so the test is not about zeros
    for p in trainable_params(model):
        p.value.data += rng.normal(0.0, 0.05, p.value.data.shape)
    before = [describe_stack(model, feature_stack(model, im)).data.copy() for im in imgs]

    path = tmp_path / "m.edtc"
    save_model(path, model)
    again = load_model(path)
    after = [describe_stack(again, feature_stack(again, im)).data for im in imgs]
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def test_load_restores_config(tmp_path, model):
    path = tmp_path / "m.edtc"
    save_model(path, model)
    again = load_model(path)
    assert again.run_cfg.to_dict() == model.run_cfg.to_dict()
    assert again.descriptor_dim == model.descriptor_dim


def test_load_rejects_missing_tensor(tmp_path, model):
    path = tmp_path / "m.edtc"
    save_model(path, model)
    cfg, tensors = read_checkpoint(path)
    dropped = sorted(tensors)[0]
    del tensors[dropped]
    write_checkpoint(path, cfg, tensors)
    with pytest.raises(FormatError, match="missing"):
        load_model(path)


def test_load_rejects_extra_tensor(tmp_path, model):
    path = tmp_path / "m.edtc"
    save_model(path, model)
    cfg, tensors = read_checkpoint(path)
    tensors["stowaway"] = np.zeros((2, 2))
    write_checkpoint(path, cfg, tensors)
    with pytest.raises(FormatError, match="unexpected"):
        load_model(path)


def test_load_rejects_shape_mismatch(tmp_path, model):
    path = tmp_path / "m.edtc"
    save_model(path, model)
    cfg, tensors = read_checkpoint(path)
    name = sorted(tensors)[0]
    tensors[name] = np.zeros(np.asarray(tensors[name]).T.shape + (1,))
    write_checkpoint(path, cfg, tensors)
    with pytest.raises(FormatError, match="shape"):
        load_model(path)


def _index_model(rng, **aggregator):
    """The index benchmark's config (the defaults), with the adapters'
    zero-initialized up-projections moved so the ladder is not the identity."""
    model = build_model(run_config_from_dict({"aggregator": aggregator}))
    for f in model.adapters:
        f.w_u.value.data[:] = rng.normal(0.0, 0.05, f.w_u.shape)
    return model


@pytest.mark.parametrize("l_dec", [2, 0])
def test_float64_kernel_describe_is_the_wrappers_bit_for_bit(rng, l_dec):
    """describe_stack is one definition: on float64 Kernels it gives the
    taped wrappers' bits, batched and per image."""
    model = _index_model(rng, L_dec=l_dec)
    arrays = kernel_model(model, np.float64)
    imgs = np.stack(_images(rng, model.run_cfg, 8))
    layers = feature_stack(model, imgs)
    got = describe_stack(arrays, [z.data for z in layers], Kernels)
    np.testing.assert_array_equal(got, describe_stack(model, layers).data)
    for img in imgs[:3]:
        single = feature_stack(model, img)
        np.testing.assert_array_equal(describe_stack(arrays, [z.data for z in single], Kernels),
                                      describe_stack(model, single).data)


def test_float32_describe_stays_within_1e6_of_float64(rng):
    """What extract stores: the float32 layers described on float32 Kernels."""
    model = _index_model(rng)
    imgs = np.stack(_images(rng, model.run_cfg, 32))
    want = describe_stack(model, feature_stack(model, imgs)).data
    got = describe_stack(kernel_model(model, np.float32), feature_stack(model, imgs, Kernels),
                         Kernels)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_descriptor_grads_skip_encoder(model, rng):
    from placerec.autodiff import Tape
    from placerec.ops import sum_all

    img = _images(rng, model.run_cfg, 1)[0]
    stack = feature_stack(model, img)
    with Tape() as tape:
        loss = sum_all(describe_stack(model, stack))
        tape.backward(loss)
    assert all(np.all(p.grad == 0.0) for p in model.backbone.params())
    assert any(np.any(p.grad != 0.0) for p in model.aggregator.params())


def test_descriptor_dim_follows_config():
    rc = run_config_from_dict({
        "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
        "lopa": {"rank": 2},
        "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 8, "M_out": 2},
    })
    assert build_model(rc).descriptor_dim == 16


def test_build_validates():
    rc = RunConfig()
    rc.train.epochs = 0
    with pytest.raises(Exception):
        build_model(rc)
