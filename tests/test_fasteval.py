"""Probe evaluator: staged reuse of base-point intermediates."""
import pytest

from placerec.config import run_config_from_dict
from placerec.fasteval import FastPipeline
from placerec.loss import mine_pairs, ms_loss, similarity_matrix
from placerec.model import (
    build_model,
    describe_stack,
    feature_stack,
    stack_images,
    trainable_params,
)

# two decoder blocks, so a poke in block 0 runs block 1 on reused keys/values
_CFG = {
    "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
    "lopa": {"rank": 2},
    "aggregator": {"L_dec": 2, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
}
_PLACES = [0, 0, 1, 1, 2, 2]


@pytest.fixture
def pipeline(rng):
    model = build_model(run_config_from_dict(_CFG))
    b = model.run_cfg.backbone
    images = [rng.normal(size=(b.image_size, b.image_size, b.channels)) for _ in _PLACES]
    layers = feature_stack(model, stack_images(images))
    base = describe_stack(model, layers)
    mining = mine_pairs(similarity_matrix(base), _PLACES, model.run_cfg.loss.margin)
    assert mining.kept_pos + mining.kept_neg > 0
    return model, layers, mining


def test_full_loss_matches_op_graph(pipeline):
    model, layers, mining = pipeline
    cfg = model.run_cfg.loss
    fp = FastPipeline(model, layers, mining, cfg)
    want = float(ms_loss(similarity_matrix(describe_stack(model, layers)), mining, cfg).data)
    assert fp.full_loss() == pytest.approx(want, rel=1e-12)


def test_probe_matches_full_recompute_for_every_param(pipeline, rng):
    """A probe reuses cached intermediates; a pipeline built at the poked
    point recomputes everything. Every param, poked and restored in turn as
    grad_check does, must give the same loss both ways."""
    model, layers, mining = pipeline
    cfg = model.run_cfg.loss
    fp = FastPipeline(model, layers, mining, cfg)
    for p in trainable_params(model):
        flat = p.value.data.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[i]
            flat[i] = keep + 0.05
            got = fp.probe(p)
            want = FastPipeline(model, layers, mining, cfg).full_loss()
            flat[i] = keep
            assert got == pytest.approx(want, rel=1e-12, abs=0), (p.name, int(i))
    # every poke restored: the cached base point still holds
    assert FastPipeline(model, layers, mining, cfg).full_loss() == fp.full_loss()

