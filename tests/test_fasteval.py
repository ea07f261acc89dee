"""Probe evaluator: a replayed trace of the shared describe."""
import ast
from pathlib import Path

import numpy as np
import pytest

from placerec import aggregator, fasteval
from placerec.config import run_config_from_dict
from placerec.errors import ContractError
from placerec.fasteval import FastPipeline, _Recorder
from placerec.loss import mine_pairs, ms_loss, similarity_matrix
from placerec.model import (
    build_model,
    describe_stack,
    feature_stack,
    stack_images,
    trainable_params,
)

_BACKBONE = {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2}
_AGG = {"L_dec": 2, "M": 4, "heads": 2, "d_out": 4, "M_out": 4}
_CFGS = [
    # two decoder blocks, so a poke in block 0 replays block 1 on reused keys/values
    {"backbone": _BACKBONE, "lopa": {"rank": 2}, "aggregator": _AGG},
    # no decoder block: the queries go straight to the head, which copies the
    # one descriptor over the batch through a concat_rows list
    {"backbone": _BACKBONE, "lopa": {"rank": 2}, "aggregator": {**_AGG, "L_dec": 0}},
    # a head width (12) that is not a power of two
    {"backbone": {**_BACKBONE, "d": 24}, "lopa": {"rank": 2}, "aggregator": _AGG},
]
_PLACES = [0, 0, 1, 1, 2, 2]


def _pipeline(cfg, rng):
    model = build_model(run_config_from_dict(cfg))
    b = model.run_cfg.backbone
    images = [rng.normal(size=(b.image_size, b.image_size, b.channels)) for _ in _PLACES]
    layers = feature_stack(model, stack_images(images))
    base = describe_stack(model, layers)
    mining = mine_pairs(similarity_matrix(base), _PLACES, model.run_cfg.loss.margin)
    assert mining.kept_pos + mining.kept_neg > 0
    return model, layers, mining


def test_full_loss_matches_op_graph(rng):
    """The replay runs describe_stack itself on float64 kernels, which give
    the taped wrappers' values bit for bit."""
    for spec in _CFGS:
        model, layers, mining = _pipeline(spec, rng)
        cfg = model.run_cfg.loss
        fp = FastPipeline(model, layers, mining, cfg)
        want = float(ms_loss(similarity_matrix(describe_stack(model, layers)), mining, cfg).data)
        assert fp.full_loss() == want, spec


def test_probe_matches_full_recompute_for_every_param(rng):
    """A probe reuses base-point values; a pipeline built at the poked point
    recomputes everything. Every param, poked and restored in turn as
    grad_check does, must give the same loss both ways."""
    for spec in _CFGS:
        model, layers, mining = _pipeline(spec, rng)
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
                assert got == pytest.approx(want, rel=1e-12, abs=0), (p.name, int(i), spec)
        # every poke restored: the base point still holds
        assert FastPipeline(model, layers, mining, cfg).full_loss() == fp.full_loss()


def test_recorder_refuses_an_array_it_did_not_trace(rng, monkeypatch):
    """An array computed outside the op set would be replayed as a stale
    constant, so recording it is an error."""
    leaf = np.ones((2, 3))
    rec = _Recorder([leaf])
    y = rec.scale(leaf, 2.0)
    rec.concat_rows([rec.add(y, leaf), leaf])           # leaves and outputs are traced
    with pytest.raises(ContractError, match="neither a leaf nor an earlier output"):
        rec.add(y + 1.0, leaf)
    with pytest.raises(ContractError, match="neither a leaf nor an earlier output"):
        rec.concat_rows([y, leaf.copy()])

    # the same through a shared definition that computes a weight outside op
    model, layers, mining = _pipeline(_CFGS[0], rng)
    project_in = aggregator.project_in
    monkeypatch.setattr(aggregator, "project_in",
                        lambda x, w1, b1, op: project_in(x, w1 * 1.0, b1, op))
    with pytest.raises(ContractError):
        FastPipeline(model, layers, mining, model.run_cfg.loss)


def test_one_forward():
    """fasteval.py has no `@` and names no `Kernels.<op>`: every kernel a
    probe runs comes from the recorded trace of the shared describe."""
    tree = ast.parse(Path(fasteval.__file__).read_text())
    matmuls = [n for n in ast.walk(tree)
               if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)]
    named = [n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id == "Kernels"]
    assert not matmuls and not named, named
