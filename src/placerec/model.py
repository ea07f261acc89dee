"""End-to-end descriptor model: frozen encoder -> adapter ladder -> aggregator.

The encoder contributes constant per-layer feature stacks (computed inside a
frozen region, cacheable per image); only the adapters and the aggregator
carry trainable parameters. Checkpoints echo the full run config, so a model
file alone reproduces descriptors bit-identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileformats
from .adapters import build_adapters, lopa_forward
from .aggregator import Aggregator, aggregate, build_aggregator
from .autodiff import Param, Tensor
from .backbone import Backbone, build_backbone, forward_collect
from .config import RunConfig, run_config_from_dict
from .errors import ContractError, DegenerateInputError, FormatError, NumericalError, ShapeError
from .fasteval import FastPipeline
from .gradcheck import GradCheckReport, grad_check
from .loss import mine_pairs, ms_loss, similarity_matrix


@dataclass
class DescriptorModel:
    run_cfg: RunConfig
    backbone: Backbone
    adapters: list
    aggregator: Aggregator

    @property
    def descriptor_dim(self) -> int:
        return self.aggregator.cfg.descriptor_dim


def build_model(rc: RunConfig) -> DescriptorModel:
    rc.validate()
    return DescriptorModel(
        run_cfg=rc,
        backbone=build_backbone(rc.backbone),
        adapters=build_adapters(rc.lopa, rc.backbone.d),
        aggregator=build_aggregator(rc.aggregator),
    )


def all_params(model: DescriptorModel) -> list:
    out = list(model.backbone.params())
    for f in model.adapters:
        out.extend(f.params())
    out.extend(model.aggregator.params())
    return out


def trainable_params(model: DescriptorModel) -> list:
    return [p for p in all_params(model) if p.trainable]


def named_params(model: DescriptorModel) -> dict:
    out: dict = {}
    for p in all_params(model):
        if not p.name:
            raise ContractError("unnamed param cannot be checkpointed")
        if p.name in out:
            raise ContractError(f"duplicate param name {p.name!r}")
        out[p.name] = p
    return out


def feature_stack(model: DescriptorModel, image):
    """Constant per-layer features [z_0 .. z_L] for one (h, w, c) image, or
    (B, n, d) layers for a (B, h, w, c) batch in one encoder pass."""
    return forward_collect(image, model.backbone, frozen=True)


def stack_images(images, names=None) -> np.ndarray:
    """Same-shape images -> one (B, h, w, c) batch for `feature_stack`."""
    arrs = [np.asarray(im, dtype=np.float64) for im in images]
    if not arrs:
        raise ShapeError("no images to stack")
    for i, a in enumerate(arrs):
        if a.shape != arrs[0].shape:
            who = repr(names[i]) if names is not None else f"#{i}"
            raise ShapeError(f"image {who} has shape {a.shape}, the batch has {arrs[0].shape}")
    return np.stack(arrs)


def batch_stacks(stacks) -> list:
    """Stack per-image feature lists into one (B, n, d) tensor per layer."""
    depth = len(stacks[0])
    for s in stacks:
        if len(s) != depth:
            raise ShapeError(f"feature stacks disagree on depth: {len(s)} vs {depth}")
    layers = []
    for l in range(depth):
        arrs = [s[l].data if isinstance(s[l], Tensor) else np.asarray(s[l], dtype=np.float64)
                for s in stacks]
        layers.append(Tensor(np.stack(arrs)))
    return layers


def describe_stack(model: DescriptorModel, stack) -> Tensor:
    """Feature stack -> unit descriptor; (B, n, d) entries give (B, D)."""
    y = lopa_forward(stack, model.adapters, model.run_cfg.lopa)
    return aggregate(y, model.aggregator)


def save_model(path, model: DescriptorModel) -> None:
    tensors = {name: p.value.data for name, p in named_params(model).items()}
    fileformats.write_checkpoint(path, model.run_cfg.to_dict(), tensors)


def load_model(path) -> DescriptorModel:
    cfg_dict, tensors = fileformats.read_checkpoint(path)
    model = build_model(run_config_from_dict(cfg_dict))
    params = named_params(model)
    missing = set(params) - set(tensors)
    extra = set(tensors) - set(params)
    if missing or extra:
        raise FormatError(
            f"checkpoint tensors do not match the config: missing {sorted(missing)[:4]}, "
            f"unexpected {sorted(extra)[:4]}")
    for name, arr in tensors.items():
        p = params[name]
        if arr.shape != p.value.data.shape:
            raise FormatError(
                f"tensor {name!r} has shape {arr.shape}, config implies {p.value.data.shape}")
        p.value = Tensor(arr)
        p.grad = np.zeros_like(arr)
    return model


def pipeline_gradcheck(model: DescriptorModel, images, place_ids,
                       h: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of the full loss against every trainable scalar.

    Feature stacks are constant (frozen encoder), and the mined pair sets are
    fixed at the base point: pair selection is piecewise constant in the
    parameters, so within a perturbation of size h the loss restricted to the
    base selection is the differentiable branch being checked.
    """
    loss_cfg = model.run_cfg.loss
    layers = feature_stack(model, stack_images(images))
    base = describe_stack(model, layers)
    mining = mine_pairs(similarity_matrix(base), place_ids, loss_cfg.margin)
    if mining.kept_pos == 0 and mining.kept_neg == 0:
        raise DegenerateInputError(
            "no pairs survive mining at the base point; the loss is locally flat")

    def f():
        return ms_loss(similarity_matrix(describe_stack(model, layers)), mining, loss_cfg)

    # Probes run on the fused plain-array mirror; prove it computes the same
    # function before trusting ~150k evaluations of it.
    fp = FastPipeline(model, layers, mining, loss_cfg)
    drift = abs(fp.full_loss() - float(f().data))
    if drift > 1e-9:
        raise NumericalError(
            f"probe evaluator disagrees with the op graph by {drift:.3e} at the base point")

    return grad_check(f, trainable_params(model), h=h, tol=tol, fast_eval=fp.probe)
