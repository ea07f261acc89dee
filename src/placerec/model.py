"""End-to-end descriptor model: frozen encoder -> adapter ladder -> aggregator.

The encoder contributes constant per-layer feature stacks (computed inside a
frozen region, cacheable per image); only the adapters and the aggregator
carry trainable parameters. Checkpoints echo the full run config, so a model
file alone reproduces descriptors bit-identically.

`describe_stack` is the one definition of the descriptor, over an op set.
Training and the gradient check run it on the taped float64 wrappers.
Extraction runs it on the bare kernels in float32, on the float32 layers the
encoder made and on a `kernel_model` cast once per extraction; its rows sit
within ~1e-7 of the float64 ones, the resolution they are stored at.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fileformats, ops
from .adapters import build_adapters, lopa_forward
from .aggregator import Aggregator, aggregate, build_aggregator
from .autodiff import Param, Tensor
from .backbone import Backbone, as_arrays, build_backbone, forward_collect
from .config import RunConfig, run_config_from_dict
from .errors import ContractError, DegenerateInputError, FormatError, NumericalError, ShapeError
from .fanout import fan_out
from .fasteval import FastPipeline
from .gradcheck import GradCheckReport, grad_check
from .loss import mine_pairs, ms_loss, similarity_matrix
from .synth import load_image


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


def feature_stack(model: DescriptorModel, image, op=ops):
    """Constant per-layer features [z_0 .. z_L] for one (h, w, c) image, or
    (B, n, d) layers for a (B, h, w, c) batch in one encoder pass: float64
    Tensors for the taped wrappers, float32 arrays for `Kernels`."""
    return forward_collect(image, model.backbone, frozen=True, op=op)


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


def encode_chunks(model: DescriptorModel, data_dir, ids, chunk: int, workers: int, use,
                  label: str) -> list:
    """[use(i, layers) for each chunk ids[i:i + chunk]], in chunk order.

    Each chunk is loaded and encoded in one batched pass (`feature_stack`),
    and `use` gets its float32 layers. Chunks are dealt round-robin over at
    most `workers` processes (fanout.fan_out; one chunk runs here without
    forking), so what use returns is pickled back, and what it writes to a
    fanout.shared_array lands in memory this process reads. The error raised
    is the one a serial run meets first.
    """
    starts = range(0, len(ids), chunk)
    n = max(1, min(workers, len(starts)))

    def share(k):
        out = []
        for i in starts[k::n]:
            part = ids[i:i + chunk]
            try:
                images = stack_images([load_image(data_dir, iid) for iid in part], part)
                out.append(use(i, feature_stack(model, images, ops.Kernels)))
            except Exception as exc:    # fan_out re-raises the serially first one
                return out, (i, exc)
        return out, None

    shares = fan_out(n, share, label)
    # share k holds chunks k, k + n, k + 2n, ...
    return [shares[j % n][j // n] for j in range(len(starts))]


def batch_stacks(stacks) -> list:
    """Stack per-image feature lists (Tensors, or float32 or float64 arrays)
    into one float64 (B, n, d) tensor per layer."""
    depth = len(stacks[0])
    for s in stacks:
        if len(s) != depth:
            raise ShapeError(f"feature stacks disagree on depth: {len(s)} vs {depth}")
    return [Tensor(np.stack([s[l].data if isinstance(s[l], Tensor) else s[l] for s in stacks],
                            dtype=np.float64))
            for l in range(depth)]


def describe_stack(model: DescriptorModel, stack, op=ops):
    """Feature stack -> unit descriptor; (B, n, d) entries give (B, D).

    With `Kernels`, the model's adapters and aggregator are `as_arrays` of
    them and the stack holds arrays, in one dtype."""
    y = lopa_forward(stack, model.adapters, model.run_cfg.lopa, op)
    return aggregate(y, model.aggregator, op)


def kernel_model(model: DescriptorModel, dtype) -> DescriptorModel:
    """The model with its adapters and aggregator as `as_arrays` in `dtype`,
    for `describe_stack` on `Kernels`."""
    return replace(model, adapters=as_arrays(model.adapters, dtype),
                   aggregator=as_arrays(model.aggregator, dtype))


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
    # function before trusting ~150k evaluations of it. The loss grows like
    # 1 / loss.alpha, so the bound is relative to it.
    fp = FastPipeline(model, layers, mining, loss_cfg)
    loss = float(f().data)
    drift = abs(fp.full_loss() - loss)
    if drift > 1e-9 * max(1.0, abs(loss)):
        raise NumericalError(
            f"probe evaluator disagrees with the op graph by {drift:.3e} at the base point")

    return grad_check(f, trainable_params(model), h=h, tol=tol, fast_eval=fp.probe)
