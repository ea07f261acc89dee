"""Low-rank parallel adaptation.

A ladder of small trainable bottlenecks runs beside the frozen encoder:
y_1 = h_1(z_0 + z_1), then y_i = h_i(y_{i-1} + z_i), where each
h(x) = s * gelu(x W_d) W_u + x. The up-projections start at zero, so the
ladder is the identity at initialization and the backward pass never needs
anything from inside the backbone.

`adapt_fn` and `lopa_forward` are written over an op set (see `ops`): the
taped float64 wrappers by default, as training and the gradient check run
them, or the bare kernels on `backbone.as_arrays` of the adapters, as
extraction (float32) and the probe mirror (float64) run them.

serial_adapter_forward_reference splices the same adapters after each
encoder block with the backbone recorded on the tape. It exists only so
memory_report can show the retained-activation gap between the two layouts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import Param, Tape, Tensor, region
from .backbone import Backbone, ViTConfig, build_backbone, encoder_block, forward_collect, patch_embed
from .errors import ValidationError
from .ops import matmul  # noqa: F401  (kept as a module attribute for tracers)
from .ops import sum_all
from .schema import check, setting


@dataclass
class LoPAConfig:
    rank: int = setting(4, ge=1)
    # Adam moves a weight by up to ~3.2 x train.lr a step, and this scales
    # the adapter branch: 20 epochs at the default widths overflow the
    # forward once train.lr x scale nears 1e20. The two ceilings keep that
    # product at most 1e3.
    scale: float = setting(0.5, ge=0, le=1e3)
    depth: int = setting(4, ge=1)
    seed: int = setting(2, ge=0)

    def validate(self, d: int | None = None) -> None:
        check(self, "lopa")
        if d is not None and self.rank >= d:
            raise ValidationError(f"lopa.rank {self.rank} must be < width {d}")


@dataclass
class AdaptFn:
    w_d: Param
    w_u: Param

    def params(self) -> list[Param]:
        return [self.w_d, self.w_u]


def build_adapters(cfg: LoPAConfig, d: int) -> list[AdaptFn]:
    cfg.validate(d)
    rng = np.random.default_rng(cfg.seed)
    fns = []
    for i in range(cfg.depth):
        fns.append(AdaptFn(
            w_d=Param(rng.normal(0.0, 0.02, (d, cfg.rank)), True, f"adapter{i}.wd"),
            # zero up-projection: h is the identity until training moves it
            w_u=Param(np.zeros((cfg.rank, d)), True, f"adapter{i}.wu"),
        ))
    return fns


def adapter_param_count(fns: list[AdaptFn]) -> int:
    return sum(f.w_d.size + f.w_u.size for f in fns)


def adapt_fn(x, f: AdaptFn, s: float, op=ops):
    """h(x) = s * gelu(x W_d) W_u + x, applied tokenwise."""
    return op.add(op.scale(op.matmul(op.gelu(op.matmul(x, f.w_d)), f.w_u), s), x)


def lopa_forward(stack, fns: list[AdaptFn], cfg: LoPAConfig, op=ops):
    """Fold the ladder over [z_0 .. z_L]; returns y_L, the adapted features."""
    if len(fns) != len(stack) - 1:
        raise ValidationError(
            f"adapter count {len(fns)} != backbone depth {len(stack) - 1}")
    y = adapt_fn(op.add(stack[0], stack[1]), fns[0], cfg.scale, op)
    for i in range(2, len(stack)):
        y = adapt_fn(op.add(y, stack[i]), fns[i - 1], cfg.scale, op)
    return y


def serial_adapter_forward_reference(image, bb: Backbone, fns: list[AdaptFn],
                                     s: float) -> Tensor:
    """Adapters applied in-line after each encoder block, backbone taped.

    Memory-accounting counterpoint only; not a supported training mode.
    """
    if len(fns) != len(bb.blocks):
        raise ValidationError(f"adapter count {len(fns)} != backbone depth {len(bb.blocks)}")
    with region("backbone"):
        z = patch_embed(image, bb)
    for blk, fn in zip(bb.blocks, fns):
        with region("backbone"):
            z = encoder_block(z, blk)
        z = adapt_fn(z, fn, s)
    return z


def memory_report(mode: str, vit_cfg: ViTConfig, lopa_cfg: LoPAConfig) -> dict:
    """Forward+backward one random image in the given adaptation mode and
    report trainable-parameter and retained-activation accounting."""
    if lopa_cfg.depth != vit_cfg.depth:
        raise ValidationError(
            f"lopa.depth {lopa_cfg.depth} != backbone.depth {vit_cfg.depth}")
    bb = build_backbone(vit_cfg)
    fns = build_adapters(lopa_cfg, vit_cfg.d)
    img = np.random.default_rng(0).normal(
        size=(vit_cfg.image_size, vit_cfg.image_size, vit_cfg.channels))

    tape = Tape()
    with tape:
        if mode == "lopa":
            y = lopa_forward(forward_collect(img, bb, frozen=True), fns, lopa_cfg)
        elif mode == "serial":
            y = serial_adapter_forward_reference(img, bb, fns, lopa_cfg.scale)
        else:
            raise ValidationError(f"unknown adaptation mode {mode!r}")
        loss = sum_all(y)
    tape.backward(loss)

    return {
        "mode": mode,
        "trainable_params": adapter_param_count(fns),
        "backbone_retained_bytes": tape.retained_bytes("backbone"),
        "total_retained_bytes": tape.retained_bytes(),
        "backbone_ops": tape.op_count("backbone"),
    }
