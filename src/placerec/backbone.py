"""Frozen patch-token encoder.

A small pre-norm transformer over non-overlapping image patches. Every
parameter is frozen at construction (seeded init) and the whole forward
normally runs inside a frozen region, so the tape never retains backbone
activations; the per-layer outputs z_0..z_L come back as constant leaves
for the adapter ladder to consume.

A stack of externally computed features can stand in for the encoder via
the EDTZ feature-stack file (save/load below).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fileformats
from .attention import MHAParams, init_mha, mha
from .autodiff import Param, Tensor, frozen_region, region
from .errors import ShapeError, ValidationError
from .ops import add, concat_rows, gelu, layer_norm, linear, matmul, patchify

# list of (N+1, d) or (B, N+1, d) token tensors [z_0 .. z_L]
IntermediateStack = list


@dataclass
class ViTConfig:
    image_size: int = 32
    patch_size: int = 8
    channels: int = 1
    d: int = 64
    depth: int = 4
    heads: int = 4
    seed: int = 1

    def validate(self) -> None:
        for k in ("image_size", "patch_size", "channels", "d", "depth", "heads"):
            if getattr(self, k) < 1:
                raise ValidationError(f"backbone.{k} must be >= 1, got {getattr(self, k)}")
        if self.image_size % self.patch_size:
            raise ValidationError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.d % self.heads:
            raise ValidationError(f"width {self.d} not divisible by heads {self.heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2


@dataclass
class EncoderBlockParams:
    ln1_g: Param
    ln1_b: Param
    attn: MHAParams
    ln2_g: Param
    ln2_b: Param
    w1: Param
    b1: Param
    w2: Param
    b2: Param

    def params(self) -> list[Param]:
        return ([self.ln1_g, self.ln1_b] + self.attn.params()
                + [self.ln2_g, self.ln2_b, self.w1, self.b1, self.w2, self.b2])


@dataclass
class Backbone:
    cfg: ViTConfig
    w_patch: Param
    cls_token: Param
    pos_emb: Param
    blocks: list[EncoderBlockParams] = field(default_factory=list)

    def params(self) -> list[Param]:
        out = [self.w_patch, self.cls_token, self.pos_emb]
        for b in self.blocks:
            out.extend(b.params())
        return out


def build_backbone(cfg: ViTConfig) -> Backbone:
    """Seeded frozen init: matrices/tokens ~ N(0, 0.02), biases 0, LN affine 1/0.

    Patch projection carries no bias so a zero image embeds to exactly
    [class_token; position embeddings].
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    pf = cfg.patch_size ** 2 * cfg.channels

    def w(shape, nm):
        return Param(rng.normal(0.0, 0.02, shape), False, f"backbone.{nm}")

    def zeros(shape, nm):
        return Param(np.zeros(shape), False, f"backbone.{nm}")

    def ones(shape, nm):
        return Param(np.ones(shape), False, f"backbone.{nm}")

    bb = Backbone(
        cfg=cfg,
        w_patch=w((pf, d), "patch_w"),
        cls_token=w((1, d), "cls"),
        pos_emb=w((cfg.num_patches, d), "pos"),
    )
    for i in range(cfg.depth):
        nm = f"backbone.b{i}"
        bb.blocks.append(EncoderBlockParams(
            ln1_g=ones((d,), f"b{i}.ln1_g"), ln1_b=zeros((d,), f"b{i}.ln1_b"),
            attn=init_mha(rng, d, cfg.heads, trainable=False, name=f"{nm}.attn"),
            ln2_g=ones((d,), f"b{i}.ln2_g"), ln2_b=zeros((d,), f"b{i}.ln2_b"),
            w1=w((d, 4 * d), f"b{i}.mlp_w1"), b1=zeros((4 * d,), f"b{i}.mlp_b1"),
            w2=w((4 * d, d), f"b{i}.mlp_w2"), b2=zeros((d,), f"b{i}.mlp_b2"),
        ))
    return bb


def patch_embed(image, bb: Backbone) -> Tensor:
    """image (h, w, c) -> (N+1, d) tokens, or a (B, h, w, c) batch -> (B, N+1, d):
    class token at row 0, position embeddings added to the patch tokens only."""
    cfg = bb.cfg
    img = image if isinstance(image, Tensor) else Tensor(image)
    want = (cfg.image_size, cfg.image_size, cfg.channels)
    if img.ndim not in (3, 4) or tuple(img.shape[-3:]) != want:
        raise ShapeError(f"image shape {tuple(img.shape)} does not match config {want}, "
                         f"nor a batch (B, {', '.join(map(str, want))})")
    tok = matmul(patchify(img, cfg.patch_size), bb.w_patch)
    tok = add(tok, bb.pos_emb)
    return concat_rows([bb.cls_token, tok])


def encoder_block(z, blk: EncoderBlockParams) -> Tensor:
    # pre-norm: z' = MHA(LN(z)) + z; out = MLP(LN(z')) + z'
    zn = layer_norm(z, blk.ln1_g, blk.ln1_b)
    z = add(mha(zn, zn, zn, blk.attn), z)
    hidden = gelu(linear(layer_norm(z, blk.ln2_g, blk.ln2_b), blk.w1, blk.b1))
    return add(linear(hidden, blk.w2, blk.b2), z)


def forward_collect(image, bb: Backbone, frozen: bool = True) -> IntermediateStack:
    """All layer outputs [z_0 .. z_L], depth+1 entries: (N+1, d) each for one
    image, (B, N+1, d) for a (B, h, w, c) batch, which the ops broadcast over.

    frozen=True (the normal mode) runs the whole encoder inside a frozen
    region; frozen=False records it on the tape under the "backbone" region
    label, which the serial-adapter reference and equivalence tests use.
    """
    ctx = frozen_region("backbone") if frozen else region("backbone")
    with ctx:
        z = patch_embed(image, bb)
        stack = [z]
        for blk in bb.blocks:
            z = encoder_block(z, blk)
            stack.append(z)
    return stack


def save_feature_stack(path, stack: IntermediateStack) -> None:
    fileformats.write_feature_stack(path, [t.data for t in stack])


def load_feature_stack(path) -> IntermediateStack:
    return [Tensor(a) for a in fileformats.read_feature_stack(path)]
