"""Frozen patch-token encoder.

A small pre-norm transformer over non-overlapping image patches. Every
parameter is frozen at construction (seeded init), and the per-layer outputs
z_0..z_L come back as constant leaves for the adapter ladder to consume.

`patch_embed`, `encoder_block` and `encode` are written once over an op set
(see `ops`). The normal frozen forward runs them on the bare kernels in
float32, on weights cast for each call (`as_arrays` of weights already cast
costs nothing), inside a frozen region, and for the taped wrappers upcasts
each layer to a float64 constant, so the tape never sees the encoder's
interior and the gradient check stays in float64. The taped float64
wrappers run the same definitions when the encoder is recorded, as the
serial-adapter reference does.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import ops
from .attention import MHAParams, init_mha, mha
from .autodiff import Param, Tensor, frozen_region, record, region
from .errors import ShapeError, ValidationError
from .ops import Kernels
from .ops import matmul  # noqa: F401  (kept as a module attribute for tracers)
from .schema import check, setting

# list of (N+1, d) or (B, N+1, d) token tensors [z_0 .. z_L]
IntermediateStack = list


@dataclass
class ViTConfig:
    image_size: int = setting(32, ge=1)
    patch_size: int = setting(8, ge=1)
    channels: int = setting(1, ge=1)
    d: int = setting(64, ge=1)
    depth: int = setting(4, ge=1)
    heads: int = setting(4, ge=1)
    seed: int = setting(1, ge=0)

    def validate(self) -> None:
        check(self, "backbone")
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


def as_arrays(node, dtype):
    """A copy of a params tree (dataclasses and lists over Params) in which
    every Param is its current value as `dtype`, for the bare kernels: a cast
    copy, or the value array itself when it already has that dtype."""
    if isinstance(node, Param):
        return node.value.data.astype(dtype, copy=False)
    if isinstance(node, list):
        return [as_arrays(n, dtype) for n in node]
    if is_dataclass(node):
        return replace(node, **{f.name: as_arrays(getattr(node, f.name), dtype)
                                for f in fields(node) if f.init})
    return node


def patch_embed(image, bb: Backbone, op=ops):
    """image (h, w, c) -> (N+1, d) tokens, or a (B, h, w, c) batch -> (B, N+1, d):
    class token at row 0, position embeddings added to the patch tokens only."""
    cfg = bb.cfg
    want = (cfg.image_size, cfg.image_size, cfg.channels)
    if len(image.shape) not in (3, 4) or tuple(image.shape[-3:]) != want:
        raise ShapeError(f"image shape {tuple(image.shape)} does not match config {want}, "
                         f"nor a batch (B, {', '.join(map(str, want))})")
    tok = op.matmul(op.patchify(image, cfg.patch_size), bb.w_patch)
    tok = op.add(tok, bb.pos_emb)
    return op.concat_rows([bb.cls_token, tok])


def encoder_block(z, blk: EncoderBlockParams, op=ops):
    # pre-norm: z' = MHA(LN(z)) + z; out = MLP(LN(z')) + z'
    zn = op.layer_norm(z, blk.ln1_g, blk.ln1_b)
    z = op.add(mha(zn, zn, zn, blk.attn, op), z)
    hidden = op.gelu(op.linear(op.layer_norm(z, blk.ln2_g, blk.ln2_b), blk.w1, blk.b1))
    return op.add(op.linear(hidden, blk.w2, blk.b2), z)


def encode(image, bb: Backbone, op=ops) -> list:
    """[z_0 .. z_L] of `image` under the op set `op`; with `Kernels`, `bb` is
    `as_arrays` of a Backbone and every layer is an ndarray of its dtype."""
    z = patch_embed(image, bb, op)
    stack = [z]
    for blk in bb.blocks:
        z = encoder_block(z, blk, op)
        stack.append(z)
    return stack


def forward_collect(image, bb: Backbone, frozen: bool = True, op=ops) -> IntermediateStack:
    """All layer outputs [z_0 .. z_L], depth+1 entries: (N+1, d) each for one
    image, (B, N+1, d) for a (B, h, w, c) batch, which the ops broadcast over.

    frozen=True (the normal mode) runs the encoder on the bare kernels in
    float32 inside a frozen region, one image as a batch of one. `op` is the
    op set that reads the layers: for the taped wrappers (the default) each
    layer is the exact float64 upcast, marked constant on an active tape, as
    the gradient check and memreport read it; for `Kernels` it is the
    float32 array as the encoder made it, as extraction and the training
    cache keep it.
    frozen=False records the taped float64 encoder under the "backbone"
    region label, which the serial-adapter reference and equivalence tests
    use.
    """
    if not frozen:
        with region("backbone"):
            return encode(image, bb)
    with frozen_region("backbone"):
        x = np.asarray(image.data if isinstance(image, Tensor) else image, dtype=np.float32)
        one = x.ndim == 3
        layers = encode(x[None] if one else x, as_arrays(bb, np.float32), Kernels)
        layers = [z[0] if one else z for z in layers]
        return layers if op is Kernels else [record(z.astype(np.float64)) for z in layers]
