"""Differentiable ops over Tensors.

Ops follow numpy broadcasting on leading axes, so the same code serves a
single token matrix (rank 2) and a batch of them (rank 3+). Softmax,
layer norm, and l2 normalization act along the last axis; matmul contracts
the last two. Every op records its adjoint closure on the active tape via
tape_record, or a zero-byte marker inside frozen regions.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

from .autodiff import Tensor, as_tensor, mark_constant, tape_record, taping
from .errors import DegenerateInputError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    """a @ b, contracting the last axis of a with the second-to-last of b."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if taping():
        ad, bd, au, bu = a.data, b.data, a.uid, b.uid

        def bwd(g, acc):
            acc(au, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
            acc(bu, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

        tape_record(out, bwd, (ad, bd))
    else:
        mark_constant(out)
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add shapes do not broadcast: {a.shape} + {b.shape}") from None
    out = Tensor(data)
    if taping():
        ash, bsh, au, bu = a.shape, b.shape, a.uid, b.uid

        def bwd(g, acc):
            acc(au, _unbroadcast(g, ash))
            acc(bu, _unbroadcast(g, bsh))

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant (no gradient for c)."""
    x = as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)
    if taping():
        xu = x.uid

        def bwd(g, acc):
            acc(xu, g * c)

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def transpose(x) -> Tensor:
    """Swap the last two axes."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"transpose needs rank >= 2, got {x.shape}")
    out = Tensor(np.swapaxes(x.data, -1, -2))
    if taping():
        xu = x.uid

        def bwd(g, acc):
            acc(xu, np.swapaxes(g, -1, -2))

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def transpose_axes(x, perm) -> Tensor:
    x = as_tensor(x)
    perm = tuple(perm)
    inv = tuple(np.argsort(perm))
    out = Tensor(x.data.transpose(perm))
    if taping():
        xu = x.uid

        def bwd(g, acc):
            acc(xu, g.transpose(inv))

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    if taping():
        xu, xsh = x.uid, x.shape

        def bwd(g, acc):
            acc(xu, g.reshape(xsh))

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def softmax_rows(x) -> Tensor:
    """Stable softmax along the last axis (per-row max subtraction)."""
    x = as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)
    if taping():
        xu = x.uid

        def bwd(g, acc):
            acc(xu, p * (g - (g * p).sum(axis=-1, keepdims=True)))

        tape_record(out, bwd, (p,))
    else:
        mark_constant(out)
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then apply the affine gamma, beta."""
    x, gt, bt = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gt.shape != (d,) or bt.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gt.shape}/{bt.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = np.square(x.data - mu).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gt.data + bt.data)
    if taping():
        xu, gu, bu, gd = x.uid, gt.uid, bt.uid, gt.data

        def bwd(g, acc):
            gx = g * gd
            acc(xu, inv * (gx - gx.mean(axis=-1, keepdims=True)
                           - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
            lead = tuple(range(g.ndim - 1))
            acc(gu, (g * xhat).sum(axis=lead))
            acc(bu, g.sum(axis=lead))

        tape_record(out, bwd, (xhat, inv, gd))
    else:
        mark_constant(out)
    return out


def gelu(x) -> Tensor:
    """Exact erf-based GeLU: x * Phi(x)."""
    x = as_tensor(x)
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = Tensor(xd * cdf)
    if taping():
        xu = x.uid

        def bwd(g, acc):
            pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
            acc(xu, g * (cdf + xd * pdf))

        tape_record(out, bwd, (xd, cdf))
    else:
        mark_constant(out)
    return out


def l2_normalize(x) -> Tensor:
    """Scale the last axis to unit Euclidean norm."""
    x = as_tensor(x)
    n = np.sqrt(np.square(x.data).sum(axis=-1, keepdims=True))
    if np.any(n == 0.0):
        raise DegenerateInputError("l2_normalize: zero vector")
    y = x.data / n
    out = Tensor(y)
    if taping():
        xu = x.uid

        def bwd(g, acc):
            acc(xu, (g - y * (g * y).sum(axis=-1, keepdims=True)) / n)

        tape_record(out, bwd, (y, n))
    else:
        mark_constant(out)
    return out


def linear(x, w, b) -> Tensor:
    """x @ w + b, with b broadcast over rows."""
    return add(matmul(x, w), b)


def sum_all(x) -> Tensor:
    """Scalar sum of all entries."""
    x = as_tensor(x)
    out = Tensor(x.data.sum())
    if taping():
        xu, xsh = x.uid, x.shape

        def bwd(g, acc):
            acc(xu, np.broadcast_to(g, xsh).copy())

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def concat_rows(parts) -> Tensor:
    """Join tensors along the row (second-to-last) axis.

    Leading batch axes broadcast, so a shared (1, d) row can head a
    (B, n, d) batch; its gradient is summed back over the batch.
    """
    ts = [as_tensor(p) for p in parts]
    if not ts:
        raise ShapeError("concat_rows needs at least one part")
    shapes = [tuple(t.shape) for t in ts]
    if any(len(sh) < 2 or sh[-1] != shapes[0][-1] for sh in shapes):
        raise ShapeError(f"concat_rows parts disagree: {shapes}")
    try:
        lead = np.broadcast_shapes(*(sh[:-2] for sh in shapes))
    except ValueError:
        raise ShapeError(f"concat_rows leading axes do not broadcast: {shapes}") from None
    out = Tensor(np.concatenate(
        [np.broadcast_to(t.data, lead + sh[-2:]) for t, sh in zip(ts, shapes)], axis=-2))
    if taping():
        uids = [t.uid for t in ts]

        def bwd(g, acc):
            o = 0
            for uid, sh in zip(uids, shapes):
                acc(uid, _unbroadcast(g[..., o:o + sh[-2], :], sh))
                o += sh[-2]

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out


def patchify(image, patch: int) -> Tensor:
    """(..., h, w, c) images -> (..., num_patches, patch*patch*c); grid and
    pixels row-major."""
    x = as_tensor(image)
    if x.ndim < 3:
        raise ShapeError(f"patchify expects (..., h, w, c) images, got {x.shape}")
    lead, (h, w, c) = tuple(x.shape[:-3]), x.shape[-3:]
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {patch}")
    gh, gw = h // patch, w // patch
    k = len(lead)
    perm = tuple(range(k)) + tuple(k + i for i in (0, 2, 1, 3, 4))
    tiles = x.data.reshape(lead + (gh, patch, gw, patch, c)).transpose(perm)
    out = Tensor(tiles.reshape(lead + (gh * gw, patch * patch * c)))
    if taping():
        xu = x.uid

        def bwd(g, acc):
            t = g.reshape(lead + (gh, gw, patch, patch, c)).transpose(perm)
            acc(xu, t.reshape(lead + (h, w, c)))

        tape_record(out, bwd)
    else:
        mark_constant(out)
    return out
