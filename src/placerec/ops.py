"""Ops, each split into a bare ndarray kernel and a taped wrapper.

A kernel (a static method of `Kernels`) is a pure function of ndarrays: no
checks, no tape, and it computes in its inputs' dtype. It may write into
the arrays it made itself (linear adds its bias into its GEMM output, gelu
and softmax_rows finish in place), never into its inputs, so it makes no
temporary the plain expression would not need and gives the same bits. The
wrapper of the same name (a function of this module) takes Tensors or
Params, checks its operands, defines the adjoint closure and returns
`autodiff.record` of the kernel's output: the closure on a live tape, a
zero-byte marker inside a frozen region, nothing with no tape.

Code written over an op set takes it as `op`: this module, whose wrappers
tape in float64 (training, the gradient check), or `Kernels` on arrays.
The frozen encoder (`backbone.forward_collect`) and extraction's describe
run the kernels in float32; the gradient check's probes replay a recorded
trace of the whole describe on them in float64 (`fasteval`). Either way it
is the same definition, and the same kernels compute it.

Ops follow numpy broadcasting on leading axes, so the same code serves a
single token matrix (rank 2) and a batch of them (rank 3+). Softmax,
layer norm, and l2 normalization act along the last axis; matmul contracts
the last two. When the right operand of matmul is a matrix, the leading
axes of the left one fold into the rows of one GEMM, in the kernel and both
ways in the adjoint, rather than one small GEMM per leading index. Scalar
constants are Python floats: under NumPy 2's promotion rules an np.float64
scalar would turn float32 work into float64.
"""
from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, as_tensor, record
from .errors import DegenerateInputError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


# Kernels whose adjoint needs more than their output return it alongside.

def _layer_norm(x, g, b, eps):
    # a row sum divided by d is what ndarray.mean computes, bit for bit
    d = x.shape[-1]
    xm = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.square(xm).sum(axis=-1, keepdims=True) / d + eps)
    xhat = xm * inv
    return xhat * g + b, xhat, inv


def _gelu(x):
    cdf = norm_cdf(x)
    return x * cdf, cdf


def _row_norms(x):
    return np.sqrt(np.square(x).sum(axis=-1, keepdims=True))


def _rows(x):
    return x.reshape(-1, x.shape[-1])


class Kernels:
    """The bare kernel of every op, as an op set (see the module docstring)."""

    @staticmethod
    def matmul(a, b):
        if b.ndim == 2 and a.ndim > 2:
            # the leading axes of a fold into the rows of one GEMM
            return (_rows(a) @ b).reshape(a.shape[:-1] + b.shape[1:])
        return a @ b

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def scale(x, c: float):
        return x * c

    @staticmethod
    def transpose(x):
        return np.swapaxes(x, -1, -2)

    @staticmethod
    def transpose_axes(x, perm):
        return x.transpose(perm)

    @staticmethod
    def reshape(x, shape):
        return x.reshape(shape)

    @staticmethod
    def softmax_rows(x):
        e = x - x.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        return e

    @staticmethod
    def layer_norm(x, g, b, eps: float = 1e-6):
        return _layer_norm(x, g, b, eps)[0]

    @staticmethod
    def gelu(x):
        y = norm_cdf(x)
        y *= x
        return y

    @staticmethod
    def l2_normalize(x):
        # a zero row gives NaN, and a row whose squares all underflow inf:
        # left for the caller's finiteness check, not warned about here
        with np.errstate(divide="ignore", invalid="ignore"):
            return x / _row_norms(x)

    @staticmethod
    def linear(x, w, b):
        y = Kernels.matmul(x, w)
        y += b
        return y

    @staticmethod
    def sum_all(x):
        return x.sum()

    @staticmethod
    def inner(x, c):
        return np.vdot(x, c)

    @staticmethod
    def concat_rows(parts):
        lead = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
        return np.concatenate([np.broadcast_to(p, lead + p.shape[-2:]) for p in parts],
                              axis=-2)

    @staticmethod
    def patchify(x, patch: int):
        lead, (h, w, c) = x.shape[:-3], x.shape[-3:]
        k = len(lead)
        perm = tuple(range(k)) + tuple(k + i for i in (0, 2, 1, 3, 4))
        tiles = x.reshape(lead + (h // patch, patch, w // patch, patch, c)).transpose(perm)
        return tiles.reshape(lead + ((h // patch) * (w // patch), patch * patch * c))


# Taped wrappers ---------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """a @ b, contracting the last axis of a with the second-to-last of b."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    ad, bd, au, bu = a.data, b.data, a.uid, b.uid

    def bwd(g, acc):
        if bd.ndim == 2:
            # one GEMM each way over the folded leading axes of a
            acc(au, Kernels.matmul(g, bd.T))
            acc(bu, _rows(ad).T @ _rows(g))
        else:
            acc(au, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
            acc(bu, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return record(Kernels.matmul(ad, bd), bwd, (ad, bd))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = Kernels.add(a.data, b.data)
    except ValueError:
        raise ShapeError(f"add shapes do not broadcast: {a.shape} + {b.shape}") from None
    ash, bsh, au, bu = a.shape, b.shape, a.uid, b.uid

    def bwd(g, acc):
        acc(au, _unbroadcast(g, ash))
        acc(bu, _unbroadcast(g, bsh))

    return record(data, bwd)


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant (no gradient for c)."""
    x = as_tensor(x)
    c = float(c)
    xu = x.uid

    def bwd(g, acc):
        acc(xu, g * c)

    return record(Kernels.scale(x.data, c), bwd)


def transpose(x) -> Tensor:
    """Swap the last two axes."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"transpose needs rank >= 2, got {x.shape}")
    xu = x.uid

    def bwd(g, acc):
        acc(xu, np.swapaxes(g, -1, -2))

    return record(Kernels.transpose(x.data), bwd)


def transpose_axes(x, perm) -> Tensor:
    x = as_tensor(x)
    perm = tuple(perm)
    xu = x.uid

    def bwd(g, acc):
        inv = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
        acc(xu, g.transpose(inv))

    return record(Kernels.transpose_axes(x.data, perm), bwd)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    xu, xsh = x.uid, x.shape

    def bwd(g, acc):
        acc(xu, g.reshape(xsh))

    return record(Kernels.reshape(x.data, shape), bwd)


def softmax_rows(x) -> Tensor:
    """Stable softmax along the last axis (per-row max subtraction)."""
    x = as_tensor(x)
    p = Kernels.softmax_rows(x.data)
    xu = x.uid

    def bwd(g, acc):
        acc(xu, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    return record(p, bwd, (p,))


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then apply the affine gamma, beta."""
    x, gt, bt = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gt.shape != (d,) or bt.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gt.shape}/{bt.shape} do not match width {d}"
        )
    data, xhat, inv = _layer_norm(x.data, gt.data, bt.data, eps)
    xu, gu, bu, gd = x.uid, gt.uid, bt.uid, gt.data

    def bwd(g, acc):
        gx = g * gd
        acc(xu, inv * (gx - gx.mean(axis=-1, keepdims=True)
                       - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
        lead = tuple(range(g.ndim - 1))
        acc(gu, (g * xhat).sum(axis=lead))
        acc(bu, g.sum(axis=lead))

    return record(data, bwd, (xhat, inv, gd))


# Phi(x) = (1 + erf(x / sqrt 2)) / 2 on the rationals of Cephes ndtr.c (S. L.
# Moshier, Methods and Programs for Mathematical Functions, 1989), the same
# ones scipy.special.erf evaluates.
#
# On |x| <= sqrt 2, erf(z) = z T(z^2) / U(z^2) with z = x / sqrt 2. Scaling T
# and U by 32 and folding z^2 = x^2 / 2 into them multiplies their
# coefficients by powers of two (exact), and the 1 / (2 sqrt 2) of Phi goes
# into the numerator: Phi = 1/2 + x N(x^2) / D(x^2), D monic.
_PHI_N = tuple(c * 2.0 ** (k + 1) * (0.5 * _INV_SQRT2) for k, c in enumerate((
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4)))
_PHI_D = tuple(c * 2.0 ** (k + 1) for k, c in enumerate((
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4)))
# Outside it, Phi(-|x|) = erfc(z) / 2 = exp(-x^2 / 2) P(z) / Q(z), with the 1/2
# folded into P; (P, Q) below z = 8 and (R, S) from there on, Q and S monic.
_ERFC_P = tuple(0.5 * c for c in (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2))
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = tuple(0.5 * c for c in (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0))
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285307036e0, 3.36907645100081516050e0)
_SQRT2 = math.sqrt(2.0)
_PHI_SATURATED = 40.0  # Phi(-40) ~ 4e-350 is 0 in float64, Phi(40) is 1
# elements per block: the three block buffers and the block's slices of input
# and output (5 x 128 KiB) stay in a 2 MiB L2; smaller blocks pay the ~1 us
# NumPy call overhead of each of the ~20 passes more often
_PHI_BLOCK = 16384


def _horner(x, coef, monic=False):
    """coef[0] x^k + ... + coef[-1], with a leading 1 x^(k+1) if monic."""
    acc = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


def norm_cdf(x) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise, in the dtype of a float32 or
    float64 array (anything else is read as float64).

    The rational of |x| <= sqrt 2 runs in place over blocks of preallocated
    buffers, so no full-size temporary is made per Horner step; the few
    elements outside that range are redone on their indices alone. NaN stays
    NaN, +-inf give 1 and 0, and under NumPy's default error handling no
    warning is raised for any input.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    flat = x.reshape(-1)
    n = flat.size
    out = np.empty(n, x.dtype)
    outside = np.empty(n, dtype=bool)
    m = min(n, _PHI_BLOCK)
    cb, tb, db = np.empty(m, x.dtype), np.empty(m, x.dtype), np.empty(m, x.dtype)
    for s in range(0, n, _PHI_BLOCK):
        xs, o = flat[s:s + _PHI_BLOCK], out[s:s + _PHI_BLOCK]
        k = xs.size
        c, t, d = cb[:k], tb[:k], db[:k]
        np.minimum(xs, _SQRT2, out=c)  # np.clip costs ~3 us more per call
        np.maximum(c, -_SQRT2, out=c)
        np.not_equal(c, xs, out=outside[s:s + k])  # clipped, or NaN
        np.multiply(c, c, out=t)
        np.multiply(t, _PHI_N[0], out=o)
        np.add(t, _PHI_D[0], out=d)
        for a in _PHI_N[1:-1]:
            o += a
            o *= t
        for a in _PHI_D[1:]:
            d *= t
            d += a
        o += _PHI_N[-1]
        o *= c
        o /= d
        o += 0.5
    idx = outside.nonzero()[0]
    if idx.size:
        xt = flat[idx]
        a = np.minimum(np.abs(xt), _PHI_SATURATED)
        z = a * _INV_SQRT2
        y = _horner(z, _ERFC_P) / _horner(z, _ERFC_Q, monic=True)
        far = z >= 8.0
        if far.any():
            zf = z[far]
            y[far] = _horner(zf, _ERFC_R) / _horner(zf, _ERFC_S, monic=True)
        y *= np.exp(-0.5 * a * a)
        out[idx] = np.where(xt > 0.0, 1.0 - y, y)
    return out.reshape(x.shape)


def gelu(x) -> Tensor:
    """Exact erf-based GeLU: x * Phi(x)."""
    x = as_tensor(x)
    xd = x.data
    data, cdf = _gelu(xd)
    xu = x.uid

    def bwd(g, acc):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        acc(xu, g * (cdf + xd * pdf))

    return record(data, bwd, (xd, cdf))


def l2_normalize(x) -> Tensor:
    """Scale the last axis to unit Euclidean norm."""
    x = as_tensor(x)
    n = _row_norms(x.data)
    if np.any(n == 0.0):
        raise DegenerateInputError("l2_normalize: zero vector")
    y = x.data / n
    xu = x.uid

    def bwd(g, acc):
        acc(xu, (g - y * (g * y).sum(axis=-1, keepdims=True)) / n)

    return record(y, bwd, (y, n))


def linear(x, w, b) -> Tensor:
    """x @ w + b, with b broadcast over rows."""
    return add(matmul(x, w), b)


def sum_all(x) -> Tensor:
    """Scalar sum of all entries."""
    x = as_tensor(x)
    xu, xsh = x.uid, x.shape

    def bwd(g, acc):
        acc(xu, np.broadcast_to(g, xsh).copy())

    return record(Kernels.sum_all(x.data), bwd)


def inner(x, c) -> Tensor:
    """Scalar sum(x * c) against a constant array c of x's shape (no gradient
    for c). Its gradient in x is exactly c, so a backward sweep from it
    carries an adjoint c computed elsewhere into x's graph."""
    x = as_tensor(x)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != x.shape:
        raise ShapeError(f"inner shapes differ: {x.shape} and {c.shape}")
    xu = x.uid

    def bwd(g, acc):
        acc(xu, g * c)

    return record(Kernels.inner(x.data, c), bwd, (c,))


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
        data = Kernels.concat_rows([t.data for t in ts])
    except ValueError:
        raise ShapeError(f"concat_rows leading axes do not broadcast: {shapes}") from None
    uids = [t.uid for t in ts]

    def bwd(g, acc):
        o = 0
        for uid, sh in zip(uids, shapes):
            acc(uid, _unbroadcast(g[..., o:o + sh[-2], :], sh))
            o += sh[-2]

    return record(data, bwd)


def patchify(image, patch: int) -> Tensor:
    """(..., h, w, c) images -> (..., num_patches, patch*patch*c); grid and
    pixels row-major."""
    x = as_tensor(image)
    if x.ndim < 3:
        raise ShapeError(f"patchify expects (..., h, w, c) images, got {x.shape}")
    lead, (h, w, c) = tuple(x.shape[:-3]), x.shape[-3:]
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {patch}")
    xu = x.uid

    def bwd(g, acc):
        k = len(lead)
        perm = tuple(range(k)) + tuple(k + i for i in (0, 2, 1, 3, 4))
        t = g.reshape(lead + (h // patch, w // patch, patch, patch, c)).transpose(perm)
        acc(xu, t.reshape(lead + (h, w, c)))

    return record(Kernels.patchify(x.data, patch), bwd)
