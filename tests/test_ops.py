"""Forward-value oracles and gradient checks for the op library."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placerec.autodiff import Param, Tape, Tensor
from placerec.errors import ShapeError
from placerec.gradcheck import grad_check
from placerec.ops import _PHI_BLOCK, Kernels, norm_cdf
from placerec.ops import (
    add,
    concat_rows,
    gelu,
    inner,
    l2_normalize,
    layer_norm,
    linear,
    matmul,
    patchify,
    reshape,
    scale,
    softmax_rows,
    sum_all,
    transpose,
    transpose_axes,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def arrays(shape):
    return st.lists(finite, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda v: np.array(v).reshape(shape)
    )


# forward oracles -----------------------------------------------------------

def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_batched_matches_loop(rng):
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(5, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(4):
        np.testing.assert_allclose(got[i], a[i] @ b, atol=1e-12)


def test_linear_hand_value():
    x = Tensor([[1.0, 0.0]])
    w = Param([[2.0, 3.0], [4.0, 5.0]])
    b = Param([10.0, 20.0])
    np.testing.assert_allclose(linear(x, w, b).data, [[12.0, 23.0]])


def test_add_broadcasts_rows():
    x = Tensor(np.zeros((2, 3)))
    b = Tensor([1.0, 2.0, 3.0])
    np.testing.assert_allclose(add(x, b).data, [[1, 2, 3], [1, 2, 3]])


def test_gelu_known_points():
    # exact erf form, not the tanh approximation
    x = Tensor([-1.0, 0.0, 1.0, 2.0])
    np.testing.assert_allclose(
        gelu(x).data,
        [-0.158655253931, 0.0, 0.841344746069, 1.954499736104],
        atol=1e-12,
    )


# norm_cdf: Phi(x) against the libm erf, elementwise --------------------------

PHI_ATOL = 4.5e-16
SQRT2 = math.sqrt(2.0)


def _phi_ref(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / SQRT2))


def _assert_phi(x):
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf/inf, overflow or invalid warnings
        got = norm_cdf(x)
    assert got.shape == x.shape and got.dtype == np.float64
    want = np.array([_phi_ref(v) for v in x.ravel()]).reshape(x.shape)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    fin = ~np.isnan(want)
    err = np.abs(got[fin] - want[fin])
    assert err.max(initial=0.0) <= PHI_ATOL, (err.max(), x[fin][err.argmax()])
    return got


def test_norm_cdf_dense_grid_reaches_every_branch():
    # |x| <= sqrt 2 (inner rational), sqrt 2 < |x| < 8 sqrt 2 (P/Q erfc),
    # 8 sqrt 2 <= |x| (R/S erfc), and the saturated ends
    x = np.linspace(-40.0, 40.0, 200_001)
    for lo, hi in ((0.0, SQRT2), (SQRT2, 8 * SQRT2), (8 * SQRT2, 40.0)):
        assert ((np.abs(x) > lo) & (np.abs(x) < hi)).sum() > 5_000
    got = _assert_phi(x)
    assert np.all(np.diff(got) >= 0.0)
    assert got[0] == 0.0 and got[-1] == 1.0


def test_norm_cdf_lower_tail_relative_to_erfc():
    # the absolute bound cannot see the tail, where the 1 + erf reference
    # rounds to 0; against erfc, the relative error grows only with the
    # rounding of x^2 / 2 inside exp (and of x / sqrt 2 in the reference)
    x = -np.linspace(SQRT2, 37.5, 20_001)
    want = np.array([0.5 * math.erfc(-v / SQRT2) for v in x])
    assert want[-1] > np.finfo(np.float64).tiny
    rel = np.abs(norm_cdf(x) - want) / want
    assert (rel <= 1e-15 * (1.0 + x * x)).all(), rel.max()


def test_norm_cdf_edge_points():
    edges = []
    for c in (SQRT2, -SQRT2, 8 * SQRT2, -8 * SQRT2, 40.0, -40.0):
        edges += [np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)]
    tiny = np.finfo(np.float64).smallest_subnormal
    edges += [0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e-300, -1e300, 1e300,
              np.finfo(np.float64).max, -np.finfo(np.float64).max]
    got = _assert_phi(edges)
    assert got[edges.index(0.0)] == 0.5
    got = _assert_phi([np.inf, -np.inf, np.nan, -np.nan, 1.0])
    assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2]) and np.isnan(got[3])


@pytest.mark.parametrize("n", [1, 544, 2 * _PHI_BLOCK + 37])
def test_norm_cdf_blocks_match_elementwise(rng, n):
    # 544 = 8 images x 17 tokens x rank 4, the adapter hidden of a gradcheck
    # probe; the largest size spans three blocks with a ragged last one
    x = rng.normal(scale=4.0, size=n)
    x[:: 7] *= 8.0  # some elements in every branch, in every block
    x[5 % n] = np.nan
    got = _assert_phi(x)
    # one element at a time around each block edge, and a sample elsewhere
    edges = [i for b in range(0, n, _PHI_BLOCK) for i in range(b - 20, b + 20) if 0 <= i < n]
    idx = np.unique(np.r_[edges, np.arange(0, n, 97), n - 1])
    alone = np.array([norm_cdf(x[i:i + 1])[0] for i in idx])
    np.testing.assert_array_equal(got[idx], alone)
    np.testing.assert_array_equal(norm_cdf(x[::-1])[::-1], got)  # blocks cut elsewhere
    np.testing.assert_array_equal(norm_cdf(x.reshape(1, n, 1)), got.reshape(1, n, 1))
    np.testing.assert_array_equal(norm_cdf(np.stack([x, x]).T)[:, 1], got)  # strided input


def test_norm_cdf_empty():
    assert norm_cdf(np.zeros((0, 3))).shape == (0, 3)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_norm_cdf_matches_libm_erf(x):
    _assert_phi([x])


def test_norm_cdf_float32_keeps_its_dtype_and_tracks_float64():
    # every grid point is a float32, so the float64 kernel sees the same input
    x = np.linspace(-40.0, 40.0, 200_001).astype(np.float32)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = norm_cdf(x)
        at_edges = norm_cdf(edges)
    assert got.dtype == np.float32 and at_edges.dtype == np.float32
    err = np.abs(got.astype(np.float64) - norm_cdf(x.astype(np.float64)))
    assert err.max() <= 2.5e-7, (err.max(), x[err.argmax()])
    assert got[0] == 0.0 and got[-1] == 1.0
    assert at_edges[0] == at_edges[1] == 0.5
    assert at_edges[2] == 1.0 and at_edges[3] == 0.0 and np.isnan(at_edges[4])


def test_norm_cdf_constants_are_python_floats():
    # under NumPy 2's promotion rules an np.float64 constant computes float32
    # input in float64 (and casts back), losing the point of float32
    from placerec import ops

    consts = (ops._PHI_N + ops._PHI_D + ops._ERFC_P + ops._ERFC_Q + ops._ERFC_R
              + ops._ERFC_S + (ops._SQRT2, ops._INV_SQRT2, ops._PHI_SATURATED))
    assert all(type(c) is float for c in consts)


def test_layer_norm_two_point_row():
    g = Param(np.ones(2))
    b = Param(np.zeros(2))
    out = layer_norm(Tensor([[1.0, 3.0]]), g, b).data
    np.testing.assert_allclose(out, [[-0.9999995, 0.9999995]], atol=1e-9)


def test_layer_norm_gamma_beta_applied():
    g = Param([2.0, 2.0])
    b = Param([1.0, -1.0])
    out = layer_norm(Tensor([[1.0, 3.0]]), g, b).data
    np.testing.assert_allclose(out, [[1 - 2 * 0.9999995, -1 + 2 * 0.9999995]], atol=1e-9)


def test_softmax_known_row():
    out = softmax_rows(Tensor([[0.0, np.log(3.0)]])).data
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_l2_normalize_hand_value():
    np.testing.assert_allclose(l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_kernels_equal_their_expressions_bit_for_bit(rng, dtype):
    """linear, gelu and softmax_rows reuse the arrays they make; the results
    are the bits of the plain expressions, in the input dtype."""
    x = (rng.normal(size=(4, 17, 64)) * 3.0).astype(dtype)
    w = rng.normal(size=(64, 48)).astype(dtype)
    b = rng.normal(size=(48,)).astype(dtype)
    want = {
        "linear": Kernels.matmul(x, w) + b,
        "gelu": x * norm_cdf(x),
        "softmax_rows": np.exp(x - x.max(axis=-1, keepdims=True))
        / np.exp(x - x.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True),
    }
    got = {"linear": Kernels.linear(x, w, b), "gelu": Kernels.gelu(x),
           "softmax_rows": Kernels.softmax_rows(x)}
    for name in want:
        assert got[name].dtype == dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [16, 24, 100, 128])
def test_layer_norm_kernel_equals_the_mean_expression_bit_for_bit(rng, dtype, d):
    """The row sum divided by d is what ndarray.mean computes."""
    x = (rng.normal(size=(3, 9, d)) * 4.0 + 1.5).astype(dtype)
    g = rng.normal(size=(d,)).astype(dtype)
    b = rng.normal(size=(d,)).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(x - mu).mean(axis=-1, keepdims=True) + 1e-6)
    want = ((x - mu) * inv) * g + b
    got = Kernels.layer_norm(x, g, b)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)
    if dtype == np.float64:
        np.testing.assert_array_equal(layer_norm(Tensor(x), Tensor(g), Tensor(b)).data, want)


def test_l2_normalize_kernel_leaves_a_zero_row_non_finite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Kernels.l2_normalize(np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32))
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    assert np.isnan(out[1]).all()


def test_transpose_and_reshape_roundtrip(rng):
    x = rng.normal(size=(3, 5))
    assert transpose(Tensor(x)).shape == (5, 3)
    np.testing.assert_array_equal(reshape(Tensor(x), (5, 3)).data, x.reshape(5, 3))
    np.testing.assert_array_equal(
        transpose_axes(Tensor(rng.normal(size=(2, 3, 4))), (2, 0, 1)).shape, (4, 2, 3)
    )


def test_concat_rows(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
    np.testing.assert_array_equal(concat_rows([Tensor(a), Tensor(b)]).data, np.vstack([a, b]))


def test_patchify_grid_order(rng):
    img = rng.normal(size=(4, 4, 1))
    out = patchify(Tensor(img), 2).data
    assert out.shape == (4, 4)  # 2x2 grid of 2*2*1 patches, row-major
    np.testing.assert_array_equal(out[0], img[0:2, 0:2, 0].ravel())
    np.testing.assert_array_equal(out[1], img[0:2, 2:4, 0].ravel())
    np.testing.assert_array_equal(out[2], img[2:4, 0:2, 0].ravel())


# properties ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(arrays((3, 4)), st.floats(-20.0, 20.0, allow_nan=False))
def test_softmax_shift_invariance(x, c):
    base = softmax_rows(Tensor(x)).data
    shifted = softmax_rows(Tensor(x + c)).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    np.testing.assert_allclose(base.sum(axis=1), np.ones(3), atol=1e-12)
    assert (base >= 0).all()


@settings(max_examples=50, deadline=None)
@given(arrays((2, 6)))
def test_layer_norm_statistics(x):
    g = Param(np.ones(6))
    b = Param(np.zeros(6))
    out = layer_norm(Tensor(x), g, b).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(2), atol=1e-9)
    # variance is 1 up to the eps regularizer
    assert (out.var(axis=1) <= 1.0 + 1e-9).all()


@settings(max_examples=50, deadline=None)
@given(arrays((5,)).filter(lambda v: np.linalg.norm(v) > 1e-6))
def test_l2_normalize_unit_norm(x):
    out = l2_normalize(Tensor(x)).data
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


# gradients ------------------------------------------------------------------

def _check(build, *params):
    report = grad_check(build, list(params), tol=1e-6)
    assert report.ok, report.summary()


def test_grad_matmul(rng):
    a = Param(rng.normal(size=(3, 4)), name="a")
    b = Param(rng.normal(size=(4, 2)), name="b")
    _check(lambda: sum_all(matmul(a.read(), b.read())), a, b)


def test_grad_matmul_batched(rng):
    a = Param(rng.normal(size=(2, 3, 4)), name="a")
    b = Param(rng.normal(size=(4, 3)), name="b")
    _check(lambda: sum_all(matmul(a.read(), b.read())), a, b)


def test_grad_linear(rng):
    x = Tensor(rng.normal(size=(3, 4)))
    w = Param(rng.normal(size=(4, 2)), name="w")
    b = Param(rng.normal(size=(2,)), name="b")
    _check(lambda: sum_all(gelu(linear(x, w, b))), w, b)


def test_grad_layer_norm(rng):
    x = Param(rng.normal(size=(2, 5)), name="x")
    g = Param(rng.normal(size=(5,)), name="g")
    b = Param(rng.normal(size=(5,)), name="b")
    _check(lambda: sum_all(layer_norm(x.read(), g, b)), x, g, b)


def test_grad_softmax(rng):
    x = Param(rng.normal(size=(3, 4)), name="x")
    w = Tensor(rng.normal(size=(3, 4)))
    # weight the rows so the gradient is not the trivial zero of sum(softmax)
    _check(lambda: sum_all(matmul(softmax_rows(x.read()), transpose(w))), x)


def test_grad_l2_normalize(rng):
    x = Param(rng.normal(size=(6,)) + 2.0, name="x")
    w = Tensor(rng.normal(size=(6,)))
    _check(lambda: sum_all(matmul(reshape(l2_normalize(x.read()), (1, 6)),
                                  reshape(w, (6, 1)))), x)


def test_grad_scale_add_reshape_transpose(rng):
    x = Param(rng.normal(size=(3, 4)), name="x")
    y = Param(rng.normal(size=(4, 3)), name="y")
    _check(lambda: sum_all(add(scale(x.read(), 1.7), transpose(y.read()))), x, y)


def test_grad_concat_rows(rng):
    a = Param(rng.normal(size=(2, 3)), name="a")
    b = Param(rng.normal(size=(1, 3)), name="b")
    w = Tensor(rng.normal(size=(3, 1)))
    _check(lambda: sum_all(matmul(concat_rows([a.read(), b.read()]), w)), a, b)


def test_concat_rows_broadcasts_shared_row_over_batch(rng):
    head = rng.normal(size=(1, 3))
    body = rng.normal(size=(2, 4, 3))
    out = concat_rows([Tensor(head), Tensor(body)]).data
    assert out.shape == (2, 5, 3)
    for i in range(2):
        np.testing.assert_array_equal(out[i], np.vstack([head, body[i]]))


def test_grad_concat_rows_broadcast(rng):
    a = Param(rng.normal(size=(1, 3)), name="a")
    b = Param(rng.normal(size=(2, 2, 3)), name="b")
    w = Tensor(rng.normal(size=(3, 1)))
    _check(lambda: sum_all(gelu(matmul(concat_rows([a.read(), b.read()]), w))), a, b)


def test_patchify_batch_matches_single(rng):
    imgs = rng.normal(size=(3, 4, 6, 2))
    out = patchify(Tensor(imgs), 2).data
    assert out.shape == (3, 6, 8)
    for i in range(3):
        np.testing.assert_array_equal(out[i], patchify(Tensor(imgs[i]), 2).data)


def test_grad_patchify_batch(rng):
    x = Param(rng.normal(size=(2, 4, 4, 1)), name="x")
    w = Tensor(rng.normal(size=(4, 2)))
    _check(lambda: sum_all(gelu(matmul(patchify(x.read(), 2), w))), x)


def test_grad_transpose_axes(rng):
    x = Param(rng.normal(size=(2, 3, 4)), name="x")
    _check(lambda: sum_all(scale(transpose_axes(x.read(), (1, 2, 0)), 0.5)), x)


def test_inner_carries_its_constant_as_the_adjoint_exactly(rng):
    """A backward sweep from inner(y, c) leaves the same gradients as one
    that starts y's adjoint at c, bit for bit."""
    x = Param(rng.normal(size=(3, 4)), name="x")
    w = Param(rng.normal(size=(4, 5)), name="w")
    c = rng.normal(size=(3, 5))
    with Tape() as tape:
        y = matmul(x.read(), w.read())
        root = inner(y, c)
    assert float(root.data) == float(np.vdot(y.data, c))
    tape.backward(root)
    np.testing.assert_array_equal(x.grad, c @ w.value.data.T)
    np.testing.assert_array_equal(w.grad, x.value.data.T @ c)
    with pytest.raises(ShapeError, match="inner shapes differ"):
        inner(y, c.T)
