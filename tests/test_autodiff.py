"""Tape mechanics: recording, reverse sweep, single-use, frozen regions."""
import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from placerec import autodiff, ops
from placerec.autodiff import Param, Tape, Tensor, frozen_region, region, taping
from placerec.errors import FrozenRegionError, ShapeError, TapeReuseError
from placerec.loss import LossConfig, mine_pairs, ms_loss
from placerec.ops import add, matmul, scale, sum_all


def test_tensor_is_f64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.shape == (3,)


def test_param_grad_starts_zero():
    p = Param(np.ones((2, 3)))
    assert p.grad.shape == (2, 3)
    assert not p.grad.any()


def test_backward_fills_watched_grads():
    a = Param([[1.0, 2.0], [3.0, 4.0]], name="a")
    b = Param([[1.0], [1.0]], name="b")
    with Tape() as tape:
        loss = sum_all(matmul(a.read(), b.read()))
    tape.backward(loss)
    # d sum(a@b) / da = 1 @ b.T broadcast over rows
    np.testing.assert_allclose(a.grad, np.ones((2, 2)))
    np.testing.assert_allclose(b.grad, [[4.0], [6.0]])


def test_grads_accumulate_until_zeroed():
    p = Param([2.0], name="p")
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(scale(p.read(), 3.0))
        tape.backward(loss)
    np.testing.assert_allclose(p.grad, [6.0])
    p.zero_grad()
    assert not p.grad.any()


def test_frozen_param_gets_no_grad():
    frozen = Param([5.0], trainable=False, name="frozen")
    live = Param([2.0], name="live")
    with Tape() as tape:
        loss = sum_all(add(frozen.read(), live.read()))
    tape.backward(loss)
    assert not frozen.grad.any()
    np.testing.assert_allclose(live.grad, [1.0])


def test_tape_single_use():
    p = Param([1.0])
    with Tape() as tape:
        loss = sum_all(scale(p.read(), 2.0))
    tape.backward(loss)
    with pytest.raises(TapeReuseError):
        tape.backward(loss)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(TapeReuseError):
            with Tape():
                pass


def test_backward_root_must_be_scalar():
    p = Param([1.0, 2.0])
    with Tape() as tape:
        out = scale(p.read(), 2.0)
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_unreached_branch_contributes_nothing():
    p = Param([1.0], name="p")
    q = Param([1.0], name="q")
    with Tape() as tape:
        scale(q.read(), 5.0)  # dead branch, never feeds the root
        loss = sum_all(scale(p.read(), 2.0))
    tape.backward(loss)
    np.testing.assert_allclose(p.grad, [2.0])
    assert not q.grad.any()


def test_frozen_region_blocks_trainable_reads():
    p = Param([1.0], trainable=True, name="p")
    with Tape():
        with frozen_region():
            with pytest.raises(FrozenRegionError):
                p.read()


def test_frozen_region_retains_zero_bytes():
    w = Param(np.ones((4, 4)), trainable=False)
    x = Tensor(np.ones((4, 4)))
    with Tape() as tape:
        with frozen_region("backbone"):
            h = matmul(x, w.read())
            h = matmul(h, w.read())
    assert tape.retained_bytes("backbone") == 0
    assert tape.op_count("backbone", frozen=True) == 2
    assert tape.op_count("backbone", frozen=False) == 0


def test_taped_region_retains_bytes():
    w = Param(np.ones((4, 4)))
    x = Tensor(np.ones((4, 4)))
    with Tape() as tape:
        with region("adapter"):
            matmul(x, w.read())
    assert tape.retained_bytes("adapter") > 0


def test_frozen_output_is_constant_leaf():
    """Gradient flows into params used after the frozen region, not before."""
    wf = Param(2.0 * np.ones((1, 1)), trainable=False)
    wt = Param(3.0 * np.ones((1, 1)), trainable=True, name="wt")
    x = Tensor(np.ones((1, 1)))
    with Tape() as tape:
        with frozen_region():
            h = matmul(x, wf.read())  # h = 2, constant
        loss = sum_all(matmul(h, wt.read()))
    tape.backward(loss)
    np.testing.assert_allclose(wt.grad, [[2.0]])


def test_taping_flag():
    assert not taping()
    with Tape():
        assert taping()
        with frozen_region():
            assert not taping()
        assert taping()
    assert not taping()


def _ms_loss_case():
    x = np.random.default_rng(3).normal(size=(4, 3))
    s = Tensor(x @ x.T)
    return ms_loss, (s, mine_pairs(s, [0, 0, 1, 1], 10.0), LossConfig())


# each wrapper in ops, and ms_loss, with operands it accepts (constants, so
# they can be read inside a frozen region too)
_M = Tensor(np.arange(12.0).reshape(3, 4) / 7.0 - 0.5)
_W = Tensor(np.ones((4, 2)))
_V = Tensor(np.linspace(0.5, 2.0, 4))
RECORDING_CASES = {
    "matmul": lambda: (ops.matmul, (_M, _W)),
    "add": lambda: (ops.add, (_M, _V)),
    "scale": lambda: (ops.scale, (_M, 2.0)),
    "transpose": lambda: (ops.transpose, (_M,)),
    "transpose_axes": lambda: (ops.transpose_axes, (_M, (1, 0))),
    "reshape": lambda: (ops.reshape, (_M, (4, 3))),
    "softmax_rows": lambda: (ops.softmax_rows, (_M,)),
    "layer_norm": lambda: (ops.layer_norm, (_M, _V, _V)),
    "gelu": lambda: (ops.gelu, (_M,)),
    "l2_normalize": lambda: (ops.l2_normalize, (_V,)),
    "linear": lambda: (ops.linear, (_M, _W, Tensor(np.ones(2)))),
    "sum_all": lambda: (ops.sum_all, (_M,)),
    "inner": lambda: (ops.inner, (_M, np.ones((3, 4)))),
    "concat_rows": lambda: (ops.concat_rows, ([_M, _M],)),
    "patchify": lambda: (ops.patchify, (Tensor(np.ones((4, 4, 1))), 2)),
    "ms_loss": _ms_loss_case,
}


def test_recording_cases_cover_every_wrapper():
    wrappers = {name for name, f in vars(ops).items()
                if inspect.isfunction(f) and f.__module__ == ops.__name__
                and not name.startswith("_") and name != "norm_cdf"}
    assert wrappers == set(RECORDING_CASES) - {"ms_loss"}


@pytest.mark.parametrize("name", sorted(RECORDING_CASES))
def test_each_op_records_once_per_tape_state(name):
    """One live op on a tape (two for linear, a matmul and an add), one
    zero-byte frozen op inside a frozen region, none with no tape."""
    fn, args = RECORDING_CASES[name]()
    n = 2 if name == "linear" else 1
    with Tape() as tape:
        with region("live"):
            live = fn(*args)
    assert tape.op_count() == tape.op_count("live", frozen=False) == n
    with Tape() as tape:
        with frozen_region("cold"):
            cold = fn(*args)
    assert tape.op_count() == tape.op_count("cold", frozen=True) == n
    assert tape.retained_bytes() == 0
    bare = fn(*args)
    for out in (cold, bare):
        np.testing.assert_array_equal(out.data, live.data)


def _op_builders(path) -> list:
    """The name of the function around each `_Op(...)` call in a module."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "_Op"):
                found.append(fn)
            visit(child, fn)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_one_recording_path():
    """Only autodiff.record builds tape entries."""
    package = Path(autodiff.__file__).parent
    builders = {path.name: _op_builders(path) for path in sorted(package.glob("*.py"))}
    assert len(builders) > 1
    own = builders.pop("autodiff.py")
    assert own and set(own) == {"record"}, own
    assert not any(builders.values()), builders
