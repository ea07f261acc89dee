"""The checker itself: catches wrong adjoints, honors fast_eval, rejects junk,
and reports the same with probes fanned out over worker processes."""
import json
import os

import numpy as np
import pytest

from placerec import gradcheck
from placerec.autodiff import Param, Tensor, record
from placerec.errors import DegenerateInputError, NumericalError, ShapeError, ValidationError
from placerec.gradcheck import grad_check
from placerec.ops import matmul, sum_all


def bad_square(x: Tensor) -> Tensor:
    """y = x^2 recorded with a deliberately wrong adjoint (3x instead of 2x)."""
    xd = x.data

    def bwd(g, acc):
        acc(x.uid, g * 3.0 * xd)

    return record(xd ** 2, bwd, (xd,))


def test_detects_wrong_adjoint():
    p = Param([1.5], name="p")
    report = grad_check(lambda: sum_all(bad_square(p.read())), [p], tol=1e-5)
    assert not report.ok
    assert report.failures[0].param == "p"


def test_passes_correct_adjoint(rng):
    a = Param(rng.normal(size=(2, 3)), name="a")
    b = Param(rng.normal(size=(3, 2)), name="b")
    report = grad_check(lambda: sum_all(matmul(a.read(), b.read())), [a, b], tol=1e-6)
    assert report.ok
    assert report.checked == 12
    assert report.max_rel_err < 1e-6


def test_fast_eval_drives_probes(rng):
    """A fast_eval that mirrors f exactly must give the same verdict."""
    a = Param(rng.normal(size=(2, 2)), name="a")
    w = rng.normal(size=(2, 2))

    def f():
        return sum_all(matmul(a.read(), Tensor(w)))

    def fast(_param):
        return float((a.value.data @ w).sum())

    report = grad_check(f, [a], tol=1e-6, fast_eval=fast)
    assert report.ok


def test_fast_eval_disagreement_is_caught(rng):
    """A fast_eval inconsistent with f yields failures, not silent passes."""
    a = Param(np.ones((2, 2)), name="a")
    w = rng.normal(size=(2, 2))

    def f():
        return sum_all(matmul(a.read(), Tensor(w)))

    report = grad_check(f, [a], tol=1e-6, fast_eval=lambda _p: 42.0)
    assert not report.ok


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("name", ["h", "tol"])
def test_bad_step_or_tolerance_rejected(name, value):
    p = Param([1.5], name="p")
    with pytest.raises(ValidationError, match=f"grad_check: {name} must be a finite number > 0"):
        grad_check(lambda: sum_all(p.read()), [p], **{name: value})


def test_nonscalar_loss_rejected():
    p = Param([1.0, 2.0], name="p")
    with pytest.raises(ShapeError):
        grad_check(lambda: matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))), [p])


def test_nonfinite_loss_rejected():
    p = Param([0.0], name="p")

    def f():
        p.read()
        return Tensor([float("-inf")])

    with pytest.raises(NumericalError):
        grad_check(f, [p])


def _check_with(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(gradcheck, "_workers", lambda: workers)
    return grad_check(*args, **kwargs)


def _poked_index(param, base):
    """Flat index of the one scalar of param that differs from base."""
    diff = np.flatnonzero(param.value.data.reshape(-1) != base.reshape(-1))
    return int(diff[0]) if diff.size else None


def test_workers_give_the_serial_pipeline_report(monkeypatch, tiny_run_config, rng):
    from placerec.model import build_model, pipeline_gradcheck

    images = [rng.normal(size=(8, 8, 1)) for _ in range(8)]
    pids = [0, 0, 1, 1, 2, 2, 3, 3]
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(gradcheck, "_workers", lambda: workers)
        reports.append(pipeline_gradcheck(build_model(tiny_run_config), images, pids))
    one, three = reports
    assert one.ok and three.ok
    assert one.checked == three.checked > 0
    assert one.max_rel_err == three.max_rel_err


def test_workers_report_failures_in_serial_order(monkeypatch, rng):
    a = Param(rng.normal(size=(3, 4)), name="a")
    b = Param(rng.normal(size=(4, 2)), name="b")
    base = {id(a): a.value.data.copy(), id(b): b.value.data.copy()}
    wrong = {("a", 1), ("a", 5), ("a", 6), ("b", 0), ("b", 7)}

    def f():
        return sum_all(matmul(a.read(), b.read()))

    def fast(param):
        """The true loss, plus 1 on the +h side of the scalars in wrong."""
        loss = float((a.value.data @ b.value.data).sum())
        was = base[id(param)].reshape(-1)
        i = _poked_index(param, was)
        if (param.name, i) in wrong and param.value.data.reshape(-1)[i] > was[i]:
            loss += 1.0
        return loss

    one = _check_with(monkeypatch, 1, f, [a, b], fast_eval=fast)
    three = _check_with(monkeypatch, 3, f, [a, b], fast_eval=fast)
    assert [(e.param, e.index) for e in one.failures] == sorted(wrong)
    assert three.failures == one.failures
    assert three.checked == one.checked == 20
    assert three.max_rel_err == one.max_rel_err


def test_workers_raise_the_serially_first_error(monkeypatch, rng):
    """Non-finite probes at positions 5 (worker 2), 7 (worker 1) and 9 (the
    parent's share): every worker count reports position 5."""
    a = Param(rng.normal(size=(12,)), name="a")
    base = a.value.data.copy()

    def fast(param):
        return float("nan") if _poked_index(param, base) in (5, 7, 9) else 0.0

    messages = []
    for workers in (1, 3):
        with pytest.raises(NumericalError) as exc:
            _check_with(monkeypatch, workers, lambda: sum_all(a.read()), [a], fast_eval=fast)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "grad_check: non-finite loss probing a[5]"


def test_dead_worker_is_a_numerical_error(monkeypatch, rng):
    a = Param(rng.normal(size=(6,)), name="a")
    parent = os.getpid()

    def fast(_param):
        if os.getpid() != parent:
            os._exit(3)
        return float(a.value.data.sum())

    with pytest.raises(NumericalError, match=r"worker \d died without a report \(exit code 3\)"):
        _check_with(monkeypatch, 3, lambda: sum_all(a.read()), [a], fast_eval=fast)


def test_dead_worker_fails_cli_gradcheck(monkeypatch, tmp_path, capsys):
    from placerec.cli import main
    from placerec.fasteval import FastPipeline

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
        "lopa": {"rank": 2},
        "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
    }))
    parent, probe = os.getpid(), FastPipeline.probe

    def dying_probe(fp, param):
        if os.getpid() != parent:
            os._exit(1)
        return probe(fp, param)

    monkeypatch.setattr(FastPipeline, "probe", dying_probe)
    monkeypatch.setattr(gradcheck, "_workers", lambda: 2)
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "died without a report (exit code 1)" in lines[0]
    assert "gradcheck" not in captured.out


def test_raising_probe_restores_the_poked_scalar(monkeypatch, rng):
    a = Param(rng.normal(size=(3,)), name="a")
    base = a.value.data.copy()

    def fast(param):
        if _poked_index(param, base) == 1:
            raise DegenerateInputError("probe failed")
        return float(a.value.data.sum())

    with pytest.raises(DegenerateInputError, match="probe failed"):
        _check_with(monkeypatch, 1, lambda: sum_all(a.read()), [a], fast_eval=fast)
    assert a.value.data.tobytes() == base.tobytes()


def test_workers_probe_through_f_without_fast_eval(monkeypatch, rng):
    a = Param(rng.normal(size=(2, 3)), name="a")
    b = Param(rng.normal(size=(3, 2)), name="b")

    def f():
        return sum_all(matmul(a.read(), b.read()))

    one = _check_with(monkeypatch, 1, f, [a, b], tol=1e-6)
    three = _check_with(monkeypatch, 3, f, [a, b], tol=1e-6)
    assert one.ok and three.ok
    assert three.checked == one.checked == 12
    assert three.max_rel_err == one.max_rel_err
