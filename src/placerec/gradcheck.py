"""Central-difference gradient checking.

grad_check runs f once under a tape for the analytic gradients, then
perturbs every trainable scalar by +/-h with the tape off and compares.
The comparison is |analytic - central| / max(1, |central|), so tiny
gradients are judged on absolute error and large ones relatively.

The probes are independent evaluations, so they run on every CPU in the
process's affinity mask. Worker processes are forked after the analytic
pass (through `fanout.fan_out`) and inherit the gradients and whatever
fast_eval has cached; scalars are dealt round-robin in serial order, and
the parent merges the shares into the report one process would have
produced.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .autodiff import Param, Tape, Tensor
from .errors import NumericalError, ShapeError
from .fanout import fan_out as _fan_out
from .fanout import workers as _workers


@dataclass
class GradCheckEntry:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    checked: int = 0
    max_rel_err: float = 0.0
    seconds: float = 0.0
    tol: float = 0.0
    failures: list[GradCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} scalars)"
        return (f"gradcheck {status}: {self.checked} scalars, "
                f"max_rel_err={self.max_rel_err:.3e}, tol={self.tol:.0e}, "
                f"{self.seconds:.1f}s")


def _scalar_loss(t: Tensor) -> float:
    if t.data.size != 1:
        raise ShapeError(f"grad_check needs a scalar loss, got shape {tuple(t.data.shape)}")
    v = float(t.data.reshape(()))
    if not np.isfinite(v):
        raise NumericalError("grad_check: loss is not finite")
    return v


@dataclass
class _Share:
    """One worker's part of a check; positions count scalars in serial order."""
    checked: int = 0
    max_rel_err: float = 0.0
    failures: list = field(default_factory=list)    # (position, GradCheckEntry)


def _probe_share(params, analytic, probe, h, tol, start, step) -> tuple:
    """(share, error) of central differences for every step-th scalar from
    position start on.

    Stops at the first probe that raises and returns it as error, a
    (position, exception) pair for `fan_out`; the poked scalar is restored
    either way.
    """
    share = _Share()
    base = pos = 0
    try:
        for p in params:
            flat = p.value.data.reshape(-1)
            ga = analytic[id(p)].reshape(-1)
            name = p.name or "<unnamed>"
            for i in range((start - base) % step, flat.size, step):
                pos = base + i
                keep = flat[i]
                try:
                    flat[i] = keep + h
                    lp = probe(p)
                    flat[i] = keep - h
                    lm = probe(p)
                finally:
                    flat[i] = keep
                if not (math.isfinite(lp) and math.isfinite(lm)):
                    raise NumericalError(f"grad_check: non-finite loss probing {name}[{i}]")
                numeric = (lp - lm) / (2.0 * h)
                rel = abs(ga[i] - numeric) / max(1.0, abs(numeric))
                share.checked += 1
                if rel > share.max_rel_err:
                    share.max_rel_err = rel
                if rel > tol:
                    entry = GradCheckEntry(name, i, float(ga[i]), numeric, rel)
                    share.failures.append((pos, entry))
            base += flat.size
    except Exception as exc:    # fan_out re-raises the serially first one
        return share, (pos, exc)
    return share, None


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-5,
               fast_eval=None) -> GradCheckReport:
    """Check d f() / d p for every trainable scalar in params.

    f must be deterministic and side-effect free; it is re-evaluated twice
    per scalar with the parameter storage poked in place. fast_eval, when
    given, replaces f for the probe evaluations only: it is called with the
    currently poked Param and must return the same loss as a plain float
    (callers use it to skip recomputing stages the poked param cannot reach).
    """
    params = [p for p in params if isinstance(p, Param) and p.trainable]
    t0 = time.perf_counter()

    for p in params:
        if not p.value.data.flags["C_CONTIGUOUS"]:
            p.value = Tensor(np.ascontiguousarray(p.value.data))
        p.zero_grad()

    with Tape() as tape:
        loss = f()
    _scalar_loss(loss)
    tape.backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}

    probe = fast_eval if fast_eval is not None else (lambda _p: _scalar_loss(f()))
    n = max(1, min(_workers(), sum(p.value.data.size for p in params)))
    shares = _fan_out(n, lambda k: _probe_share(params, analytic, probe, h, tol, k, n),
                      "grad_check: probe")

    report = GradCheckReport(tol=tol)
    report.checked = sum(s.checked for s in shares)
    report.max_rel_err = max(s.max_rel_err for s in shares)
    failures = sorted((pf for s in shares for pf in s.failures), key=itemgetter(0))
    report.failures = [entry for _, entry in failures]
    report.seconds = time.perf_counter() - t0
    return report
