"""Reverse-mode differentiation core: tensors, parameters, and the tape.

Every op makes its output through `record`, which appends the op's adjoint
closure to a live tape; the tape replays them in reverse exactly once. Ops
executed inside a frozen region are recorded as zero-byte markers: they
keep no buffers, get no adjoint, and their outputs behave as constant
leaves. That is the whole memory story of the parallel-adapter design, so
the tape also keeps per-region byte accounting that tests and the
memreport command read back.

A tape is single-use: one forward, one backward, then rebuild.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import FrozenRegionError, ShapeError, TapeReuseError

_uids = itertools.count(1)


class Tensor:
    """Immutable dense float64 array; just shape + data, no grad state."""

    __slots__ = ("data", "uid")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.uid = next(_uids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)})"


class Param:
    """A tensor with a gradient accumulator and a trainable/frozen flag.

    Gradients accumulate across backward passes until the optimizer step
    (or zero_grad) clears them. Frozen params are never watched by a tape,
    so their grad stays identically zero.
    """

    __slots__ = ("value", "grad", "trainable", "name")

    def __init__(self, value, trainable: bool = True, name: str = ""):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad = np.zeros_like(self.value.data)
        self.trainable = bool(trainable)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.data.size)

    def read(self) -> Tensor:
        """Current value; registers with the active tape when trainable."""
        if _state.frozen and self.trainable:
            raise FrozenRegionError(
                f"trainable param {self.name or '<unnamed>'} used inside a frozen region"
            )
        if _state.tape is not None and not _state.frozen and self.trainable:
            _state.tape._watched[self.value.uid] = self
        return self.value

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self):
        kind = "trainable" if self.trainable else "frozen"
        return f"Param({self.name!r}, shape={tuple(self.value.shape)}, {kind})"


class _State:
    __slots__ = ("tape", "frozen", "region")

    def __init__(self):
        self.tape = None
        self.frozen = 0
        self.region = None


_state = _State()


class _Op:
    __slots__ = ("out_uid", "bwd", "nbytes", "region", "frozen")

    def __init__(self, out_uid, bwd, nbytes, region, frozen):
        self.out_uid = out_uid
        self.bwd = bwd
        self.nbytes = nbytes
        self.region = region
        self.frozen = frozen


class Tape:
    def __init__(self):
        self._ops: list[_Op] = []
        self._watched: dict[int, Param] = {}  # value uid -> Param
        self._spent = False

    def __enter__(self) -> "Tape":
        if _state.tape is not None:
            raise TapeReuseError("a tape is already active; tapes do not nest")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    # accounting ---------------------------------------------------------

    def retained_bytes(self, region: str | None = None) -> int:
        """Bytes of forward buffers kept alive for adjoints, optionally per region."""
        return sum(op.nbytes for op in self._ops if region is None or op.region == region)

    def op_count(self, region: str | None = None, frozen: bool | None = None) -> int:
        n = 0
        for op in self._ops:
            if region is not None and op.region != region:
                continue
            if frozen is not None and op.frozen != frozen:
                continue
            n += 1
        return n

    # backward -----------------------------------------------------------

    def backward(self, root: Tensor) -> None:
        """Reverse sweep from a scalar root into every watched Param.grad."""
        if self._spent:
            raise TapeReuseError("tape already consumed by backward; rerun the forward pass")
        self._spent = True
        if root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {tuple(root.data.shape)}")

        grads: dict[int, np.ndarray] = {root.uid: np.ones_like(root.data)}

        def acc(uid, delta):
            cur = grads.get(uid)
            grads[uid] = delta if cur is None else cur + delta

        for op in reversed(self._ops):
            if op.bwd is None:
                continue
            g = grads.pop(op.out_uid, None)
            if g is None:
                continue  # branch never reached the root
            op.bwd(g, acc)

        for uid, param in self._watched.items():
            g = grads.get(uid)
            if g is not None:
                param.grad += g


def taping() -> bool:
    """True when ops should record adjoints (tape active, not frozen)."""
    return _state.tape is not None and _state.frozen == 0


def record(data, bwd=None, saves=()) -> Tensor:
    """`data` as a new Tensor, the output of an op, recorded on the tape.

    On a live tape the adjoint `bwd(g, acc)` is appended, and the bytes of
    `saves`, the forward arrays it keeps alive, are charged to the current
    region. Inside a frozen region a zero-byte marker is appended instead,
    and with no tape nothing is. This is the one place an op reaches a tape.
    """
    out = Tensor(data)
    tape = _state.tape
    if tape is not None:
        if _state.frozen:
            tape._ops.append(_Op(out.uid, None, 0, _state.region, True))
        else:
            tape._ops.append(_Op(out.uid, bwd, sum(int(s.nbytes) for s in saves),
                                 _state.region, False))
    return out


@contextmanager
def frozen_region(tag: str = "frozen"):
    """Forward-only execution: outputs become constant leaves of the graph.

    Reading a trainable Param inside raises FrozenRegionError; the tape
    retains zero activation bytes for everything executed here.
    """
    _state.frozen += 1
    prev = _state.region
    _state.region = tag
    try:
        yield
    finally:
        _state.frozen -= 1
        _state.region = prev


@contextmanager
def region(tag: str):
    """Label recorded ops for per-region activation accounting."""
    prev = _state.region
    _state.region = tag
    try:
        yield
    finally:
        _state.region = prev


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Param):
        return x.read()
    return Tensor(x)
