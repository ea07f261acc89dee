"""Binary file formats.

Four little-endian container formats share the same skeleton: 4-byte magic,
u32 version, u32 header fields, then a raw payload.

  EDTZ  feature stack   u32 layers, u32 rows, u32 width; f32 layer-major
  EDTI  image           u32 h, u32 w, u32 c; f32 row-major
  EDTD  descriptors     u32 count, u32 dim; f32 row-major
  EDTC  checkpoint      u32 config-json bytes, json; then named f64 tensors
                        (u32 name len, name, u32 rank, u32 extents..., payload)

Writers are atomic (write to a temp file, then rename). Readers fail with
FormatError carrying the byte offset of the problem; a checkpoint tensor
that holds NaN or inf is such a problem.
"""
from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError

MAGIC_STACK = b"EDTZ"
MAGIC_IMAGE = b"EDTI"
MAGIC_DESC = b"EDTD"
MAGIC_CKPT = b"EDTC"
VERSION = 1


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    @classmethod
    def of(cls, path) -> "_Reader":
        """A reader over the whole file at path."""
        with open(path, "rb") as fh:
            return cls(fh.read(), os.fspath(path))

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated, wanted {n} bytes", offset=self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def magic(self, expected: bytes) -> None:
        got = self.take(4)
        if got != expected:
            raise FormatError(
                f"{self.path}: bad magic {got!r}, expected {expected!r}", offset=0)
        ver = self.u32()
        if ver != VERSION:
            raise FormatError(f"{self.path}: unsupported version {ver}", offset=4)

    def f32_array(self, count: int, offset_label: str = "payload") -> np.ndarray:
        raw = self.take(count * 4)
        return np.frombuffer(raw, dtype="<f4", count=count).astype(np.float64)

    def f64_array(self, count: int) -> np.ndarray:
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype="<f8", count=count).copy()

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes", offset=self.pos)

    @property
    def eof(self) -> bool:
        return self.pos == len(self.data)


def _atomic_write(path, blob: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


# feature stacks ----------------------------------------------------------

def write_feature_stack(path, layers: list[np.ndarray]) -> None:
    if not layers:
        raise FormatError("feature stack needs at least one layer")
    rows, d = layers[0].shape
    for a in layers:
        if a.shape != (rows, d):
            raise FormatError(f"layer shapes disagree: {a.shape} vs {(rows, d)}")
    head = MAGIC_STACK + struct.pack("<IIII", VERSION, len(layers), rows, d)
    _atomic_write(path, head + b"".join(_f32_bytes(a) for a in layers))


def read_feature_stack(path) -> list[np.ndarray]:
    r = _Reader.of(path)
    r.magic(MAGIC_STACK)
    layers, rows, d = r.u32(), r.u32(), r.u32()
    if layers < 1 or rows < 1 or d < 1:
        raise FormatError(f"{path}: bad header counts {layers}x{rows}x{d}", offset=8)
    out = [r.f32_array(rows * d).reshape(rows, d) for _ in range(layers)]
    r.done()
    return out


# images ------------------------------------------------------------------

def write_image(path, image: np.ndarray) -> None:
    if image.ndim != 3:
        raise FormatError(f"image must be rank 3 (h, w, c), got {image.shape}")
    h, w, c = image.shape
    head = MAGIC_IMAGE + struct.pack("<IIII", VERSION, h, w, c)
    _atomic_write(path, head + _f32_bytes(image))


def read_image(path) -> np.ndarray:
    r = _Reader.of(path)
    r.magic(MAGIC_IMAGE)
    h, w, c = r.u32(), r.u32(), r.u32()
    if h < 1 or w < 1 or c < 1:
        raise FormatError(f"{path}: bad image dims {h}x{w}x{c}", offset=8)
    out = r.f32_array(h * w * c).reshape(h, w, c)
    r.done()
    return out


# descriptors -------------------------------------------------------------

def write_descriptors(path, matrix: np.ndarray) -> None:
    if matrix.ndim != 2:
        raise FormatError(f"descriptor matrix must be rank 2, got {matrix.shape}")
    n, dim = matrix.shape
    head = MAGIC_DESC + struct.pack("<III", VERSION, n, dim)
    _atomic_write(path, head + _f32_bytes(matrix))


def read_descriptors(path) -> np.ndarray:
    r = _Reader.of(path)
    r.magic(MAGIC_DESC)
    n, dim = r.u32(), r.u32()
    if n < 1 or dim < 1:
        raise FormatError(f"{path}: bad descriptor counts {n}x{dim}", offset=8)
    out = r.f32_array(n * dim).reshape(n, dim)
    r.done()
    return out


def write_sidecar(path, ids, place_ids) -> None:
    lines = ["id,place_id"] + [f"{i},{p}" for i, p in zip(ids, place_ids)]
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_sidecar(path) -> tuple[list[str], list[int]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(ln, text.strip()) for ln, text in enumerate(fh, start=1) if text.strip()]
    if not lines or lines[0][1] != "id,place_id":
        raise FormatError(f"{path}: sidecar must start with header 'id,place_id'")
    ids, places = [], []
    for ln, text in lines[1:]:
        try:
            i, p = text.split(",", 1)     # unpacking fails without a comma
            places.append(int(p))
        except ValueError:
            raise FormatError(f"{path}: line {ln}: expected 'id,place_id', got {text!r}") from None
        ids.append(i)
    return ids, places


# checkpoints -------------------------------------------------------------

def write_checkpoint(path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    cfg = json.dumps(config, sort_keys=True).encode()
    parts = [MAGIC_CKPT, struct.pack("<II", VERSION, len(cfg)), cfg]
    for name, arr in tensors.items():
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    _atomic_write(path, b"".join(parts))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    r = _Reader.of(path)
    r.magic(MAGIC_CKPT)
    clen = r.u32()
    try:
        config = json.loads(r.take(clen).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: bad config block: {e}", offset=12) from None
    tensors: dict[str, np.ndarray] = {}
    while not r.eof:
        at = r.pos
        raw = r.take(r.u32())
        try:
            name = raw.decode()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: tensor name is not UTF-8: {raw!r}",
                              offset=at + 4 + e.start) from None
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name!r}", offset=at)
        rank = r.u32()
        if rank > 8:
            raise FormatError(f"{path}: implausible rank {rank}", offset=at)
        shape = tuple(r.u32() for _ in range(rank))
        n = 1
        for e in shape:
            n *= e
        arr = r.f64_array(n).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values", offset=at)
        tensors[name] = arr
    return config, tensors
