"""Correctness checks that do not trust the program under test.

Each check reads the program's output files with its own parser (not
placerec.fileformats) and returns a list of problems; an empty list means
the output is correct. They cover what the program's own checks can miss:
a NaN descriptor row passes `build_index`, and a wrong rank would be
written to ranks.csv without complaint.
"""
from __future__ import annotations

import csv
import math
import re
import struct

import numpy as np

NORM_TOL = 1e-5        # descriptors are stored as f32, whose rounding is ~6e-8
_RECALL = re.compile(r"^R@(\d+) (\d+\.\d\d)$", re.M)
_GRADCHECK = re.compile(r"^gradcheck pass: (\d+) scalars, max_rel_err=(\S+),", re.M)
_LOSS = re.compile(r"\bloss=(\S+)")


class OracleError(ValueError):
    """An output file that cannot be parsed at all."""


def read_descriptor_file(path) -> np.ndarray:
    """EDTD: b'EDTD', u32 version 1, u32 count, u32 dim, then f32 rows (little-endian)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != b"EDTD":
        raise OracleError(f"{path}: not an EDTD file")
    version, n, dim = struct.unpack("<III", blob[4:16])
    if version != 1 or len(blob) != 16 + 4 * n * dim:
        raise OracleError(f"{path}: version {version}, {n}x{dim} does not match {len(blob)} bytes")
    return np.frombuffer(blob, dtype="<f4", offset=16).astype(np.float64).reshape(n, dim)


def read_rows(path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows or rows[0] != header:
        raise OracleError(f"{path}: header is not {','.join(header)}")
    return rows[1:]


def read_manifest(path) -> dict:
    """image id -> (place id, split)."""
    return {r[0]: (int(r[1]), r[2]) for r in read_rows(path, ["image_id", "place_id", "split"])}


def check_descriptors(desc_path, manifest_path, split: str) -> list[str]:
    """Rows finite and unit norm; sidecar lists the split's ids and places in order."""
    try:
        mat = read_descriptor_file(desc_path)
        side = read_rows(str(desc_path) + ".csv", ["id", "place_id"])
        manifest = read_manifest(manifest_path)
    except (OSError, OracleError) as exc:
        return [str(exc)]
    problems = []
    want = [(iid, str(pl)) for iid, (pl, sp) in manifest.items() if sp == split]
    if [tuple(r) for r in side] != want:
        problems.append(f"{desc_path}: sidecar does not list the {split} split in manifest order")
    if mat.shape[0] != len(side):
        problems.append(f"{desc_path}: {mat.shape[0]} rows for {len(side)} sidecar ids")
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        problems.append(f"{desc_path}: row {int(np.argmin(finite))} is not finite")
    norms = np.sqrt(np.square(np.where(np.isfinite(mat), mat, 0.0)).sum(axis=1))
    off = finite & (np.abs(norms - 1.0) > NORM_TOL)
    if off.any():
        i = int(np.argmax(off))
        problems.append(f"{desc_path}: row {i} has norm {norms[i]:.8f}, expected 1")
    return problems


def first_correct_ranks(q_mat, q_ids, q_places, db_mat, db_ids, db_places,
                        chunk: int = 256) -> list:
    """Brute force: full similarity rows, lexsort by (-score, ascending id), own id excluded."""
    id_order = np.argsort(np.asarray(db_ids), kind="stable")
    id_rank = np.empty(len(db_ids), dtype=np.intp)
    id_rank[id_order] = np.arange(len(db_ids))
    db_ids_arr, db_pl = np.asarray(db_ids), np.asarray(db_places)
    ranks = []
    for lo in range(0, len(q_ids), chunk):
        sims = q_mat[lo:lo + chunk] @ db_mat.T
        for row, iid, pl in zip(sims, q_ids[lo:lo + chunk], q_places[lo:lo + chunk]):
            keep = db_ids_arr != iid
            order = np.lexsort((id_rank[keep], -row[keep]))
            hits = np.flatnonzero(db_pl[keep][order] == pl)
            ranks.append(int(hits[0]) + 1 if hits.size else None)
    return ranks


def check_ranks(query_path, db_path, manifest_path, ranks_path, stdout: str) -> list[str]:
    """ranks.csv and the printed R@N lines against a brute-force recomputation."""
    try:
        q_mat, db_mat = read_descriptor_file(query_path), read_descriptor_file(db_path)
        q_ids = [r[0] for r in read_rows(str(query_path) + ".csv", ["id", "place_id"])]
        db_ids = [r[0] for r in read_rows(str(db_path) + ".csv", ["id", "place_id"])]
        places = {iid: pl for iid, (pl, _) in read_manifest(manifest_path).items()}
        got_rows = read_rows(ranks_path, ["id", "first_correct_rank"])
    except (OSError, OracleError) as exc:
        return [str(exc)]
    if len(q_ids) != q_mat.shape[0] or len(db_ids) != db_mat.shape[0]:
        return ["descriptor sidecars do not match their matrices"]
    want = first_correct_ranks(q_mat, q_ids, [places[i] for i in q_ids],
                               db_mat, db_ids, [places[i] for i in db_ids])
    problems = []
    if [r[0] for r in got_rows] != q_ids:
        problems.append(f"{ranks_path}: ids are not the query ids in order")
    bad = [(r[0], r[1], w) for r, w in zip(got_rows, want) if r[1] != ("" if w is None else str(w))]
    for iid, got, w in bad[:3]:
        problems.append(f"{ranks_path}: query {iid} rank {got or 'none'}, brute force gives {w}")
    if len(bad) > 3:
        problems.append(f"{ranks_path}: {len(bad) - 3} more ranks differ")
    printed = {int(n): v for n, v in _RECALL.findall(stdout)}
    if not printed:
        problems.append("evaluate printed no R@N lines")
    for n, v in printed.items():
        expect = 100.0 * sum(1 for r in want if r is not None and r <= n) / len(want)
        if v != f"{expect:.2f}":
            problems.append(f"printed R@{n} {v}, brute force gives {expect:.2f}")
    return problems


def recall_at(stdout: str, n: int) -> float:
    """The printed R@n; 0 when missing (check_ranks reports that)."""
    return float(dict(_RECALL.findall(stdout)).get(str(n), 0.0))


def check_train_log(log_path, steps: int) -> list[str]:
    """One line per step, every loss finite."""
    try:
        with open(log_path, encoding="utf-8") as fh:
            losses = [m.group(1) for m in map(_LOSS.search, fh) if m]
    except OSError as exc:
        return [str(exc)]
    problems = []
    if len(losses) != steps:
        problems.append(f"{log_path}: {len(losses)} steps logged, expected {steps}")
    bad = [v for v in losses if not math.isfinite(float(v))]
    if bad:
        problems.append(f"{log_path}: {len(bad)} non-finite losses, first {bad[0]}")
    return problems


def trainable_scalars(ckpt_path) -> int:
    """Scalars of an EDTC checkpoint outside the frozen backbone.

    EDTC: b'EDTC', u32 version, u32 config length, config JSON, then per
    tensor u32 name length, name, u32 rank, u32 extents, f64 payload.
    """
    with open(ckpt_path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"EDTC":
        raise OracleError(f"{ckpt_path}: not an EDTC file")
    pos = 12 + struct.unpack_from("<I", blob, 8)[0]
    total = 0
    while pos < len(blob):
        nlen = struct.unpack_from("<I", blob, pos)[0]
        name = blob[pos + 4:pos + 4 + nlen].decode()
        pos += 4 + nlen
        rank = struct.unpack_from("<I", blob, pos)[0]
        size = math.prod(struct.unpack_from(f"<{rank}I", blob, pos + 4))
        pos += 4 + 4 * rank + 8 * size
        if not name.startswith("backbone."):
            total += size
    if pos != len(blob):
        raise OracleError(f"{ckpt_path}: tensors overrun the file")
    return total


def check_gradcheck(stdout: str, scalars: int) -> list[str]:
    """A `pass` summary that covers every trainable scalar."""
    m = _GRADCHECK.search(stdout)
    if m is None:
        return ["gradcheck printed no pass summary"]
    if int(m.group(1)) != scalars:
        return [f"gradcheck checked {m.group(1)} scalars, the model has {scalars} trainable"]
    return []
