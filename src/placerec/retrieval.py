"""Exhaustive nearest-neighbor retrieval and Recall@N scoring.

Descriptors are unit rows, so inner product is cosine similarity; search is
a full matrix product with a deterministic tie-break by ascending id. At
desk scale ground truth is place_id equality, with a query's own image id
excluded from its candidates when the splits overlap. Scoring ranks every
query at once from blocks of one similarity GEMM; `knn` is the single-query
top-k view of the same order.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import fileformats
from .errors import FormatError, NumericalError, ValidationError
from .fanout import fan_out as _fan_out
from .fanout import workers as _workers
from .model import DescriptorModel, describe_stack, feature_stack, stack_images
from .synth import Manifest, load_image


@dataclass
class DescriptorIndex:
    ids: list
    matrix: np.ndarray
    place_ids: list = None
    # tie-break key: each row's position in ascending id order
    id_rank: np.ndarray = field(init=False, repr=False)
    row_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.id_rank = _id_rank(self.ids)
        self.row_of = {iid: j for j, iid in enumerate(self.ids)}


def _id_rank(ids) -> np.ndarray:
    order = np.argsort(np.asarray(ids), kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


def build_index(ids, matrix, place_ids=None) -> DescriptorIndex:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValidationError(
            f"index matrix {matrix.shape} does not match {len(ids)} ids")
    if len(set(ids)) != len(ids):
        raise ValidationError("index ids must be unique")
    norms = np.linalg.norm(matrix, axis=1)
    bad = ~(np.abs(norms - 1.0) <= 1e-5)        # NaN rows fail too
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"index row {ids[i]!r} has norm {norms[i]:.8f}, expected 1")
    if place_ids is not None and len(place_ids) != len(ids):
        raise ValidationError("place_ids must align with ids")
    return DescriptorIndex(list(ids), matrix, list(place_ids) if place_ids is not None else None)


def knn(index: DescriptorIndex, query, k: int, exclude_id=None) -> list:
    """Top-k ids by descending inner product; ties broken by ascending id."""
    n = len(index.ids)
    if n == 0:
        raise ValidationError("knn over an empty index")
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.matrix.shape[1]:
        raise ValidationError(
            f"query dim {q.shape[0]} != index dim {index.matrix.shape[1]}")
    rows = np.arange(n)
    if exclude_id in index.row_of:
        rows = np.delete(rows, index.row_of[exclude_id])
    if not 1 <= k <= len(rows):
        raise ValidationError(f"k={k} out of range for {len(rows)} candidates")
    scores = index.matrix[rows] @ q
    order = np.lexsort((index.id_rank[rows], -scores))
    return [index.ids[j] for j in rows[order[:k]]]


@dataclass
class EvalResult:
    recall_at: dict                       # N -> percentage
    ranks: list = field(default_factory=list)  # per-query first-correct rank or None

    def lines(self) -> list:
        return [f"R@{n} {self.recall_at[n]:.2f}" for n in sorted(self.recall_at)]


def _recall(ranks, ns) -> EvalResult:
    """Recall@N (percent of queries whose first-correct rank is <= N)."""
    if not ranks:
        raise ValidationError("no queries to score")
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise ValidationError(f"recall cutoffs must be >= 1, got {ns}")
    q = len(ranks)
    recall = {n: 100.0 * sum(1 for r in ranks if r is not None and r <= n) / q for n in ns}
    return EvalResult(recall_at=recall, ranks=ranks)


def recall_at_n(ranked, gt, ns) -> EvalResult:
    """ranked: per-query candidate id lists; gt: per-query positive id sets."""
    if len(ranked) != len(gt):
        raise ValidationError(f"{len(ranked)} ranked lists vs {len(gt)} ground-truth sets")
    ranks = []
    for cand, pos in zip(ranked, gt):
        if not pos:
            raise ValidationError("query with empty ground-truth positive set")
        first = None
        for i, cid in enumerate(cand):
            if cid in pos:
                first = i + 1
                break
        ranks.append(first)
    return _recall(ranks, ns)


def extract_descriptors(model: DescriptorModel, manifest: Manifest, data_dir,
                        split: str, chunk: int = 32):
    """Descriptors for one split: (ids, (n, D) matrix, place_ids).

    Each chunk of images is one batched encoder pass and one describe call.
    Chunks are dealt round-robin to one process per CPU (at most one per
    chunk; a one-chunk split runs here without forking), each loading and
    describing its own; the rows come back in manifest order and any error
    is the one a single process would have raised first. A non-finite
    descriptor row raises NumericalError naming its image.
    """
    rows = manifest.split_rows(split)
    if not rows:
        raise ValidationError(f"split {split!r} is empty")
    if chunk < 1:
        raise ValidationError(f"chunk must be >= 1, got {chunk}")
    ids = [r.image_id for r in rows]
    place_ids = [r.place_id for r in rows]
    starts = range(0, len(ids), chunk)
    n = min(_workers(), len(starts))

    def share(k):
        out = []
        for i in starts[k::n]:
            part = ids[i:i + chunk]
            try:
                images = stack_images([load_image(data_dir, iid) for iid in part], part)
                out.append(describe_stack(model, feature_stack(model, images)).data)
            except Exception as exc:    # fan_out re-raises the serially first one
                return out, (i, exc)
        return out, None

    shares = _fan_out(n, share, "extract_descriptors: chunk")
    # share k holds chunks k, k + n, k + 2n, ...
    matrix = np.vstack([shares[j % n][j // n] for j in range(len(starts))])
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise NumericalError(
            f"descriptor of image {ids[bad[0]]!r} is not finite ({bad.size} of {len(ids)} rows)")
    return ids, matrix, place_ids


def evaluate_model(model: DescriptorModel, manifest: Manifest, data_dir,
                   ns=(1, 5, 10)) -> EvalResult:
    """Extract db + query descriptors, search, and score Recall@N."""
    db_ids, db_mat, db_places = extract_descriptors(model, manifest, data_dir, "db")
    q_ids, q_mat, q_places = extract_descriptors(model, manifest, data_dir, "query")
    index = build_index(db_ids, db_mat, db_places)
    return _score(index, q_ids, q_mat, q_places, ns)


# query rows per similarity GEMM in first_correct_ranks
RANK_BLOCK = 256


def first_correct_ranks(index: DescriptorIndex, q_ids, q_mat, q_places) -> np.ndarray:
    """Per query, the rank of its best database positive in the full
    (descending score, ascending id) order, own id excluded.

    That rank is 1 + the number of candidates that beat the best positive,
    so no ranking is materialized: similarities come one GEMM per block of
    query rows, and memory is O(block x N).
    """
    q_mat = np.asarray(q_mat, dtype=np.float64)
    if q_mat.ndim != 2 or q_mat.shape[0] != len(q_ids):
        raise ValidationError(f"query matrix {q_mat.shape} does not match {len(q_ids)} ids")
    if q_mat.shape[1] != index.matrix.shape[1]:
        raise ValidationError(
            f"query dim {q_mat.shape[1]} != index dim {index.matrix.shape[1]}")
    finite = np.isfinite(q_mat).all(axis=1)
    if not finite.all():
        raise ValidationError(f"query row {q_ids[int(np.argmin(finite))]!r} is not finite")
    if index.place_ids is None:
        raise ValidationError("scoring needs an index built with place ids")
    n = len(index.ids)
    db_places = np.asarray(index.place_ids)
    q_places = np.asarray(q_places)
    self_row = np.array([index.row_of.get(iid, n) for iid in q_ids], dtype=np.intp)
    key = index.id_rank
    ranks = np.empty(len(q_ids), dtype=np.intp)
    for lo in range(0, len(q_ids), RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, len(q_ids))
        s = q_mat[lo:hi] @ index.matrix.T
        own = self_row[lo:hi]
        inside = own < n                  # n marks a query absent from the db
        cand = np.ones(s.shape, dtype=bool)
        cand[np.flatnonzero(inside), own[inside]] = False
        pos = cand & (q_places[lo:hi, None] == db_places[None, :])
        missing = ~pos.any(axis=1)
        if missing.any():
            i = lo + int(np.argmax(missing))
            raise ValidationError(
                f"query {q_ids[i]!r} has no database positives (place {q_places[i]})")
        best = np.where(pos, s, -np.inf).max(axis=1, keepdims=True)
        best_key = np.where(pos & (s == best), key, n).min(axis=1, keepdims=True)
        beats = (s > best) | ((s == best) & (key < best_key))
        ranks[lo:hi] = 1 + (beats & cand).sum(axis=1)
    return ranks


def _score(index: DescriptorIndex, q_ids, q_mat, q_places, ns) -> EvalResult:
    ranks = first_correct_ranks(index, q_ids, q_mat, q_places)
    return _recall(ranks.tolist(), ns)


def read_gt_places(path) -> dict:
    """id -> place_id from a manifest CSV or a descriptor sidecar CSV."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header == ["image_id", "place_id", "split"]:
            idc, plc = 0, 1
        elif header == ["id", "place_id"]:
            idc, plc = 0, 1
        else:
            raise ValidationError(
                f"ground-truth header must be image_id,place_id,split or id,place_id, got {header}")
        out = {}
        for ln, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                out[rec[idc]] = int(rec[plc])
            except (IndexError, ValueError):
                raise ValidationError(f"ground-truth line {ln}: bad record {rec!r}")
    if not out:
        raise ValidationError(f"ground-truth file {path} has no rows")
    return out


def evaluate_files(query_path, db_path, gt_path, ns=(1, 5, 10)) -> EvalResult:
    """Score saved descriptor files against a ground-truth id -> place map."""
    q_mat = fileformats.read_descriptors(query_path)
    q_ids, _ = fileformats.read_sidecar(str(query_path) + ".csv")
    db_mat = fileformats.read_descriptors(db_path)
    db_ids, _ = fileformats.read_sidecar(str(db_path) + ".csv")
    if q_mat.shape[1] != db_mat.shape[1]:
        raise FormatError(
            f"query dim {q_mat.shape[1]} != database dim {db_mat.shape[1]}")
    if q_mat.shape[0] != len(q_ids) or db_mat.shape[0] != len(db_ids):
        raise FormatError("descriptor sidecar row count does not match matrix")
    places = read_gt_places(gt_path)
    try:
        q_places = [places[i] for i in q_ids]
        db_places = [places[i] for i in db_ids]
    except KeyError as e:
        raise ValidationError(f"id {e.args[0]!r} missing from ground truth {gt_path}")
    index = build_index(db_ids, db_mat, db_places)
    return _score(index, q_ids, q_mat, q_places, ns)


def write_recall_csv(path, result: EvalResult) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["N", "recall"])
    for n in sorted(result.recall_at):
        w.writerow([n, f"{result.recall_at[n]:.4f}"])
    with open(path, "w", newline="") as f:
        f.write(buf.getvalue())


def write_ranks_csv(path, query_ids, result: EvalResult) -> None:
    if len(query_ids) != len(result.ranks):
        raise ValidationError("query ids do not align with ranks")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["id", "first_correct_rank"])
    for iid, r in zip(query_ids, result.ranks):
        w.writerow([iid, "" if r is None else r])
    with open(path, "w", newline="") as f:
        f.write(buf.getvalue())
