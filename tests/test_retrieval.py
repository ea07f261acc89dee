"""Index, nearest-neighbor ranking, and Recall@N scoring."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placerec import retrieval
from placerec.errors import FormatError, ValidationError
from placerec.retrieval import (
    EvalResult,
    build_index,
    evaluate_files,
    first_correct_ranks,
    knn,
    read_gt_places,
    recall_at_n,
    write_ranks_csv,
    write_recall_csv,
)


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_force_knn(ids, matrix, query, k, exclude_id=None):
    """Score every row, sort by (-score, id) with plain python."""
    scored = [
        (float(row @ query), iid)
        for iid, row in zip(ids, matrix)
        if iid != exclude_id
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [iid for _, iid in scored[:k]]


def test_knn_hand_case():
    ids = ["a", "b", "c"]
    mat = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    idx = build_index(ids, mat)
    assert knn(idx, np.array([1.0, 0.0]), k=2) == ["a", "c"]


def test_knn_tie_breaks_by_ascending_id(rng):
    v = unit_rows(rng, 1, 4)[0]
    idx = build_index(["z", "m", "a"], np.stack([v, v, v]))
    assert knn(idx, v, k=3) == ["a", "m", "z"]


def test_knn_excludes_query_id(rng):
    mat = unit_rows(rng, 4, 8)
    idx = build_index(["a", "b", "c", "d"], mat)
    out = knn(idx, mat[1], k=3, exclude_id="b")
    assert "b" not in out and len(out) == 3


def test_knn_k_bounds(rng):
    idx = build_index(["a", "b"], unit_rows(rng, 2, 4))
    with pytest.raises(ValidationError):
        knn(idx, np.ones(4) / 2.0, k=3)
    with pytest.raises(ValidationError):
        knn(idx, np.ones(4) / 2.0, k=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_knn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, d = 20, 8
    ids = [f"img{i:03d}" for i in rng.permutation(n)]
    mat = unit_rows(rng, n, d)
    idx = build_index(ids, mat)
    q = unit_rows(rng, 1, d)[0]
    k = int(rng.integers(1, n + 1))
    assert knn(idx, q, k) == brute_force_knn(ids, mat, q, k)


def test_build_index_validation(rng):
    with pytest.raises(ValidationError):
        build_index(["a", "a"], unit_rows(rng, 2, 4))
    with pytest.raises(ValidationError):
        build_index(["a", "b"], np.ones((2, 4)))  # rows not unit norm
    with pytest.raises(ValidationError):
        build_index(["a"], unit_rows(rng, 2, 4))


def test_build_index_rejects_nan_row(rng):
    mat = unit_rows(rng, 3, 4)
    mat[1, 2] = np.nan
    with pytest.raises(ValidationError, match="'b'"):
        build_index(["a", "b", "c"], mat)


# batched ranking ---------------------------------------------------------------

def brute_force_ranks(q_ids, q_mat, q_places, db_ids, db_mat, db_places):
    """Sort every candidate by (-score, id) in plain python; own id excluded."""
    s = q_mat @ db_mat.T
    ranks = []
    for i, (qid, pl) in enumerate(zip(q_ids, q_places)):
        order = sorted((-s[i, j], db_ids[j], db_places[j])
                       for j in range(len(db_ids)) if db_ids[j] != qid)
        ranks.append(next(r for r, (_, _, p) in enumerate(order, start=1) if p == pl))
    return ranks


@st.composite
def ranking_cases(draw):
    """Db rows drawn from a small palette, so scores tie exactly; queries are
    either db images (self-exclusion) or images absent from the db."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 24))
    dim = draw(st.integers(2, 5))
    palette = unit_rows(rng, draw(st.integers(1, 4)), dim)
    db_mat = palette[rng.integers(0, len(palette), size=n)]
    db_ids = [f"d{j:02d}" for j in rng.permutation(n)]
    db_places = rng.integers(0, draw(st.integers(1, 4)), size=n).tolist()
    q_ids, q_places, q_rows = [], [], []
    for i in range(draw(st.integers(1, 12))):
        j = int(rng.integers(0, n))
        if rng.random() < 0.5 and db_places.count(db_places[j]) > 1:
            q_ids.append(db_ids[j])
            q_rows.append(db_mat[j])
        else:
            q_ids.append(f"q{i:02d}")
            q_rows.append(palette[rng.integers(0, len(palette))])
        q_places.append(db_places[j])
    return q_ids, np.array(q_rows), q_places, db_ids, db_mat, db_places


@settings(max_examples=200, deadline=None)
@given(ranking_cases(), st.integers(1, 5))
def test_batched_ranks_match_brute_force_lexsort(case, block):
    q_ids, q_mat, q_places, db_ids, db_mat, db_places = case
    index = build_index(db_ids, db_mat, db_places)
    want = brute_force_ranks(q_ids, q_mat, q_places, db_ids, db_mat, db_places)
    assert first_correct_ranks(index, q_ids, q_mat, q_places).tolist() == want
    with mock.patch.object(retrieval, "RANK_BLOCK", block):
        assert first_correct_ranks(index, q_ids, q_mat, q_places).tolist() == want


def test_batched_ranks_match_knn_path(rng):
    n, dim = 40, 8
    db = unit_rows(rng, n, dim)
    db[5] = db[4]                       # a forced tie
    db_ids = [f"i{j:02d}" for j in rng.permutation(n)]
    db_places = [j // 4 for j in range(n)]
    q_ids = db_ids[:10] + ["new0", "new1"]
    q_mat = np.vstack([db[:10], unit_rows(rng, 2, dim)])
    q_places = db_places[:10] + [3, 7]
    index = build_index(db_ids, db, db_places)
    ranked = [knn(index, q, n - (iid in db_ids), exclude_id=iid) for iid, q in zip(q_ids, q_mat)]
    gt = [{d for d, p in zip(db_ids, db_places) if p == pl} - {iid}
          for iid, pl in zip(q_ids, q_places)]
    assert first_correct_ranks(index, q_ids, q_mat, q_places).tolist() == \
        recall_at_n(ranked, gt, (1,)).ranks


def test_batched_ranks_validation(rng):
    index = build_index(["a", "b"], unit_rows(rng, 2, 4), [0, 1])
    with pytest.raises(ValidationError, match="no database positives"):
        first_correct_ranks(index, ["a"], unit_rows(rng, 1, 4), [0])   # only itself
    bad = unit_rows(rng, 2, 4)
    bad[1, 0] = np.inf
    with pytest.raises(ValidationError, match="not finite"):
        first_correct_ranks(index, ["x", "y"], bad, [0, 1])
    with pytest.raises(ValidationError, match="dim"):
        first_correct_ranks(index, ["x"], unit_rows(rng, 1, 3), [0])


# recall ----------------------------------------------------------------------

def test_recall_hand_fixture():
    """3 queries: correct at rank 1, rank 3, and never."""
    ranked = [
        ["x", "y", "z"],
        ["y", "z", "x"],
        ["y", "z", "w"],
    ]
    gt = [{"x"}, {"x"}, {"q"}]
    res = recall_at_n(ranked, gt, ns=(1, 3))
    assert res.recall_at[1] == pytest.approx(100.0 / 3)
    assert res.recall_at[3] == pytest.approx(200.0 / 3)
    assert res.ranks == [1, 3, None]


def test_recall_monotone_in_n(rng):
    ids = [f"i{j}" for j in range(10)]
    ranked = [list(rng.permutation(ids)) for _ in range(6)]
    gt = [{ids[int(rng.integers(0, 10))]} for _ in range(6)]
    res = recall_at_n(ranked, gt, ns=(1, 2, 5, 10))
    vals = [res.recall_at[n] for n in (1, 2, 5, 10)]
    assert vals == sorted(vals)
    assert res.recall_at[10] == 100.0


def test_recall_validation():
    with pytest.raises(ValidationError):
        recall_at_n([["a"]], [set()], ns=(1,))
    with pytest.raises(ValidationError):
        recall_at_n([["a"]], [{"a"}, {"a"}], ns=(1,))
    with pytest.raises(ValidationError):
        recall_at_n([], [], ns=(1,))


def test_eval_result_lines():
    res = EvalResult(recall_at={1: 50.0, 5: 100.0}, ranks=[1, None])
    assert res.lines() == ["R@1 50.00", "R@5 100.00"]


# file-level evaluation --------------------------------------------------------

def _write_descriptor_files(tmp_path, rng, dim=8):
    from placerec.fileformats import write_descriptors, write_sidecar

    db = unit_rows(rng, 6, dim)
    q = db[:3] .copy()  # queries identical to first three db rows
    db_ids = [f"db{i}" for i in range(6)]
    q_ids = [f"q{i}" for i in range(3)]
    write_descriptors(tmp_path / "db.edtd", db)
    write_sidecar(str(tmp_path / "db.edtd") + ".csv", db_ids, [0, 1, 2, 3, 4, 5])
    write_descriptors(tmp_path / "q.edtd", q)
    write_sidecar(str(tmp_path / "q.edtd") + ".csv", q_ids, [0, 1, 2])
    gt = tmp_path / "gt.csv"
    lines = ["id,place_id"] + [f"db{i},{i}" for i in range(6)] + [f"q{i},{i}" for i in range(3)]
    gt.write_text("\n".join(lines) + "\n")
    return tmp_path / "q.edtd", tmp_path / "db.edtd", gt


def test_evaluate_files_perfect_match(tmp_path, rng):
    qp, dbp, gt = _write_descriptor_files(tmp_path, rng)
    res = evaluate_files(qp, dbp, gt, ns=(1, 5))
    assert res.recall_at[1] == 100.0
    assert res.recall_at[5] == 100.0


def test_evaluate_files_dim_mismatch(tmp_path, rng):
    from placerec.fileformats import write_descriptors, write_sidecar

    qp, dbp, gt = _write_descriptor_files(tmp_path, rng)
    write_descriptors(tmp_path / "bad.edtd", unit_rows(rng, 3, 4))
    write_sidecar(str(tmp_path / "bad.edtd") + ".csv", ["q0", "q1", "q2"], [0, 1, 2])
    with pytest.raises(FormatError):
        evaluate_files(tmp_path / "bad.edtd", dbp, gt, ns=(1,))


@pytest.mark.parametrize("which", ["db", "query"])
def test_evaluate_files_rejects_nan_rows(tmp_path, rng, which):
    from placerec.fileformats import read_descriptors, write_descriptors

    qp, dbp, gt = _write_descriptor_files(tmp_path, rng)
    path = dbp if which == "db" else qp
    rows = read_descriptors(path)
    rows[1, 0] = np.nan
    write_descriptors(path, rows)
    with pytest.raises(ValidationError, match="row"):
        evaluate_files(qp, dbp, gt, ns=(1,))


def test_read_gt_places_accepts_manifest_and_sidecar_headers(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("image_id,place_id,split\nx,3,db\n")
    assert read_gt_places(a) == {"x": 3}
    b = tmp_path / "b.csv"
    b.write_text("id,place_id\ny,4\n")
    assert read_gt_places(b) == {"y": 4}
    c = tmp_path / "c.csv"
    c.write_text("foo,bar\ny,4\n")
    with pytest.raises(ValidationError):
        read_gt_places(c)


def test_read_gt_places_huge_field_gives_a_short_message(tmp_path):
    """A 100,000-digit place id, under the csv module's field limit, is
    echoed cut short, with the file and line."""
    p = tmp_path / "gt.csv"
    p.write_text(f"id,place_id\ny,4\nz,{'1' * 100_000}\n")
    with pytest.raises(ValidationError) as exc:
        read_gt_places(p)
    msg = str(exc.value)
    assert len(msg) < 200 + len(str(p)), len(msg)
    assert str(p) in msg and "line 3" in msg


def test_evaluate_files_huge_missing_id_gives_a_short_message(tmp_path, rng):
    from placerec.fileformats import write_descriptors, write_sidecar

    huge = "q" * 200_000
    for name, iid in (("q", huge), ("db", "d")):
        write_descriptors(tmp_path / f"{name}.edtd", unit_rows(rng, 1, 4))
        write_sidecar(str(tmp_path / f"{name}.edtd") + ".csv", [iid], [1])
    gt = tmp_path / "gt.csv"
    gt.write_text("id,place_id\nd,1\n")
    with pytest.raises(ValidationError) as exc:
        evaluate_files(tmp_path / "q.edtd", tmp_path / "db.edtd", gt, ns=(1,))
    msg = str(exc.value)
    assert len(msg) < 200 + len(str(gt)), len(msg)
    assert str(gt) in msg and "missing from ground truth" in msg


def test_report_csvs(tmp_path):
    res = EvalResult(recall_at={1: 50.0, 5: 100.0}, ranks=[1, None])
    write_recall_csv(tmp_path / "r.csv", res)
    assert (tmp_path / "r.csv").read_text() == "N,recall\n1,50.0000\n5,100.0000\n"
    write_ranks_csv(tmp_path / "ranks.csv", ["q0", "q1"], res)
    assert (tmp_path / "ranks.csv").read_text() == (
        "id,first_correct_rank\nq0,1\nq1,\n")
