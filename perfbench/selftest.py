"""Show that the oracles accept the program's real output and reject bad output.

    python3 perfbench/selftest.py

Runs a small synth -> checkpoint -> extract -> evaluate in a scratch
directory under .bench_work/, checks that every oracle passes on it, then
corrupts one thing at a time (a NaN descriptor row, a row scaled off unit
norm, one altered rank, a non-finite training loss, a failed gradcheck
summary) and checks that the matching oracle fails. Exit code 0 when every
case behaves, 1 otherwise.
"""
from __future__ import annotations

import io
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from placerec import cli  # noqa: E402


def run(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"placerec {' '.join(argv)} exited {rc}")
    return out.getvalue()


def corrupt_row(src: str, dst: str, row: int, value) -> None:
    """Copy an EDTD file with one row replaced by `value` (or scaled when callable)."""
    shutil.copy(src, dst)
    shutil.copy(src + ".csv", dst + ".csv")
    mat = oracles.read_descriptor_file(src)
    mat[row] = value(mat[row]) if callable(value) else value
    with open(dst, "r+b") as fh:
        fh.seek(16)
        fh.write(mat.astype("<f4").tobytes())


def main() -> int:
    d = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    try:
        return cases(str(d))
    finally:
        shutil.rmtree(d, ignore_errors=True)


def cases(d: str) -> int:
    corpus, model = os.path.join(d, "corpus"), os.path.join(d, "model.edtc")
    run("synth", "--config", workloads.write_json(os.path.join(d, "synth.json"), {
        "places": 48, "views_per_place": 2, "seed": 5}), "--out", corpus)
    workloads.write_checkpoint(model, {})
    manifest = os.path.join(corpus, "manifest.csv")
    q, db = os.path.join(d, "query.edtd"), os.path.join(d, "db.edtd")
    run("extract", "--model", model, "--data", corpus, "--split", "query", "--out", q)
    run("extract", "--model", model, "--data", corpus, "--split", "db", "--out", db)
    text = run("evaluate", "--query", q, "--db", db, "--gt", manifest)
    ranks = os.path.join(d, "query.ranks.csv")

    bad_db, bad_ranks = os.path.join(d, "bad_db.edtd"), os.path.join(d, "bad.ranks.csv")
    with open(ranks, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    iid, rank = lines[5].split(",")
    lines[5] = f"{iid},{int(rank or 1) + 1}"
    with open(bad_ranks, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    log = os.path.join(d, "train.log")
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("step=1 epoch=1 lr=0.0001 loss=0.5 kept_pos=1 kept_neg=2 skipped=0\n"
                 "step=2 epoch=1 lr=0.0001 loss=nan kept_pos=1 kept_neg=2 skipped=0\n")

    expect = [  # (case, problems, should fail)
        ("real query descriptors", oracles.check_descriptors(q, manifest, "query"), False),
        ("real db descriptors", oracles.check_descriptors(db, manifest, "db"), False),
        ("real ranks", oracles.check_ranks(q, db, manifest, ranks, text), False),
    ]
    corrupt_row(db, bad_db, 7, np.nan)
    expect.append(("db with a NaN row", oracles.check_descriptors(bad_db, manifest, "db"), True))
    corrupt_row(db, bad_db, 3, lambda r: 1.01 * r)
    expect.append(("db row off unit norm", oracles.check_descriptors(bad_db, manifest, "db"), True))
    expect += [
        ("one altered rank", oracles.check_ranks(q, db, manifest, bad_ranks, text), True),
        ("altered printed R@1", oracles.check_ranks(
            q, db, manifest, ranks, text.replace("R@1 ", "R@1 1")), True),
        ("non-finite training loss", oracles.check_train_log(log, 2), True),
        ("failed gradcheck summary", oracles.check_gradcheck(
            "gradcheck FAIL (3 scalars): 100 scalars, max_rel_err=1e-2,", 100), True),
        ("gradcheck missing scalars", oracles.check_gradcheck(
            "gradcheck pass: 99 scalars, max_rel_err=1e-9, tol=1e-05, 1.0s", 100), True),
    ]
    bad = 0
    for case, problems, should_fail in expect:
        ok = bool(problems) == should_fail
        bad += not ok
        verdict = "ok  " if ok else "BAD "
        print(f"{verdict}{case}: {'; '.join(problems) if problems else 'passes'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
