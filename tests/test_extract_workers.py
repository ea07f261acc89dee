"""Extraction with its chunks fanned out over forked workers: the same rows,
files and errors as one worker, and no fork for a one-chunk split."""
import json
import os
import re
import shutil
from pathlib import Path

import pytest

from placerec import retrieval, run_config_from_dict
from placerec.cli import main
from placerec.model import build_model, load_model, save_model
from placerec.retrieval import extract_descriptors
from placerec.synth import read_manifest

TINY_RUN = {
    "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
    "lopa": {"rank": 2},
    "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
}
# 100 db images: chunks of 32 start at 0, 32, 64 and 96, the last one ragged
PLACES = 100


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("workers")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({"places": PLACES, "views_per_place": 2, "image_size": 8}))
    data = str(root / "corpus")
    assert main(["synth", "--config", str(synth_cfg), "--out", data]) == 0
    model = str(root / "model.edtc")
    save_model(model, build_model(run_config_from_dict(TINY_RUN)))
    manifest = read_manifest(os.path.join(data, "manifest.csv"))
    return {"data": data, "model": model, "db": [r.image_id for r in manifest.split_rows("db")]}


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(retrieval, "_workers", lambda: workers)


def _extract(corpus, out):
    return main(["extract", "--model", corpus["model"], "--data", corpus["data"],
                 "--split", "db", "--out", out])


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def _count_forks(monkeypatch) -> list:
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_workers_give_the_serial_rows(monkeypatch, corpus):
    model = load_model(corpus["model"])
    manifest = read_manifest(os.path.join(corpus["data"], "manifest.csv"))
    results = []
    for workers, forked in ((1, 0), (3, 2), (6, 3)):     # at most one process per chunk
        _set_workers(monkeypatch, workers)
        forks = _count_forks(monkeypatch)
        results.append(extract_descriptors(model, manifest, corpus["data"], "db"))
        assert len(forks) == forked
    (ids, one, places), *rest = results
    assert ids == corpus["db"] and one.shape[0] == PLACES
    for other_ids, other, other_places in rest:
        assert other_ids == ids and other_places == places
        assert other.tobytes() == one.tobytes()


def test_workers_write_identical_files(monkeypatch, corpus, tmp_path):
    outs = []
    for workers in (1, 3):
        _set_workers(monkeypatch, workers)
        out = str(tmp_path / f"db{workers}.edtd")
        assert _extract(corpus, out) == 0
        outs.append(out)
    one, three = outs
    assert Path(three).read_bytes() == Path(one).read_bytes()
    assert Path(three + ".csv").read_bytes() == Path(one + ".csv").read_bytes()


def test_one_chunk_split_never_forks(monkeypatch, corpus):
    model = load_model(corpus["model"])
    manifest = read_manifest(os.path.join(corpus["data"], "manifest.csv"))
    _set_workers(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    _, one_chunk, _ = extract_descriptors(model, manifest, corpus["data"], "db", chunk=PLACES)
    assert forks == []
    _, chunked, _ = extract_descriptors(model, manifest, corpus["data"], "db")
    assert len(forks) == 2
    assert one_chunk.tobytes() == chunked.tobytes()


def test_dead_worker_fails_cli_extract(monkeypatch, corpus, tmp_path, capsys):
    parent, describe = os.getpid(), retrieval.describe_stack

    def dying_describe(model, stacks):
        if os.getpid() != parent:
            os._exit(3)
        return describe(model, stacks)

    monkeypatch.setattr(retrieval, "describe_stack", dying_describe)
    _set_workers(monkeypatch, 3)
    out = str(tmp_path / "db.edtd")
    capsys.readouterr()
    assert _extract(corpus, out) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert re.search(r"extract_descriptors: .*worker \d died without a report \(exit code 3\)",
                     line), line
    assert not os.path.exists(out) and not os.path.exists(out + ".csv")


def test_corrupt_images_report_the_serially_first(monkeypatch, corpus, tmp_path, capsys):
    """Truncated images in chunk 2 (worker 2 of 3, worker 0 of 2) and chunk 3
    (the parent's share of 3, worker 1 of 2): every worker count names the
    chunk-2 file, as one worker does."""
    data = str(tmp_path / "corpus")
    shutil.copytree(corpus["data"], data)
    for iid in (corpus["db"][70], corpus["db"][97]):
        path = Path(data, iid + ".edti")
        path.write_bytes(path.read_bytes()[:20])
    broken = {**corpus, "data": data}
    lines = []
    for workers in (1, 2, 3):
        _set_workers(monkeypatch, workers)
        out = str(tmp_path / f"db{workers}.edtd")
        capsys.readouterr()
        assert _extract(broken, out) == 1
        lines.append(_one_error_line(capsys.readouterr().err))
        assert not os.path.exists(out) and not os.path.exists(out + ".csv")
    assert lines[0] == lines[1] == lines[2]
    assert corpus["db"][70] + ".edti: truncated" in lines[0]
