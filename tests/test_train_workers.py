"""Training on two processes: every batch split into two fixed shards, one per
process, with the log, the checkpoint and the errors of one process."""
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from placerec import cli, fanout, training
from placerec.autodiff import Tensor
from placerec.cli import main
from placerec.config import run_config_from_dict
from placerec.model import build_model, trainable_params
from placerec.synth import BatchSampler, read_manifest

TINY_RUN = {
    "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
    "lopa": {"rank": 2},
    "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
    "train": {"epochs": 2, "P": 3, "K": 2},
}
# an odd batch, P=3 x K=3: shards of 4 and 5 rows. A descriptor row holds
# 128 x 65 = 8320 floats, 66,560 bytes: wider than a 64 KiB pipe
WIDE_ODD_RUN = {**TINY_RUN,
                "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 128, "M_out": 65},
                "train": {"epochs": 2, "P": 3, "K": 3}}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """6 places with 4 train views each, at 8 px."""
    root = tmp_path_factory.mktemp("train_workers")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({"places": 6, "views_per_place": 6, "image_size": 8}))
    data = str(root / "corpus")
    assert main(["synth", "--config", str(synth_cfg), "--out", data]) == 0
    return data


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(training, "_workers", lambda: workers)


def _train(data, run, tmp_path, name) -> tuple:
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(run))
    out = tmp_path / name
    return main(["train", "--config", str(cfg), "--data", data, "--out", str(out)]), out


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


@pytest.mark.parametrize("run", [TINY_RUN, WIDE_ODD_RUN], ids=["tiny", "wide_odd"])
def test_two_processes_write_the_files_of_one(monkeypatch, corpus, tmp_path, run):
    forks = _count_forks(monkeypatch)
    outs = []
    for workers in (1, 2):
        _set_workers(monkeypatch, workers)
        rc, out = _train(corpus, run, tmp_path, f"w{workers}")
        assert rc == 0
        outs.append(out)
    assert len(forks) == 1                       # one replica, for the whole run
    for name in ("train.log", "model.edtc"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert len((outs[0] / "train.log").read_text().splitlines()) == 4


def test_dead_replica_fails_cli_train(monkeypatch, corpus, tmp_path, capsys):
    swap = fanout.Peer.swap

    def dying_swap(peer, mine, theirs):
        if peer.rank == 1:
            os._exit(3)
        return swap(peer, mine, theirs)

    monkeypatch.setattr(fanout.Peer, "swap", dying_swap)
    _set_workers(monkeypatch, 2)
    capsys.readouterr()
    rc, out = _train(corpus, TINY_RUN, tmp_path, "dead")
    assert rc == 2
    captured = capsys.readouterr()
    line = _one_error_line(captured.err)
    assert re.search(r"train replica 1 died without a report \(exit code 3\)", line), line
    assert "step=" not in captured.out
    assert not (out / "model.edtc").exists()


def _failed_runs(monkeypatch, corpus, tmp_path, capsys, run=TINY_RUN) -> list:
    """(exit code, error line, trainable values after) for 1 and 2 processes."""
    built = []

    def build(cfg):
        built.append(build_model(cfg))
        return built[-1]

    monkeypatch.setattr(cli, "build_model", build)
    runs = []
    for workers in (1, 2):
        _set_workers(monkeypatch, workers)
        capsys.readouterr()
        rc, out = _train(corpus, run, tmp_path, f"fail{workers}")
        captured = capsys.readouterr()
        assert "step=" not in captured.out
        assert not (out / "model.edtc").exists()
        runs.append((rc, _one_error_line(captured.err),
                     [p.value.data for p in trainable_params(built[-1])]))
    return runs


def _assert_no_parameter_moved(runs, run=TINY_RUN):
    init = trainable_params(build_model(run_config_from_dict(run)))
    for _, _, values in runs:
        for p, v in zip(init, values):
            np.testing.assert_array_equal(v, p.value.data)


def test_non_finite_loss_same_error_for_two_processes(monkeypatch, corpus, tmp_path, capsys):
    monkeypatch.setattr(training, "ms_loss", lambda s, mining, cfg: Tensor(np.inf))
    runs = _failed_runs(monkeypatch, corpus, tmp_path, capsys)
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][0] == 2
    assert "training loss is not finite (inf)" in runs[0][1]
    _assert_no_parameter_moved(runs)


def test_non_finite_descriptor_same_error_for_two_processes(monkeypatch, corpus, tmp_path,
                                                            capsys):
    describe = training.describe_stack

    def nan_first_row(model, layers):
        out = describe(model, layers)
        out.data[0] = np.nan                     # the first row of each shard
        return out

    monkeypatch.setattr(training, "describe_stack", nan_first_row)
    runs = _failed_runs(monkeypatch, corpus, tmp_path, capsys)
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][0] == 1
    assert "descriptor row 0 has norm nan" in runs[0][1]
    _assert_no_parameter_moved(runs)


def test_replica_error_is_the_one_a_single_process_raises(monkeypatch, corpus, tmp_path,
                                                          capsys):
    """A truncated image in shard 1 of the first batch: the replica meets it,
    and the run fails as one process fails, naming that file."""
    data = tmp_path / "corpus"
    data.mkdir()
    for f in Path(corpus).iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    cfg = run_config_from_dict(TINY_RUN).train
    sampler = BatchSampler(read_manifest(data / "manifest.csv"), cfg.p, cfg.k,
                           np.random.default_rng(cfg.seed))
    ids, _ = next(sampler.epoch())
    broken = data / (ids[-1] + ".edti")
    broken.write_bytes(broken.read_bytes()[:20])
    runs = _failed_runs(monkeypatch, str(data), tmp_path, capsys)
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][0] == 1
    assert f"{ids[-1]}.edti: truncated" in runs[0][1]
    _assert_no_parameter_moved(runs)


def test_only_this_process_logs(monkeypatch, corpus, tmp_path):
    """Every log call, and every step of the returned history, is this
    process's; the replica logs nothing."""
    from placerec.loss import LossConfig
    from placerec.training import Trainer

    rc = run_config_from_dict(TINY_RUN)
    path = tmp_path / "log.txt"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        trainer = Trainer(build_model(rc), read_manifest(Path(corpus, "manifest.csv")), corpus,
                          LossConfig(), rc.train,
                          log=lambda line: os.write(fd, f"{os.getpid()} {line}\n".encode()))
        _set_workers(monkeypatch, 2)
        history = trainer.run()
    finally:
        os.close(fd)
    lines = path.read_text().splitlines()
    assert len(lines) == len(history) == 4
    assert {line.split()[0] for line in lines} == {str(os.getpid())}
