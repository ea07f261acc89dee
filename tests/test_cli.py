"""CLI subcommands: end-to-end happy path on a tiny corpus, exit codes, reports."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import placerec
from placerec.cli import main
from placerec.fileformats import read_descriptors, read_sidecar, write_descriptors, write_sidecar

TINY_RUN = {
    "backbone": {"image_size": 8, "patch_size": 4, "d": 16, "depth": 2, "heads": 2},
    "lopa": {"rank": 2},
    "aggregator": {"L_dec": 1, "M": 4, "heads": 2, "d_out": 4, "M_out": 4},
    "train": {"epochs": 2, "P": 3, "K": 2},
}
TINY_SYNTH = {"places": 6, "views_per_place": 4, "image_size": 8}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Tiny corpus, trained checkpoint, extracted splits, evaluation reports."""
    root = tmp_path_factory.mktemp("cli")
    run_cfg = root / "run.json"
    synth_cfg = root / "synth.json"
    run_cfg.write_text(json.dumps(TINY_RUN))
    synth_cfg.write_text(json.dumps(TINY_SYNTH))
    data = str(root / "corpus")
    out = str(root / "out")

    assert main(["synth", "--config", str(synth_cfg), "--out", data]) == 0
    assert main(["train", "--config", str(run_cfg), "--data", data, "--out", out]) == 0
    model = os.path.join(out, "model.edtc")
    db = os.path.join(out, "db.edtd")
    query = os.path.join(out, "query.edtd")
    for split, path in (("db", db), ("query", query)):
        assert main(["extract", "--model", model, "--data", data,
                     "--split", split, "--out", path]) == 0
    gt = os.path.join(data, "manifest.csv")
    assert main(["evaluate", "--query", query, "--db", db, "--gt", gt, "--n", "1,5"]) == 0
    return {"root": root, "run_cfg": str(run_cfg), "synth_cfg": str(synth_cfg),
            "data": data, "out": out, "model": model, "db": db, "query": query, "gt": gt}


def test_synth_layout(ws):
    manifest = os.path.join(ws["data"], "manifest.csv")
    lines = Path(manifest).read_text().splitlines()
    assert lines[0] == "image_id,place_id,split"
    assert len(lines) == 1 + 6 * 4
    first_image = lines[1].split(",")[0]
    assert os.path.exists(os.path.join(ws["data"], first_image + ".edti"))


def test_synth_deterministic(ws, tmp_path):
    again = str(tmp_path / "corpus2")
    assert main(["synth", "--config", ws["synth_cfg"], "--out", again]) == 0
    a = Path(os.path.join(ws["data"], "manifest.csv")).read_bytes()
    b = Path(os.path.join(again, "manifest.csv")).read_bytes()
    assert a == b
    name = a.decode().splitlines()[1].split(",")[0] + ".edti"
    assert (Path(os.path.join(ws["data"], name)).read_bytes()
            == Path(os.path.join(again, name)).read_bytes())


def test_train_artifacts(ws):
    assert os.path.exists(ws["model"])
    log_lines = Path(os.path.join(ws["out"], "train.log")).read_text().splitlines()
    # 2 epochs x 2 batches of P=3 places
    assert len(log_lines) == 4
    for line in log_lines:
        fields = dict(part.split("=") for part in line.split())
        assert {"epoch", "step", "lr", "loss", "kept_pos", "kept_neg", "skipped"} <= set(fields)
        float(fields["loss"])


def test_extract_artifacts(ws):
    mat = read_descriptors(ws["db"])
    assert mat.shape == (6, 16)  # one db view per place, d_out * M_out
    np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-6)
    ids, places = read_sidecar(ws["db"] + ".csv")
    assert len(ids) == 6
    assert sorted(places) == list(range(6))


def test_extract_deterministic(ws, tmp_path):
    again = str(tmp_path / "again.edtd")
    assert main(["extract", "--model", ws["model"], "--data", ws["data"],
                 "--split", "db", "--out", again]) == 0
    assert Path(ws["db"]).read_bytes() == Path(again).read_bytes()


def test_evaluate_reports(ws, capsys):
    assert main(["evaluate", "--query", ws["query"], "--db", ws["db"],
                 "--gt", ws["gt"], "--n", "1,5"]) == 0
    out = capsys.readouterr().out
    assert "R@1 " in out and "R@5 " in out

    stem = ws["query"][: -len(".edtd")]
    recall = Path(stem + ".recall.csv").read_text().splitlines()
    assert recall[0] == "N,recall"
    assert [row.split(",")[0] for row in recall[1:]] == ["1", "5"]
    ranks = Path(stem + ".ranks.csv").read_text().splitlines()
    assert ranks[0] == "id,first_correct_rank"
    assert len(ranks) == 1 + 6


def test_evaluate_single_cutoff(ws, capsys):
    assert main(["evaluate", "--query", ws["query"], "--db", ws["db"],
                 "--gt", ws["gt"], "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "R@3 " in out and "R@1 " not in out


def test_evaluate_bad_cutoffs(ws, capsys):
    assert main(["evaluate", "--query", ws["query"], "--db", ws["db"],
                 "--gt", ws["gt"], "--n", "1,x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_dim_mismatch(ws, tmp_path, capsys):
    bad = str(tmp_path / "bad.edtd")
    mat = np.ones((2, 8)) / np.sqrt(8.0)
    write_descriptors(bad, mat)
    write_sidecar(bad + ".csv", ["p0000_v03", "p0001_v03"], [0, 1])
    assert main(["evaluate", "--query", bad, "--db", ws["db"], "--gt", ws["gt"]]) == 1
    assert "error:" in capsys.readouterr().err


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.mark.parametrize("which", ["db", "query"])
def test_evaluate_nan_row_exits_1(ws, tmp_path, capsys, which):
    paths = {}
    for split in ("db", "query"):
        paths[split] = str(tmp_path / f"{split}.edtd")
        mat = read_descriptors(ws[split])
        if split == which:
            mat[0, 0] = np.nan
        write_descriptors(paths[split], mat)
        ids, places = read_sidecar(ws[split] + ".csv")
        write_sidecar(paths[split] + ".csv", ids, places)
    capsys.readouterr()
    assert main(["evaluate", "--query", paths["query"], "--db", paths["db"],
                 "--gt", ws["gt"]]) == 1
    want = "has norm nan" if which == "db" else "is not finite"
    assert want in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("record", ["p0000_v03,x", "p0000_v03"])
def test_evaluate_bad_sidecar_exits_1(ws, tmp_path, capsys, record):
    q = str(tmp_path / "q.edtd")
    write_descriptors(q, read_descriptors(ws["query"])[:2])
    with open(q + ".csv", "w") as fh:
        fh.write(f"id,place_id\np0001_v03,1\n{record}\n")
    capsys.readouterr()
    assert main(["evaluate", "--query", q, "--db", ws["db"], "--gt", ws["gt"]]) == 1
    assert "line 3" in _one_error_line(capsys.readouterr().err)


_TEXT_FILES = {
    "manifest": b"image_id,place_id,split\np0001_v03,1,db\np0000_v03,%s,db\n",
    "sidecar": b"id,place_id\np0001_v03,1\np0000_v03,%s\n",
    "gt": b"id,place_id\np0001_v03,1\np0000_v03,%s\n",
}


@pytest.mark.parametrize("field", [b"0\xff", b"1" * 200_000], ids=["bad-utf8", "oversized"])
@pytest.mark.parametrize("which", list(_TEXT_FILES))
def test_bad_text_file_exits_1(ws, tmp_path, capsys, which, field):
    """Line 3 is not UTF-8 or holds a field over the csv module's size limit:
    each text reader reports it as one error naming the line."""
    bad = _TEXT_FILES[which] % field
    if which == "manifest":
        (tmp_path / "manifest.csv").write_bytes(bad)
        argv = ["extract", "--model", ws["model"], "--data", str(tmp_path),
                "--split", "db", "--out", str(tmp_path / "x.edtd")]
    else:
        q, gt = str(tmp_path / "q.edtd"), tmp_path / "gt.csv"
        write_descriptors(q, read_descriptors(ws["query"])[:2])
        Path(q + ".csv").write_bytes(bad if which == "sidecar" else _TEXT_FILES["sidecar"] % b"0")
        gt.write_bytes(bad if which == "gt" else Path(ws["gt"]).read_bytes())
        argv = ["evaluate", "--query", q, "--db", ws["db"], "--gt", str(gt)]
    capsys.readouterr()
    assert main(argv) == 1
    assert "line 3" in _one_error_line(capsys.readouterr().err)


def test_extract_nan_checkpoint_exits_1(ws, tmp_path, capsys):
    from placerec.fileformats import read_checkpoint, write_checkpoint

    cfg, tensors = read_checkpoint(ws["model"])
    tensors["agg.head_w3"] = tensors["agg.head_w3"] * np.nan
    model = str(tmp_path / "nan.edtc")
    write_checkpoint(model, cfg, tensors)
    out = str(tmp_path / "db.edtd")
    capsys.readouterr()
    assert main(["extract", "--model", model, "--data", ws["data"],
                 "--split", "db", "--out", out]) == 1
    assert "'agg.head_w3' holds non-finite values" in _one_error_line(capsys.readouterr().err)
    assert not os.path.exists(out) and not os.path.exists(out + ".csv")


def test_extract_zero_head_exits_2_without_a_warning(ws, tmp_path, capsys):
    """All-zero head weights give a zero descriptor, which has no direction:
    one error line and exit 2, and the float32 kernels' 0/0 raises no
    RuntimeWarning on the way."""
    from placerec.fileformats import read_checkpoint, write_checkpoint

    cfg, tensors = read_checkpoint(ws["model"])
    for name in ("agg.head_w3", "agg.head_b3"):
        tensors[name] = np.zeros_like(tensors[name])
    model = str(tmp_path / "zero.edtc")
    write_checkpoint(model, cfg, tensors)
    out = str(tmp_path / "db.edtd")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["extract", "--model", model, "--data", ws["data"],
                     "--split", "db", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "is not finite" in _one_error_line(err)
    assert "RuntimeWarning" not in err
    assert not os.path.exists(out) and not os.path.exists(out + ".csv")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_train_non_finite_lr_exits_1(ws, tmp_path, capsys, literal):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN).replace('"epochs": 2', f'"epochs": 2, "lr": {literal}'))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", ws["data"], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "step=" not in captured.out
    assert "Traceback" not in captured.err
    assert _one_error_line(captured.err).startswith("error: train.lr must be a finite number")
    assert not out.exists()


def test_train_lr_beyond_ceiling_exits_1(ws, tmp_path, capsys):
    """A finite lr past the ceiling: one line naming train.lr, before any
    step could overflow."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "train": {**TINY_RUN["train"], "lr": 1e300}}))
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(cfg), "--data", ws["data"], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "step=" not in captured.out
    assert _one_error_line(captured.err) == "error: train.lr must be in [0, 1.0], got 1e+300"
    assert not out.exists()


@pytest.mark.parametrize("loss", [{"alpha": 1e-300}, {"beta": 1e6}], ids=["alpha", "beta"])
def test_one_step_train_at_loss_extremes(ws, tmp_path, capsys, monkeypatch, loss):
    """The loss runs in float64 on the float32 shards' descriptors: at the
    schema's smallest alpha and at a large beta, a one-step run logs a
    finite loss with finite float32 gradient rows, or ends with exactly one
    error line."""
    from placerec import training

    rows, step = [], training.Adam.step

    def checked(opt, peer=None):
        rows.append((opt.grad.dtype, bool(np.isfinite(opt.grad).all())))
        return step(opt, peer)

    monkeypatch.setattr(training.Adam, "step", checked)
    monkeypatch.setattr(training, "_workers", lambda: 1)    # one process sees every row
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "loss": loss,
                               "train": {"epochs": 1, "P": 6, "K": 2}}))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--data", ws["data"], "--out", str(out)])
    captured = capsys.readouterr()
    if rc == 0:
        (line,) = (out / "train.log").read_text().splitlines()
        assert np.isfinite(float(dict(kv.split("=") for kv in line.split())["loss"]))
        assert rows == [(np.dtype(np.float32), True)]
    else:
        _one_error_line(captured.err)


@pytest.mark.parametrize("key,literal", [("noise_std", "NaN"),
                                         ("brightness_range", "[0.9, Infinity]")])
def test_synth_non_finite_perturbation_exits_1(tmp_path, capsys, key, literal):
    cfg = tmp_path / "synth.json"
    cfg.write_text(f'{{"places": 4, "perturbation": {{"{key}": {literal}}}}}')
    out = tmp_path / "corpus"
    capsys.readouterr()
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _one_error_line(err).startswith(f"error: synth.perturbation.{key}")
    assert "must be a finite number" in err
    assert not out.exists()


def test_extract_refuses_non_finite_rows(ws):
    from placerec.errors import NumericalError
    from placerec.model import load_model, named_params
    from placerec.retrieval import extract_descriptors
    from placerec.synth import read_manifest

    model = load_model(ws["model"])
    named_params(model)["agg.head_w3"].value.data[:] = np.nan
    manifest = read_manifest(os.path.join(ws["data"], "manifest.csv"))
    first = manifest.split_rows("db")[0].image_id
    with pytest.raises(NumericalError, match=f"image {first!r} is not finite"):
        extract_descriptors(model, manifest, ws["data"], "db")


def test_extract_chunking_does_not_change_rows(ws):
    """Chunks of 1 and 5 give the same rows, and so does describing each
    image alone on the float32 kernels extract runs (the float64 wrappers
    are within 1e-6 of it: test_model.py)."""
    from placerec.model import describe_stack, feature_stack, kernel_model, load_model
    from placerec.ops import Kernels
    from placerec.retrieval import extract_descriptors
    from placerec.synth import load_image, read_manifest

    model = load_model(ws["model"])
    manifest = read_manifest(os.path.join(ws["data"], "manifest.csv"))
    ids, one, _ = extract_descriptors(model, manifest, ws["data"], "train", chunk=1)
    assert len(ids) % 5                     # a ragged last chunk
    _, five, _ = extract_descriptors(model, manifest, ws["data"], "train", chunk=5)
    np.testing.assert_array_equal(five, one)
    arrays = kernel_model(model, np.float32)
    single = np.stack([describe_stack(arrays, feature_stack(model, load_image(ws["data"], i),
                                                            Kernels), Kernels)
                       for i in ids])
    np.testing.assert_allclose(five, single, rtol=0, atol=1e-12)


def test_gradcheck_large_beta(ws, tmp_path, capsys):
    """The probe evaluator's loss shifts its exponent like ms_loss does."""
    cfg = tmp_path / "beta.json"
    base = json.loads(Path(ws["run_cfg"]).read_text())
    cfg.write_text(json.dumps({**base, "loss": {"beta": 800}}))
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert "gradcheck pass" in capsys.readouterr().out


def test_gradcheck_small_alpha(tmp_path, capsys):
    """The loss grows like 1 / alpha, and the probe replay's drift bound with it.

    At alpha 1e-10 the loss is ~1e10, whose rounding leaves central
    differences at h = 1e-5 a resolution of ~0.1, so the comparison runs at a
    tolerance above that; the replay must agree with the op graph regardless.
    """
    cfg = tmp_path / "alpha.json"
    cfg.write_text(json.dumps({"loss": {"alpha": 1e-10}, "backbone": {"d": 16},
                               "aggregator": {"M": 4}}))
    assert main(["gradcheck", "--config", str(cfg), "--tol", "0.5"]) == 0
    captured = capsys.readouterr()
    assert "gradcheck pass" in captured.out and captured.err == ""


@pytest.mark.parametrize("alpha", [1.0, 1e-10])
def test_gradcheck_drifting_mirror_exits_2(tmp_path, capsys, monkeypatch, alpha):
    from placerec.fasteval import FastPipeline

    full_loss = FastPipeline.full_loss

    def off(fp):
        loss = full_loss(fp)
        return loss + 1e-6 * max(1.0, abs(loss))

    monkeypatch.setattr(FastPipeline, "full_loss", off)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "loss": {"alpha": alpha}}))
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "probe evaluator disagrees with the op graph" in captured.err
    assert "gradcheck" not in captured.out


def test_memreport(ws, capsys):
    assert main(["memreport", "--config", ws["run_cfg"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rows = [dict(part.split("=") for part in line.split()) for line in lines]
    assert rows[0]["mode"] == "lopa" and rows[1]["mode"] == "serial"
    assert rows[0]["trainable_params"] == rows[1]["trainable_params"] == "128"
    assert rows[0]["backbone_retained_bytes"] == "0"
    assert int(rows[1]["backbone_retained_bytes"]) > 0


def test_gradcheck_tiny(ws, capsys):
    assert main(["gradcheck", "--config", ws["run_cfg"]]) == 0
    assert "gradcheck pass" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck", "memreport"])
def test_config_not_utf8_exits_1(ws, tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b'{"loss": \xff}')
    extra = {"synth": ["--out", str(tmp_path / "corpus")],
             "train": ["--data", ws["data"], "--out", str(tmp_path / "out")]}
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *extra.get(command, [])]) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert f"config {cfg} is not UTF-8 text" in line, line


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"train": {"warmup": 3}}))
    assert main(["memreport", "--config", str(cfg)]) == 1
    assert "unknown config key train.warmup" in capsys.readouterr().err


def test_missing_data_dir(ws, capsys):
    assert main(["train", "--config", ws["run_cfg"],
                 "--data", "/nonexistent", "--out", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_model_file(ws, capsys):
    assert main(["extract", "--model", "/nonexistent.edtc", "--data", ws["data"],
                 "--split", "db", "--out", "/tmp/x.edtd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert main(["synth"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_split_choice(ws, capsys):
    assert main(["extract", "--model", ws["model"], "--data", ws["data"],
                 "--split", "test", "--out", "/tmp/x.edtd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # NumPy is the only numerical dependency; a convenience import of SciPy
    # would cost every process ~24 MB of RSS and ~0.3 s of start-up
    src = str(Path(placerec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, placerec, placerec.cli; print(placerec.__file__); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    where, loaded = done.stdout.splitlines()
    assert Path(where).resolve().parent.parent == Path(src)
    assert loaded == "[]"


@pytest.mark.parametrize("command", ["gradcheck", "train"])
@pytest.mark.parametrize("section", ["backbone", "lopa", "aggregator", "train"])
def test_negative_seed_exits_1(tmp_path, capsys, command, section):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({section: {"seed": -1}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command == "train":
        argv += ["--data", str(tmp_path / "corpus"), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert _one_error_line(captured.err) == f"error: {section}.seed must be >= 0, got -1"
    assert captured.out == ""
    assert not out.exists()


def test_synth_negative_seed_exits_1(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"places": 4, "seed": -1}))
    out = tmp_path / "corpus"
    capsys.readouterr()
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _one_error_line(err) == "error: synth.seed must be >= 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_gradcheck_rejects_bad_tol(capsys, tol):
    capsys.readouterr()
    assert main(["gradcheck", f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured.err).startswith("error: --tol must be a finite number > 0")
    assert "gradcheck" not in captured.out


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    import placerec.cli as cli

    def no_memory(*args):
        raise MemoryError("Unable to allocate 71.1 PiB for an array with shape "
                          "(156250000000000, 64) and data type float64")

    monkeypatch.setattr(cli, "memory_report", no_memory)
    capsys.readouterr()
    assert main(["memreport"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert _one_error_line(captured.err).startswith("error: out of memory: Unable to allocate")
    assert captured.out == ""
