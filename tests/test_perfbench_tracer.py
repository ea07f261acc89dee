"""The benchmark's span tracer still finds every name it patches.

`perfbench/spans.py` wraps functions by module attribute (`backbone.matmul`,
`backbone.mha`, `model.forward_collect`, ...) and methods by class
(`Adam.step`, `Trainer.stack_for`). A rename in the program would otherwise
show only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import placerec
import placerec.cli  # noqa: F401  (the tracer patches names in every submodule)
from placerec import training
from placerec.loss import LossConfig
from placerec.model import build_model, feature_stack
from placerec.synth import Perturbation, SynthConfig, generate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(spans, tiny_run_config, rng):
    tracer = spans.Tracer("test")
    tracer.install(placerec)
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        model = build_model(tiny_run_config)
        b = tiny_run_config.backbone
        feature_stack(model, rng.normal(size=(2, b.image_size, b.image_size, b.channels)))
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    m = tracer.metrics()
    assert m["backbone.calls"] == 1
    assert m["attention.mha_calls"] == tiny_run_config.backbone.depth
    assert m["backbone.busy_s"] > 0.0


def test_tracer_install_fails_on_a_missing_name(spans, monkeypatch):
    monkeypatch.delattr(placerec.backbone, "mha")
    tracer = spans.Tracer("test")
    with pytest.raises(AttributeError):
        tracer.install(placerec)
    tracer.uninstall()
    assert not tracer._patched


def test_tracer_records_a_two_process_training_run(spans, tiny_run_config, tmp_path,
                                                   monkeypatch):
    """The spans the traced train benchmark reads come from this process
    (rank 0) of a two-process run."""
    manifest = generate(SynthConfig(places=4, views_per_place=4, image_size=8,
                                    perturbation=Perturbation(), seed=1), tmp_path)
    monkeypatch.setattr(training, "_workers", lambda: 2)
    tracer = spans.Tracer("test")
    tracer.install(placerec)
    try:
        trainer = training.Trainer(build_model(tiny_run_config), manifest, tmp_path,
                                   LossConfig(), tiny_run_config.train, log=None)
        history = trainer.run()
    finally:
        tracer.uninstall()
    names = {s[3] for s in tracer.spans}
    assert {"training.train_step", "training.adam_step", "training.stack_for"} <= names
    m = tracer.metrics()
    assert m["training.steps"] == len(history) > 0
    assert m["training.stack_lookups"] == len(history) * tiny_run_config.train.p \
        * tiny_run_config.train.k // 2
    assert m["training.stack_misses"] == 0
    # the loss counters read the MiningResult of each step's one mining call
    assert m["loss.mined_batches"] == len(history)
    assert m["loss.kept_pairs"] == sum(r.kept_pos + r.kept_neg for r in history)
