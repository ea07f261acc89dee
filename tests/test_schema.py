"""Config field schema: one declaration per field drives load, save and bounds."""
import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from placerec.adapters import LoPAConfig
from placerec.config import RunConfig, run_config_from_dict, synth_config_from_dict
from placerec.errors import ValidationError
from placerec.model import build_model, feature_stack, save_model, trainable_params
from placerec import schema
from placerec.synth import Perturbation, SynthConfig
from placerec.training import Adam, train_step

# the config block of a default model's checkpoint, as written before the
# schema moved onto the dataclass fields; checkpoints must stay readable
DEFAULT_CHECKPOINT_CONFIG = (
    b'{"aggregator": {"L_dec": 2, "M": 16, "M_out": 16, "d": 64, "d_out": 16, '
    b'"heads": 4, "seed": 3}, "backbone": {"channels": 1, "d": 64, "depth": 4, '
    b'"heads": 4, "image_size": 32, "patch_size": 8, "seed": 1}, "lopa": {"depth": 4, '
    b'"rank": 4, "scale": 0.5, "seed": 2}, "loss": {"alpha": 1.0, "beta": 50.0, '
    b'"lambda": 0.0, "margin": 0.1}, "train": {"K": 2, "P": 8, "decay_every": 3, '
    b'"epochs": 20, "lr": 0.0001, "lr_decay": 0.7, "seed": 7}}'
)

# every field away from its default, the whole still valid
RUN_NON_DEFAULT = {
    "backbone": {"image_size": 12, "patch_size": 4, "channels": 3, "d": 24,
                 "depth": 3, "heads": 2, "seed": 0},
    "lopa": {"rank": 5, "scale": 0.25, "depth": 3, "seed": 9},
    "aggregator": {"d": 24, "L_dec": 0, "M": 6, "heads": 3, "d_out": 5, "M_out": 7,
                   "seed": 0},
    "loss": {"alpha": 2.5, "beta": 40.0, "lambda": 0.5, "margin": 0.2},
    "train": {"epochs": 3, "P": 4, "K": 3, "lr": 0.002, "lr_decay": 0.5,
              "decay_every": 2, "seed": 0},
}
SYNTH_NON_DEFAULT = {
    "places": 5, "views_per_place": 3, "image_size": 16,
    "perturbation": {"shift_px": 3, "noise_std": 0.1, "brightness_range": [0.7, 1.3]},
    "seed": 0,
}


def _assert_every_field_differs(obj, default):
    for f in dataclasses.fields(obj):
        got, dflt = getattr(obj, f.name), getattr(default, f.name)
        if dataclasses.is_dataclass(got):
            _assert_every_field_differs(got, dflt)
        else:
            assert got != dflt, f"{type(obj).__name__}.{f.name} left at its default"


def test_default_checkpoint_config_bytes(tmp_path):
    path = tmp_path / "default.edtc"
    save_model(path, build_model(RunConfig()))
    blob = path.read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    assert blob[12:12 + n] == DEFAULT_CHECKPOINT_CONFIG


def test_run_config_round_trip_every_field():
    rc = run_config_from_dict(json.loads(json.dumps(RUN_NON_DEFAULT)))
    _assert_every_field_differs(rc, RunConfig())
    saved = rc.to_dict()
    assert saved == RUN_NON_DEFAULT
    assert run_config_from_dict(json.loads(json.dumps(saved))) == rc


def test_synth_config_round_trip_every_field():
    cfg = synth_config_from_dict(json.loads(json.dumps(SYNTH_NON_DEFAULT)))
    _assert_every_field_differs(cfg, SynthConfig())
    assert cfg.perturbation.brightness_range == (0.7, 1.3)
    saved = json.loads(json.dumps(schema.dump(cfg)))
    assert saved == SYNTH_NON_DEFAULT
    assert synth_config_from_dict(saved) == cfg


def test_zero_seeds_accepted():
    rc = run_config_from_dict({s: {"seed": 0} for s in ("backbone", "lopa", "aggregator",
                                                        "train")})
    assert (rc.backbone.seed, rc.lopa.seed, rc.aggregator.seed, rc.train.seed) == (0, 0, 0, 0)
    assert synth_config_from_dict({"seed": 0}).seed == 0


@pytest.mark.parametrize("config,message", [
    ({"backbone": {"heads": 0}}, "backbone.heads must be >= 1, got 0"),
    ({"aggregator": {"L_dec": -1}}, "aggregator.L_dec must be >= 0, got -1"),
    ({"aggregator": {"M_out": 0}}, "aggregator.M_out must be >= 1, got 0"),
    ({"lopa": {"scale": -0.5}}, "lopa.scale must be in [0, 1000.0], got -0.5"),
    ({"loss": {"alpha": 0}}, "loss.alpha must be >= 1e-300, got 0.0"),
    ({"loss": {"beta": -1.0}}, "loss.beta must be > 0, got -1.0"),
    ({"train": {"K": 1}}, "train.K must be >= 2, got 1"),
    ({"train": {"lr_decay": 0}}, "train.lr_decay must be in (0, 1], got 0.0"),
    ({"train": {"lr_decay": 1.5}}, "train.lr_decay must be in (0, 1], got 1.5"),
    ({"train": {"lr": 1e300}}, "train.lr must be in [0, 1.0], got 1e+300"),
    ({"lopa": {"scale": 1e300}}, "lopa.scale must be in [0, 1000.0], got 1e+300"),
    ({"loss": {"alpha": 1e-308}}, "loss.alpha must be >= 1e-300, got 1e-308"),
])
def test_bound_names_the_json_key(config, message):
    with pytest.raises(ValidationError) as exc:
        run_config_from_dict(config)
    assert str(exc.value) == message


def test_bound_edges_accepted():
    rc = run_config_from_dict({"lopa": {"scale": 0}, "train": {"lr": 0, "lr_decay": 1},
                               "aggregator": {"L_dec": 0}})
    assert (rc.lopa.scale, rc.train.lr, rc.train.lr_decay, rc.aggregator.l_dec) == (0, 0, 1, 0)
    rc = run_config_from_dict({"lopa": {"scale": 1e3}, "train": {"lr": 1.0},
                               "loss": {"alpha": 1e-300}})
    assert (rc.lopa.scale, rc.train.lr, rc.loss.alpha) == (1e3, 1.0, 1e-300)


# each numeric bound the formulas need, alone and all together
EDGES = [{"train": {"lr": 1.0}}, {"lopa": {"scale": 1e3}}, {"loss": {"alpha": 1e-300}},
         {"train": {"lr": 1.0}, "lopa": {"scale": 1e3}, "loss": {"alpha": 1e-300}}]


@pytest.mark.parametrize("edge", EDGES, ids=["lr", "scale", "alpha", "all"])
def test_one_step_train_at_each_bound_ends_finite(tiny_run_config, rng, edge):
    """One Adam step at the edge, then a second forward: every parameter and
    both losses finite, with no overflow warning on the way."""
    cfg = tiny_run_config.to_dict()
    for section, values in edge.items():
        cfg[section].update(values)
    rc = run_config_from_dict(cfg)
    model = build_model(rc)
    stacks = [[t.data for t in feature_stack(model, rng.normal(size=(8, 8, 1)))]
              for _ in range(4)]
    opt = Adam(trainable_params(model), lr=rc.train.lr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses = [train_step(model, stacks, [0, 0, 1, 1], rc.loss, opt).loss for _ in range(2)]
    assert np.isfinite(losses).all()
    assert all(np.isfinite(p.value.data).all() for p in trainable_params(model))


def test_nan_outside_every_bound():
    # dataclasses built in code skip the JSON type check; NaN must still fail
    with pytest.raises(ValidationError, match=r"^lopa\.scale must be in \[0, 1000\.0\], got nan$"):
        LoPAConfig(scale=float("nan")).validate()
    with pytest.raises(ValidationError, match=r"^synth\.perturbation\.noise_std must be >= 0"):
        Perturbation(noise_std=float("nan")).validate(16)

