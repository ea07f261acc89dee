"""Run/synth configuration loading: defaults, key mapping, rejection paths."""
import json

import pytest

from placerec.config import (
    RunConfig,
    load_run_config,
    load_synth_config,
    run_config_from_dict,
    synth_config_from_dict,
)
from placerec.errors import ValidationError


def test_defaults():
    rc = RunConfig()
    rc.validate()
    assert rc.backbone.d == 64
    assert rc.backbone.depth == 4
    assert rc.lopa.rank == 4
    assert rc.lopa.scale == 0.5
    assert rc.aggregator.l_dec == 2
    assert rc.aggregator.m == 16
    assert rc.loss.alpha == 1.0
    assert rc.loss.beta == 50.0
    assert rc.loss.lam == 0.0
    assert rc.loss.margin == 0.1
    assert rc.train.lr == 1e-4
    assert rc.train.lr_decay == 0.7
    assert rc.train.decay_every == 3


def test_empty_dict_is_defaults():
    assert run_config_from_dict({}).to_dict() == RunConfig().to_dict()


def test_json_spellings_map_to_attributes():
    rc = run_config_from_dict({
        "aggregator": {"L_dec": 3, "M": 8, "M_out": 2},
        "loss": {"lambda": 0.25},
        "train": {"P": 4, "K": 3},
    })
    assert rc.aggregator.l_dec == 3
    assert rc.aggregator.m == 8
    assert rc.aggregator.m_out == 2
    assert rc.loss.lam == 0.25
    assert rc.train.p == 4
    assert rc.train.k == 3


def test_to_dict_roundtrip():
    rc = run_config_from_dict({
        "backbone": {"d": 32, "depth": 2, "heads": 2, "image_size": 16, "patch_size": 4},
        "lopa": {"rank": 2},
        "aggregator": {"L_dec": 1, "M": 4, "heads": 2},
    })
    again = run_config_from_dict(rc.to_dict())
    assert again.to_dict() == rc.to_dict()


def test_lopa_depth_follows_backbone():
    rc = run_config_from_dict({"backbone": {"depth": 6}})
    assert rc.lopa.depth == 6


def test_aggregator_d_follows_backbone():
    rc = run_config_from_dict({
        "backbone": {"d": 32, "heads": 4},
        "aggregator": {"heads": 2},
    })
    assert rc.aggregator.d == 32


def test_explicit_depth_mismatch_rejected():
    with pytest.raises(ValidationError, match="lopa.depth"):
        run_config_from_dict({"backbone": {"depth": 6}, "lopa": {"depth": 4}})


def test_explicit_width_mismatch_rejected():
    with pytest.raises(ValidationError, match="aggregator.d"):
        run_config_from_dict({"backbone": {"d": 32, "heads": 2},
                              "aggregator": {"d": 64}})


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="unknown config section 'optim'"):
        run_config_from_dict({"optim": {}})


def test_unknown_key_names_path():
    with pytest.raises(ValidationError, match=r"unknown config key train\.momentum"):
        run_config_from_dict({"train": {"momentum": 0.9}})


def test_attribute_spelling_not_accepted_in_json():
    # JSON uses L_dec / P / lambda; the python attribute names are rejected
    with pytest.raises(ValidationError, match=r"aggregator\.l_dec"):
        run_config_from_dict({"aggregator": {"l_dec": 1}})
    with pytest.raises(ValidationError, match=r"train\.p"):
        run_config_from_dict({"train": {"p": 4}})
    with pytest.raises(ValidationError, match=r"loss\.lam"):
        run_config_from_dict({"loss": {"lam": 0.0}})


def test_bool_is_not_an_int():
    with pytest.raises(ValidationError, match="must be an integer"):
        run_config_from_dict({"backbone": {"depth": True}})


def test_float_where_int_expected():
    with pytest.raises(ValidationError, match=r"backbone\.d must be an integer"):
        run_config_from_dict({"backbone": {"d": 64.0}})


def test_int_accepted_where_float_expected():
    rc = run_config_from_dict({"loss": {"beta": 50}})
    assert rc.loss.beta == 50.0
    assert isinstance(rc.loss.beta, float)


def test_section_must_be_object():
    with pytest.raises(ValidationError, match="must be an object"):
        run_config_from_dict({"train": [1, 2]})


def test_root_must_be_object():
    with pytest.raises(ValidationError, match="config root"):
        run_config_from_dict([])


def test_validation_runs_on_load():
    with pytest.raises(ValidationError, match="epochs"):
        run_config_from_dict({"train": {"epochs": 0}})


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"train": {"epochs": 5, "lr": 0.001}}))
    rc = load_run_config(p)
    assert rc.train.epochs == 5
    assert rc.train.lr == 0.001


def test_missing_file():
    with pytest.raises(ValidationError, match="cannot read config"):
        load_run_config("/nonexistent/run.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_run_config(p)


# synth config --------------------------------------------------------------

def test_synth_defaults():
    cfg = synth_config_from_dict({})
    assert cfg.places == 32
    assert cfg.views_per_place == 4
    assert cfg.image_size == 32
    assert cfg.perturbation.shift_px == 0
    assert cfg.perturbation.noise_std == 0.05
    assert cfg.perturbation.brightness_range == (0.8, 1.2)


def test_synth_nested_perturbation():
    cfg = synth_config_from_dict({
        "places": 8,
        "perturbation": {"shift_px": 2, "noise_std": 0.1,
                         "brightness_range": [0.9, 1.1]},
    })
    assert cfg.places == 8
    assert cfg.perturbation.shift_px == 2
    assert cfg.perturbation.noise_std == 0.1
    assert cfg.perturbation.brightness_range == (0.9, 1.1)


def test_synth_unknown_key():
    with pytest.raises(ValidationError, match=r"unknown config key synth\.blur"):
        synth_config_from_dict({"blur": 1})


def test_synth_unknown_perturbation_key():
    with pytest.raises(ValidationError, match=r"synth\.perturbation\.rotate"):
        synth_config_from_dict({"perturbation": {"rotate": 15}})


def test_synth_brightness_pair_shape():
    with pytest.raises(ValidationError, match="pair of numbers"):
        synth_config_from_dict({"perturbation": {"brightness_range": [1.0]}})


def test_synth_validation_runs(tmp_path):
    p = tmp_path / "synth.json"
    p.write_text(json.dumps({"views_per_place": 1}))
    with pytest.raises(ValidationError):
        load_synth_config(p)


# non-finite numbers ----------------------------------------------------------
# json.loads parses the NaN, Infinity and -Infinity literals; each is rejected
# by key path before any range check can let it through

NON_FINITE = ["NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("section,key", [("train", "lr"), ("train", "lr_decay"),
                                         ("loss", "alpha"), ("loss", "lambda"),
                                         ("lopa", "scale")])
def test_run_config_rejects_non_finite(tmp_path, literal, section, key):
    p = tmp_path / "run.json"
    p.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
    with pytest.raises(ValidationError, match=rf"^{section}\.{key} must be a finite number"):
        load_run_config(p)


@pytest.mark.parametrize("literal", NON_FINITE)
def test_synth_config_rejects_non_finite(tmp_path, literal):
    p = tmp_path / "synth.json"
    p.write_text(f'{{"perturbation": {{"noise_std": {literal}}}}}')
    with pytest.raises(ValidationError,
                       match=r"^synth\.perturbation\.noise_std must be a finite number"):
        load_synth_config(p)


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("slot", [0, 1])
def test_synth_brightness_range_rejects_non_finite(tmp_path, literal, slot):
    pair = ["1.0", "1.0"]
    pair[slot] = literal
    p = tmp_path / "synth.json"
    p.write_text(f'{{"perturbation": {{"brightness_range": [{pair[0]}, {pair[1]}]}}}}')
    with pytest.raises(ValidationError,
                       match=rf"^synth\.perturbation\.brightness_range\[{slot}\] must be a finite"):
        load_synth_config(p)


def test_integer_literal_beyond_parser_limit_rejected(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{"train": {"epochs": ' + "9" * 5000 + "}}")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_run_config(p)


def test_integer_beyond_float_range_rejected():
    with pytest.raises(ValidationError, match=r"^loss\.beta must be a finite number"):
        run_config_from_dict({"loss": {"beta": 10 ** 400}})
