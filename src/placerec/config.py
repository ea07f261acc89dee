"""JSON run configuration: fixed schema, unknown keys rejected by path.

Each key's JSON spelling, type and bounds are declared once, on its
dataclass field (see schema.py); loading, saving and the bound checks all
read that declaration. Two dynamic defaults tie sections together:
lopa.depth follows backbone.depth and aggregator.d follows backbone.d unless
given explicitly, in which case they must agree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from . import schema
from .adapters import LoPAConfig
from .aggregator import AggregatorConfig
from .backbone import ViTConfig
from .errors import ValidationError
from .loss import LossConfig
from .schema import setting
from .synth import SynthConfig


@dataclass
class TrainConfig:
    epochs: int = setting(20, ge=1)
    p: int = setting(8, key="P", ge=2)    # places per batch
    k: int = setting(2, key="K", ge=2)    # views per place
    lr: float = setting(1e-4, ge=0, le=1.0)   # ceiling: see LoPAConfig.scale
    lr_decay: float = setting(0.7, gt=0, le=1)
    decay_every: int = setting(3, ge=1)   # epochs between decays
    seed: int = setting(7, ge=0)

    def validate(self) -> None:
        schema.check(self, "train")


@dataclass
class RunConfig:
    backbone: ViTConfig = field(default_factory=ViTConfig)
    lopa: LoPAConfig = field(default_factory=LoPAConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.backbone.validate()
        self.lopa.validate(self.backbone.d)
        self.aggregator.validate()
        self.loss.validate()
        self.train.validate()
        if self.lopa.depth != self.backbone.depth:
            raise ValidationError(
                f"lopa.depth {self.lopa.depth} must equal backbone.depth {self.backbone.depth}")
        if self.aggregator.d != self.backbone.d:
            raise ValidationError(
                f"aggregator.d {self.aggregator.d} must equal backbone.d {self.backbone.d}")

    def to_dict(self) -> dict:
        return schema.dump(self)


def _root(d):
    if not isinstance(d, dict):
        raise ValidationError(f"config root must be an object, got {d!r}")
    return d


_SECTIONS = tuple(f.name for f in fields(RunConfig))


def run_config_from_dict(d: dict) -> RunConfig:
    for key in _root(d):
        if key not in _SECTIONS:
            raise ValidationError(f"unknown config section {key!r}")
    rc = schema.load(RunConfig, d)
    # follow the backbone unless set explicitly
    if "depth" not in d.get("lopa", {}):
        rc.lopa.depth = rc.backbone.depth
    if "d" not in d.get("aggregator", {}):
        rc.aggregator.d = rc.backbone.d
    rc.validate()
    return rc


def _load_json(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}")
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal over 4300 digits
        raise ValidationError(f"config {path} is not valid JSON: {e}")


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(_load_json(path))


def synth_config_from_dict(d: dict) -> SynthConfig:
    cfg = schema.load(SynthConfig, _root(d), "synth")
    cfg.validate()
    return cfg


def load_synth_config(path) -> SynthConfig:
    return synth_config_from_dict(_load_json(path))
