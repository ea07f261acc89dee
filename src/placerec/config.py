"""JSON run configuration: fixed schema, unknown keys rejected by path.

Two dynamic defaults tie sections together: lopa.depth follows
backbone.depth and aggregator.d follows backbone.d unless given explicitly,
in which case they must agree. The JSON spelling of a few keys differs from
the attribute names (L_dec, M, M_out, P, K, lambda); both directions are
mapped here and nowhere else.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .adapters import LoPAConfig
from .aggregator import AggregatorConfig
from .backbone import ViTConfig
from .errors import ValidationError
from .loss import LossConfig
from .synth import Perturbation, SynthConfig


@dataclass
class TrainConfig:
    epochs: int = 20
    p: int = 8             # places per batch
    k: int = 2             # views per place
    lr: float = 1e-4
    lr_decay: float = 0.7
    decay_every: int = 3   # epochs between decays
    seed: int = 7

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"train.epochs must be >= 1, got {self.epochs}")
        if self.p < 2 or self.k < 2:
            raise ValidationError(f"train.P and train.K must be >= 2, got {self.p}, {self.k}")
        if self.lr < 0:
            raise ValidationError(f"train.lr must be >= 0, got {self.lr}")
        if not 0 < self.lr_decay <= 1:
            raise ValidationError(f"train.lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_every < 1:
            raise ValidationError(f"train.decay_every must be >= 1, got {self.decay_every}")


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
        b, lp, ag, ls, tr = self.backbone, self.lopa, self.aggregator, self.loss, self.train
        return {
            "backbone": {"image_size": b.image_size, "patch_size": b.patch_size,
                         "channels": b.channels, "d": b.d, "depth": b.depth,
                         "heads": b.heads, "seed": b.seed},
            "lopa": {"rank": lp.rank, "scale": lp.scale, "depth": lp.depth, "seed": lp.seed},
            "aggregator": {"d": ag.d, "L_dec": ag.l_dec, "M": ag.m, "heads": ag.heads,
                           "d_out": ag.d_out, "M_out": ag.m_out, "seed": ag.seed},
            "loss": {"alpha": ls.alpha, "beta": ls.beta, "lambda": ls.lam, "margin": ls.margin},
            "train": {"epochs": tr.epochs, "P": tr.p, "K": tr.k, "lr": tr.lr,
                      "lr_decay": tr.lr_decay, "decay_every": tr.decay_every, "seed": tr.seed},
        }


def _as_int(path: str, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path} must be an integer, got {v!r}")
    return v


def _finite(path: str, v) -> float:
    # json.loads parses NaN, Infinity and -Infinity, and range checks written
    # as `x < 0` let NaN through, so non-finite numbers stop here, by key path
    try:
        f = float(v)
    except OverflowError:  # an integer literal beyond float range
        f = math.inf
    if not math.isfinite(f):
        raise ValidationError(f"{path} must be a finite number, got {v!r}")
    return f


def _as_float(path: str, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path} must be a number, got {v!r}")
    return _finite(path, v)


def _as_pair(path: str, v):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
        raise ValidationError(f"{path} must be a pair of numbers, got {v!r}")
    return (_finite(f"{path}[0]", v[0]), _finite(f"{path}[1]", v[1]))


def _apply(section: str, data, obj, fields: dict) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"config section {section!r} must be an object, got {data!r}")
    for key, val in data.items():
        if key not in fields:
            raise ValidationError(f"unknown config key {section}.{key}")
        attr, conv = fields[key]
        setattr(obj, attr, conv(f"{section}.{key}", val))


_I, _F = _as_int, _as_float
_BACKBONE = {k: (k, _I) for k in
             ("image_size", "patch_size", "channels", "d", "depth", "heads", "seed")}
_LOPA = {"rank": ("rank", _I), "scale": ("scale", _F),
         "depth": ("depth", _I), "seed": ("seed", _I)}
_AGG = {"d": ("d", _I), "L_dec": ("l_dec", _I), "M": ("m", _I), "heads": ("heads", _I),
        "d_out": ("d_out", _I), "M_out": ("m_out", _I), "seed": ("seed", _I)}
_LOSS = {"alpha": ("alpha", _F), "beta": ("beta", _F),
         "lambda": ("lam", _F), "margin": ("margin", _F)}
_TRAIN = {"epochs": ("epochs", _I), "P": ("p", _I), "K": ("k", _I), "lr": ("lr", _F),
          "lr_decay": ("lr_decay", _F), "decay_every": ("decay_every", _I),
          "seed": ("seed", _I)}
_SECTIONS = ("backbone", "lopa", "aggregator", "loss", "train")


def run_config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValidationError(f"config root must be an object, got {d!r}")
    for key in d:
        if key not in _SECTIONS:
            raise ValidationError(f"unknown config section {key!r}")
    rc = RunConfig()
    _apply("backbone", d.get("backbone", {}), rc.backbone, _BACKBONE)
    _apply("lopa", d.get("lopa", {}), rc.lopa, _LOPA)
    _apply("aggregator", d.get("aggregator", {}), rc.aggregator, _AGG)
    _apply("loss", d.get("loss", {}), rc.loss, _LOSS)
    _apply("train", d.get("train", {}), rc.train, _TRAIN)
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


_PERT = {"shift_px": ("shift_px", _I), "noise_std": ("noise_std", _F),
         "brightness_range": ("brightness_range", _as_pair)}
_SYNTH = {"places": ("places", _I), "views_per_place": ("views_per_place", _I),
          "image_size": ("image_size", _I), "seed": ("seed", _I)}


def synth_config_from_dict(d: dict) -> SynthConfig:
    if not isinstance(d, dict):
        raise ValidationError(f"config root must be an object, got {d!r}")
    cfg = SynthConfig(perturbation=Perturbation())
    for key, val in d.items():
        if key == "perturbation":
            _apply("perturbation", val, cfg.perturbation, _PERT)
        elif key in _SYNTH:
            attr, conv = _SYNTH[key]
            setattr(cfg, attr, conv(key, val))
        else:
            raise ValidationError(f"unknown config key {key}")
    cfg.validate()
    return cfg


def load_synth_config(path) -> SynthConfig:
    return synth_config_from_dict(_load_json(path))
