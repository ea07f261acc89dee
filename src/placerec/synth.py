"""Deterministic synthetic place-recognition corpus.

Each place gets a seeded base pattern: a few low-frequency sinusoids plus a
high-contrast rectangle unique to the place, separable enough for a small
frozen encoder to overfit. Views are perturbed renderings of the base
(integer shift, brightness scale, additive noise), so same-place structure
is learnable and ground truth is place_id equality by construction.

Per place the last two views become the db and query splits; everything
before them is train.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import fileformats
from .errors import ValidationError
from .schema import check, setting

SPLITS = ("train", "db", "query")


@dataclass
class Perturbation:
    # Defaults chosen so a frozen random backbone plus two training views per
    # place can reach near-perfect held-out recall: photometric variation is
    # heavy, spatial translation off. Translation is brutal for a random
    # (untrained) patch encoder; turn shift_px up for harder corpora.
    shift_px: int = setting(0, ge=0)
    noise_std: float = setting(0.05, ge=0)
    brightness_range: tuple[float, float] = (0.8, 1.2)

    def validate(self, image_size: int) -> None:
        check(self, "synth.perturbation")
        if self.shift_px >= image_size / 4:
            raise ValidationError(
                f"synth.perturbation.shift_px {self.shift_px} must be < synth.image_size/4"
                f" = {image_size / 4}")
        lo, hi = self.brightness_range
        if not (0 < lo <= hi):
            raise ValidationError(
                f"synth.perturbation.brightness_range must satisfy 0 < lo <= hi, got ({lo}, {hi})")


@dataclass
class SynthConfig:
    places: int = setting(32, ge=1)
    views_per_place: int = setting(4, ge=2)
    image_size: int = setting(32, ge=4)
    perturbation: Perturbation = field(default_factory=Perturbation)
    seed: int = setting(11, ge=0)

    def validate(self) -> None:
        check(self, "synth")
        self.perturbation.validate(self.image_size)


@dataclass
class ManifestRow:
    image_id: str
    place_id: int
    split: str


@dataclass
class Manifest:
    rows: list

    def validate(self) -> None:
        seen = set()
        for r in self.rows:
            if r.image_id in seen:
                raise ValidationError(f"duplicate image id {r.image_id!r} in manifest")
            seen.add(r.image_id)
            if r.split not in SPLITS:
                raise ValidationError(f"unknown split {r.split!r} for {r.image_id!r}")
        db_places = {r.place_id for r in self.rows if r.split == "db"}
        orphans = {r.place_id for r in self.rows if r.split == "query"} - db_places
        if orphans:
            raise ValidationError(
                f"query places missing from db split: {sorted(orphans)[:8]}")

    def split_rows(self, split: str) -> list:
        if split not in SPLITS:
            raise ValidationError(f"unknown split {split!r}, expected one of {SPLITS}")
        return [r for r in self.rows if r.split == split]


def write_manifest(path, manifest: Manifest) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["image_id", "place_id", "split"])
    for r in manifest.rows:
        w.writerow([r.image_id, r.place_id, r.split])
    with open(path, "w", newline="") as f:
        f.write(buf.getvalue())


def read_manifest(path) -> Manifest:
    reader = fileformats.csv_records(path, ValidationError)
    header = next(reader, None)
    if header != ["image_id", "place_id", "split"]:
        raise ValidationError(
            f"manifest header must be image_id,place_id,split, got {header}")
    rows = []
    for ln, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != 3:
            raise ValidationError(f"manifest line {ln}: expected 3 fields, got {len(rec)}")
        try:
            pid = int(rec[1])
        except ValueError:
            raise ValidationError(f"manifest line {ln}: place_id {rec[1]!r} is not an integer")
        rows.append(ManifestRow(rec[0], pid, rec[2]))
    m = Manifest(rows)
    m.validate()
    return m


def base_pattern(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth seeded background plus a place-unique high-contrast rectangle."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = np.zeros((size, size))
    for _ in range(3):
        amp = rng.uniform(0.2, 0.5)
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        img += amp * np.sin(2 * np.pi * (fy * yy + fx * xx) / size + phase)
    side = int(rng.integers(size // 4, size // 2))
    r0 = int(rng.integers(0, size - side))
    c0 = int(rng.integers(0, size - side))
    img[r0:r0 + side, c0:c0 + side] += rng.choice([-2.0, 2.0])
    return img[:, :, None]


def render_view(base: np.ndarray, rng: np.random.Generator, pert: Perturbation) -> np.ndarray:
    """Shift (wrap-around), brightness scale, then bounded uniform noise whose
    std is exactly noise_std."""
    dy, dx = rng.integers(-pert.shift_px, pert.shift_px + 1, size=2)
    view = np.roll(base, (int(dy), int(dx)), axis=(0, 1))
    view = view * rng.uniform(*pert.brightness_range)
    a = pert.noise_std * np.sqrt(3.0)
    return view + rng.uniform(-a, a, size=view.shape)


def image_id(place: int, view: int) -> str:
    return f"p{place:04d}_v{view:02d}"


def split_for_view(view: int, views_per_place: int) -> str:
    if view == views_per_place - 1:
        return "query"
    if view == views_per_place - 2:
        return "db"
    return "train"


def generate(cfg: SynthConfig, out_dir) -> Manifest:
    """Write one EDTI file per view plus manifest.csv; fully seed-determined."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for place in range(cfg.places):
        base = base_pattern(rng, cfg.image_size)
        for view in range(cfg.views_per_place):
            img = render_view(base, rng, cfg.perturbation)
            iid = image_id(place, view)
            fileformats.write_image(os.path.join(out_dir, iid + ".edti"), img)
            rows.append(ManifestRow(iid, place, split_for_view(view, cfg.views_per_place)))
    manifest = Manifest(rows)
    manifest.validate()
    write_manifest(os.path.join(out_dir, "manifest.csv"), manifest)
    return manifest


def load_image(data_dir, iid: str) -> np.ndarray:
    return fileformats.read_image(os.path.join(data_dir, iid + ".edti"))


class BatchSampler:
    """P-places x K-views batches, uniform without replacement within an epoch.

    Every place with >= K train views appears exactly once per epoch; a
    short remainder folds into the final batch rather than being dropped.
    """

    def __init__(self, manifest: Manifest, p: int, k: int, rng: np.random.Generator):
        if p < 2 or k < 2:
            raise ValidationError(f"need P >= 2 and K >= 2, got P={p}, K={k}")
        by_place: dict = {}
        for r in manifest.split_rows("train"):
            by_place.setdefault(r.place_id, []).append(r.image_id)
        self.by_place = {pl: ids for pl, ids in by_place.items() if len(ids) >= k}
        if len(self.by_place) < p:
            raise ValidationError(
                f"need at least {p} places with >= {k} train views, have {len(self.by_place)}")
        self.p, self.k, self.rng = p, k, rng

    def epoch(self):
        """Yield (image_ids, place_ids) batches covering every usable place once."""
        places = list(self.by_place)
        self.rng.shuffle(places)
        while places:
            take = self.p if len(places) - self.p != 1 else self.p + 1
            group, places = places[:take], places[take:]
            ids, pids = [], []
            for pl in group:
                views = self.rng.choice(self.by_place[pl], size=self.k, replace=False)
                ids.extend(views.tolist())
                pids.extend([pl] * self.k)
            yield ids, pids
