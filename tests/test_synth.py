"""Corpus generator: determinism, splits, perturbations, batch sampling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placerec.errors import ValidationError
from placerec.synth import (
    BatchSampler,
    Manifest,
    ManifestRow,
    Perturbation,
    SynthConfig,
    base_pattern,
    generate,
    image_id,
    load_image,
    read_manifest,
    render_view,
    split_for_view,
    write_manifest,
)


def small_cfg(**kw):
    base = dict(places=4, views_per_place=4, image_size=16,
                perturbation=Perturbation(), seed=3)
    base.update(kw)
    return SynthConfig(**base)


def test_generate_counts_and_splits(tmp_path):
    cfg = small_cfg()
    manifest = generate(cfg, tmp_path)
    assert len(manifest.rows) == 16
    by_split = {}
    for row in manifest.rows:
        by_split.setdefault(row.split, []).append(row)
    assert len(by_split["train"]) == 8
    assert len(by_split["db"]) == 4
    assert len(by_split["query"]) == 4


def test_generate_deterministic(tmp_path):
    cfg = small_cfg()
    generate(cfg, tmp_path / "a")
    generate(cfg, tmp_path / "b")
    for sub in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()


def test_images_loadable_and_shaped(tmp_path):
    cfg = small_cfg()
    manifest = generate(cfg, tmp_path)
    img = load_image(tmp_path, manifest.rows[0].image_id)
    assert img.shape == (16, 16, 1)
    assert np.isfinite(img).all()


def test_split_for_view_layout():
    # last view held out as query, one before as db, rest train
    assert split_for_view(0, 4) == "train"
    assert split_for_view(1, 4) == "train"
    assert split_for_view(2, 4) == "db"
    assert split_for_view(3, 4) == "query"
    assert split_for_view(0, 2) == "db"
    assert split_for_view(1, 2) == "query"


def test_image_id_format():
    assert image_id(3, 11) == "p0003_v11"


def test_zero_perturbation_views_identical(rng):
    base = base_pattern(rng, 16)
    pert = Perturbation(shift_px=0, noise_std=0.0, brightness_range=(1.0, 1.0))
    a = render_view(base, rng, pert)
    b = render_view(base, rng, pert)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, base)


def test_shift_is_a_roll(rng):
    base = base_pattern(rng, 16)
    pert = Perturbation(shift_px=3, noise_std=0.0, brightness_range=(1.0, 1.0))
    seen_distinct = False
    for _ in range(10):
        v = render_view(base, rng, pert)
        # some roll of base must reproduce v exactly
        matches = [
            np.array_equal(v, np.roll(base, (dy, dx), axis=(0, 1)))
            for dy in range(-3, 4)
            for dx in range(-3, 4)
        ]
        assert any(matches)
        if not np.array_equal(v, base):
            seen_distinct = True
    assert seen_distinct


def test_noise_bounded(rng):
    base = base_pattern(rng, 16)
    pert = Perturbation(shift_px=0, noise_std=0.05, brightness_range=(1.0, 1.0))
    v = render_view(base, rng, pert)
    assert np.abs(v - base).max() <= 0.05 * np.sqrt(3) + 1e-12


def test_brightness_scales_globally(rng):
    base = base_pattern(rng, 16)
    pert = Perturbation(shift_px=0, noise_std=0.0, brightness_range=(0.5, 0.5))
    v = render_view(base, rng, pert)
    np.testing.assert_allclose(v, 0.5 * base, atol=1e-15)


def test_base_patterns_differ_between_places(rng):
    a = base_pattern(rng, 16)
    b = base_pattern(rng, 16)
    assert not np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_cfg(views_per_place=1).validate()
    with pytest.raises(ValidationError):
        small_cfg(perturbation=Perturbation(shift_px=4), image_size=16).validate()
    with pytest.raises(ValidationError):
        Perturbation(brightness_range=(0.0, 1.0)).validate(16)
    with pytest.raises(ValidationError):
        Perturbation(noise_std=-0.1).validate(16)


def test_manifest_roundtrip(tmp_path):
    rows = [
        ManifestRow("p0000_v00", 0, "train"),
        ManifestRow("p0000_v01", 0, "db"),
        ManifestRow("p0000_v02", 0, "query"),
    ]
    m = Manifest(rows)
    path = tmp_path / "manifest.csv"
    write_manifest(path, m)
    back = read_manifest(path)
    assert back.rows == rows


def test_manifest_rejects_duplicates():
    with pytest.raises(ValidationError):
        Manifest([ManifestRow("a", 0, "train"), ManifestRow("a", 0, "db")]).validate()


def test_manifest_rejects_unknown_split():
    with pytest.raises(ValidationError):
        Manifest([ManifestRow("a", 0, "test")]).validate()


def test_read_manifest_rejects_bad_header(tmp_path):
    p = tmp_path / "manifest.csv"
    p.write_text("id,place,split\na,0,train\n")
    with pytest.raises(ValidationError):
        read_manifest(p)


# sampler ---------------------------------------------------------------------

def _train_manifest(places, views=4):
    rows = []
    for pl in range(places):
        for v in range(views):
            rows.append(ManifestRow(image_id(pl, v), pl, split_for_view(v, views)))
    return Manifest(rows)


def test_sampler_batch_shape(rng):
    m = _train_manifest(6)
    ids, pids = next(BatchSampler(m, p=3, k=2, rng=rng).epoch())
    assert len(ids) == 6 and len(pids) == 6
    for pid in set(pids):
        assert pids.count(pid) == 2


def test_sampler_epoch_covers_each_place_once(rng):
    m = _train_manifest(7)
    seen = []
    for ids, pids in BatchSampler(m, p=3, k=2, rng=rng).epoch():
        seen.extend(set(pids))
    assert sorted(seen) == list(range(7))


def test_sampler_remainder_of_one_folds_into_last_batch(rng):
    m = _train_manifest(7)
    sizes = [len(ids) for ids, _ in BatchSampler(m, p=3, k=2, rng=rng).epoch()]
    # 7 places at P=3: 3 + 4 (remainder of 1 folded), never a 1-place batch
    assert sizes == [6, 8]


def test_sampler_allows_partial_final_batch(rng):
    m = _train_manifest(8)
    sizes = [len(ids) for ids, _ in BatchSampler(m, p=3, k=2, rng=rng).epoch()]
    assert sizes == [6, 6, 4]


def test_sampler_filters_thin_places(rng):
    rows = list(_train_manifest(4).rows)
    # drop one train view from place 3, leaving a single training image
    rows = [r for r in rows if not (r.place_id == 3 and r.image_id.endswith("v01"))]
    m = Manifest(rows)
    batches = list(BatchSampler(m, p=2, k=2, rng=rng).epoch())
    for _, pids in batches:
        assert 3 not in pids


def test_sampler_needs_enough_places(rng):
    with pytest.raises(ValidationError):
        BatchSampler(_train_manifest(2), p=3, k=2, rng=rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 12), st.integers(2, 4), st.integers(0, 999))
def test_sampler_partition_property(places, p, seed):
    """Every epoch partitions the usable places; batches are P..2P-1 places."""
    m = _train_manifest(places)
    rng = np.random.default_rng(seed)
    if places < p:
        with pytest.raises(ValidationError):
            BatchSampler(m, p=p, k=2, rng=rng)
        return
    all_pids = []
    batches = list(BatchSampler(m, p=p, k=2, rng=rng).epoch())
    for i, (ids, pids) in enumerate(batches):
        groups = len(set(pids))
        assert 2 <= groups < 2 * p
        if i < len(batches) - 1:
            assert groups == p  # only the final batch may deviate
        all_pids.extend(set(pids))
    assert sorted(all_pids) == list(range(places))
