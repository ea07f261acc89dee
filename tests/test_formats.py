"""Binary and CSV file formats: roundtrips, atomicity, negative controls."""
import numpy as np
import pytest

from placerec.errors import FormatError
from placerec.fileformats import (
    read_checkpoint,
    read_descriptors,
    read_image,
    read_sidecar,
    write_checkpoint,
    write_descriptors,
    write_image,
    write_sidecar,
)


def test_image_roundtrip_f32_storage(tmp_path, rng):
    img = rng.normal(size=(8, 8, 1))
    write_image(tmp_path / "x.edti", img)
    back = read_image(tmp_path / "x.edti")
    assert back.dtype == np.float64  # promoted on read
    np.testing.assert_array_equal(back, img.astype(np.float32).astype(np.float64))


def test_descriptor_roundtrip(tmp_path, rng):
    mat = rng.normal(size=(4, 16))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    write_descriptors(tmp_path / "d.edtd", mat)
    back = read_descriptors(tmp_path / "d.edtd")
    assert back.shape == (4, 16)
    np.testing.assert_allclose(back, mat, atol=1e-6)  # f32 storage


def test_sidecar_roundtrip(tmp_path):
    write_sidecar(tmp_path / "d.csv", ["a", "b"], [3, 7])
    assert read_sidecar(tmp_path / "d.csv") == (["a", "b"], [3, 7])


def test_checkpoint_roundtrip_bit_identical(tmp_path, rng):
    cfg = {"backbone": {"d": 16}, "note": "x"}
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(4,)),
        "scalar": np.array(2.5),
    }
    write_checkpoint(tmp_path / "m.edtc", cfg, tensors)
    cfg2, tensors2 = read_checkpoint(tmp_path / "m.edtc")
    assert cfg2 == cfg
    assert set(tensors2) == set(tensors)
    for k in tensors:
        assert tensors2[k].dtype == np.float64
        np.testing.assert_array_equal(tensors2[k], tensors[k])  # exact, f64


def test_checkpoint_non_utf8_name_rejected(tmp_path, rng):
    write_checkpoint(tmp_path / "m.edtc", {}, {"agg.w": rng.normal(size=(2,))})
    blob = bytearray((tmp_path / "m.edtc").read_bytes())
    at = blob.index(b"agg.w") + 3
    blob[at] = 0xFF
    (tmp_path / "bad.edtc").write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="not UTF-8") as exc:
        read_checkpoint(tmp_path / "bad.edtc")
    assert exc.value.offset == at


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_rejected(tmp_path, rng, value):
    bad = rng.normal(size=(3, 4))
    bad[1, 2] = value
    tensors = {"ok": rng.normal(size=(2,)), "bad": bad, "later": np.array([np.nan])}
    write_checkpoint(tmp_path / "m.edtc", {}, tensors)
    with pytest.raises(FormatError, match="tensor 'bad' holds non-finite values"):
        read_checkpoint(tmp_path / "m.edtc")


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.edtc"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        read_checkpoint(p)
    with pytest.raises(FormatError):
        read_image(p)
    with pytest.raises(FormatError):
        read_descriptors(p)


def test_truncated_file_rejected(tmp_path, rng):
    write_descriptors(tmp_path / "d.edtd", rng.normal(size=(4, 8)))
    blob = (tmp_path / "d.edtd").read_bytes()
    (tmp_path / "cut.edtd").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        read_descriptors(tmp_path / "cut.edtd")


def test_write_is_atomic(tmp_path, rng, monkeypatch):
    """A crash mid-write must not leave a partial file at the target path."""
    import placerec.fileformats as ff

    target = tmp_path / "out.edtd"
    real_replace = ff.os.replace

    def boom(src, dst):
        raise RuntimeError("simulated crash before rename")

    monkeypatch.setattr(ff.os, "replace", boom)
    with pytest.raises(RuntimeError):
        write_descriptors(target, rng.normal(size=(2, 4)))
    assert not target.exists()
    monkeypatch.setattr(ff.os, "replace", real_replace)
    write_descriptors(target, rng.normal(size=(2, 4)))
    assert target.exists()


def test_sidecar_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("foo,bar\na,1\n")
    with pytest.raises(FormatError):
        read_sidecar(p)


@pytest.mark.parametrize("record", ["b,seven", "b"])
def test_sidecar_bad_record_names_line(tmp_path, record):
    p = tmp_path / "bad.csv"
    p.write_text(f"id,place_id\na,1\n\n{record}\n")
    with pytest.raises(FormatError, match="line 4"):
        read_sidecar(p)


def test_sidecar_huge_field_gives_a_short_message(tmp_path):
    """A 200,000-digit place id is echoed cut short, with the file and line."""
    p = tmp_path / "bad.csv"
    p.write_text(f"id,place_id\na,1\nb,{'1' * 200_000}\n")
    with pytest.raises(FormatError) as exc:
        read_sidecar(p)
    msg = str(exc.value)
    assert len(msg) < 200 + len(str(p)), len(msg)
    assert str(p) in msg and "line 3" in msg and "(200004 chars)" in msg
