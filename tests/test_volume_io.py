"""Raw volume format: headers, round trips, frame stacking, PGM export."""

import json

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    VolumeFormatError,
    VolumeHeader,
    default_header_path,
    export_slice,
    load_volume,
    read_header,
    save_volume,
    stack_frames,
    write_header,
)

from oracles import rand_scalar


def read_pgm(path):
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    rest = data[3:]
    dims_line, rest = rest.split(b"\n", 1)
    maxval_line, payload = rest.split(b"\n", 1)
    cols, rows = (int(t) for t in dims_line.split())
    assert maxval_line == b"255"
    pixels = np.frombuffer(payload, dtype=np.uint8)
    assert pixels.size == rows * cols
    return pixels.reshape(rows, cols)


# ------------------------------------------------------------------ headers

def test_header_round_trip(tmp_path):
    header = VolumeHeader(dims=(4, 5, 6), dtype="f32", value_range=(0.0, 2.5))
    path = tmp_path / "vol.json"
    write_header(header, path)
    assert read_header(path) == header


def test_header_missing_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dtype": "f64"}))
    with pytest.raises(VolumeFormatError):
        read_header(path)


def test_header_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(VolumeFormatError):
        read_header(path)


def test_header_rejects_bad_fields():
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(1, 4)).validate()
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), dtype="i16").validate()
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), byte_order="big").validate()
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), layout="first-fastest").validate()
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), value_range=(1.0, 1.0)).validate()


def test_default_header_path():
    assert default_header_path("data/vol.raw").name == "vol.json"


# ------------------------------------------------------------------ volumes

def test_f64_round_trip_bit_exact(tmp_path):
    u = rand_scalar((32, 32, 32), 0)
    path = tmp_path / "vol.raw"
    save_volume(u, path)
    back = load_volume(path)
    assert back.tobytes() == u.tobytes()


def test_f32_widen_and_narrow(tmp_path):
    u = rand_scalar((8, 8), 1)
    path = tmp_path / "vol.raw"
    save_volume(u, path, dtype="f32")
    back = load_volume(path)
    np.testing.assert_array_equal(back, u.astype(np.float32).astype(np.float64))
    assert read_header(default_header_path(path)).dtype == "f32"


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "vol.raw"
    path.write_bytes(b"\x00" * 15 * 8)
    write_header(VolumeHeader(dims=(4, 4)), default_header_path(path))
    with pytest.raises(VolumeFormatError, match="120 bytes"):
        load_volume(path)


def test_payload_with_partial_trailing_item_rejected(tmp_path):
    path = tmp_path / "vol.raw"
    path.write_bytes(b"\x00" * (16 * 8 + 3))
    write_header(VolumeHeader(dims=(4, 4)), default_header_path(path))
    with pytest.raises(VolumeFormatError, match="131 bytes"):
        load_volume(path)


def test_header_with_overlong_integer_rejected(tmp_path):
    path = tmp_path / "vol.json"
    path.write_text('{"dims": [4, ' + "9" * 5000 + "]}")
    with pytest.raises(VolumeFormatError):
        read_header(path)


def test_missing_payload(tmp_path):
    write_header(VolumeHeader(dims=(4, 4)), tmp_path / "vol.json")
    with pytest.raises(VolumeFormatError):
        load_volume(tmp_path / "vol.raw")


def test_non_finite_payload_rejected(tmp_path):
    u = np.zeros((4, 4))
    u[0, 0] = np.inf
    path = tmp_path / "vol.raw"
    path.write_bytes(u.astype("<f8").tobytes())
    write_header(VolumeHeader(dims=(4, 4)), default_header_path(path))
    with pytest.raises(VolumeFormatError):
        load_volume(path)


def test_explicit_header_path(tmp_path):
    u = rand_scalar((4, 4), 2)
    save_volume(u, tmp_path / "a.raw", tmp_path / "meta.json")
    back = load_volume(tmp_path / "a.raw", tmp_path / "meta.json")
    np.testing.assert_array_equal(back, u)


@pytest.mark.parametrize("failing", ["vol.raw", "vol.json"])
def test_failed_save_keeps_previous_volume(tmp_path, monkeypatch, failing):
    import builtins
    import errno

    from tvstokes import volume_io

    path = tmp_path / "vol.raw"
    old = rand_scalar((4, 5), 7)
    save_volume(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class WriteFailsHalfway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_failing(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return WriteFailsHalfway(fh) if file.name.startswith(f".{failing}.") else fh

    monkeypatch.setattr(volume_io, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="No space"):
        save_volume(rand_scalar((4, 5), 8), path, dtype="f32", value_range=(0.0, 1.0))
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert load_volume(path).tobytes() == old.tobytes()


@pytest.mark.parametrize("dtype, value", [("f64", np.inf), ("f32", 1e300)])
def test_save_rejects_values_not_finite_in_header_dtype(tmp_path, dtype, value):
    path = tmp_path / "vol.raw"
    old = rand_scalar((4, 5), 7)
    save_volume(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    bad = rand_scalar((4, 5), 8)
    bad[1, 2] = value
    with pytest.raises(VolumeFormatError):
        save_volume(bad, path, dtype=dtype)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# ------------------------------------------------------------------ stacking

def test_stack_frames_forms_video_volume():
    frames = [rand_scalar((6, 7), s) for s in range(4)]
    vol = stack_frames(frames)
    assert vol.shape == (6, 7, 4)
    for t, frame in enumerate(frames):
        np.testing.assert_array_equal(vol[:, :, t], frame)


def test_stack_frames_rejects_bad_input():
    with pytest.raises(DimensionError):
        stack_frames([np.zeros((4, 4))])
    with pytest.raises(DimensionError):
        stack_frames([np.zeros((4, 4)), np.zeros((4, 5))])
    with pytest.raises(DimensionError):
        stack_frames([np.zeros(4), np.zeros(4)])


# ------------------------------------------------------------------ slices

def test_export_whole_2d_field_endpoints(tmp_path):
    u = np.arange(16, dtype=np.float64).reshape(4, 4)
    out = tmp_path / "img.pgm"
    export_slice(u, axis=None, index=None, out_path=out)
    pixels = read_pgm(out)
    assert pixels.shape == (4, 4)
    assert pixels[0, 0] == 0  # minimum voxel
    assert pixels[-1, -1] == 255  # maximum voxel


def test_export_constant_slice_is_mid_gray(tmp_path):
    out = tmp_path / "img.pgm"
    export_slice(np.full((5, 5), 3.3), axis=None, index=None, out_path=out)
    assert np.all(read_pgm(out) == 128)


def test_export_slice_drops_sliced_axis(tmp_path):
    u = rand_scalar((4, 5, 6), 3)
    out = tmp_path / "img.pgm"
    export_slice(u, axis=1, index=2, out_path=out)
    pixels = read_pgm(out)
    assert pixels.shape == (4, 6)


def test_export_slice_uses_declared_range(tmp_path):
    u = np.array([[0.0, 0.5], [1.0, 0.25]])
    out = tmp_path / "img.pgm"
    export_slice(u, axis=None, index=None, out_path=out, value_range=(0.0, 2.0))
    pixels = read_pgm(out)
    assert pixels[1, 0] == 128  # value 1.0 maps to the middle of [0, 2]


def test_export_slice_range_errors():
    u = rand_scalar((4, 5, 6), 4)
    with pytest.raises(DimensionError):
        export_slice(u, axis=3, index=0, out_path="unused.pgm")
    with pytest.raises(DimensionError):
        export_slice(u, axis=1, index=5, out_path="unused.pgm")
    with pytest.raises(DimensionError):
        export_slice(u, axis=None, index=None, out_path="unused.pgm")
    with pytest.raises(DimensionError):
        export_slice(rand_scalar((3, 4, 5, 6), 5), axis=0, index=0, out_path="unused.pgm")


def test_export_1d_slice_of_2d_field(tmp_path):
    u = rand_scalar((4, 6), 6)
    out = tmp_path / "row.pgm"
    export_slice(u, axis=0, index=1, out_path=out)
    assert read_pgm(out).shape == (1, 6)
