"""Raw volume format: headers, round trips, frame stacking, PGM export."""

import dataclasses
import json

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    ParameterError,
    VolumeFormatError,
    VolumeHeader,
    export_slice,
    load_volume,
    save_volume,
    stack_frames,
)
from tvstokes.volume_io import _default_header_path, _header_bytes, _read_header, write_atomic

from oracles import rand_scalar


def write_sidecar(header, path):
    write_atomic((path, _header_bytes(header)))


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
    write_sidecar(header, path)
    assert _read_header(path) == header


def test_header_file_states_the_one_byte_order_and_layout(tmp_path):
    header = save_volume(np.zeros((2, 3)), tmp_path / "vol.raw")
    data = json.loads((tmp_path / "vol.json").read_text())
    assert data == {"dims": [2, 3], "dtype": "f64", "byte_order": "little",
                    "layout": "last-fastest", "value_range": None}
    assert [f.name for f in dataclasses.fields(VolumeHeader)] == ["dims", "dtype", "value_range"]
    del data["byte_order"], data["layout"]
    assert VolumeHeader.from_dict(data) == header


def test_header_missing_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dtype": "f64"}))
    with pytest.raises(VolumeFormatError):
        _read_header(path)


def test_header_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(VolumeFormatError):
        _read_header(path)


def test_header_rejects_bad_fields():
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(1, 4))
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), dtype="i16")
    with pytest.raises(VolumeFormatError):
        VolumeHeader.from_dict({"dims": [4, 4], "byte_order": "big"})
    with pytest.raises(VolumeFormatError):
        VolumeHeader.from_dict({"dims": [4, 4], "layout": "first-fastest"})
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), value_range=(1.0, 1.0))


def test_header_is_valid_by_construction_and_frozen():
    """A header is checked when it is built and cannot be made invalid afterwards."""
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(1, 4))
    header = VolumeHeader(dims=(4, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        header.dims = (1, 4)
    assert header == VolumeHeader(dims=(4, 4))


@pytest.mark.parametrize("dims, value_range", [
    pytest.param((2.5, 4), None, id="float-dims"),
    pytest.param(("4", 4), None, id="str-dims"),
    pytest.param((4, 4), ("a", "b"), id="str-range"),
    pytest.param((4, 4), (0, 10**400), id="range-past-the-floats"),
    pytest.param((4, 4), (np.False_, np.True_), id="np.bool_-range"),
    pytest.param((4, 4), (False, True), id="bool-range"),
    pytest.param((4, 4), (0.0, 1.0, 2.0), id="three-ends"),
    pytest.param((4, 4), 5, id="no-pair"),
    pytest.param(5, None, id="int-dims"),
])
def test_header_checks_its_field_types_when_built(dims, value_range):
    """A header built in code is held to the rules of one read from JSON."""
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=dims, value_range=value_range)


def test_header_holds_its_dims_as_a_tuple_of_ints():
    """A list of dims made the frozen header mutable and unhashable."""
    header = VolumeHeader(dims=[4, np.int64(5)])
    assert header.dims == (4, 5) and all(type(n) is int for n in header.dims)
    assert hash(header) == hash(VolumeHeader(dims=(4, 5)))
    with pytest.raises(VolumeFormatError):
        VolumeHeader(dims=(4, 4), dtype=["f32"])


def test_header_holds_its_value_range_as_floats():
    header = VolumeHeader(dims=(4, 4), value_range=(0, np.float32(255)))
    assert header.value_range == (0.0, 255.0)
    assert all(type(v) is float for v in header.value_range)
    assert VolumeHeader.from_dict(header.to_dict()) == header


def test_default_header_path():
    assert _default_header_path("data/vol.raw").name == "vol.json"


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
    assert _read_header(_default_header_path(path)).dtype == "f32"


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "vol.raw"
    path.write_bytes(b"\x00" * 15 * 8)
    write_sidecar(VolumeHeader(dims=(4, 4)), _default_header_path(path))
    with pytest.raises(VolumeFormatError, match="120 bytes"):
        load_volume(path)


def test_payload_with_partial_trailing_item_rejected(tmp_path):
    path = tmp_path / "vol.raw"
    path.write_bytes(b"\x00" * (16 * 8 + 3))
    write_sidecar(VolumeHeader(dims=(4, 4)), _default_header_path(path))
    with pytest.raises(VolumeFormatError, match="131 bytes"):
        load_volume(path)


def test_header_with_overlong_integer_rejected(tmp_path):
    path = tmp_path / "vol.json"
    path.write_text('{"dims": [4, ' + "9" * 5000 + "]}")
    with pytest.raises(VolumeFormatError):
        _read_header(path)


def test_missing_payload(tmp_path):
    write_sidecar(VolumeHeader(dims=(4, 4)), tmp_path / "vol.json")
    with pytest.raises(VolumeFormatError):
        load_volume(tmp_path / "vol.raw")


def test_non_finite_payload_rejected(tmp_path):
    u = np.zeros((4, 4))
    u[0, 0] = np.inf
    path = tmp_path / "vol.raw"
    path.write_bytes(u.astype("<f8").tobytes())
    write_sidecar(VolumeHeader(dims=(4, 4)), _default_header_path(path))
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


@pytest.mark.parametrize("write", [
    pytest.param(lambda: save_volume(np.ones((8, 8)), "v.json"), id="payload-on-its-header"),
    pytest.param(lambda: write_atomic(("a", b"first"), ("./a", b"second")), id="a-and-./a"),
])
def test_two_files_on_one_path_raise_before_any_is_written(tmp_path, monkeypatch, write):
    """The second file would replace the first, as a header its own payload."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ParameterError):
        write()
    assert list(tmp_path.iterdir()) == []


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
