"""Raw volume IO: `<name>.raw` payloads described by `<name>.json` headers.

A header declares ``dims`` (grid shape, every axis >= 2), ``dtype`` ("f32" or
"f64"), ``byte_order`` ("little"), ``layout`` ("last-fastest", i.e. C order)
and an optional ``value_range`` ``[min, max]``.  Payloads are plain
little-endian IEEE floats; f64 volumes round-trip bit-exactly, f32 volumes
are widened to f64 on load and narrowed with round-to-nearest-even on save.
Payloads and headers are written atomically (temp file, then rename) by
:func:`write_atomic`, public at module level only, not in ``__all__``.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, VolumeFormatError

__all__ = [
    "VolumeHeader", "default_header_path", "read_header", "write_header", "load_volume",
    "save_volume", "stack_frames", "export_slice",
]

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


@dataclass
class VolumeHeader:
    """Metadata sidecar for a raw volume payload."""

    dims: tuple[int, ...]
    dtype: str = "f64"
    byte_order: str = "little"
    layout: str = "last-fastest"
    value_range: tuple[float, float] | None = None

    def validate(self) -> None:
        if not self.dims or any(int(n) < 2 for n in self.dims):
            raise VolumeFormatError(
                f"header dims {list(self.dims)} invalid: need a nonempty list "
                "with every entry >= 2"
            )
        if self.dtype not in _DTYPES:
            raise VolumeFormatError(f"unknown dtype {self.dtype!r}; expected f32 or f64")
        if self.byte_order != "little":
            raise VolumeFormatError(f"unsupported byte_order {self.byte_order!r}")
        if self.layout != "last-fastest":
            raise VolumeFormatError(f"unsupported layout {self.layout!r}")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise VolumeFormatError(f"value_range {self.value_range} is not an increasing finite pair")

    def payload_bytes(self) -> int:
        count = 1
        for n in self.dims:
            count *= int(n)
        return count * _DTYPES[self.dtype].itemsize

    def to_dict(self) -> dict:
        return {
            "dims": [int(n) for n in self.dims],
            "dtype": self.dtype,
            "byte_order": self.byte_order,
            "layout": self.layout,
            "value_range": None if self.value_range is None else [float(v) for v in self.value_range],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VolumeHeader":
        """Build and validate a header from its decoded JSON object.

        ``dims`` must be a list of integers and ``value_range`` either
        ``null`` or a list of two numbers; anything else is rejected with
        :class:`VolumeFormatError` rather than coerced.
        """
        dims = data.get("dims")
        if not isinstance(dims, list) or not all(isinstance(n, int) for n in dims):
            raise VolumeFormatError(f"header 'dims' must be a list of integers, got {dims!r}")
        vr = data.get("value_range")
        if vr is not None and not (
            isinstance(vr, list) and len(vr) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vr)
        ):
            raise VolumeFormatError(
                f"header 'value_range' must be null or a list of two numbers, got {vr!r}"
            )
        try:
            value_range = None if vr is None else (float(vr[0]), float(vr[1]))
        except OverflowError as exc:
            raise VolumeFormatError(f"header 'value_range' {vr!r} exceeds float range") from exc
        header = cls(
            dims=tuple(dims),
            dtype=str(data.get("dtype", "f64")),
            byte_order=str(data.get("byte_order", "little")),
            layout=str(data.get("layout", "last-fastest")),
            value_range=value_range,
        )
        header.validate()
        return header


def default_header_path(data_path) -> Path:
    """Sidecar header path for a payload: same stem, ``.json`` suffix."""
    return Path(data_path).with_suffix(".json")


def read_header(header_path) -> VolumeHeader:
    path = Path(header_path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise VolumeFormatError(f"cannot read header {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise VolumeFormatError(f"malformed JSON header {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise VolumeFormatError(f"header {path} must contain a JSON object")
    return VolumeHeader.from_dict(data)


def write_atomic(*files) -> None:
    """Write each ``(path, bytes-like data)`` pair, all files or none.

    Every file is first written in full to a temporary file beside its
    target; only then does ``os.replace`` rename each over its target.  A
    failed write leaves the earlier files untouched and removes the
    temporaries, so a payload never disagrees with its header.  This guards
    against a failing process, not against power loss: there is no fsync.
    """
    renames = []
    try:
        for path, data in files:
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
            renames.append((tmp, path))
            with open(tmp, "xb") as fh:
                fh.write(data)
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in renames:
            tmp.unlink(missing_ok=True)
        raise


def _header_bytes(header: VolumeHeader) -> bytes:
    header.validate()
    return (json.dumps(header.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_header(header: VolumeHeader, header_path) -> None:
    write_atomic((header_path, _header_bytes(header)))


def load_volume(data_path, header_path=None) -> np.ndarray:
    """Load a raw volume as float64, checking payload size and finiteness."""
    data_path = Path(data_path)
    header = read_header(default_header_path(data_path) if header_path is None else header_path)
    dtype = _DTYPES[header.dtype]
    expected = header.payload_bytes()
    try:
        with open(data_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise VolumeFormatError(
                    f"payload {data_path} has {size} bytes but header "
                    f"dims {list(header.dims)} and dtype {header.dtype} require {expected}"
                )
            values = np.fromfile(fh, dtype=dtype, count=expected // dtype.itemsize)
    except OSError as exc:
        raise VolumeFormatError(f"cannot read payload {data_path}: {exc}") from exc
    values = values.reshape(header.dims).astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise VolumeFormatError(f"payload {data_path} contains non-finite values")
    return values


def save_volume(
    field: np.ndarray,
    data_path,
    header_path=None,
    dtype: str = "f64",
    value_range: tuple[float, float] | None = None,
) -> VolumeHeader:
    """Write a volume payload and its header; returns the written header.

    Refuses values that are not finite in ``dtype`` before writing any file.
    """
    field = np.asarray(field, dtype=np.float64)
    header = VolumeHeader(dims=tuple(field.shape), dtype=dtype, value_range=value_range)
    header.validate()
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(field.astype(_DTYPES[dtype]))
    if not np.isfinite(payload).all():
        raise VolumeFormatError(f"volume for {data_path} has values not finite as {dtype}")
    write_atomic(
        (data_path, payload),
        (default_header_path(data_path) if header_path is None else header_path,
         _header_bytes(header)),
    )
    return header


def stack_frames(frames) -> np.ndarray:
    """Stack equally shaped 2-D frames along a new last (temporal) axis."""
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    if len(frames) < 2:
        raise DimensionError("need at least two frames to stack")
    shape = frames[0].shape
    if any(f.shape != shape for f in frames):
        raise DimensionError("all frames must share one shape")
    if len(shape) != 2:
        raise DimensionError(f"frames must be 2-D, got shape {shape}")
    return np.stack(frames, axis=-1)


def export_slice(
    u: np.ndarray,
    axis: int | None,
    index: int | None,
    out_path,
    value_range: tuple[float, float] | None = None,
) -> None:
    """Write one slice of a volume as a binary 8-bit grayscale PGM (P5).

    For 2-D fields ``axis=None`` exports the whole field.  Values map
    linearly from ``[vmin, vmax]`` (the given ``value_range``, else the slice
    extrema) onto ``[0, 255]``; a degenerate range yields uniform gray 128.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2:
        raise DimensionError("slice export needs at least a 2-d field")
    if axis is None:
        if u.ndim != 2:
            raise DimensionError(f"axis is required for a {u.ndim}-d field")
        plane = u
    else:
        if not 0 <= axis < u.ndim:
            raise DimensionError(f"axis {axis} out of range for {u.ndim}-d field")
        if index is None or not 0 <= index < u.shape[axis]:
            raise DimensionError(
                f"index {index} out of range for axis {axis} of length {u.shape[axis]}"
            )
        plane = np.take(u, index, axis=axis)
    if plane.ndim == 1:
        plane = plane[None, :]
    if plane.ndim != 2:
        raise DimensionError(
            f"sliced field is {plane.ndim}-d; PGM export needs a 2-d slice"
        )
    if value_range is not None:
        vmin, vmax = float(value_range[0]), float(value_range[1])
    else:
        vmin, vmax = float(plane.min()), float(plane.max())
    if vmax > vmin:
        scaled = (plane - vmin) / (vmax - vmin) * 255.0
        pixels = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    else:
        pixels = np.full(plane.shape, 128, dtype=np.uint8)
    rows, cols = pixels.shape
    write_atomic((out_path, f"P5\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes()))
