"""Minimal binary Netpbm codecs: P5 graymaps (16-bit) and P6 pixmaps (8-bit)."""

from __future__ import annotations

import os
import re

import numpy as np

from .jsonio import writing


# Longest header number read: far above any real extent, and far below
# the 4300 digits at which int() refuses a string.
MAX_HEADER_DIGITS = 12
_FIELD = re.compile(rb"[0-9]{1,%d}" % MAX_HEADER_DIGITS)


class NetpbmError(ValueError):
    """Malformed or unsupported Netpbm file."""


def _write(path: str | os.PathLike, magic: bytes, pixels: np.ndarray,
           comment: str | None = None) -> None:
    """Write the header, maxval the dtype's maximum, then the raster;
    `writing` removes a file cut short and names its path."""
    header = magic + b"\n"
    if comment is not None:
        header += b"# " + comment.encode("ascii") + b"\n"
    header += (f"{pixels.shape[1]} {pixels.shape[0]}\n"
               f"{np.iinfo(pixels.dtype).max}\n").encode("ascii")
    with writing(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())


def _read(path: str | os.PathLike, magic: bytes, dtype: str, depth: int
          ) -> tuple[np.ndarray, list[str]]:
    """Read '<magic> width height maxval', allowing # comments, and the
    raster; returns ([H,W,depth] `dtype` pixels, header comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    path = os.fspath(path)
    if not data.startswith(magic):
        raise NetpbmError(f"{path}: expected magic {magic.decode()!r}")
    pos = len(magic)
    comments: list[str] = []
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise NetpbmError(f"{path}: truncated header")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise NetpbmError(f"{path}: truncated header comment")
            comments.append(data[pos + 1:end].decode("ascii", "replace").strip())
            pos = end + 1
        elif ch.isdigit():
            digits = _FIELD.match(data, pos).group()
            pos += len(digits)
            if data[pos:pos + 1].isdigit():
                raise NetpbmError(f"{path}: header number longer than "
                                  f"{MAX_HEADER_DIGITS} digits")
            fields.append(int(digits))
        else:
            raise NetpbmError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise NetpbmError(f"{path}: missing whitespace before raster")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != np.iinfo(dtype).max:
        raise NetpbmError(f"{path}: expected maxval {np.iinfo(dtype).max}, "
                          f"got {maxval}")
    need = width * height * depth * np.dtype(dtype).itemsize
    raster = data[pos + 1:pos + 1 + need]
    if len(raster) < need:
        raise NetpbmError(f"{path}: truncated raster "
                          f"({len(raster)} of {need} bytes)")
    return np.frombuffer(raster, dtype=dtype).reshape(height, width, depth), comments


def write_pgm16(path: str | os.PathLike, values: np.ndarray,
                comment: str | None = None) -> None:
    """Write a 2D array of ids in [0, 65535] as a binary P5, MSB first."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"P5 payload must be 2D, got {values.ndim} dimensions")
    if values.min() < 0 or values.max() > 65535:
        raise ValueError("P5 values must lie in [0, 65535]")
    _write(path, b"P5", values.astype(">u2"), comment)


def read_pgm16(path: str | os.PathLike) -> tuple[np.ndarray, list[str]]:
    """Read a binary P5 with maxval 65535; returns (values, header comments)."""
    values, comments = _read(path, b"P5", ">u2", 1)
    return values[:, :, 0].astype(np.int64), comments


def write_ppm8(path: str | os.PathLike, rgb: np.ndarray) -> None:
    """Write an [H,W,3] uint8 array as a binary P6 with maxval 255."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"P6 payload must be [H,W,3], got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise ValueError(f"P6 payload must be uint8, got {rgb.dtype}")
    _write(path, b"P6", rgb)


def read_ppm8(path: str | os.PathLike) -> np.ndarray:
    """Read a binary P6 with maxval 255 into an [H,W,3] uint8 array."""
    return _read(path, b"P6", "u1", 3)[0].copy()
