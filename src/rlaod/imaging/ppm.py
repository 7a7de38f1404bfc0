"""Binary PPM (P6) image I/O."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from ..errors import ImageFormatError
from .color import RgbImage, copy_pixels


def write_ppm(img: RgbImage, path: str | Path) -> None:
    header = np.frombuffer(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"), np.uint8)
    data = np.empty(header.size + 3 * img.width * img.height, dtype=np.uint8)
    data[: header.size] = header
    copy_pixels(img, data[header.size :].reshape(img.height, img.width, 3))
    Path(path).write_bytes(data)


def read_ppm(path: str | Path) -> RgbImage:
    data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise ImageFormatError(f"{path}: not a binary PPM (P6) file")

    # Header: magic, width, height, maxval, each separated by whitespace
    # and optional '#' comment lines, then a single whitespace byte.
    pos = 2
    fields = []
    while len(fields) < 3:
        m = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\d+)").match(data, pos)
        if m is None:
            raise ImageFormatError(f"{path}: malformed PPM header")
        try:
            fields.append(int(m.group(1)))
        except ValueError as exc:  # more digits than int() converts
            raise ImageFormatError(f"{path}: malformed PPM header ({exc})") from exc
        pos = m.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: empty image ({width}x{height})")
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval

    expected = width * height * 3
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise ImageFormatError(f"{path}: truncated raster ({len(raster)} of {expected} bytes)")
    return RgbImage.from_pixels(np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3))
