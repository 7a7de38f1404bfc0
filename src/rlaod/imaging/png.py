"""Minimal PNG support (optional image format).

Writes 8-bit truecolor PNGs and reads back the non-interlaced 8-bit RGB
subset, which covers files produced here and by common encoders. Palette,
alpha, 16-bit, and interlaced files are rejected with a clear error.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import ImageFormatError
from .color import RgbImage, copy_pixels

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(kind: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF)
    )


def write_png(img: RgbImage, path: str | Path) -> None:
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, 2, 0, 0, 0)
    # Each row is filter type 0, then the row's pixels.
    raw = np.zeros((img.height, 1 + 3 * img.width), dtype=np.uint8)
    copy_pixels(img, raw[:, 1:].reshape(img.height, img.width, 3))
    out = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )
    Path(path).write_bytes(out)


def _unfilter(kind: int, row: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    """Undo one row's filter; uint8 arithmetic wraps mod 256, as PNG requires."""
    if kind == 0:
        return row
    if kind == 2:
        return row + prev
    if kind == 1:
        return np.cumsum(row.reshape(-1, bpp), axis=0, dtype=np.uint8).ravel()
    if kind not in (3, 4):
        raise ImageFormatError(f"unknown PNG filter type {kind}")
    # Average and Paeth depend on the previous output byte: one byte at a
    # time, on Python ints (a numpy scalar overflow would warn).
    raw, up = row.tolist(), prev.tolist()
    out = bytearray(len(raw))
    for i, x in enumerate(raw):
        a = out[i - bpp] if i >= bpp else 0
        b = up[i]
        if kind == 3:
            pred = (a + b) // 2
        else:
            c = up[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        out[i] = (x + pred) & 0xFF
    return np.frombuffer(out, dtype=np.uint8)


def read_png(path: str | Path) -> RgbImage:
    data = Path(path).read_bytes()
    try:
        return _decode_png(data, path)
    except (struct.error, zlib.error) as exc:
        raise ImageFormatError(f"{path}: corrupt PNG ({exc})") from exc


def _decode_png(data: bytes, path: str | Path) -> RgbImage:
    if not data.startswith(_SIGNATURE):
        raise ImageFormatError(f"{path}: not a PNG file")

    pos = len(_SIGNATURE)
    width = height = None
    idat = b""
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if kind == b"IHDR":
            width, height, depth, color, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if width < 1 or height < 1:
                raise ImageFormatError(f"{path}: empty image ({width}x{height})")
            if depth != 8 or color != 2 or interlace != 0:
                raise ImageFormatError(
                    f"{path}: only 8-bit non-interlaced RGB PNGs supported"
                )
        elif kind == b"IDAT":
            idat += payload
        elif kind == b"IEND":
            break
    if width is None or not idat:
        raise ImageFormatError(f"{path}: missing IHDR or IDAT chunk")

    raw = zlib.decompress(idat)
    stride = width * 3
    if len(raw) != height * (stride + 1):
        raise ImageFormatError(f"{path}: decompressed size mismatch")

    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    pixels = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        prev = pixels[y] = _unfilter(int(rows[y, 0]), rows[y, 1:], prev, bpp=3)
    return RgbImage.from_pixels(pixels.reshape(height, width, 3))
