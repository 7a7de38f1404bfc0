"""Binary weight files.

Layout: magic "RLAODW1\\0", u32 LE layer count, then per layer u32 rows,
u32 cols, rows*cols f32 LE row-major weights (rows = outputs), rows f32
biases. In-memory weights are (n_in, n_out), so they are transposed on
the way through.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import WeightFormatError
from .mlp import MlpParams

MAGIC = b"RLAODW1\x00"


def save_params(params: MlpParams, path: str | Path) -> None:
    parts = [MAGIC, struct.pack("<I", len(params.weights))]
    for w, b in zip(params.weights, params.biases):
        rows, cols = w.shape[1], w.shape[0]  # stored as (out, in)
        parts.append(struct.pack("<II", rows, cols))
        parts.append(np.ascontiguousarray(w.T, dtype="<f4").tobytes())
        parts.append(np.asarray(b, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_params(path: str | Path) -> MlpParams:
    """Float64 parameters from a weight file: all headers are checked first,
    then each layer's finite f32 data widens once into the flat buffer."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise WeightFormatError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    if len(data) < len(MAGIC) + 4 or not data.startswith(MAGIC):
        raise WeightFormatError(f"{path}: bad magic")
    pos = len(MAGIC)
    (n_layers,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if n_layers == 0:
        raise WeightFormatError(f"{path}: zero layers")

    layers = []  # (rows, cols, offset of the weights)
    for i in range(n_layers):
        if pos + 8 > len(data):
            raise WeightFormatError(f"{path}: truncated layer header")
        rows, cols = struct.unpack_from("<II", data, pos)
        pos += 8
        if rows == 0 or cols == 0:
            raise WeightFormatError(f"{path}: degenerate layer shape {rows}x{cols}")
        if layers and cols != layers[-1][0]:
            raise WeightFormatError(f"{path}: layer {i} input does not chain")
        layers.append((rows, cols, pos))
        pos += 4 * (rows * cols + rows)
        if pos > len(data):
            raise WeightFormatError(f"{path}: truncated layer data")
    if pos != len(data):
        raise WeightFormatError(f"{path}: {len(data) - pos} trailing bytes")

    sizes = (layers[0][1], *(rows for rows, _, _ in layers))
    params = MlpParams.from_flat(sizes, np.empty(sum(r * c + r for r, c, _ in layers)))
    for i, ((rows, cols, offset), w, b) in enumerate(zip(layers, params.weights, params.biases)):
        values = np.frombuffer(data, "<f4", rows * cols + rows, offset)
        # Checked before widening: casting a signalling NaN warns.
        if not np.isfinite(values).all():
            raise WeightFormatError(f"{path}: layer {i} has non-finite weights")
        w.T[...] = values[: rows * cols].reshape(rows, cols)
        b[...] = values[rows * cols :]
    return params
