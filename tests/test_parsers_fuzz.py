"""Fuzz tests for the file parsers: whatever bytes a file holds, each parser
returns a well-formed value or raises its own package error, never another
exception.

Run at length with `--hypothesis-profile=fuzz` (see conftest.py).
"""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filtered_png
from rlaod.agent import MAGIC, load_params
from rlaod.errors import ConfigError, ImageFormatError, WeightFormatError
from rlaod.imaging import RgbImage, read_ppm, write_ppm
from rlaod.imaging.png import _SIGNATURE, _chunk, read_png, write_png
from rlaod.orchestrator import load_dataset


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding one good and one corrupt image of each format."""
    d = tmp_path_factory.mktemp("fuzz")
    image = RgbImage(pixels=np.random.default_rng(0).integers(0, 256, (5, 4, 3), dtype=np.uint8))
    write_ppm(image, d / "ok.ppm")
    write_png(image, d / "ok.png")
    (d / "bad.ppm").write_bytes((d / "ok.ppm").read_bytes()[:-9])
    (d / "bad.png").write_bytes((d / "ok.png").read_bytes()[:-30])
    return d


def _mutated(draw, data: bytes) -> bytes:
    """The bytes unchanged, truncated, extended, or with one byte replaced."""
    how = draw(st.sampled_from(["keep", "keep", "cut", "extend", "flip"]))
    if how == "cut":
        return data[: draw(st.integers(0, len(data)))]
    if how == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if how == "flip" and data:
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    return data


def _check_image(img: RgbImage) -> None:
    assert img.pixels.dtype == np.uint8 and img.pixels.ndim == 3
    assert img.width >= 1 and img.height >= 1


# --- PPM --------------------------------------------------------------------

_PPM_NUMBERS = (
    st.sampled_from(["255", "0", "1", "2", "3"])
    | st.text("0123456789", min_size=1, max_size=8)
    | st.just("9" * 5000)  # more digits than int() converts
)
_PPM_GAPS = st.sampled_from([" ", "\n", "\t ", "\n# comment\n", "#", "", "x"])


@st.composite
def _ppm_files(draw):
    fields = draw(st.lists(_PPM_NUMBERS, max_size=4))
    header = draw(st.sampled_from([b"P6", b"P6", b"P5", b""]))
    for field in fields:
        header += draw(_PPM_GAPS).encode() + field.encode()
    data = header + draw(_PPM_GAPS).encode() + draw(st.binary(max_size=80))
    return _mutated(draw, data)


@given(data=_ppm_files())
@settings(deadline=None)
def test_read_ppm(workdir, data):
    path = workdir / "fuzz.ppm"
    path.write_bytes(data)
    try:
        img = read_ppm(path)
    except ImageFormatError:
        return
    _check_image(img)


# --- PNG --------------------------------------------------------------------


@st.composite
def _png_files(draw):
    width, height = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    depth, color, interlace = draw(st.sampled_from([(8, 2, 0)] * 4 + [(16, 2, 0), (8, 6, 0), (8, 2, 1)]))
    ihdr = struct.pack(">IIBBBBB", width, height, depth, color, 0, 0, interlace)
    rows = b"".join(
        bytes([draw(st.integers(0, 6))]) + draw(st.binary(min_size=3 * width, max_size=3 * width))
        for _ in range(height)
    )
    idat = zlib.compress(_mutated(draw, rows)) if draw(st.booleans()) else draw(st.binary(max_size=40))
    chunks = [(b"IHDR", ihdr), (b"IDAT", idat), (b"IEND", b"")]
    chunks = draw(st.permutations(chunks)) if draw(st.integers(0, 4)) == 0 else chunks
    data = _SIGNATURE + b"".join(_chunk(kind, payload) for kind, payload in chunks)
    return _mutated(draw, data)


@given(data=_png_files())
@settings(deadline=None)
def test_read_png(workdir, data):
    path = workdir / "fuzz.png"
    path.write_bytes(data)
    try:
        img = read_png(path)
    except ImageFormatError:
        return
    _check_image(img)


@given(
    pixels=st.integers(1, 6).flatmap(
        lambda w: st.lists(st.binary(min_size=3 * w, max_size=3 * w), min_size=1, max_size=5)
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None)
def test_read_png_undoes_every_filter(workdir, pixels, seed):
    """Any pixels, any filter type per row: decoding gives the pixels back."""
    px = np.frombuffer(b"".join(pixels), dtype=np.uint8).reshape(len(pixels), -1, 3)
    filters = np.random.default_rng(seed).integers(0, 5, len(pixels))
    path = workdir / "filtered.png"
    path.write_bytes(filtered_png(px, filters))
    assert np.array_equal(read_png(path).pixels, px)


# --- Weight files -----------------------------------------------------------


@st.composite
def _weight_files(draw):
    n_layers = draw(st.integers(0, 3))
    data = draw(st.sampled_from([MAGIC] * 4 + [b"RLAODW0\x00", b""]))
    data += struct.pack("<I", draw(st.sampled_from([n_layers] * 4 + [0, 2**32 - 1])))
    cols = draw(st.integers(0, 4))
    for _ in range(n_layers):
        rows = draw(st.integers(0, 4))
        cols = cols if draw(st.integers(0, 4)) else draw(st.integers(0, 4))
        n = rows * cols + rows
        values = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
        data += struct.pack("<II", rows, cols) + np.array(values, dtype="<f4").tobytes()
        cols = rows
    return _mutated(draw, data)


@given(data=_weight_files())
@settings(deadline=None)
def test_load_params(workdir, data):
    path = workdir / "fuzz.rlw"
    path.write_bytes(data)
    try:
        params = load_params(path)
    except WeightFormatError:
        return
    assert params.flat.dtype == np.float64 and np.isfinite(params.flat).all()
    for w, b, n_in, n_out in zip(
        params.weights, params.biases, params.layer_sizes[:-1], params.layer_sizes[1:]
    ):
        assert w.shape == (n_in, n_out) and b.shape == (n_out,)


# --- Dataset manifests ------------------------------------------------------

# JSON values as json.loads returns them, NaN and the infinities included.
_NUMBERS = st.integers(min_value=-(10**400), max_value=10**400) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# File names stay inside the manifest's directory: the workdir's images, or
# a name under "x", or a JSON value that is not a string.
_NOT_STRINGS = _JSON.filter(lambda v: not isinstance(v, str))
_FILES = (
    st.sampled_from(["ok.ppm", "ok.png", "bad.ppm", "bad.png", "missing.ppm"])
    | st.text(max_size=4).map(lambda s: "x" + s)
    | _NOT_STRINGS
)
_IDS = st.integers(0, 3) | _NUMBERS | _JSON
_IMAGES = st.fixed_dictionaries({"id": _IDS, "file": _FILES}) | _JSON
_ANNOTATIONS = (
    st.fixed_dictionaries(
        {"image_id": _IDS, "bbox": st.lists(_NUMBERS, min_size=4, max_size=4) | _JSON},
        optional={"category": _NUMBERS | _JSON},
    )
    | _JSON
)
_MANIFESTS = (
    st.fixed_dictionaries(
        {
            "images": st.lists(_IMAGES, max_size=3) | _JSON,
            "annotations": st.lists(_ANNOTATIONS, max_size=3) | _JSON,
        }
    ).map(json.dumps)
    | _JSON.map(json.dumps)
).map(str.encode) | st.binary(max_size=40) | st.just(b'{"images": [{"id": ' + b"9" * 5000 + b"}]}")


@given(data=_MANIFESTS)
@settings(deadline=None)
def test_load_dataset(workdir, data):
    path = workdir / "manifest.json"
    path.write_bytes(data)
    try:
        scenes = load_dataset(path)
    except (ConfigError, ImageFormatError):
        return
    for scene in scenes:
        _check_image(scene.image)
        assert isinstance(scene.seed, int)
