"""Property tests for the per-frame V statistics and the oracle's draws.

A uint8 V plane is read through its 256 value counts, and an episode frame
or an exposure degradation through a 256-entry render table and the image's
palette of distinct colours; every result must have the bits of the float64
path on the whole plane. The oracle's memoised per-truth draws must
equal the hash formulas they replace, and every box a reader accepts must
have a finite area.

Run at length with `--hypothesis-profile=fuzz` (see conftest.py).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlaod.environment import DegradeKind, DegradeOp, Scene, degrade
from rlaod.environment.detector import _truth_draws
from rlaod.environment.external import ExternalDetector
from rlaod.errors import ConfigError, ProtocolError
from rlaod.features import AREA_BIN_EDGES, HIST_BINS, area_histogram, brightness_histogram
from rlaod.imaging import (
    FIT_LEVEL_LIMIT,
    RgbImage,
    estimate_brightness_level,
    fit_brightness_base,
    hsv_to_rgb,
    hue_weights,
    level_from_counts,
    merge_v_channel,
    render_brightness,
    rgb_to_hsv,
    value_channel,
    value_counts,
    write_ppm,
)
from rlaod.metrics import Box2D, Detection
from rlaod.orchestrator import load_dataset
from rlaod.util import hash_unit

MAX_SIDE = 384


def _plane(h: int, w: int, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    if kind == "few":  # many ties, as in flat scene backgrounds
        return rng.choice(np.array([0, 17, 128, 255], dtype=np.uint8), size=(h, w))
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


_SIDES = st.integers(1, 8) | st.integers(1, MAX_SIDE)
_KINDS = st.sampled_from(["random", "constant", "few"])


def _float_histogram(wide: np.ndarray) -> np.ndarray:
    """The 64-bin histogram of a float64 V plane, bin floor(v / 4)."""
    idx = np.minimum(wide.astype(np.int64) >> 2, HIST_BINS - 1)
    return np.bincount(idx.ravel(), minlength=HIST_BINS).astype(np.float64) / wide.size


@given(h=_SIDES, w=_SIDES, kind=_KINDS, seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, kind="random", seed=0)
@example(h=1, w=97, kind="random", seed=1)
@example(h=5, w=1, kind="few", seed=2)
@example(h=40, w=40, kind="constant", seed=3)
@example(h=MAX_SIDE, w=MAX_SIDE, kind="random", seed=4)
@settings(deadline=None)
def test_uint8_stats_match_float(h, w, kind, seed):
    v = _plane(h, w, kind, seed)
    wide = v.astype(np.float64)
    counts = value_counts(v)
    assert counts.sum() == v.size
    level = level_from_counts(counts)
    assert level == estimate_brightness_level(wide)  # the float64 sort
    assert level == estimate_brightness_level(v)
    want = _float_histogram(wide)
    for got in (brightness_histogram(counts), brightness_histogram(v)):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


_LEVELS = st.sampled_from(
    [-1.0, -FIT_LEVEL_LIMIT, -0.5, -0.1, 0.0, 0.1, 0.5, FIT_LEVEL_LIMIT, 1.0]
) | st.floats(-1.0, 1.0)


@given(
    h=_SIDES,
    w=_SIDES,
    kind=_KINDS,
    seed=st.integers(0, 2**32 - 1),
    fit_level=_LEVELS,
    level=_LEVELS,
)
@example(h=MAX_SIDE, w=MAX_SIDE, kind="random", seed=5, fit_level=-1.0, level=1.0)
@example(h=3, w=7, kind="few", seed=6, fit_level=1.0, level=-1.0)
@example(h=9, w=9, kind="random", seed=7, fit_level=FIT_LEVEL_LIMIT, level=-FIT_LEVEL_LIMIT)
@settings(deadline=None)
def test_table_render_matches_plane_render(h, w, kind, seed, fit_level, level):
    # The episode fits its base on the 256 values and reads the rendered
    # table at each pixel; that must give the bits of fitting and rendering
    # the whole plane, as float V (tinted frames) and rounded bytes (gray).
    v = _plane(h, w, kind, seed)
    plane = render_brightness(fit_brightness_base(v, fit_level), level)
    table = render_brightness(fit_brightness_base(np.arange(256.0), fit_level), level)
    index = v.astype(np.intp)
    tinted = np.take(table, index)
    assert tinted.dtype == plane.dtype == np.float64
    assert tinted.tobytes() == plane.tobytes()
    gray_table = np.floor(table + 0.5).astype(np.uint8)
    gray = np.take(gray_table, index)
    assert gray.tobytes() == np.floor(plane + 0.5).astype(np.uint8).tobytes()
    # Pushing the original's counts through the table counts the frame.
    pushed = np.bincount(gray_table, weights=value_counts(v), minlength=256)
    assert np.array_equal(pushed, value_counts(gray))
    assert level_from_counts(pushed.astype(np.int64)) == estimate_brightness_level(
        gray.astype(np.float64)
    )


def _image(h: int, w: int, kind: str, seed: int) -> RgbImage:
    rng = np.random.default_rng(seed)
    if kind == "tinted":  # few colours, as in tinted scenes
        colours = rng.integers(0, 256, (3, int(rng.integers(1, 9))), dtype=np.uint8)
        return RgbImage(np.take(colours, rng.integers(0, colours.shape[1], (h, w)), axis=1))
    if kind == "noise":  # nearly every pixel its own colour
        return RgbImage(rng.integers(0, 256, (3, h, w), dtype=np.uint8))
    if kind == "equal":  # three equal planes: frames come out one plane
        return RgbImage(np.repeat(_plane(h, w, "random", seed)[None], 3, axis=0))
    if kind in ("black", "white"):  # constant at either end of V
        return RgbImage(np.full((1, h, w), 0 if kind == "black" else 255, dtype=np.uint8))
    return RgbImage(_plane(h, w, "few", seed)[None])


@given(
    h=_SIDES,
    w=_SIDES,
    kind=st.sampled_from(["tinted", "noise", "equal", "gray"]),
    seed=st.integers(0, 2**32 - 1),
    fit_level=_LEVELS,
    level=_LEVELS,
)
@example(h=1, w=1, kind="tinted", seed=0, fit_level=0.0, level=1.0)
@example(h=1, w=1, kind="noise", seed=1, fit_level=-1.0, level=0.0)
@example(h=1, w=1, kind="equal", seed=2, fit_level=FIT_LEVEL_LIMIT, level=-1.0)
@example(h=1, w=1, kind="gray", seed=3, fit_level=1.0, level=-FIT_LEVEL_LIMIT)
@example(h=MAX_SIDE, w=MAX_SIDE, kind="noise", seed=4, fit_level=-FIT_LEVEL_LIMIT, level=FIT_LEVEL_LIMIT)
@settings(deadline=None)
def test_palette_render_matches_pixel_render(h, w, kind, seed, fit_level, level):
    # An episode renders its original's distinct colours and reads them back
    # at each pixel; that must give the bits of hsv_to_rgb on every pixel.
    img = _image(h, w, kind, seed)
    palette = img.palette
    # A colour image keeps its palette; a gray one rebuilds it.
    assert (img.palette is palette) == (len(img.planes) == 3)
    assert palette.index.dtype == np.intp and palette.index.shape == (h, w)
    rebuilt = palette.gather(palette.colours)
    assert rebuilt.planes.shape == img.planes.shape
    assert rebuilt.planes.tobytes() == img.planes.tobytes()
    assert np.array_equal(img.v_counts, value_counts(value_channel(img)))
    n_colours = palette.colours.planes.shape[2]
    assert np.array_equal(palette.counts, np.bincount(palette.index.ravel(), minlength=n_colours))
    if kind == "noise":
        assert n_colours == len(np.unique(img.planes.reshape(3, -1), axis=1).T)

    table = render_brightness(fit_brightness_base(np.arange(256.0), fit_level), level)
    hsv = rgb_to_hsv(palette.colours)
    v = np.take(table, value_channel(palette.colours))
    colours = hsv_to_rgb(merge_v_channel(hsv, v), hue_weights(hsv.h))
    frame = palette.gather(colours)
    want = hsv_to_rgb(merge_v_channel(rgb_to_hsv(img), np.take(table, value_channel(img))))
    assert frame.planes.shape == want.planes.shape
    assert frame.planes.tobytes() == want.planes.tobytes()
    if kind in ("equal", "gray"):
        assert len(frame.planes) == 1
    # The frame carries its V counts: the palette's counts pushed through
    # the rendered colours' V.
    assert not frame.v_counts.flags.writeable
    assert np.array_equal(frame.v_counts, value_counts(value_channel(frame)))


def _reference_exposure(img: RgbImage, level: float) -> RgbImage:
    """Exposure rendered on the whole image: every pixel to HSV, the base
    fitted on the float V plane at its own level, back to RGB."""
    hsv = rgb_to_hsv(img)
    model = fit_brightness_base(hsv.v, estimate_brightness_level(hsv.v))
    return hsv_to_rgb(merge_v_channel(hsv, render_brightness(model, level)))


@given(
    h=_SIDES,
    w=_SIDES,
    kind=st.sampled_from(["noise", "equal", "gray", "tinted", "black", "white"]),
    seed=st.integers(0, 2**32 - 1),
    op_kind=st.sampled_from([DegradeKind.OVER_EXPOSE, DegradeKind.UNDER_EXPOSE]),
    magnitude=st.sampled_from([0.0, 0.4, 0.8]),
)
@example(h=1, w=1, kind="noise", seed=0, op_kind=DegradeKind.OVER_EXPOSE, magnitude=0.8)
@example(h=1, w=1, kind="equal", seed=1, op_kind=DegradeKind.UNDER_EXPOSE, magnitude=0.4)
@example(h=1, w=1, kind="black", seed=2, op_kind=DegradeKind.OVER_EXPOSE, magnitude=0.4)
@example(h=1, w=1, kind="white", seed=3, op_kind=DegradeKind.UNDER_EXPOSE, magnitude=0.8)
@example(h=MAX_SIDE, w=MAX_SIDE, kind="noise", seed=4, op_kind=DegradeKind.UNDER_EXPOSE, magnitude=0.8)
@settings(deadline=None)
def test_exposure_degrade_matches_whole_image_render(h, w, kind, seed, op_kind, magnitude):
    # degrade renders exposure on the image's palette, as an episode step
    # renders a frame; that must give the bits of the whole-image render.
    img = _image(h, w, kind, seed)
    scene = Scene(image=img, truths=[], seed=seed, nominal_level_b=0.0, nominal_mean_area=0.0)
    out = degrade(scene, DegradeOp(op_kind, magnitude)).image
    level = magnitude if op_kind is DegradeKind.OVER_EXPOSE else -magnitude
    want = _reference_exposure(img, level)
    assert out.planes.shape == want.planes.shape
    assert out.planes.tobytes() == want.planes.tobytes()
    assert np.array_equal(out.v_counts, value_counts(value_channel(out)))


def _area_histogram_loop(detections, min_score=0.5):
    """The per-detection accumulation loop that area_histogram replaced."""
    areas = [d.box.area for d in detections if d.score >= min_score]
    hist = np.zeros(HIST_BINS)
    if not areas:
        return hist
    idx = np.searchsorted(AREA_BIN_EDGES, np.array(areas), side="right") - 1
    for i in np.clip(idx, 0, HIST_BINS - 1):
        hist[i] += 1.0
    return hist / len(areas)


_SIDE_LENGTHS = st.floats(1e-3, 400.0) | st.sampled_from([9.0, 24.0, 27.0, 245.0, 1e6])
_DETECTIONS = st.lists(
    st.builds(
        lambda w, h, score: Detection(Box2D(0.0, 0.0, w, h), score),
        _SIDE_LENGTHS,
        _SIDE_LENGTHS,
        st.floats(0.0, 1.0) | st.just(0.5),
    ),
    max_size=12,
)


@given(detections=_DETECTIONS, min_score=st.sampled_from([0.0, 0.5, 0.9]))
@settings(deadline=None)
def test_area_histogram_matches_loop(detections, min_score):
    got = area_histogram(detections, min_score)
    want = _area_histogram_loop(detections, min_score)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@given(seed=st.integers(-(2**63), 2**64), j=st.integers(0, 64))
@settings(deadline=None)
def test_truth_draws_match_hash_formulas(seed, j):
    threshold, signs = _truth_draws(seed, j)
    assert threshold == 0.05 + 0.9 * hash_unit(seed, j)
    assert signs == tuple(hash_unit(seed, j, k) < 0.5 for k in range(4))
    assert _truth_draws(seed, j) == (threshold, signs)  # a memo hit gives the same


# Finite coordinates of every magnitude, so x + w or x_max - x_min can overflow.
_COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-1e308, 1e308, 1.7e308, 0.0, 1.0]
)
_BOXES = st.lists(_COORDS, min_size=4, max_size=4)


@given(bbox=_BOXES)
@example(bbox=[-1e308, -1e308, 1e308, 1e308])
@example(bbox=[0.0, 0.0, 1e200, 1e200])
@settings(deadline=None)
def test_parse_accepts_only_finite_areas(bbox):
    payload = {"id": 1, "detections": [{"bbox": bbox, "score": 0.5}], "context": [0.0] * 512}
    try:
        out = ExternalDetector._parse(payload, 1)
    except ProtocolError:
        return
    assert np.isfinite(out.detections[0].box.area)


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("vstats")
    write_ppm(RgbImage.from_pixels(np.zeros((4, 5, 3), dtype=np.uint8)), d / "ok.ppm")
    return d


@given(bbox=_BOXES)
@example(bbox=[1e308, 0.0, 1e308, 1.0])
@example(bbox=[0.0, 0.0, 1e200, 1e200])
@settings(deadline=None)
def test_load_dataset_accepts_only_finite_areas(image_dir, bbox):
    manifest = {
        "images": [{"id": 0, "file": "ok.ppm"}],
        "annotations": [{"image_id": 0, "bbox": bbox}],
    }
    path = image_dir / "manifest.json"
    path.write_text(json.dumps(manifest))
    try:
        (scene,) = load_dataset(path)
    except ConfigError:
        return
    assert all(np.isfinite(t.box.area) for t in scene.truths)
