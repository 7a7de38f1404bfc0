"""Property tests for the per-frame V statistics and the oracle's draws.

A uint8 V plane is sorted and counted as bytes; every result must have the
bits of the float64 path on the same values. The oracle's memoised
per-truth draws must equal the hash formulas they replace, and every box a
reader accepts must have a finite area.

Run at length with `--hypothesis-profile=fuzz` (see conftest.py).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlaod.environment.detector import _truth_draws
from rlaod.environment.external import ExternalDetector
from rlaod.errors import ConfigError, ProtocolError
from rlaod.features import AREA_BIN_EDGES, HIST_BINS, area_histogram, brightness_histogram
from rlaod.imaging import RgbImage, estimate_brightness_level, write_ppm
from rlaod.imaging.brightness import _QUANTILES, interpolated_quantiles
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
    q8, q64 = interpolated_quantiles(v, _QUANTILES), interpolated_quantiles(wide, _QUANTILES)
    assert q8.dtype == q64.dtype == np.float64
    assert q8.tobytes() == q64.tobytes()
    assert estimate_brightness_level(v) == estimate_brightness_level(wide)
    h8, h64 = brightness_histogram(v), brightness_histogram(wide)
    assert h8.dtype == h64.dtype == np.float64
    assert h8.tobytes() == h64.tobytes()


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
