"""Colour images stored as three uint8 planes viewed as (h, w, 3).

Every consumer must give the same bits for contiguous planes, planes
strided through an interleaved (h, w, 3) array and, when the channels are
equal, a one-plane gray image of the same frame; and every colour image the
package makes has three contiguous planes.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import same_bits
from rlaod.environment import SceneParams, generate_scene
from rlaod.imaging import (
    RgbImage,
    hsv_to_rgb,
    read_ppm,
    resize_bilinear,
    rgb_to_hsv,
    value_channel,
    write_ppm,
)
from rlaod.imaging.png import read_png, write_png


def forms(pixels: np.ndarray) -> dict[str, RgbImage]:
    """Three-plane forms of (h, w, 3) uint8 pixels, one a contiguous copy and
    one viewing the planes of an interleaved copy, plus the one-plane gray
    image when all three channels are equal."""
    out = {
        "interleaved": RgbImage(np.moveaxis(pixels.copy(), -1, 0)),
        "planar": RgbImage(np.moveaxis(pixels, -1, 0).copy()),
    }
    r = pixels[..., 0]
    if np.array_equal(r, pixels[..., 1]) and np.array_equal(r, pixels[..., 2]):
        out["gray"] = RgbImage(r[None].copy())
    return out


def is_planar(img: RgbImage) -> bool:
    return len(img.planes) == 3 and img.planes.flags.c_contiguous


@pytest.fixture(params=["colour", "gray"])
def pixels(request, rng):
    if request.param == "colour":
        return rng.integers(0, 256, (23, 17, 3), dtype=np.uint8)
    return np.repeat(rng.integers(0, 256, (23, 17, 1), dtype=np.uint8), 3, axis=2)


def assert_all_equal(results: dict, equal=same_bits):
    names = list(results)
    for name in names[1:]:
        assert equal(results[names[0]], results[name]), (names[0], name)


class TestFormsAgree:
    def test_forms(self, pixels):
        for img in forms(pixels).values():
            assert np.array_equal(img.pixels, pixels)

    @pytest.mark.parametrize("factor", [0.3, 1.0, 1.7, 3.2])
    def test_resize_bilinear(self, pixels, factor):
        assert_all_equal(
            {k: resize_bilinear(img, factor).pixels for k, img in forms(pixels).items()}
        )

    def test_value_channel(self, pixels):
        assert_all_equal({k: value_channel(img) for k, img in forms(pixels).items()})

    @pytest.mark.parametrize("channel", ["h", "s", "v"])
    def test_rgb_to_hsv(self, pixels, channel):
        assert_all_equal(
            {k: getattr(rgb_to_hsv(img), channel) for k, img in forms(pixels).items()}
        )

    @pytest.mark.parametrize("write", [write_ppm, write_png])
    def test_written_bytes(self, pixels, tmp_path, write):
        written = {}
        for k, img in forms(pixels).items():
            write(img, tmp_path / k)
            written[k] = (tmp_path / k).read_bytes()
        assert_all_equal(written, equal=bytes.__eq__)


class TestProducersArePlanar:
    def test_planar_image_is_a_writable_view(self, rng):
        planes = rng.integers(0, 256, (3, 5, 4), dtype=np.uint8)
        img = RgbImage(planes)
        assert img.pixels.shape == (5, 4, 3) and img.pixels.flags.writeable
        assert np.shares_memory(img.pixels, planes) and is_planar(img)
        for c in range(3):
            assert np.array_equal(img.pixels[..., c], planes[c])

    def test_hsv_to_rgb(self, rng):
        hsv = rgb_to_hsv(RgbImage.from_pixels(rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)))
        assert is_planar(hsv_to_rgb(hsv))

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_resize_bilinear(self, rng, factor):
        # A resample writes contiguous planes; the identity resize returns
        # its input as it is, strided planes included.
        pixels = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
        for img in forms(pixels).values():
            out = resize_bilinear(img, factor)
            assert out is img if factor == 1.0 else is_planar(out)

    def test_tinted_scene(self):
        params = SceneParams(width=48, height=40, count_range=(1, 2), area_range=(100.0, 200.0))
        assert is_planar(generate_scene(3, replace(params, tint_strength=0.25)).image)

    @pytest.mark.parametrize("write, read", [(write_ppm, read_ppm), (write_png, read_png)])
    def test_colour_file(self, rng, tmp_path, write, read):
        pixels = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
        write(RgbImage.from_pixels(pixels), tmp_path / "c")
        back = read(tmp_path / "c")
        assert is_planar(back)
        assert np.array_equal(back.pixels, pixels)
