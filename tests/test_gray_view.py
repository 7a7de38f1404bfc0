"""Gray images stored as one uint8 plane viewed as three channels.

Every consumer must give the same bits for a one-plane gray image and for
three equal planes holding the same frame.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import per_call_hsv_to_rgb
from rlaod.environment import (
    DegradeKind,
    DegradeOp,
    OracleDetector,
    SceneParams,
    degrade,
    generate_scene,
    reset_episode,
    step_episode,
)
from rlaod.environment import episode as episode_module
from rlaod.imaging import (
    AttributeAction,
    HsvImage,
    RgbImage,
    hsv_to_rgb,
    read_ppm,
    render_brightness,
    resize_bilinear,
    rgb_to_hsv,
    value_channel,
    write_ppm,
)
from rlaod.imaging.png import read_png, write_png

PARAMS = SceneParams(width=96, height=96, count_range=(1, 3), area_range=(676.0, 1600.0))


@pytest.fixture
def plane(rng):
    return rng.integers(0, 256, (23, 17), dtype=np.uint8)


def three_planes(pixels: np.ndarray) -> RgbImage:
    """A three-plane copy of (h, w, 3) pixels, even when the channels are equal."""
    return RgbImage(np.moveaxis(pixels, -1, 0).copy())


def materialised(img: RgbImage) -> RgbImage:
    return three_planes(img.pixels)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGrayImage:
    def test_equals_repeated_plane(self, plane):
        img = RgbImage(plane[None])
        assert np.array_equal(img.pixels, np.repeat(plane[..., None], 3, axis=2))
        assert img.pixels.dtype == np.uint8
        assert np.array_equal(img.planes[0], plane)

    def test_read_only(self, plane):
        img = RgbImage(plane[None])
        assert not img.pixels.flags.writeable
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1

    def test_value_channel(self, plane):
        v = value_channel(RgbImage(plane[None]))
        assert v.dtype == np.uint8
        assert np.shares_memory(v, plane)
        assert np.array_equal(v, plane)


class TestViewMatchesFullArray:
    def test_rgb_to_hsv(self, plane):
        view = RgbImage(plane[None])
        a, b = rgb_to_hsv(view), rgb_to_hsv(materialised(view))
        for name in ("h", "s", "v"):
            assert same_bits(getattr(a, name), getattr(b, name)), name

    def test_value_channel(self, plane):
        view = RgbImage(plane[None])
        assert same_bits(value_channel(view), value_channel(materialised(view)))

    @pytest.mark.parametrize("factor", [0.3, 1.0, 1.7, 3.2])
    def test_resize_bilinear(self, plane, factor):
        view = RgbImage(plane[None])
        a = resize_bilinear(view, factor)
        b = resize_bilinear(materialised(view), factor)
        assert len(a.planes) == 1
        assert len(b.planes) == 3
        assert same_bits(np.array(a.pixels), b.pixels)

    def test_identity_resize_copies_the_plane(self, plane):
        view = RgbImage(plane[None])
        out = resize_bilinear(view, 1.0)
        assert not np.shares_memory(out.planes, plane)

    @pytest.mark.parametrize("write", [write_ppm, write_png])
    def test_written_bytes(self, plane, tmp_path, write):
        view = RgbImage(plane[None])
        write(view, tmp_path / "view")
        write(materialised(view), tmp_path / "full")
        assert (tmp_path / "view").read_bytes() == (tmp_path / "full").read_bytes()

    def test_hsv_gray_shortcut_gives_view(self, plane):
        v = plane.astype(np.float64)
        zero = np.zeros_like(v)
        out = hsv_to_rgb(HsvImage(h=zero, s=zero, v=v))
        assert len(out.planes) == 1
        assert np.array_equal(out.planes[0], plane)


class TestReaders:
    @pytest.mark.parametrize("write, read", [(write_ppm, read_ppm), (write_png, read_png)])
    def test_gray_file_reads_as_view(self, plane, tmp_path, write, read):
        write(three_planes(np.repeat(plane[..., None], 3, axis=2)), tmp_path / "g")
        back = read(tmp_path / "g")
        assert len(back.planes) == 1
        assert np.array_equal(back.planes[0], plane)

    @pytest.mark.parametrize("write, read", [(write_ppm, read_ppm), (write_png, read_png)])
    def test_tinted_file_reads_as_full_array(self, plane, tmp_path, write, read):
        px = np.repeat(plane[..., None], 3, axis=2)
        px[5, 3, 1] ^= 1  # one channel of one pixel differs
        write(RgbImage.from_pixels(px), tmp_path / "t")
        back = read(tmp_path / "t")
        assert len(back.planes) == 3
        assert np.array_equal(back.pixels, px)
        assert back.pixels.flags.writeable


class TestProducers:
    def test_gray_scene_and_its_degradations_are_views(self):
        scene = generate_scene(3, PARAMS)
        assert len(scene.image.planes) == 1
        for op in (
            DegradeOp(DegradeKind.OVER_EXPOSE, 0.5),
            DegradeOp(DegradeKind.UNDER_EXPOSE, 0.5),
            DegradeOp(DegradeKind.ZOOM_IN, 2.5),
            DegradeOp(DegradeKind.ZOOM_OUT, 0.25),
        ):
            assert len(degrade(scene, op).image.planes) == 1, op.kind

    def test_tinted_scene_is_full_array(self):
        scene = generate_scene(3, replace(PARAMS, tint_strength=0.25))
        assert len(scene.image.planes) == 3


class TestEpisodeOnFullArray:
    """A gray scene stored as three equal planes takes the colour path of
    step_episode (rgb_to_hsv, then hsv_to_rgb) with the gray path's bits."""

    def test_bs_steps_match_view(self):
        detector = OracleDetector()
        scene = degrade(generate_scene(31, PARAMS), DegradeOp(DegradeKind.ZOOM_OUT, 0.3))
        full = replace(scene, image=materialised(scene.image))
        a = reset_episode(scene, detector, 4)
        b = reset_episode(full, detector, 4)
        assert len(a.original.image.planes) == 1 and len(b.original.image.planes) == 3
        assert a.last_p == b.last_p
        steps = [
            (AttributeAction.BRIGHTEN, AttributeAction.ZOOM_IN),
            (AttributeAction.DARKEN, AttributeAction.ZOOM_IN),
            (AttributeAction.BRIGHTEN, AttributeAction.ZOOM_OUT),
            (AttributeAction.BRIGHTEN, AttributeAction.ZOOM_IN),
        ]
        for a_b, a_s in steps:
            a, _, _, _ = step_episode(a, a_b, a_s)
            b, _, _, _ = step_episode(b, a_b, a_s)
            assert np.array_equal(a.current_image.pixels, b.current_image.pixels)
            assert same_bits(a.current_v, b.current_v)
            assert a.last_p == b.last_p
        assert a.hsv0 is None and b.hsv0 is not None


class TestGrayEpisodeMatchesFullReference:
    """Every gray frame equals a fresh three-channel render of the episode's
    brightness, resized from the original size in one step."""

    B, D = AttributeAction.BRIGHTEN, AttributeAction.DARKEN
    ZI, ZO = AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT
    # B-only first (identity size), then S-only steps that reuse the cached
    # render, then BS steps.
    STEPS = [(B, None), (D, None), (None, ZI), (None, ZO), (B, ZI), (D, ZO), (None, ZO), (B, ZI)]

    @pytest.mark.parametrize(
        "op",
        [None, DegradeOp(DegradeKind.UNDER_EXPOSE, 0.6), DegradeOp(DegradeKind.ZOOM_IN, 3.0)],
        ids=["clean", "under-exposed", "zoomed-in-x3"],
    )
    def test_frames_match_reference(self, op, monkeypatch):
        renders = []
        render = episode_module.render_brightness

        def counting_render(*args):
            renders.append(args)
            return render(*args)

        monkeypatch.setattr(episode_module, "render_brightness", counting_render)
        scene = generate_scene(17, PARAMS)
        if op is not None:
            scene = degrade(scene, op)
        ep = reset_episode(scene, OracleDetector(), len(self.STEPS))
        assert len(ep.original.image.planes) == 1
        identity_steps = 0
        for a_b, a_s in self.STEPS:
            ep, _, _, _ = step_episode(ep, a_b, a_s)
            v = render_brightness(ep.brightness, ep.brightness.level)
            frame = three_planes(per_call_hsv_to_rgb(0.0, 0.0, v))
            want = resize_bilinear(frame, ep.cumulative_scale_factor)
            assert np.array_equal(ep.current_image.pixels, want.pixels)
            assert same_bits(ep.current_v, value_channel(want))
            identity_steps += ep.current_image.pixels.shape == scene.image.pixels.shape
        assert identity_steps >= 2
        assert len(renders) < len(self.STEPS)  # some steps hit the render cache
