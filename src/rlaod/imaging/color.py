"""RGB and HSV image value types and the conversions between them.

H is kept in degrees [0, 360), S in [0, 1], and V in [0, 255] as floats so
that brightness math can run without quantization until RGB export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image; pixels shape (height, width, 3), dtype uint8.

    A gray image made by gray_image holds a read-only view of one plane, and
    a colour image made by planar_image a view of three contiguous planes.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ValueError(f"expected (h, w, 3) uint8 pixels, got {p.shape} {p.dtype}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must have at least one pixel")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class HsvImage:
    """Float HSV image: h in degrees [0, 360), s in [0, 1], v in [0, 255]."""

    h: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not (self.h.shape == self.s.shape == self.v.shape):
            raise ValueError("h, s, v channel shapes must match")


def gray_image(plane: np.ndarray) -> RgbImage:
    """A gray image stored once: the (h, w) uint8 plane viewed as three channels.

    The pixels are a read-only view whose channel stride is 0, so every
    consumer that knows the layout can work on the one plane.
    """
    return RgbImage(pixels=np.broadcast_to(plane[..., None], plane.shape + (3,)))


def planar_image(planes: np.ndarray) -> RgbImage:
    """A colour image stored as three planes: the (3, h, w) uint8 array viewed
    as (h, w, 3).

    The pixels are a writable view, and ``pixels[..., c]`` is the contiguous
    plane c, so the kernels here and in resize work one plane at a time.
    """
    return RgbImage(pixels=np.moveaxis(planes, 0, -1))


def gray_plane(img: RgbImage) -> np.ndarray | None:
    """The (h, w) plane of a gray view (as made by gray_image), else None.

    Images built from full (h, w, 3) arrays return None even when their
    channels are equal; they take the three-channel paths.
    """
    p = img.pixels
    return p[..., 0] if p.strides[2] == 0 else None


def gray_if_equal(pixels: np.ndarray) -> RgbImage:
    """An image owning a copy of (h, w, 3) uint8 pixels; stored as one plane
    when all three channels are equal, else as three planes."""
    r = pixels[..., 0]
    if np.array_equal(r, pixels[..., 1]) and np.array_equal(r, pixels[..., 2]):
        return gray_image(r.copy())
    return planar_image(np.moveaxis(pixels, -1, 0).copy())


def copy_pixels(img: RgbImage, out: np.ndarray) -> None:
    """Copy the pixels into ``out``, a writable (h, w, 3) uint8 array or view.

    Writers copy straight into their output buffer, one channel at a time:
    for gray views and planar images that reads contiguous planes, which is
    several times faster than numpy's strided copy of the whole view.
    """
    p = img.pixels
    for c in range(3):
        out[..., c] = p[..., c]


def value_channel(img: RgbImage) -> np.ndarray:
    """The V channel (max of R, G, B per pixel) as uint8; a gray view's own plane."""
    plane = gray_plane(img)
    if plane is not None:
        return plane
    p = img.pixels
    return np.maximum(np.maximum(p[..., 0], p[..., 1]), p[..., 2])


def rgb_to_hsv(img: RgbImage) -> HsvImage:
    """Standard RGB -> HSV conversion; V is max(R, G, B) kept on the 0..255 scale.

    A gray view converts from its one plane. Equal channels of a full array
    take the general formula, which gives the same zero H and S.
    """
    plane = gray_plane(img)
    if plane is not None:
        v = plane.astype(np.float64)
        zero = np.zeros_like(v)
        return HsvImage(h=zero, s=zero.copy(), v=v)

    r, g, b = (img.pixels[..., c] for c in range(3))
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)  # uint8: min <= v
    # A zero V or C has a zero numerator, so dividing by 1 gives the 0.0
    # that the textbook formula defines there.
    s = c / np.maximum(v, 1)

    # The hue numerator is that of the maximum channel (R before G before B):
    # g - b, b - r or r - g, each exact in int16, then one division and the
    # sector offset 0, 2 or 4. These are the float64 operations of the
    # textbook formula on the same exact operands, so the bits are the same.
    is_r = v == r
    is_g = (v == g) & ~is_r
    is_b = ~(is_r | is_g)
    num = np.subtract(g, b, dtype=np.int16)
    np.subtract(b, r, out=num, where=is_g, dtype=np.int16)
    np.subtract(r, g, out=num, where=is_b, dtype=np.int16)
    h = num / np.maximum(c, 1)
    np.add(h, 2.0, out=h, where=is_g)
    np.add(h, 4.0, out=h, where=is_b)
    # h * 60 lies in [-60, 300], where % 360 adds 360 to negatives and
    # returns the rest unchanged.
    h *= 60.0
    np.add(h, 360.0, out=h, where=h < 0.0)
    return HsvImage(h=h, s=s, v=v.astype(np.float64))


def hue_weights(h: np.ndarray) -> np.ndarray:
    """Per-pixel channel weights w_n(H) for R, G, B, shape h.shape + (3,).

    Each channel of hsv_to_rgb is v - (v * s) * w_n(h). The weights depend
    on H alone, so a caller that renders one H plane at many V levels can
    compute them once and pass them to every hsv_to_rgb call. They are
    stored as three planes, so ``[..., i]`` reads a contiguous plane.
    """
    # h % 360.0 without the slow float modulo on [0, 360), where it returns
    # h itself; + 0.0 turns -0.0 into the +0.0 that % gives. NaN and
    # +-inf fail the range test and take the modulo.
    hm = h + 0.0
    outside = ~((hm >= 0.0) & (hm < 360.0))
    if outside.any():
        hm[outside] %= 360.0
    h60 = np.divide(hm, 60.0, out=hm)  # in [0, 6], or NaN
    w = np.empty((3,) + h.shape)
    k = np.empty_like(h60)
    t = np.empty_like(h60)
    for i, n in enumerate((5.0, 3.0, 1.0)):  # R, G, B
        # (n + h60) % 6.0 without the slow float modulo: k lies in [1, 11],
        # and k - 6 is exact for k >= 6, so the result has the same bits.
        np.add(n, h60, out=k)
        np.subtract(k, 6.0, out=k, where=k >= 6.0)
        np.subtract(4.0, k, out=t)
        np.minimum(k, t, out=t)
        np.minimum(t, 1.0, out=t)
        np.maximum(t, 0.0, out=w[i])
    return np.moveaxis(w, 0, -1)


def hsv_to_rgb(img: HsvImage, weights: np.ndarray | None = None) -> RgbImage:
    """Inverse of rgb_to_hsv; channels rounded half-away-from-zero.

    ``weights`` is ``hue_weights(img.h)``, computed here when not given.
    With V clamped to [0, 255] and S to [0, 1], every channel lies in
    [0, V], so the rounded values fit uint8 without a further clamp.
    The result is a planar image, built one channel plane at a time.
    """
    v = np.minimum(np.maximum(img.v, 0.0), 255.0)
    if img.s.max() <= 0.0:
        # Grayscale shortcut; values are nonnegative so half-away == half-up.
        return gray_image(np.floor(v + 0.5).astype(np.uint8))

    if weights is None:
        weights = hue_weights(img.h)
    c = v * np.minimum(np.maximum(img.s, 0.0), 1.0)
    out = np.empty((3,) + v.shape, dtype=np.uint8)
    chan = np.empty_like(v)
    for i in range(3):
        np.multiply(weights[..., i], c, out=chan)
        np.subtract(v, chan, out=chan)
        chan += 0.5
        np.floor(chan, out=chan)
        out[i] = chan
    return planar_image(out)


def merge_v_channel(hsv: HsvImage, v: np.ndarray) -> HsvImage:
    """New HsvImage sharing H and S but with a replaced V channel."""
    if v.shape != hsv.v.shape:
        raise ValueError(f"V shape {v.shape} does not match image {hsv.v.shape}")
    return HsvImage(h=hsv.h, s=hsv.s, v=v)
