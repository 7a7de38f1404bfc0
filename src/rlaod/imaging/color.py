"""RGB and HSV image value types and the conversions between them.

H is kept in degrees [0, 360), S in [0, 1], and V in [0, 255] as floats so
that brightness math can run without quantization until RGB export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image stored as uint8 planes of shape (height, width).

    ``planes`` holds one plane for a gray image, whose three channels are
    that plane, or the R, G and B planes of a colour image.
    """

    planes: np.ndarray

    def __post_init__(self):
        p = self.planes
        if p.ndim != 3 or p.shape[0] not in (1, 3) or p.dtype != np.uint8:
            raise ValueError(
                f"expected (1, h, w) or (3, h, w) uint8 planes, got {p.shape} {p.dtype}"
            )
        if p.shape[1] < 1 or p.shape[2] < 1:
            raise ValueError("image must have at least one pixel")

    @classmethod
    def from_pixels(cls, pixels: np.ndarray) -> "RgbImage":
        """An image owning a copy of (h, w, 3) uint8 pixels; stored as one
        plane when all three channels are equal, else as three planes."""
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) pixels, got {pixels.shape}")
        r = pixels[..., 0]
        if np.array_equal(r, pixels[..., 1]) and np.array_equal(r, pixels[..., 2]):
            return cls(r[None].copy())
        return cls(np.moveaxis(pixels, -1, 0).copy())

    @property
    def pixels(self) -> np.ndarray:
        """The (h, w, 3) view of the planes; read-only for a gray image."""
        p = self.planes
        if len(p) == 1:
            return np.broadcast_to(p[0][..., None], p.shape[1:] + (3,))
        return np.moveaxis(p, 0, -1)

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    @property
    def height(self) -> int:
        return self.planes.shape[1]


@dataclass(frozen=True)
class HsvImage:
    """Float HSV image: h in degrees [0, 360), s in [0, 1], v in [0, 255]."""

    h: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not (self.h.shape == self.s.shape == self.v.shape):
            raise ValueError("h, s, v channel shapes must match")


def copy_pixels(img: RgbImage, out: np.ndarray) -> None:
    """Copy the pixels into ``out``, a writable (h, w, 3) uint8 array or view.

    Writers copy straight into their output buffer, one contiguous plane
    per channel, which is several times faster than numpy's strided copy of
    the whole (h, w, 3) view.
    """
    p = img.planes
    for c in range(3):
        out[..., c] = p[c if len(p) == 3 else 0]


def value_channel(img: RgbImage) -> np.ndarray:
    """The V channel (max of R, G, B per pixel) as uint8; a gray image's own plane."""
    p = img.planes
    if len(p) == 1:
        return p[0]
    return np.maximum(np.maximum(p[0], p[1]), p[2])


def rgb_to_hsv(img: RgbImage) -> HsvImage:
    """Standard RGB -> HSV conversion; V is max(R, G, B) kept on the 0..255 scale.

    A gray image converts from its one plane. Equal channels of a colour
    image take the general formula, which gives the same zero H and S.
    """
    if len(img.planes) == 1:
        v = img.planes[0].astype(np.float64)
        zero = np.zeros_like(v)
        return HsvImage(h=zero, s=zero.copy(), v=v)

    r, g, b = img.planes
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
    The result is built one channel plane at a time.
    """
    v = np.minimum(np.maximum(img.v, 0.0), 255.0)
    if img.s.max() <= 0.0:
        # Grayscale shortcut; values are nonnegative so half-away == half-up.
        return RgbImage(np.floor(v + 0.5).astype(np.uint8)[None])

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
    return RgbImage(out)


def merge_v_channel(hsv: HsvImage, v: np.ndarray) -> HsvImage:
    """New HsvImage sharing H and S but with a replaced V channel."""
    if v.shape != hsv.v.shape:
        raise ValueError(f"V shape {v.shape} does not match image {hsv.v.shape}")
    return HsvImage(h=hsv.h, s=hsv.s, v=v)
