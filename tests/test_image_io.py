import numpy as np
import pytest

from conftest import filtered_png
from rlaod.errors import ImageFormatError
from rlaod.imaging import RgbImage, read_ppm, write_ppm
from rlaod.imaging.png import read_png, write_png


@pytest.fixture
def image(rng):
    return RgbImage.from_pixels(rng.integers(0, 256, (13, 9, 3), dtype=np.uint8))


class TestPpm:
    def test_round_trip(self, image, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        back = read_ppm(path)
        assert np.array_equal(back.pixels, image.pixels)

    def test_header_contents(self, image, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n9 13\n255\n")

    def test_reads_comment_headers(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = read_ppm(path)
        assert img.width == 2 and img.height == 1
        assert tuple(img.pixels[0, 1]) == (4, 5, 6)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_rejects_truncated(self, image, tmp_path):
        path = tmp_path / "t.ppm"
        write_ppm(image, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError):
            read_ppm(path)


    def test_rejects_empty_image(self, tmp_path):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"P6\n0 4\n255\n")
        with pytest.raises(ImageFormatError):
            read_ppm(path)

    def test_oversized_header_number_is_image_format_error(self, tmp_path):
        # int() refuses strings of more than 4300 digits with a bare ValueError.
        path = tmp_path / "big.ppm"
        path.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError, match="malformed PPM header"):
            read_ppm(path)

    def test_truncated_is_image_format_error(self, image, tmp_path):
        path = tmp_path / "t.ppm"
        write_ppm(image, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ImageFormatError, match="truncated raster"):
            read_ppm(path)


class TestPng:
    def test_round_trip(self, image, tmp_path):
        path = tmp_path / "img.png"
        write_png(image, path)
        back = read_png(path)
        assert np.array_equal(back.pixels, image.pixels)

    def test_rejects_non_png(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(b"definitely not a png")
        with pytest.raises(ValueError):
            read_png(path)

    def test_corrupt_idat_is_image_format_error(self, image, tmp_path):
        path = tmp_path / "c.png"
        write_png(image, path)
        data = bytearray(path.read_bytes())
        idat = data.index(b"IDAT") + 4
        data[idat : idat + 8] = b"\xff" * 8  # zlib header and first block
        path.write_bytes(bytes(data))
        with pytest.raises(ImageFormatError):
            read_png(path)

    def test_short_ihdr_is_image_format_error(self, tmp_path):
        from rlaod.imaging.png import _SIGNATURE, _chunk

        path = tmp_path / "s.png"
        path.write_bytes(_SIGNATURE + _chunk(b"IHDR", b"\x00\x00") + _chunk(b"IEND", b""))
        with pytest.raises(ImageFormatError):
            read_png(path)

    def test_reads_filtered_rows(self, image, tmp_path):
        # Re-encode with each non-trivial filter type and check decoding.
        import struct
        import zlib

        from rlaod.imaging.png import _SIGNATURE, _chunk

        rows = image.pixels
        h, w = rows.shape[:2]
        for filt in (1, 2, 3, 4):
            raw = bytearray()
            prev = np.zeros(w * 3, dtype=np.int64)
            for y in range(h):
                line = rows[y].ravel().astype(np.int64)
                enc = np.zeros(w * 3, dtype=np.int64)
                for i in range(w * 3):
                    a = line[i - 3] if i >= 3 else 0
                    b = prev[i]
                    c = prev[i - 3] if i >= 3 else 0
                    if filt == 1:
                        pred = a
                    elif filt == 2:
                        pred = b
                    elif filt == 3:
                        pred = (a + b) // 2
                    else:
                        p = a + b - c
                        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                        pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                    enc[i] = (line[i] - pred) % 256
                raw.append(filt)
                raw.extend(int(x) for x in enc)
                prev = line
            ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
            blob = (
                _SIGNATURE
                + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(bytes(raw)))
                + _chunk(b"IEND", b"")
            )
            path = tmp_path / f"f{filt}.png"
            path.write_bytes(blob)
            assert np.array_equal(read_png(path).pixels, image.pixels), f"filter {filt}"

        # Random content at widths 1, 2 and 31, every filter type mixed over the rows.
        mixed = np.random.default_rng(31)
        for w in (1, 2, 31):
            pixels = mixed.integers(0, 256, (6, w, 3), dtype=np.uint8)
            filters = mixed.permutation([0, 1, 2, 3, 4, int(mixed.integers(0, 5))])
            path = tmp_path / f"mixed{w}.png"
            path.write_bytes(filtered_png(pixels, filters))
            assert np.array_equal(read_png(path).pixels, pixels), f"width {w}"
