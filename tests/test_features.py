import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlaod.features import (
    AREA_BIN_EDGES,
    CONTEXT_DIM,
    HIST_BINS,
    STATE_DIM,
    StateKind,
    area_histogram,
    assemble_state,
    brightness_histogram,
    gaussian_smooth,
    reduce_context,
)
from rlaod.imaging import value_counts
from rlaod.metrics import Box2D, Detection


def det(area, score=0.9):
    side = float(np.sqrt(area))
    return Detection(box=Box2D(0.0, 0.0, side, side), score=score)


class TestBrightnessHistogram:
    def test_all_zero(self):
        h = brightness_histogram(np.zeros((10, 10), dtype=np.uint8))
        assert h[0] == 1.0 and h[1:].sum() == 0.0

    def test_all_255_lands_in_last_bin(self):
        h = brightness_histogram(np.full((4, 4), 255, dtype=np.uint8))
        assert h[63] == 1.0

    def test_uniform_bytes(self):
        v = np.arange(256).reshape(16, 16).astype(np.uint8)
        h = brightness_histogram(v)
        assert h == pytest.approx(np.full(64, 1 / 64))

    def test_sums_to_one(self, rng):
        v = rng.integers(0, 256, size=(31, 17), dtype=np.uint8)
        assert brightness_histogram(v).sum() == pytest.approx(1.0)

    def test_bin_width_four(self):
        h = brightness_histogram(np.array([[0, 3, 4, 7]], dtype=np.uint8))
        assert h[0] == 0.5 and h[1] == 0.5

    def test_counts_give_the_plane_histogram(self, rng):
        v = rng.integers(0, 256, size=(31, 17), dtype=np.uint8)
        counts = value_counts(v)
        assert counts.shape == (256,)
        assert brightness_histogram(counts).tobytes() == brightness_histogram(v).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(256, dtype=np.int64), np.ones(64, dtype=np.int64), np.zeros((0, 3), np.uint8)],
        ids=["no pixel", "64 counts", "empty plane"],
    )
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError):
            brightness_histogram(bad)

    def test_rejects_float_plane(self):
        with pytest.raises(ValueError, match="uint8"):
            brightness_histogram(np.zeros((4, 4)))


class TestAreaHistogram:
    def test_edge_table_shape(self):
        assert len(AREA_BIN_EDGES) == 65
        assert np.all(np.diff(AREA_BIN_EDGES[:-1]) > 0)
        assert AREA_BIN_EDGES[0] == 0.0 and np.isinf(AREA_BIN_EDGES[-1])

    def test_edge_table_values(self):
        # 0, 9^2..24^2 step 1, 27^2..75^2 step 3, 80^2..175^2 step 5,
        # 182^2..245^2 step 7, +inf
        assert AREA_BIN_EDGES[1] == 81.0
        assert AREA_BIN_EDGES[16] == 24.0**2
        assert AREA_BIN_EDGES[17] == 27.0**2
        assert AREA_BIN_EDGES[33] == 75.0**2
        assert AREA_BIN_EDGES[34] == 80.0**2
        assert AREA_BIN_EDGES[53] == 175.0**2
        assert AREA_BIN_EDGES[54] == 182.0**2
        assert AREA_BIN_EDGES[63] == 245.0**2

    def test_empty_list(self):
        assert area_histogram([]).sum() == 0.0

    def test_small_box_first_bin(self):
        h = area_histogram([det(50.0)])
        assert h[0] == 1.0  # 50 < 9^2

    def test_huge_box_last_bin(self):
        h = area_histogram([det(1e6)])
        assert h[63] == 1.0

    def test_low_score_filtered(self):
        assert area_histogram([det(50.0, score=0.4)]).sum() == 0.0

    def test_normalized_by_count(self):
        h = area_histogram([det(50.0), det(1e6)])
        assert h[0] == 0.5 and h[63] == 0.5


class TestGaussianSmooth:
    def test_zero_input(self):
        assert gaussian_smooth(np.zeros(64)).sum() == 0.0

    def test_interior_bell_matches_kernel(self):
        u = np.zeros(64)
        u[31] = 1.0
        out = gaussian_smooth(u)
        w = np.exp(-np.arange(-3, 4) ** 2 / 2.0)
        w /= w.sum()
        assert out[28:35] == pytest.approx(w, abs=1e-9)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_preserved(self):
        c = np.full(64, 0.015625)
        assert gaussian_smooth(c) == pytest.approx(c, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=64, max_size=64),
        st.floats(0.3, 3.0),
    )
    def test_mass_conserved_and_positive(self, values, sigma):
        hist = np.array(values)
        out = gaussian_smooth(hist, sigma=sigma)
        assert out.sum() == pytest.approx(hist.sum(), abs=1e-9)
        assert out.min() >= -1e-12

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_smooth(np.zeros(64), sigma=0.0)


class TestReduceContext:
    def test_512_identity(self, rng):
        ctx = rng.normal(size=512)
        assert np.array_equal(reduce_context(ctx), ctx)

    def test_1024_pairwise_max(self):
        ctx = np.arange(1024, dtype=np.float64)
        out = reduce_context(ctx)
        assert np.array_equal(out, np.arange(1, 1024, 2, dtype=np.float64))

    def test_1024_constant(self):
        out = reduce_context(np.full(1024, 3.25))
        assert np.array_equal(out, np.full(512, 3.25))

    def test_rejects_other_lengths(self):
        with pytest.raises(ValueError):
            reduce_context(np.zeros(100))


class TestAssembleState:
    def test_zero_state(self):
        s = assemble_state(np.zeros(512), np.zeros(64), StateKind.BRIGHTNESS)
        assert s.values.shape == (STATE_DIM,)
        assert np.all(s.values == 0.0)

    def test_dimension_is_576(self):
        assert CONTEXT_DIM + HIST_BINS == STATE_DIM == 576

    def test_layout_contract(self, rng):
        ctx = rng.normal(size=512)
        hist = rng.uniform(size=64)
        s = assemble_state(ctx, hist, StateKind.SCALE)
        assert s.values[512] == hist[0]
        assert np.array_equal(s.values[:512], ctx)

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            assemble_state(np.zeros(511), np.zeros(64), StateKind.BRIGHTNESS)
        with pytest.raises(ValueError):
            assemble_state(np.zeros(512), np.zeros(63), StateKind.BRIGHTNESS)

    def test_rejects_non_finite(self):
        ctx = np.zeros(512)
        ctx[0] = np.inf
        with pytest.raises(ValueError):
            assemble_state(ctx, np.zeros(64), StateKind.BRIGHTNESS)
