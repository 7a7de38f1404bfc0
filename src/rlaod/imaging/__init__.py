"""Imaging primitives: color conversion, brightness/scale levels, resampling, I/O."""

from .actions import BRIGHTNESS_ACTIONS, SCALE_ACTIONS, AttributeAction
from .brightness import (
    FIT_LEVEL_LIMIT,
    N_VALUES,
    BrightnessModel,
    estimate_brightness_level,
    fit_brightness_base,
    interpolated_quantiles,
    level_from_counts,
    render_brightness,
    update_brightness_level,
    value_counts,
)
from .color import (
    HsvImage,
    Palette,
    RgbImage,
    hsv_to_rgb,
    hue_weights,
    merge_v_channel,
    rgb_to_hsv,
    value_channel,
)
from .ppm import read_ppm, write_ppm
from .resize import (
    MAX_SIDE,
    MIN_SIDE,
    resample_bilinear,
    resize_bilinear,
    scaled_dims,
)
from .scale import (
    ALPHA0,
    THETA,
    estimate_scale_level,
    scale_factor_for_step,
    update_scale_level,
)
