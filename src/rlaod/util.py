"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a cheap deterministic integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def hash_unit(*parts: int) -> float:
    """Deterministic hash of integers onto [0, 1)."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = splitmix64(h ^ (int(p) & _MASK64))
    return h / 2.0**64


def all_numbers(values) -> bool:
    """True when every value is an int or a float; never a str or a bool."""
    return set(map(type, values)) <= {int, float}


def finite_floats(values) -> np.ndarray | None:
    """A list of finite ints and floats as a float64 array; else None."""
    if not (isinstance(values, list) and all_numbers(values)):
        return None
    try:
        floats = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    return floats if np.isfinite(floats).all() else None


def round_half_away(x: np.ndarray | float) -> np.ndarray | float:
    """Round to nearest integer, halves away from zero (unlike numpy's banker's rounding)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
