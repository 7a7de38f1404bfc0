"""Discrete attribute-adjustment actions."""

from __future__ import annotations

from enum import Enum


class AttributeAction(Enum):
    BRIGHTEN = "brighten"
    DARKEN = "darken"
    ZOOM_IN = "zoom_in"
    ZOOM_OUT = "zoom_out"


BRIGHTNESS_ACTIONS = (AttributeAction.BRIGHTEN, AttributeAction.DARKEN)
SCALE_ACTIONS = (AttributeAction.ZOOM_IN, AttributeAction.ZOOM_OUT)
