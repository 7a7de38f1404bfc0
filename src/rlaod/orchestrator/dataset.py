"""Dataset files: images plus a JSON manifest of boxes.

Manifest layout:
    {"images": [{"id", "file", "width", "height"}, ...],
     "annotations": [{"image_id", "bbox": [x, y, w, h], "category"}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from ..environment import Scene, SceneParams, generate_scene
from ..errors import ConfigError, ImageFormatError
from ..imaging import (
    MAX_SIDE,
    MIN_SIDE,
    estimate_brightness_level,
    read_ppm,
    value_channel,
    write_ppm,
)
from ..imaging.png import read_png, write_png
from ..metrics import Box2D, GroundTruthBox, finite_extent
from ..util import finite_floats

MANIFEST_NAME = "manifest.json"
# An image id is its scene's seed: numpy streams take no negative seed, and
# the oracle hashes seeds as 64-bit words, so larger ids would alias.
ID_LIMIT = 2**64


def _manifest_dict(scenes: Sequence[Scene], files: Sequence[str]) -> dict:
    images = []
    annotations = []
    for scene, fname in zip(scenes, files):
        images.append(
            {
                "id": scene.seed,
                "file": fname,
                "width": scene.image.width,
                "height": scene.image.height,
            }
        )
        for t in scene.truths:
            b = t.box
            annotations.append(
                {
                    "image_id": scene.seed,
                    "bbox": [b.x_min, b.y_min, b.x_max - b.x_min, b.y_max - b.y_min],
                    "category": t.category,
                }
            )
    return {"images": images, "annotations": annotations}


def write_dataset(
    scenes: Sequence[Scene], out_dir: str | Path, image_format: str = "ppm"
) -> Path:
    """Write scene images and the manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for scene in scenes:
        fname = f"scene_{scene.seed:08d}.{image_format}"
        if image_format == "ppm":
            write_ppm(scene.image, out / fname)
        elif image_format == "png":
            write_png(scene.image, out / fname)
        else:
            raise ConfigError(f"unsupported image format {image_format!r}")
        files.append(fname)
    manifest = out / MANIFEST_NAME
    manifest.write_text(json.dumps(_manifest_dict(scenes, files), indent=2, sort_keys=True) + "\n")
    return manifest


def generate_dataset(
    out_dir: str | Path,
    seed: int,
    count: int,
    params: SceneParams | None = None,
    image_format: str = "ppm",
) -> Path:
    """Generate `count` scenes with seeds seed..seed+count-1 and write them."""
    params = params or SceneParams()
    scenes = [generate_scene(seed + i, params) for i in range(count)]
    return write_dataset(scenes, out_dir, image_format)


def _field(entry, key: str, where: str):
    """entry[key], or a ConfigError naming the manifest entry that lacks it."""
    if not isinstance(entry, dict) or key not in entry:
        raise ConfigError(f"{where} has no {key!r}")
    return entry[key]


def _integer(value, what: str, where: str) -> int:
    """A manifest number as an int; ConfigError for a str, bool, NaN, inf or fraction."""
    if finite_floats([value]) is None or value != int(value):
        raise ConfigError(f"{where}: bad {what} {value!r}")
    return int(value)


def _truth(ann, where: str) -> GroundTruthBox:
    """The ground-truth box of one manifest annotation ([x, y, w, h])."""
    bbox = _field(ann, "bbox", where)
    box = finite_floats(bbox)
    if box is None or box.shape != (4,):
        raise ConfigError(f"{where}: bbox {bbox!r} is not 4 finite numbers")
    x, y, w, h = box.tolist()
    category = _integer(ann.get("category", 0), "category", where)
    try:
        box = Box2D(x, y, x + w, y + h)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not finite_extent(box):
        raise ConfigError(f"{where}: bbox {bbox!r} has an infinite extent")
    return GroundTruthBox(box=box, category=category)


def load_dataset(manifest_path: str | Path) -> list[Scene]:
    """Read a manifest back into Scene values (nominal stats recomputed).

    A manifest that cannot be read, or whose entries lack a key, hold a bad
    box, repeat an image id, give one outside [0, 2**64) or annotate an
    image it does not list, raises ConfigError, and so does an image with
    a side below MIN_SIDE or above MAX_SIDE, the smallest and largest
    frames a resize makes; an image that cannot be read raises
    ImageFormatError.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / MANIFEST_NAME
    try:
        data = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers decode errors
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"manifest {manifest_path} must contain a JSON object")
    for key in ("images", "annotations"):
        if not isinstance(data.get(key, []), list):
            raise ConfigError(f"manifest {manifest_path}: {key!r} must be a list")

    images = data.get("images", [])
    by_image: dict[int, list[GroundTruthBox]] = {}  # in image order
    for i, entry in enumerate(images):
        where = f"{manifest_path}: image {i}"
        image_id = _integer(_field(entry, "id", where), "id", where)
        if not 0 <= image_id < ID_LIMIT:
            raise ConfigError(f"{where}: id {image_id} is outside [0, 2**64)")
        if image_id in by_image:
            raise ConfigError(f"{where}: duplicate id {image_id}")
        by_image[image_id] = []
    for i, ann in enumerate(data.get("annotations", [])):
        where = f"{manifest_path}: annotation {i}"
        image_id = _integer(_field(ann, "image_id", where), "image_id", where)
        if image_id not in by_image:
            raise ConfigError(f"{where}: image_id {image_id} names no image")
        by_image[image_id].append(_truth(ann, where))

    scenes = []
    for i, (entry, (image_id, truths)) in enumerate(zip(images, by_image.items())):
        where = f"{manifest_path}: image {i}"
        name = _field(entry, "file", where)
        if not isinstance(name, str) or "\x00" in name:  # open() raises ValueError on NUL
            raise ConfigError(f"{where}: file {name!r} is not a file name")
        path = manifest_path.parent / name
        try:
            image = read_png(path) if path.suffix == ".png" else read_ppm(path)
        except OSError as exc:
            raise ImageFormatError(f"cannot read image {path}: {exc}") from exc
        sides = (image.width, image.height)
        if min(sides) < MIN_SIDE or max(sides) > MAX_SIDE:
            raise ConfigError(
                f"{where}: image {path} is {image.width}x{image.height}, "
                f"outside the {MIN_SIDE}- to {MAX_SIDE}-pixel side limits"
            )
        mean_area = (
            float(sum(t.box.area for t in truths) / len(truths)) if truths else 0.0
        )
        scenes.append(
            Scene(
                image=image,
                truths=truths,
                seed=image_id,
                nominal_level_b=estimate_brightness_level(value_channel(image)),
                nominal_mean_area=mean_area,
            )
        )
    return scenes
