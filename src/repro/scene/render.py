"""Scene rasterizer: ground truth in, square RGB pixels out.

The output size is a parameter; :data:`DEFAULT_SIZE` (640×640, the
paper's GSV request size) is the default.  This is the reproduction's
stand-in for the Google Street View camera.
Scenes render with a painter's algorithm — sky, terrain, background
buildings and vegetation, roadway, sidewalk, lane markings, poles and
wires, then foreground occluders — so the detector substrate trains on
real pixels and the noise/augmentation ablations operate on images,
not on labels.

Rendering is deterministic given the scene (texture noise derives its
RNG from the scene id), which keeps dataset builds reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.indicators import Indicator
from .generator import HORIZON
from .model import Distractor, Scene, SceneObject
from .seeding import stable_seed
from .raster import (
    draw_line,
    draw_polyline,
    fill_convex_polygon,
    fill_ellipse,
    fill_rect,
    speckle,
    vertical_gradient,
)

#: Default render resolution, matching the paper's GSV requests.
DEFAULT_SIZE = 640

_SKY_TOP = (0.50, 0.67, 0.90)
_SKY_BOTTOM = (0.79, 0.86, 0.94)
_GRASS = (0.34, 0.50, 0.26)
_ASPHALT = (0.235, 0.235, 0.255)
_SIDEWALK = (0.68, 0.67, 0.64)
_YELLOW_LINE = (0.86, 0.72, 0.16)
_WHITE_LINE = (0.92, 0.92, 0.92)
_LIGHT_POLE = (0.10, 0.10, 0.12)
_LAMP = (1.00, 0.95, 0.66)
_WOOD_POLE = (0.36, 0.25, 0.16)
_WIRE = (0.07, 0.07, 0.09)
_BRICK = (0.62, 0.42, 0.34)
_WINDOW = (0.14, 0.19, 0.30)
_HOUSE_WALL = (0.76, 0.71, 0.60)
_ROOF = (0.36, 0.19, 0.14)
_FOLIAGE = (0.19, 0.37, 0.15)
_FOLIAGE_DARK = (0.14, 0.29, 0.11)


def _shade(color: tuple[float, float, float], factor: float) -> tuple[float, float, float]:
    return (color[0] * factor, color[1] * factor, color[2] * factor)


def _mix(
    color: tuple[float, float, float],
    other: tuple[float, float, float],
    weight: float,
) -> tuple[float, float, float]:
    """Blend ``weight`` of ``color`` over ``other`` (contrast control)."""
    return tuple(
        weight * c + (1.0 - weight) * o for c, o in zip(color, other)
    )


def render_scene(scene: Scene, size: int = DEFAULT_SIZE) -> np.ndarray:
    """Render ``scene`` to an ``(size, size, 3)`` uint8 RGB image."""
    if size < 32:
        raise ValueError(f"render size too small: {size}")
    rng = np.random.default_rng(stable_seed("render", scene.scene_id))
    image = np.zeros((size, size, 3), dtype=np.float64)
    day = scene.daylight

    # Sky and terrain.
    horizon_px = HORIZON * size
    vertical_gradient(
        image, 0, horizon_px, _shade(_SKY_TOP, day), _shade(_SKY_BOTTOM, day)
    )
    vertical_gradient(
        image,
        horizon_px,
        size,
        _shade(_GRASS, day),
        _shade(_GRASS, 0.8 * day),
    )
    speckle(image, 0, horizon_px, size, size, 0.015, rng)

    # Background layers first, foreground last.
    for tree in _of_kind(scene.distractors, "tree"):
        _render_tree(image, tree, size, day)
    for obj in scene.objects_of(Indicator.APARTMENT):
        _render_apartment(image, obj, size, day, rng)
    for house in _of_kind(scene.distractors, "house"):
        _render_house(image, house, size, day)

    for obj in scene.objects:
        if obj.indicator in (
            Indicator.SINGLE_LANE_ROAD,
            Indicator.MULTILANE_ROAD,
        ):
            _render_road(image, obj, size, day, rng)
    for obj in scene.objects_of(Indicator.SIDEWALK):
        _render_sidewalk(image, obj, size, day, rng)

    for pole in _of_kind(scene.distractors, "bare_pole"):
        _render_bare_pole(image, pole, size, day)
    for obj in scene.objects_of(Indicator.POWERLINE):
        _render_powerline(image, obj, size, day)
    for obj in scene.objects_of(Indicator.STREETLIGHT):
        _render_streetlight(image, obj, size, day)

    # Foreground occluders implement each object's occlusion fraction.
    for obj in scene.objects:
        if obj.occlusion > 0.05:
            _render_occluder(image, obj, size, rng)

    speckle(image, 0, 0, size, size, 0.008, rng)
    np.clip(image, 0.0, 1.0, out=image)
    return (image * 255.0 + 0.5).astype(np.uint8)


def _of_kind(distractors: tuple[Distractor, ...], kind: str):
    return [d for d in distractors if d.kind == kind]


# ----------------------------------------------------------------------
# content fingerprint


def scene_fingerprint(scene: Scene, size: int = DEFAULT_SIZE) -> str:
    """Content hash of everything that reaches the rasterized pixels.

    Rendering is a pure function of the scene's drawable content (the
    texture RNG is derived from ``scene_id``) and the raster size, so
    two scenes with equal fingerprints render byte-identically — the
    invariant that lets the artifact cache key per-image training
    tensors on it instead of on the pixels.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{scene.scene_id}|{size}|{scene.daylight:.6f}".encode())
    for obj in scene.objects:
        hasher.update(
            "|".join(
                (
                    "obj",
                    obj.indicator.value,
                    repr(obj.box),
                    f"{obj.occlusion:.6f}",
                    f"{obj.contrast:.6f}",
                    repr(sorted(obj.attributes.items())),
                )
            ).encode()
        )
    for distractor in scene.distractors:
        hasher.update(
            "|".join(
                (
                    "distractor",
                    distractor.kind,
                    repr(distractor.box),
                    repr(sorted(distractor.attributes.items())),
                )
            ).encode()
        )
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# per-element renderers


def _render_road(
    image: np.ndarray,
    obj: SceneObject,
    size: int,
    day: float,
    rng: np.random.Generator,
) -> None:
    color = _mix(_shade(_ASPHALT, day), _shade(_GRASS, day), obj.contrast)
    lanes = int(obj.attributes.get("lanes", 2))
    if obj.attributes.get("view") == "along":
        vp_x = obj.attributes["vanishing_x"] * size
        half_bottom = obj.attributes["half_bottom"] * size
        horizon_px = HORIZON * size
        poly = (
            (vp_x - 0.015 * size, horizon_px),
            (vp_x + 0.015 * size, horizon_px),
            (size / 2 + half_bottom, size),
            (size / 2 - half_bottom, size),
        )
        fill_convex_polygon(image, poly, color)
        speckle(
            image,
            min(p[0] for p in poly),
            horizon_px,
            max(p[0] for p in poly),
            size,
            0.02,
            rng,
        )
        _render_along_markings(image, vp_x, half_bottom, size, lanes, day)
    else:
        x0, y0, x1, y1 = obj.box.to_pixels(size, size)
        fill_rect(image, x0, y0, x1, y1, color)
        speckle(image, x0, y0, x1, y1, 0.02, rng)
        _render_across_markings(image, y0, y1, size, lanes, day)


def _render_along_markings(
    image: np.ndarray,
    vp_x: float,
    half_bottom: float,
    size: int,
    lanes: int,
    day: float,
) -> None:
    horizon_px = HORIZON * size

    def lane_line(
        frac: float, color: tuple[float, float, float], dashed: bool
    ) -> None:
        bottom_x = size / 2 + frac * half_bottom
        steps = 12
        for step in range(steps):
            if dashed and step % 2 == 1:
                continue
            t0 = step / steps
            t1 = (step + 0.8) / steps
            # Interpolate along the perspective line, thinner near horizon.
            xa = vp_x + (bottom_x - vp_x) * t0
            ya = horizon_px + (size - horizon_px) * t0
            xb = vp_x + (bottom_x - vp_x) * t1
            yb = horizon_px + (size - horizon_px) * t1
            thickness = max(1.0, 4.5 * t1 * size / DEFAULT_SIZE)
            draw_line(image, xa, ya, xb, yb, _shade(color, day), thickness)

    if lanes <= 2:
        lane_line(0.0, _YELLOW_LINE, dashed=False)
    else:
        lane_line(-0.02, _YELLOW_LINE, dashed=False)
        lane_line(0.02, _YELLOW_LINE, dashed=False)
        lane_line(-0.5, _WHITE_LINE, dashed=True)
        lane_line(0.5, _WHITE_LINE, dashed=True)


def _render_across_markings(
    image: np.ndarray, y0: int, y1: int, size: int, lanes: int, day: float
) -> None:
    mid = (y0 + y1) / 2
    thickness = max(1.0, 3.0 * size / DEFAULT_SIZE)
    if lanes <= 2:
        draw_line(image, 0, mid, size, mid, _shade(_YELLOW_LINE, day), thickness)
    else:
        draw_line(
            image, 0, mid - 2, size, mid - 2, _shade(_YELLOW_LINE, day), thickness
        )
        draw_line(
            image, 0, mid + 2, size, mid + 2, _shade(_YELLOW_LINE, day), thickness
        )
        for offset in (-0.28, 0.28):
            y = mid + offset * (y1 - y0)
            for x0 in range(0, size, size // 8):
                draw_line(
                    image,
                    x0,
                    y,
                    x0 + size // 16,
                    y,
                    _shade(_WHITE_LINE, day),
                    thickness,
                )


def _render_sidewalk(
    image: np.ndarray,
    obj: SceneObject,
    size: int,
    day: float,
    rng: np.random.Generator,
) -> None:
    color = _mix(_shade(_SIDEWALK, day), _shade(_GRASS, day), obj.contrast)
    if obj.attributes.get("view") == "along":
        inner = obj.attributes["inner"]
        outer = obj.attributes["outer"]
        sign = 1.0 if obj.attributes.get("side") == "right" else -1.0
        horizon_px = HORIZON * size
        vp_x = 0.5 * size + sign * 0.02 * size
        poly = (
            (vp_x, horizon_px + 0.02 * size),
            (vp_x + sign * 0.012 * size, horizon_px + 0.02 * size),
            ((0.5 + sign * outer) * size, size),
            ((0.5 + sign * inner) * size, size),
        )
        fill_convex_polygon(image, poly, color)
        # Expansion joints give the sidewalk its characteristic texture.
        for t in np.linspace(0.15, 0.95, 7):
            xa = vp_x + ((0.5 + sign * inner) * size - vp_x) * t
            xb = vp_x + ((0.5 + sign * outer) * size - vp_x) * t
            y = horizon_px + (size - horizon_px) * t
            draw_line(
                image, xa, y, xb, y, _shade((0.5, 0.5, 0.48), day), 1.5
            )
    else:
        x0, y0, x1, y1 = obj.box.to_pixels(size, size)
        fill_rect(image, x0, y0, x1, y1, color)
        for x in range(0, size, max(8, size // 14)):
            draw_line(
                image, x, y0, x, y1, _shade((0.5, 0.5, 0.48), day), 1.5
            )


def _render_streetlight(
    image: np.ndarray, obj: SceneObject, size: int, day: float
) -> None:
    a = obj.attributes
    pole_x = a["pole_x"] * size
    y_top = a["y_top"] * size
    y_base = a["y_base"] * size
    arm_x = a["arm_x"] * size
    scale = a["scale"]
    color = _mix(_shade(_LIGHT_POLE, max(day, 0.8)), _SKY_BOTTOM, obj.contrast)
    thickness = max(3.0, 11.0 * scale * size / DEFAULT_SIZE)
    draw_line(image, pole_x, y_top, pole_x, y_base, color, thickness)
    # Curved mast arm approximated with two segments.
    mid_x = (pole_x + arm_x) / 2
    draw_line(image, pole_x, y_top, mid_x, y_top - 0.012 * size, color, thickness * 0.8)
    draw_line(
        image, mid_x, y_top - 0.012 * size, arm_x, y_top, color, thickness * 0.8
    )
    lamp = _mix(_LAMP, _SKY_BOTTOM, obj.contrast)
    fill_ellipse(
        image,
        arm_x,
        y_top + 0.008 * size,
        max(4.0, 0.026 * scale * size),
        max(2.5, 0.014 * scale * size),
        lamp,
    )


def _render_powerline(
    image: np.ndarray, obj: SceneObject, size: int, day: float
) -> None:
    a = obj.attributes
    pole_x = a["pole_x"] * size
    wire_y = a["wire_y"] * size
    sag = a["sag"] * size
    thinness = a["thinness"]
    pole_color = _mix(_shade(_WOOD_POLE, day), _SKY_BOTTOM, obj.contrast)
    wire_color = _mix(_WIRE, _SKY_BOTTOM, obj.contrast)
    pole_thickness = max(2.0, 6.0 * size / DEFAULT_SIZE)
    y_base = (HORIZON + 0.30) * size
    draw_line(image, pole_x, wire_y - 0.02 * size, pole_x, y_base, pole_color, pole_thickness)
    # Crossarm.
    draw_line(
        image,
        pole_x - 0.045 * size,
        wire_y,
        pole_x + 0.045 * size,
        wire_y,
        pole_color,
        pole_thickness * 0.6,
    )
    wire_thickness = max(1.0, (2.6 - 1.4 * thinness) * size / DEFAULT_SIZE)
    for wire_index in range(int(a["n_wires"])):
        base_y = wire_y + wire_index * 0.022 * size
        points = []
        for t in np.linspace(0.0, 1.0, 9):
            x = t * size
            # Catenary approximated by a parabola sagging between edges.
            y = base_y + sag * 4.0 * (t - 0.5) ** 2 + sag * 0.5
            points.append((x, y))
        draw_polyline(image, points, wire_color, wire_thickness)


def _render_bare_pole(
    image: np.ndarray, pole: Distractor, size: int, day: float
) -> None:
    pole_x = pole.attributes["pole_x"] * size
    color = _shade(_WOOD_POLE, day)
    draw_line(
        image,
        pole_x,
        0.22 * size,
        pole_x,
        (HORIZON + 0.30) * size,
        color,
        max(2.0, 6.0 * size / DEFAULT_SIZE),
    )


def _render_apartment(
    image: np.ndarray,
    obj: SceneObject,
    size: int,
    day: float,
    rng: np.random.Generator,
) -> None:
    x0, y0, x1, y1 = obj.box.to_pixels(size, size)
    wall = _mix(_shade(_BRICK, day), _shade(_SKY_BOTTOM, day), obj.contrast)
    fill_rect(image, x0, y0, x1, y1, wall)
    # Flat parapet roofline.
    fill_rect(image, x0, y0, x1, y0 + max(2, (y1 - y0) // 24), _shade(_ROOF, 0.7))
    floors = int(obj.attributes.get("floors", 5))
    cols = max(4, (x1 - x0) // max(8, size // 26))
    window = _shade(_WINDOW, day)
    for row in range(floors):
        wy0 = y0 + (row + 0.25) * (y1 - y0) / floors
        wy1 = y0 + (row + 0.70) * (y1 - y0) / floors
        for col in range(cols):
            wx0 = x0 + (col + 0.22) * (x1 - x0) / cols
            wx1 = x0 + (col + 0.78) * (x1 - x0) / cols
            fill_rect(image, wx0, wy0, wx1, wy1, window)


def _render_house(
    image: np.ndarray, house: Distractor, size: int, day: float
) -> None:
    x0, y0, x1, y1 = house.box.to_pixels(size, size)
    roof_height = (y1 - y0) * 0.4
    wall = _shade(_HOUSE_WALL, day)
    fill_rect(image, x0, y0 + roof_height, x1, y1, wall)
    fill_convex_polygon(
        image,
        ((x0, y0 + roof_height), ((x0 + x1) / 2, y0), (x1, y0 + roof_height)),
        _shade(_ROOF, day),
    )
    # A door and two windows; houses have far sparser fenestration than
    # apartment blocks, which is what separates the classes visually.
    door_w = max(3, (x1 - x0) // 8)
    cx = (x0 + x1) / 2
    fill_rect(image, cx - door_w / 2, y1 - (y1 - y0) * 0.30, cx + door_w / 2, y1, _shade((0.55, 0.42, 0.30), day))
    for wx in (x0 + (x1 - x0) * 0.2, x0 + (x1 - x0) * 0.8):
        fill_rect(
            image,
            wx - door_w / 2,
            y0 + roof_height + (y1 - y0 - roof_height) * 0.2,
            wx + door_w / 2,
            y0 + roof_height + (y1 - y0 - roof_height) * 0.5,
            _shade(_WINDOW, day),
        )


def _render_tree(
    image: np.ndarray, tree: Distractor, size: int, day: float
) -> None:
    cx = tree.attributes["cx"] * size
    cy = tree.attributes["cy"] * size
    rx = tree.attributes["rx"] * size
    trunk = _shade((0.45, 0.35, 0.22), 0.9 * day)
    draw_line(image, cx, cy, cx, cy + rx * 1.6, trunk, max(1.5, rx * 0.12))
    fill_ellipse(image, cx, cy, rx, rx * 0.9, _shade(_FOLIAGE, day))
    fill_ellipse(
        image, cx - rx * 0.3, cy - rx * 0.25, rx * 0.55, rx * 0.5, _shade(_FOLIAGE_DARK, day)
    )


def _render_occluder(
    image: np.ndarray, obj: SceneObject, size: int, rng: np.random.Generator
) -> None:
    """Cover ``obj.occlusion`` of the object's box with foliage."""
    x0, y0, x1, y1 = obj.box.to_pixels(size, size)
    if x1 <= x0 or y1 <= y0:
        return
    covered_width = (x1 - x0) * obj.occlusion
    from_left = rng.random() < 0.5
    cx = x0 + covered_width / 2 if from_left else x1 - covered_width / 2
    cy = (y0 + y1) / 2
    rx = max(2.0, covered_width / 2 + 1)
    ry = max(2.0, (y1 - y0) * min(0.9, obj.occlusion + 0.25) / 2)
    fill_ellipse(image, cx, cy, rx, ry, _FOLIAGE, opacity=0.95)
