"""Lightning-protection zones for single vertical rods, and the plan-view
geometry generated from them.

Zone maths follows РД 34.21.122-87 for a single rod of height h <= 150 m.
Class B (95 % interception): apex h0 = 0.92*h, ground radius r0 = 1.5*h,
section radius rx = 1.5*(h - hx/0.92). Class A (99.5 %): h0 = 0.85*h,
r0 = (1.1 - 0.002*h)*h, rx = (1.1 - 0.002*h)*(h - hx/0.85). Both reduce to
the linear form rx = r0*(1 - hx/h0). Plan positions and heights are metres;
generated geometry is paper millimetres via an explicit scale.

:class:`Rod` and :class:`LightningParams` check their numbers once, as
property values are checked: a string or boolean is refused, not coerced.
The zone maths trusts what they hold and reads its own arguments as they do:
``apex_height``, ``ground_radius`` and ``single_rod_radius`` read a rod
height by :class:`Rod`'s rule, so they refuse what a rod refuses, with its
words (a height above ``MAX_ROD_HEIGHT`` is :class:`OutOfMethodRange`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoProtectionAtHeight, OutOfMethodRange, SchemaViolation
from .geometry import (Circle, Element, Point, Segment, Text, _as_real,
                       _field, _named, _positive, _shared_style)
from .properties import _read_records

__all__ = [
    "Rod", "ZoneClass", "LightningParams", "MAX_ROD_HEIGHT",
    "apex_height", "ground_radius", "single_rod_radius",
    "zone_sections", "is_protected", "gen_lightning",
]

MAX_ROD_HEIGHT = 150.0
# Rods times section heights: each section draws a circle and a label.
_MAX_ZONE_SECTIONS = 4096

CROSS_HALF_MM = 1.5       # rod marker is a 3 mm x-cross in paper space
LABEL_HEIGHT_MM = 2.5
LABEL_GAP_MM = 1.0


class ZoneClass(str, Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Rod:
    """Vertical air-terminal rod: plan position and height, metres."""

    x: float
    y: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "h"):
            object.__setattr__(self, name, _named(name, getattr(self, name), _as_real))
        if self.h <= 0.0:
            raise ValueError("rod height must be positive")
        if self.h > MAX_ROD_HEIGHT:
            raise OutOfMethodRange(f"rod height {self.h} m exceeds {MAX_ROD_HEIGHT} m")


@dataclass(frozen=True)
class LightningParams:
    """Everything needed to evaluate and draw protection zone sections."""

    rods: tuple[Rod, ...]
    section_heights: tuple[float, ...]
    zone_class: ZoneClass
    scale_mm_per_m: float
    plan_origin: Point = Point(0.0, 0.0)

    def __post_init__(self):
        rods = tuple(self.rods)
        if not rods:
            raise ValueError("at least one rod is required")
        object.__setattr__(self, "rods", rods)
        heights = tuple(_as_real(h) for h in self.section_heights)
        if any(h < 0.0 for h in heights):
            raise ValueError("section heights must be non-negative")
        if list(heights) != sorted(set(heights)):
            raise ValueError("section heights must be distinct and ascending")
        object.__setattr__(self, "section_heights", heights)
        object.__setattr__(self, "zone_class", ZoneClass(self.zone_class))
        object.__setattr__(self, "scale_mm_per_m",
                           _positive(self.scale_mm_per_m, "plan scale"))


def _zone(h: float, zone_class: ZoneClass) -> tuple[float, float]:
    """Apex factor k and radius slope of a rod of height h: the zone has
    apex k*h, ground radius slope*h and section radius slope*(h - hx/k)."""
    if ZoneClass(zone_class) is ZoneClass.B:
        return 0.92, 1.5
    return 0.85, 1.1 - 0.002 * h


def apex_height(h: float, zone_class: ZoneClass) -> float:
    """Zone apex h0 for a rod of height h."""
    h = Rod(0.0, 0.0, h).h
    return _zone(h, zone_class)[0] * h


def ground_radius(h: float, zone_class: ZoneClass) -> float:
    """Zone radius r0 at ground level for a rod of height h."""
    h = Rod(0.0, 0.0, h).h
    return _zone(h, zone_class)[1] * h


def _section_radius(h: float, hx: float, zone_class: ZoneClass) -> "float | None":
    """Section radius at height hx of the zone of a rod of height h, or None
    at or above the zone apex."""
    k, slope = _zone(h, zone_class)
    return slope * (h - hx / k) if k * h > hx else None


def _section_height(hx: float) -> float:
    hx = _as_real(hx)
    if hx < 0.0:
        raise ValueError("section height must be non-negative")
    return hx


def single_rod_radius(h: float, hx: float, zone_class: ZoneClass) -> float:
    """Protection radius rx at section height hx for a single rod."""
    h = Rod(0.0, 0.0, h).h
    hx = _section_height(hx)
    rx = _section_radius(h, hx, zone_class)
    if rx is None:
        raise NoProtectionAtHeight(
            f"section height {hx} m is not below the zone apex of a {h} m rod")
    return rx


def zone_sections(params: LightningParams, hx: float) -> list[Circle]:
    """Section circles at height hx, world metres, one per qualifying rod
    in rod order.

    Rods whose apex does not clear hx contribute nothing.
    """
    hx = _section_height(hx)
    return [Circle(Point(rod.x, rod.y), rx) for rod in params.rods
            if (rx := _section_radius(rod.h, hx, params.zone_class)) is not None]


def is_protected(x: float, y: float, z: float, params: LightningParams) -> bool:
    """True if the point (x, y, z) lies inside the union of rod zones."""
    x, y, z = map(_as_real, (x, y, z))
    if z < 0.0:
        raise ValueError("height must be non-negative")
    for rod in params.rods:
        rx = _section_radius(rod.h, z, params.zone_class)
        if rx is not None and math.hypot(x - rod.x, y - rod.y) <= rx:
            return True
    return False


def params_from_props(props: dict) -> LightningParams:
    """Build LightningParams from a normalised lightning property set."""
    if len(props["rods"]) * len(props["section_heights"]) > _MAX_ZONE_SECTIONS:
        raise SchemaViolation("section_heights", "rods times section heights "
                              f"exceeds {_MAX_ZONE_SECTIONS} zone sections")
    rods = _read_records(props, "rods", lambda rec: Rod(rec["x"], rec["y"], rec["h"]))
    heights = _read_records(props, "section_heights",
                            lambda rec: _field(rec, "height", _as_real))
    try:
        return LightningParams(tuple(rods), tuple(heights),
                               ZoneClass(props["zone_class"]),
                               props["scale_mm_per_m"], props["plan_origin"])
    except ValueError as exc:
        raise SchemaViolation("section_heights", str(exc)) from exc


def _paper_point(params: LightningParams, x_m: float, y_m: float) -> Point:
    s = params.scale_mm_per_m
    return Point(params.plan_origin.x + x_m * s, params.plan_origin.y + y_m * s)


def gen_lightning(props: dict) -> tuple[Element, ...]:
    """Plan-view zone geometry: rod crosses, section circles, radius labels.

    Circles are ordered by section height ascending, then rod index; the
    matching radius labels follow in the same order and form the module's
    "radius_dimensions" internal list.
    """
    params = params_from_props(props)
    style = _shared_style()
    elements: list[Element] = []
    centres = [_paper_point(params, rod.x, rod.y) for rod in params.rods]
    for c in centres:
        elements.append(Segment(Point(c.x - CROSS_HALF_MM, c.y - CROSS_HALF_MM),
                                Point(c.x + CROSS_HALF_MM, c.y + CROSS_HALF_MM), style))
        elements.append(Segment(Point(c.x - CROSS_HALF_MM, c.y + CROSS_HALF_MM),
                                Point(c.x + CROSS_HALF_MM, c.y - CROSS_HALF_MM), style))
    # (paper centre, radius in metres, radius in mm) of each section
    sections = [(c, rx, rx * params.scale_mm_per_m)
                for hx in params.section_heights
                for rod, c in zip(params.rods, centres)
                if (rx := _section_radius(rod.h, hx, params.zone_class)) is not None]
    elements += [Circle(c, r_mm, style) for c, _, r_mm in sections]
    elements += [Text(Point(c.x, c.y + r_mm + LABEL_GAP_MM), LABEL_HEIGHT_MM, 0.0,
                      f"R{rx:.2f}", style) for c, rx, r_mm in sections]
    return tuple(elements)
