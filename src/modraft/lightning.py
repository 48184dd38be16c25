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
The zone maths trusts what they hold and checks nothing again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoProtectionAtHeight, OutOfMethodRange, SchemaViolation
from .geometry import (Circle, Element, LineStyle, Point, Segment, Text,
                       _as_real, _field_real)

__all__ = [
    "Rod", "ZoneClass", "LightningParams", "MAX_ROD_HEIGHT",
    "apex_height", "ground_radius", "single_rod_radius",
    "zone_sections", "is_protected", "gen_lightning",
]

MAX_ROD_HEIGHT = 150.0

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
            object.__setattr__(self, name, _as_real(getattr(self, name)))
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
        scale = _as_real(self.scale_mm_per_m)
        if scale <= 0.0:
            raise ValueError("plan scale must be positive")
        object.__setattr__(self, "scale_mm_per_m", scale)


def _zone(h: float, zone_class: ZoneClass) -> tuple[float, float]:
    """Apex factor k and radius slope of a rod of height h: the zone has
    apex k*h, ground radius slope*h and section radius slope*(h - hx/k)."""
    if ZoneClass(zone_class) is ZoneClass.B:
        return 0.92, 1.5
    return 0.85, 1.1 - 0.002 * h


def apex_height(h: float, zone_class: ZoneClass) -> float:
    """Zone apex h0 for a rod of height h."""
    return _zone(h, zone_class)[0] * h


def ground_radius(h: float, zone_class: ZoneClass) -> float:
    """Zone radius r0 at ground level."""
    return _zone(h, zone_class)[1] * h


def single_rod_radius(h: float, hx: float, zone_class: ZoneClass) -> float:
    """Protection radius rx at section height hx for a single rod."""
    h = _as_real(h)
    hx = _as_real(hx)
    if h <= 0.0:
        raise ValueError("rod height must be positive")
    if h > MAX_ROD_HEIGHT:
        raise OutOfMethodRange(f"rod height {h} m exceeds {MAX_ROD_HEIGHT} m")
    if hx < 0.0:
        raise ValueError("section height must be non-negative")
    k, slope = _zone(h, zone_class)
    if hx >= k * h:
        raise NoProtectionAtHeight(
            f"section height {hx} m is not below the zone apex of a {h} m rod")
    return slope * (h - hx / k)


def zone_sections(params: LightningParams, hx: float) -> list[Circle]:
    """Section circles at height hx, world metres, one per qualifying rod
    in rod order.

    Rods whose apex does not clear hx contribute nothing.
    """
    if hx < 0.0:
        raise ValueError("section height must be non-negative")
    circles = []
    for rod in params.rods:
        k, slope = _zone(rod.h, params.zone_class)
        if k * rod.h > hx:
            circles.append(Circle(Point(rod.x, rod.y), slope * (rod.h - hx / k)))
    return circles


def is_protected(x: float, y: float, z: float, params: LightningParams) -> bool:
    """True if the point (x, y, z) lies inside the union of rod zones."""
    if z < 0.0:
        raise ValueError("height must be non-negative")
    for rod in params.rods:
        k, slope = _zone(rod.h, params.zone_class)
        if k * rod.h > z:
            rx = slope * (rod.h - z / k)
            if math.hypot(x - rod.x, y - rod.y) <= rx:
                return True
    return False


def params_from_props(props: dict) -> LightningParams:
    """Build LightningParams from a normalised lightning property set."""
    rods = []
    for rec in props["rods"]:
        try:
            rods.append(Rod(*(_field_real(rec, key) for key in "xyh")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation("rods", f"bad rod record: {exc}") from exc
    heights = []
    for rec in props["section_heights"]:
        try:
            heights.append(_field_real(rec, "height"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolation("section_heights", f"bad height record: {exc}") from exc
    scale = props["scale_mm_per_m"]
    if scale <= 0.0:
        raise SchemaViolation("scale_mm_per_m", "must be positive")
    if not rods:
        raise SchemaViolation("rods", "at least one rod is required")
    try:
        return LightningParams(tuple(rods), tuple(heights),
                               ZoneClass(props["zone_class"]),
                               scale, props["plan_origin"])
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
    style = LineStyle()
    elements: list[Element] = []
    for rod in params.rods:
        c = _paper_point(params, rod.x, rod.y)
        elements.append(Segment(Point(c.x - CROSS_HALF_MM, c.y - CROSS_HALF_MM),
                                Point(c.x + CROSS_HALF_MM, c.y + CROSS_HALF_MM), style))
        elements.append(Segment(Point(c.x - CROSS_HALF_MM, c.y + CROSS_HALF_MM),
                                Point(c.x + CROSS_HALF_MM, c.y - CROSS_HALF_MM), style))
    sections = [(_paper_point(params, s.center.x, s.center.y), s.radius)
                for hx in params.section_heights for s in zone_sections(params, hx)]
    for c, radius in sections:
        elements.append(Circle(c, radius * params.scale_mm_per_m, style))
    for c, radius in sections:
        r_mm = radius * params.scale_mm_per_m
        anchor = Point(c.x, c.y + r_mm + LABEL_GAP_MM)
        elements.append(Text(anchor, LABEL_HEIGHT_MM, 0.0, f"R{radius:.2f}", style))
    return tuple(elements)
