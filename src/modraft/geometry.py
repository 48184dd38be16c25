"""2D drafting primitives.

Points, conformal transforms, drawable elements (segments, polylines, arcs,
circles, texts), axis-aligned extents, the drawing zone grid, snap points
and polyline offsetting.

Conventions: coordinates are millimetres in paper space with y up, angles are
degrees counter-clockwise normalised to [0, 360), and every type here is an
immutable value. Rectangle overlap is closed everywhere: touching boundaries
count as intersecting, so conservative tests never drop a visible element.

A drawing holds tens of thousands of these values, so they are lean: every
class is slotted (no per-instance ``__dict__``), and the decoders and
generators take each line style from :func:`_shared_style`, so equal styles
are one object. Each value checks its arguments in its own ``__init__``,
which stores each one once, through its slot's descriptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring
from typing import Iterable, Union

from .errors import GenerationError

__all__ = [
    "Point", "Transform", "LineType", "LineStyle",
    "Segment", "Polyline", "Arc", "Circle", "Text", "Element",
    "Rect", "ZoneGrid",
    "norm_deg", "element_bbox", "apply_transform",
    "snap_points", "offset_path", "element_to_json", "element_from_json",
]

# Turns flatter than this are treated as straight when joining offset paths.
MIN_JOIN_TURN_DEG = 0.5

_EPS = 1e-9


def norm_deg(angle: float) -> float:
    """Normalise an angle in degrees to [0, 360)."""
    a = _as_real(angle) % 360.0
    if a >= 360.0 or a < 0.0:
        a = 0.0
    return a


def _cos_sin_deg(angle: float) -> tuple[float, float]:
    """Cosine and sine of an angle in degrees, exact at quadrant angles."""
    a = norm_deg(angle)
    if a == 0.0:
        return 1.0, 0.0
    if a == 90.0:
        return 0.0, 1.0
    if a == 180.0:
        return -1.0, 0.0
    if a == 270.0:
        return 0.0, -1.0
    r = math.radians(a)
    return math.cos(r), math.sin(r)


def _slots(cls: type) -> tuple:
    """The ``__set__`` of each field's slot, in field order. A frozen value's
    ``__init__`` stores through them: they skip the frozen ``__setattr__``."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """2D point in mm."""

    x: float
    y: float

    def __init__(self, x: float, y: float):
        if type(x) is not float or type(y) is not float:
            x, y = _as_float(x), _as_float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("point coordinates must be finite")
        _POINT_X(self, x)
        _POINT_Y(self, y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _as_float(value: object) -> float:
    """A float, finite or not, from an int or float; booleans and strings
    are not numbers here, though ``float()`` would take them. The value
    constructors read their numbers with it and check the range themselves.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("value is too large") from exc


def _as_real(value: object) -> float:
    """A finite float from an int or float.

    One of the four JSON-kind decoders, with :func:`_as_int`, :func:`_as_text`
    and :func:`_as_bool`. A value class reads each of its own fields with
    one of them, so a decoder that builds it hands over the raw fields.
    """
    v = _as_float(value)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return value


def _as_text(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected text, got {type(value).__name__}")
    return value


def _as_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {type(value).__name__}")
    return value


def _as_point(value: object) -> Point:
    """A Point, or an (x, y) pair of real numbers."""
    if isinstance(value, Point):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Point(value[0], value[1])
    raise ValueError(f"not a point: {value!r}")


def _named(key: str, value: object, decode):
    """``decode(value)``; a refusal reads ``"{key}: {reason}"``."""
    try:
        return decode(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _field(record: dict, key: str, decode, *default):
    """``decode(record[key])`` named by :func:`_named`, or the one
    ``default`` if the key is absent (else ``KeyError``)."""
    if key not in record:
        if not default:
            raise KeyError(key)
        return default[0]
    return _named(key, record[key], decode)


def _positive(value: object, what: str) -> float:
    """A finite float above zero, read by kind; else ``"{what} must be positive"``."""
    v = _as_float(value)
    if not 0.0 < v < math.inf:
        raise ValueError(f"{what} must be positive")
    return v


@dataclass(frozen=True, slots=True, init=False)
class Transform:
    """Conformal affine map: x' = a*x + b*y + tx, y' = c*x + d*y + ty.

    The linear part must be a uniform scale times a rotation, optionally
    times a mirror; anything else is rejected at construction.
    """

    a: float
    b: float
    c: float
    d: float
    tx: float = 0.0
    ty: float = 0.0

    def __init__(self, a: float, b: float, c: float, d: float,
                 tx: float = 0.0, ty: float = 0.0):
        for store, value in zip(_TRANSFORM_SLOTS, (a, b, c, d, tx, ty)):
            value = _as_float(value)
            if not math.isfinite(value):
                raise ValueError("transform coefficients must be finite")
            store(self, value)
        n1 = self.a * self.a + self.c * self.c
        n2 = self.b * self.b + self.d * self.d
        if n1 <= 0.0 or n2 <= 0.0:
            raise ValueError("transform is singular")
        tol = 1e-9 * max(n1, n2)
        if abs(n1 - n2) > tol or abs(self.a * self.b + self.c * self.d) > tol:
            raise ValueError("transform is not conformal")

    @staticmethod
    def identity() -> "Transform":
        return Transform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def translation(dx: float, dy: float) -> "Transform":
        return Transform(1.0, 0.0, 0.0, 1.0, dx, dy)

    @staticmethod
    def rotation(angle_deg: float, about: "Point | None" = None) -> "Transform":
        cos_a, sin_a = _cos_sin_deg(angle_deg)
        if about is None:
            return Transform(cos_a, -sin_a, sin_a, cos_a, 0.0, 0.0)
        tx = about.x - (cos_a * about.x - sin_a * about.y)
        ty = about.y - (sin_a * about.x + cos_a * about.y)
        return Transform(cos_a, -sin_a, sin_a, cos_a, tx, ty)

    @staticmethod
    def scaling(factor: float) -> "Transform":
        s = _positive(factor, "scale factor")
        return Transform(s, 0.0, 0.0, s, 0.0, 0.0)

    @staticmethod
    def mirror(origin: "Point", axis_angle_deg: float) -> "Transform":
        """Reflection across the line through ``origin`` at ``axis_angle_deg``."""
        cos2, sin2 = _cos_sin_deg(2.0 * axis_angle_deg)
        a, b, c, d = cos2, sin2, sin2, -cos2
        tx = origin.x - (a * origin.x + b * origin.y)
        ty = origin.y - (c * origin.x + d * origin.y)
        return Transform(a, b, c, d, tx, ty)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def scale(self) -> float:
        """Uniform scale factor of the linear part (always positive)."""
        return math.hypot(self.a, self.c)

    @property
    def mirrored(self) -> bool:
        return self.det < 0.0

    @property
    def rotation_deg(self) -> float:
        """Rotation angle of the decomposition scale*R(phi)*(mirror-y or 1)."""
        if self.det >= 0.0:
            return norm_deg(math.degrees(math.atan2(self.c, self.a)))
        return norm_deg(math.degrees(math.atan2(-self.c, -self.a)))

    def is_identity(self) -> bool:
        return (self.a == 1.0 and self.b == 0.0 and self.c == 0.0
                and self.d == 1.0 and self.tx == 0.0 and self.ty == 0.0)

    def apply(self, p: Point) -> Point:
        return Point(self.a * p.x + self.b * p.y + self.tx,
                     self.c * p.x + self.d * p.y + self.ty)

    def map_direction_deg(self, angle_deg: float) -> float:
        """Image of a direction angle under the linear part."""
        rot = self.rotation_deg
        if not self.mirrored:
            return norm_deg(angle_deg + rot)
        return norm_deg(rot + 180.0 - angle_deg)

    def compose(self, inner: "Transform") -> "Transform":
        """Transform equal to applying ``inner`` first, then this one."""
        return Transform(*_compose(_raw(self), _raw(inner)))

    def inverse(self) -> "Transform":
        det = self.det
        ia = self.d / det
        ib = -self.b / det
        ic = -self.c / det
        id_ = self.a / det
        return Transform(ia, ib, ic, id_,
                         -(ia * self.tx + ib * self.ty),
                         -(ic * self.tx + id_ * self.ty))


def _raw(t: Transform) -> tuple[float, ...]:
    return (t.a, t.b, t.c, t.d, t.tx, t.ty)


def _compose(outer: tuple, inner: tuple) -> tuple[float, ...]:
    """Coefficients of applying ``inner``, then ``outer``, for placement and
    ``Transform.compose`` alike. Keep each multiply and add: a shorter form
    can differ in the last bit or in the sign of a zero, and so in bytes."""
    a, b, c, d, tx, ty = outer
    ia, ib, ic, id_, itx, ity = inner
    return (a * ia + b * ic, a * ib + b * id_, c * ia + d * ic, c * ib + d * id_,
            a * itx + b * ity + tx, c * itx + d * ity + ty)


class LineType(str, Enum):
    SOLID = "solid"
    DASHED = "dashed"
    DASH_DOT = "dash_dot"
    THIN_SOLID = "thin_solid"


@dataclass(frozen=True, slots=True, init=False)
class LineStyle:
    """Line type plus palette colour index (0..255)."""

    line_type: LineType = LineType.SOLID
    color: int = 0

    def __init__(self, line_type: LineType = LineType.SOLID, color: int = 0):
        _STYLE_LINE_TYPE(self, LineType(line_type))
        _STYLE_COLOR(self, _named("color", color, _as_int))
        if not 0 <= color <= 255:
            raise ValueError("colour index out of range 0..255")


_STYLE_LINE_TYPE, _STYLE_COLOR = _slots(LineStyle)


# Every valid style: 4 line types x 256 colours, so the table cannot outgrow
# 1,024 entries. Its keys are built styles, never raw record values: keyed
# on those, a colour of True would find the entry for 1 and skip the check.
_STYLES: dict[LineStyle, LineStyle] = {}


def _shared_style(line_type: object = LineType.SOLID, color: object = 0) -> LineStyle:
    """The one shared ``LineStyle(line_type, color)``, checked as that call
    checks it."""
    style = LineStyle(line_type, color)
    return _STYLES.setdefault(style, style)


_DEFAULT_STYLE = _shared_style()


@dataclass(frozen=True, slots=True, init=False)
class Segment:
    """Straight segment between two points."""

    p1: Point
    p2: Point
    style: LineStyle = _DEFAULT_STYLE

    def __init__(self, p1: Point, p2: Point, style: LineStyle = _DEFAULT_STYLE):
        _SEGMENT_P1(self, p1)
        _SEGMENT_P2(self, p2)
        _SEGMENT_STYLE(self, style)


@dataclass(frozen=True, slots=True, init=False)
class Polyline:
    """Chain of vertices, optionally closed."""

    points: tuple[Point, ...]
    closed: bool = False
    style: LineStyle = _DEFAULT_STYLE

    def __init__(self, points: Iterable[Point], closed: bool = False,
                 style: LineStyle = _DEFAULT_STYLE):
        points = tuple(points)
        if len(points) < 2:
            raise ValueError("polyline needs at least 2 points")
        _POLYLINE_POINTS(self, points)
        _POLYLINE_CLOSED(self, _named("closed", closed, _as_bool))
        _POLYLINE_STYLE(self, style)


@dataclass(frozen=True, slots=True, init=False)
class Arc:
    """Circular arc, counter-clockwise from start_angle to end_angle."""

    center: Point
    radius: float
    start_angle: float
    end_angle: float
    style: LineStyle = _DEFAULT_STYLE

    def __init__(self, center: Point, radius: float, start_angle: float,
                 end_angle: float, style: LineStyle = _DEFAULT_STYLE):
        _ARC_CENTER(self, center)
        _ARC_RADIUS(self, _positive(radius, "arc radius"))
        _ARC_START(self, norm_deg(start_angle))
        _ARC_END(self, norm_deg(end_angle))
        if self.start_angle == self.end_angle:
            raise ValueError("arc sweep must lie strictly between 0 and 360 degrees")
        _ARC_STYLE(self, style)

    @property
    def sweep_deg(self) -> float:
        return (self.end_angle - self.start_angle) % 360.0

    def point_at(self, angle_deg: float) -> Point:
        cos_a, sin_a = _cos_sin_deg(angle_deg)
        return Point(self.center.x + self.radius * cos_a,
                     self.center.y + self.radius * sin_a)


@dataclass(frozen=True, slots=True, init=False)
class Circle:
    """Full circle."""

    center: Point
    radius: float
    style: LineStyle = _DEFAULT_STYLE

    def __init__(self, center: Point, radius: float, style: LineStyle = _DEFAULT_STYLE):
        _CIRCLE_CENTER(self, center)
        _CIRCLE_RADIUS(self, _positive(radius, "circle radius"))
        _CIRCLE_STYLE(self, style)


@dataclass(frozen=True, slots=True, init=False)
class Text:
    """Single-line text anchored at its box's bottom-left corner.

    The box is height_mm tall and 0.6 * height_mm per character wide,
    rotated by angle_deg about the anchor.
    """

    anchor: Point
    height_mm: float
    angle_deg: float
    content: str
    style: LineStyle = _DEFAULT_STYLE

    def __init__(self, anchor: Point, height_mm: float, angle_deg: float, content: str,
                 style: LineStyle = _DEFAULT_STYLE):
        _TEXT_ANCHOR(self, anchor)
        _TEXT_HEIGHT(self, _positive(height_mm, "text height"))
        _TEXT_ANGLE(self, norm_deg(angle_deg))
        _TEXT_CONTENT(self, _named("content", content, _as_text))
        _TEXT_STYLE(self, style)

    @property
    def box_width(self) -> float:
        return 0.6 * self.height_mm * len(self.content)


Element = Union[Segment, Polyline, Arc, Circle, Text]


@dataclass(frozen=True, slots=True, init=False)
class Rect:
    """Axis-aligned rectangle given by its min and max corners."""

    min: Point
    max: Point

    def __init__(self, min: Point, max: Point):
        if min.x > max.x or min.y > max.y:
            raise ValueError("rectangle corners are not ordered")
        _RECT_MIN(self, min)
        _RECT_MAX(self, max)

    @staticmethod
    def from_bounds(x0: float, y0: float, x1: float, y1: float) -> "Rect":
        return Rect(Point(min(x0, x1), min(y0, y1)), Point(max(x0, x1), max(y0, y1)))

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Rect":
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty point set")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Rect(Point(min(xs), min(ys)), Point(max(xs), max(ys)))

    @property
    def width(self) -> float:
        return self.max.x - self.min.x

    @property
    def height(self) -> float:
        return self.max.y - self.min.y

    def intersects(self, other: "Rect") -> bool:
        """Closed-rectangle overlap test; touching boundaries count."""
        return (self.min.x <= other.max.x and other.min.x <= self.max.x
                and self.min.y <= other.max.y and other.min.y <= self.max.y)


@dataclass(frozen=True, slots=True, init=False)
class ZoneGrid:
    """Uniform grid of rectangular zones laid over a drawing.

    Stored in every drawing file (format v1) and round-tripped unchanged.
    """

    origin: Point
    cell_w: float
    cell_h: float
    nx: int
    ny: int

    def __init__(self, origin: Point, cell_w: float, cell_h: float, nx: int, ny: int):
        _GRID_ORIGIN(self, origin)
        _GRID_CELL_W(self, _named("zone grid cell_w", cell_w, _as_real))
        _GRID_CELL_H(self, _named("zone grid cell_h", cell_h, _as_real))
        _GRID_NX(self, _named("zone grid nx", nx, _as_int))
        _GRID_NY(self, _named("zone grid ny", ny, _as_int))
        if not (self.cell_w > 0.0 and self.cell_h > 0.0):
            raise ValueError("zone cells must have positive size")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("zone grid needs at least one cell per axis")
        if self.nx * self.ny > 4096:
            raise ValueError("zone grid exceeds 4096 cells")


# What each value's __init__ stores through, beside LineStyle's own above.
_POINT_X, _POINT_Y = _slots(Point)
_TRANSFORM_SLOTS = _slots(Transform)
_SEGMENT_P1, _SEGMENT_P2, _SEGMENT_STYLE = _slots(Segment)
_POLYLINE_POINTS, _POLYLINE_CLOSED, _POLYLINE_STYLE = _slots(Polyline)
_ARC_CENTER, _ARC_RADIUS, _ARC_START, _ARC_END, _ARC_STYLE = _slots(Arc)
_CIRCLE_CENTER, _CIRCLE_RADIUS, _CIRCLE_STYLE = _slots(Circle)
_TEXT_ANCHOR, _TEXT_HEIGHT, _TEXT_ANGLE, _TEXT_CONTENT, _TEXT_STYLE = _slots(Text)
_RECT_MIN, _RECT_MAX = _slots(Rect)
_GRID_ORIGIN, _GRID_CELL_W, _GRID_CELL_H, _GRID_NX, _GRID_NY = _slots(ZoneGrid)


def _angle_in_sweep(angle: float, start: float, sweep: float) -> bool:
    return (angle - start) % 360.0 <= sweep


def element_bbox(*elements: Element) -> Rect:
    """Tight axis-aligned bounds of one or more elements.

    Text bounds are those of its rotated anchor box. The extremes are
    folded as floats and only the result becomes a Rect, whose corner
    Points reject an extent that overflows.
    """
    xs: list[float] = []
    ys: list[float] = []
    for e in elements:
        if isinstance(e, Segment):
            xs += (e.p1.x, e.p2.x)
            ys += (e.p1.y, e.p2.y)
        elif isinstance(e, Polyline):
            xs += [p.x for p in e.points]
            ys += [p.y for p in e.points]
        elif isinstance(e, Circle):
            c, r = e.center, e.radius
            xs += (c.x - r, c.x + r)
            ys += (c.y - r, c.y + r)
        elif isinstance(e, Arc):
            c, r, start, sweep = e.center, e.radius, e.start_angle, e.sweep_deg
            quads = [q for q in (0.0, 90.0, 180.0, 270.0)
                     if _angle_in_sweep(q, start, sweep)]
            for angle in (start, e.end_angle, *quads):
                cos_a, sin_a = _cos_sin_deg(angle)
                xs.append(c.x + r * cos_a)
                ys.append(c.y + r * sin_a)
        elif isinstance(e, Text):
            w, h = e.box_width, e.height_mm
            cos_a, sin_a = _cos_sin_deg(e.angle_deg)
            ax, ay = e.anchor.x, e.anchor.y
            for cx, cy in ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)):
                xs.append(ax + cos_a * cx - sin_a * cy)
                ys.append(ay + sin_a * cx + cos_a * cy)
        else:
            raise TypeError(f"not an element: {e!r}")
    return Rect(Point(min(xs), min(ys)), Point(max(xs), max(ys)))


def apply_transform(element: Element, t: Transform) -> Element:
    """Image of an element under a conformal transform."""
    if t.is_identity():
        return element
    if isinstance(element, Segment):
        return Segment(t.apply(element.p1), t.apply(element.p2), element.style)
    if isinstance(element, Polyline):
        return Polyline(tuple(t.apply(p) for p in element.points),
                        element.closed, element.style)
    if isinstance(element, Circle):
        return Circle(t.apply(element.center), element.radius * t.scale, element.style)
    if isinstance(element, Arc):
        start = t.map_direction_deg(element.start_angle)
        end = t.map_direction_deg(element.end_angle)
        if t.mirrored:
            start, end = end, start
        return Arc(t.apply(element.center), element.radius * t.scale,
                   start, end, element.style)
    if isinstance(element, Text):
        return Text(t.apply(element.anchor), element.height_mm * t.scale,
                    t.map_direction_deg(element.angle_deg), element.content,
                    element.style)
    raise TypeError(f"not an element: {element!r}")


def snap_points(element: Element) -> list[Point]:
    """Characteristic points used for cursor snapping."""
    if isinstance(element, Segment):
        mid = Point((element.p1.x + element.p2.x) / 2.0,
                    (element.p1.y + element.p2.y) / 2.0)
        return [element.p1, element.p2, mid]
    if isinstance(element, Polyline):
        return list(element.points)
    if isinstance(element, Arc):
        return [element.point_at(element.start_angle),
                element.point_at(element.end_angle), element.center]
    if isinstance(element, Circle):
        c, r = element.center, element.radius
        return [c, Point(c.x + r, c.y), Point(c.x, c.y + r),
                Point(c.x - r, c.y), Point(c.x, c.y - r)]
    if isinstance(element, Text):
        return [element.anchor]
    raise TypeError(f"not an element: {element!r}")


def _line_intersection(p1: Point, u1: tuple[float, float],
                       p2: Point, u2: tuple[float, float]) -> Point:
    denom = u1[0] * u2[1] - u1[1] * u2[0]
    t = ((p2.x - p1.x) * u2[1] - (p2.y - p1.y) * u2[0]) / denom
    return Point(p1.x + t * u1[0], p1.y + t * u1[1])


def _path_directions(pts: list[Point]) -> tuple[list[tuple[float, float]], list[float]]:
    dirs: list[tuple[float, float]] = []
    lengths: list[float] = []
    for p, q in zip(pts, pts[1:]):
        length = p.distance_to(q)
        if length <= _EPS:
            raise GenerationError("degenerate path: repeated point")
        if length == math.inf:
            raise GenerationError("degenerate path: a segment too long to measure")
        dirs.append(((q.x - p.x) / length, (q.y - p.y) / length))
        lengths.append(length)
    return dirs, lengths


def _turn_angles(dirs: list[tuple[float, float]]) -> list[float]:
    """Signed turn at each interior vertex, radians in (-pi, pi)."""
    limit = math.sin(math.radians(MIN_JOIN_TURN_DEG))
    turns = []
    for u, v in zip(dirs, dirs[1:]):
        cross = u[0] * v[1] - u[1] * v[0]
        dot = u[0] * v[0] + u[1] * v[1]
        if dot < 0.0 and abs(cross) < limit:
            raise GenerationError("degenerate path: direction reversal")
        turns.append(math.atan2(cross, dot))
    return turns


def offset_path(points: Iterable[object], side_offset: float,
                corner: str = "welded", fillet_radius: float = 0.0,
                *, style: LineStyle = _DEFAULT_STYLE) -> list[Element]:
    """Offset an open polyline by a signed distance (positive = left of travel).

    One walk joins each run to the next, and each join is one of three
    kinds. A join flatter than MIN_JOIN_TURN_DEG is *flat*: the run ends
    abreast of the vertex and the next starts on its own offset line.
    ``corner="welded"`` makes every other join a *miter*, where the two
    offset lines cross. ``corner="bent"`` makes it an *arc*, tangent to both
    runs, of radius ``fillet_radius`` minus the offset on left turns and plus
    it on right turns; bent corners also drop runs shorter than ``_EPS``.

    Welded corners have no fit check, a v1 limitation kept so v1 files load:
    a run between two same-side turns shorter than its miters cut back (twice
    the offset at right angles) comes out reversed, and pipe walls cross.
    """
    pts = [_as_point(p) for p in points]
    if len(pts) < 2:
        raise GenerationError("path needs at least 2 points")
    dirs, lengths = _path_directions(pts)
    turns = _turn_angles(dirs)
    d = _as_float(side_offset)
    normals = [(-u[1], u[0]) for u in dirs]
    min_turn = math.radians(MIN_JOIN_TURN_DEG)

    # One tangent length per join: 0.0 for flat, None for a miter, else an arc's.
    if corner == "welded":
        tangents = [0.0 if abs(turn) < min_turn else None for turn in turns]
    elif corner != "bent":
        raise ValueError(f"unknown corner mode {corner!r}")
    else:
        radius = _as_float(fillet_radius)
        if radius <= abs(d):
            raise GenerationError("fillet radius must exceed the offset magnitude")
        # right-angle corners are ubiquitous; keep them exact
        tangents = [0.0 if abs(turn) < min_turn
                    else radius if abs(turn) / 2.0 == math.pi / 4.0
                    else radius * math.tan(abs(turn) / 2.0) for turn in turns]
        padded = [0.0, *tangents, 0.0]
        for t_in, t_out, length in zip(padded, padded[1:], lengths):
            if t_in + t_out > length + _EPS:
                raise GenerationError("fillet does not fit on a path segment")

    def offset(p: Point, n: tuple[float, float], s: float = d) -> Point:
        return Point(p.x + s * n[0], p.y + s * n[1])

    def run_to(end: Point) -> None:
        if corner == "welded" or cursor.distance_to(end) > _EPS:
            elements.append(Segment(cursor, end, style))

    elements: list[Element] = []
    cursor = offset(pts[0], normals[0])
    for vertex, u_in, u_out, n_in, n_out, turn, t in zip(
            pts[1:], dirs, dirs[1:], normals, normals[1:], turns, tangents):
        if not t:
            end, start = offset(vertex, n_in), offset(vertex, n_out)
            if t is None:
                end = start = _line_intersection(cursor, u_in, start, u_out)
            run_to(end)
            cursor = start
            continue
        tan_in, tan_out = offset(vertex, u_in, -t), offset(vertex, u_out, t)
        entry, exit_ = offset(tan_in, n_in), offset(tan_out, n_out)
        run_to(entry)
        side = 1.0 if turn > 0.0 else -1.0
        center = offset(tan_in, n_in, side * radius)
        a_entry = math.degrees(math.atan2(entry.y - center.y, entry.x - center.x))
        a_exit = math.degrees(math.atan2(exit_.y - center.y, exit_.x - center.x))
        angles = (a_entry, a_exit) if side > 0.0 else (a_exit, a_entry)
        elements.append(Arc(center, radius - side * d, *angles, style))
        cursor = exit_
    run_to(offset(pts[-1], normals[-1]))
    return elements


def _style_from_json(doc: object) -> LineStyle:
    if not isinstance(doc, dict):
        raise ValueError("line style must be an object")
    try:
        return _shared_style(doc["line_type"], doc["color"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad line style: {exc}") from exc


def _to_json(value: object) -> object:
    """Plain-JSON form of a value, by format v1's one rule: a Point is
    ``[x, y]``, a tuple a list, an Enum its ``value``, and any other value
    class a record keyed by its field names. JSON values pass as they are."""
    if isinstance(value, Point):
        return [value.x, value.y]
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def element_to_json(element: Element) -> dict:
    """Plain-JSON form of an element: ``kind``, its class name in lower case,
    then its fields by :func:`_to_json`. The reference form; files are
    written by :func:`_element_text`, whose text is this form's encoding."""
    if not isinstance(element, Element):
        raise TypeError(f"not an element: {element!r}")
    return {"kind": type(element).__name__.lower(), **_to_json(element)}


# The canonical text of each style, written on first use: at most one entry
# per valid style, 4 line types x 256 colours.
_STYLE_TEXT: dict[LineStyle, str] = {}


def _element_text(e: Element) -> str:
    """``canonical_dumps(element_to_json(e))``, written in one format call.

    Keys come in sorted order, reals go through ``%r`` (``float.__repr__``,
    the encoder's own rule) and text through ``encode_basestring``, the
    encoder's writer without ``ensure_ascii``. Every real of an element is
    finite by construction, so nothing here needs the encoder's NaN check.
    """
    style = _STYLE_TEXT.get(e.style)
    if style is None:
        style = _STYLE_TEXT[e.style] = '{"color":%d,"line_type":"%s"}' % (
            e.style.color, e.style.line_type.value)
    if isinstance(e, Segment):
        p1, p2 = e.p1, e.p2
        return '{"kind":"segment","p1":[%r,%r],"p2":[%r,%r],"style":%s}' % (
            p1.x, p1.y, p2.x, p2.y, style)
    if isinstance(e, Polyline):
        return '{"closed":%s,"kind":"polyline","points":[%s],"style":%s}' % (
            "true" if e.closed else "false",
            ",".join(["[%r,%r]" % (p.x, p.y) for p in e.points]), style)
    if isinstance(e, Arc):
        c = e.center
        return ('{"center":[%r,%r],"end_angle":%r,"kind":"arc","radius":%r,'
                '"start_angle":%r,"style":%s}') % (
            c.x, c.y, e.end_angle, e.radius, e.start_angle, style)
    if isinstance(e, Circle):
        c = e.center
        return '{"center":[%r,%r],"kind":"circle","radius":%r,"style":%s}' % (
            c.x, c.y, e.radius, style)
    if isinstance(e, Text):
        a = e.anchor
        return ('{"anchor":[%r,%r],"angle_deg":%r,"content":%s,"height_mm":%r,'
                '"kind":"text","style":%s}') % (
            a.x, a.y, e.angle_deg, encode_basestring(e.content), e.height_mm, style)
    raise TypeError(f"not an element: {e!r}")


def element_from_json(doc: object) -> Element:
    """Parse the plain-JSON form produced by :func:`element_to_json`."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("element record must be an object with a 'kind'")
    kind = doc["kind"]
    try:
        style = _style_from_json(doc["style"]) if "style" in doc else _DEFAULT_STYLE
        if kind == "segment":
            return Segment(_as_point(doc["p1"]), _as_point(doc["p2"]), style)
        if kind == "polyline":
            return Polyline(tuple(_as_point(p) for p in doc["points"]),
                            doc.get("closed", False), style)
        if kind == "arc":
            return Arc(_as_point(doc["center"]), doc["radius"],
                       doc["start_angle"], doc["end_angle"], style)
        if kind == "circle":
            return Circle(_as_point(doc["center"]), doc["radius"], style)
        if kind == "text":
            return Text(_as_point(doc["anchor"]), doc["height_mm"],
                        doc.get("angle_deg", 0.0), doc["content"], style)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {kind} element: {exc}") from exc
    raise ValueError(f"unknown element kind {kind!r}")
