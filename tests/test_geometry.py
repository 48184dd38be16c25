"""Geometry kernel: points, transforms, extents, zone grids, snapping."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modraft import (Arc, Axis, Circle, LineStyle, LineType, Point, Polyline,
                     Rect, Segment, Text, Transform, ZoneGrid, apply_transform,
                     canonical_encode, element_bbox, element_from_json,
                     element_to_json, geometry_bytes, norm_deg, offset_path,
                     snap_points)
from modraft.geometry import _STYLES, _as_real, _as_text, _field

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                   allow_infinity=False)
angles = st.floats(min_value=-720, max_value=720, allow_nan=False,
                   allow_infinity=False)


def test_norm_deg_basics():
    assert norm_deg(0) == 0.0
    assert norm_deg(360) == 0.0
    assert norm_deg(-90) == 270.0
    assert norm_deg(450) == 90.0
    assert 0.0 <= norm_deg(-1e-9) < 360.0


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0)
    with pytest.raises(ValueError):
        Point(0, float("inf"))


def test_rect_closed_intersection():
    a = Rect.from_bounds(0, 0, 10, 10)
    assert a.intersects(Rect.from_bounds(10, 10, 20, 20))  # corner touch
    assert a.intersects(Rect.from_bounds(5, -5, 6, 0))     # edge touch
    assert not a.intersects(Rect.from_bounds(10.001, 0, 20, 10))


# --- transforms --------------------------------------------------------------

def test_transform_rejects_shear_and_singular():
    with pytest.raises(ValueError):
        Transform(1, 0.5, 0, 1)        # shear
    with pytest.raises(ValueError):
        Transform(1, 0, 0, 2)          # anisotropic scale
    with pytest.raises(ValueError):
        Transform(0, 0, 0, 0)          # singular


def test_quadrant_rotations_are_exact():
    p = Point(3, 7)
    assert Transform.rotation(90).apply(p) == Point(-7, 3)
    assert Transform.rotation(180).apply(p) == Point(-3, -7)
    assert Transform.rotation(270).apply(p) == Point(7, -3)
    assert Transform.rotation(0).apply(p) == p


@given(angles, st.floats(min_value=0.1, max_value=10), coords, coords,
       st.booleans())
@settings(max_examples=200)
def test_decomposition_recovers_parameters(angle, scale, tx, ty, mirrored):
    t = Transform.translation(tx, ty).compose(
        Transform.rotation(angle).compose(Transform.scaling(scale)))
    if mirrored:
        t = t.compose(Transform.mirror(Point(0, 0), 90.0))
    assert t.mirrored == mirrored
    assert math.isclose(t.scale, scale, rel_tol=1e-9)
    assert math.isclose(t.tx, tx, abs_tol=1e-6)
    diff = (t.rotation_deg - norm_deg(angle)) % 360.0
    assert min(diff, 360.0 - diff) < 1e-6


@given(angles, coords, coords, coords, coords)
@settings(max_examples=200)
def test_inverse_round_trips_points(angle, tx, ty, x, y):
    t = Transform.translation(tx, ty).compose(Transform.rotation(angle))
    p = Point(x, y)
    q = t.inverse().apply(t.apply(p))
    assert math.isclose(q.x, x, abs_tol=1e-6)
    assert math.isclose(q.y, y, abs_tol=1e-6)


@given(angles, angles, coords, coords, coords, coords)
@settings(max_examples=200)
def test_compose_matches_sequential_application(a1, a2, tx1, tx2, x, y):
    t1 = Transform.translation(tx1, 0).compose(Transform.rotation(a1))
    t2 = Transform.translation(0, tx2).compose(Transform.rotation(a2))
    p = Point(x, y)
    combined = t2.compose(t1).apply(p)
    sequential = t2.apply(t1.apply(p))
    assert math.isclose(combined.x, sequential.x, abs_tol=1e-6)
    assert math.isclose(combined.y, sequential.y, abs_tol=1e-6)


@given(angles, angles, st.booleans())
@settings(max_examples=200)
def test_map_direction_matches_vector_image(transform_angle, direction, mirrored):
    t = Transform.rotation(transform_angle)
    if mirrored:
        t = t.compose(Transform.mirror(Point(0, 0), 90.0))
    origin = t.apply(Point(0, 0))
    cos_d, sin_d = math.cos(math.radians(direction)), math.sin(math.radians(direction))
    tip = t.apply(Point(cos_d, sin_d))
    expected = math.degrees(math.atan2(tip.y - origin.y, tip.x - origin.x)) % 360.0
    got = t.map_direction_deg(direction)
    diff = (got - expected) % 360.0
    assert min(diff, 360.0 - diff) < 1e-7


def test_mirror_about_arbitrary_axis():
    t = Transform.mirror(Point(0, 0), 45.0)  # mirror across the line y = x
    q = t.apply(Point(3, 1))
    assert math.isclose(q.x, 1, abs_tol=1e-12)
    assert math.isclose(q.y, 3, abs_tol=1e-12)
    assert t.mirrored


# --- element bounding boxes ---------------------------------------------------

def _sampled_arc_bbox(arc: Arc, n: int = 4096) -> Rect:
    sweep = arc.sweep_deg
    pts = [arc.point_at(arc.start_angle + sweep * k / n) for k in range(n + 1)]
    return Rect.from_points(pts)


def test_arc_bbox_exact_cases():
    # 30..150 degrees, radius 10: x spans +-10*cos(30), y spans [5, 10]
    arc = Arc(Point(0, 0), 10.0, 30.0, 150.0)
    box = element_bbox(arc)
    w = 10 * math.cos(math.radians(30))
    assert math.isclose(box.min.x, -w, rel_tol=1e-12)
    assert math.isclose(box.max.x, w, rel_tol=1e-12)
    assert math.isclose(box.min.y, 5.0, rel_tol=1e-12)
    assert box.max.y == 10.0  # quadrant point at 90 degrees, exact

    # wrap-around arc through 0 degrees
    arc = Arc(Point(1, 2), 5.0, 300.0, 60.0)
    box = element_bbox(arc)
    assert box.max.x == 6.0
    assert math.isclose(box.min.x, 1 + 5 * math.cos(math.radians(60)), rel_tol=1e-12)


def test_arc_bbox_against_dense_sampling():
    rng = random.Random(42)
    for _ in range(200):
        arc = Arc(Point(rng.uniform(-100, 100), rng.uniform(-100, 100)),
                  rng.uniform(0.1, 50),
                  rng.uniform(0, 360), rng.uniform(0, 360))
        box = element_bbox(arc)
        sampled = _sampled_arc_bbox(arc)
        # sampling a smooth curve at 4096 points under-estimates each bound
        # by at most r * (step/2)^2 / 2 < 2e-5 for r <= 50
        tol = 2e-5
        assert box.min.x <= sampled.min.x + 1e-12 <= box.min.x + tol
        assert box.min.y <= sampled.min.y + 1e-12 <= box.min.y + tol
        assert box.max.x >= sampled.max.x - 1e-12 >= box.max.x - tol
        assert box.max.y >= sampled.max.y - 1e-12 >= box.max.y - tol


def test_text_bbox_rotates_with_text():
    # 2 characters, height 10 -> box 12 x 10, rotated 90 degrees: 10 x 12
    text = Text(Point(0, 0), 10.0, 90.0, "ab")
    box = element_bbox(text)
    assert math.isclose(box.min.x, -10.0, abs_tol=1e-12)
    assert math.isclose(box.max.x, 0.0, abs_tol=1e-12)
    assert math.isclose(box.max.y, 12.0, abs_tol=1e-12)


def test_segment_polyline_circle_bboxes():
    assert element_bbox(Segment(Point(3, -1), Point(-2, 4))) == \
        Rect.from_bounds(-2, -1, 3, 4)
    assert element_bbox(Circle(Point(1, 1), 2.5)) == \
        Rect.from_bounds(-1.5, -1.5, 3.5, 3.5)
    poly = Polyline((Point(0, 0), Point(10, 3), Point(5, -2)))
    assert element_bbox(poly) == Rect.from_bounds(0, -2, 10, 3)


# --- transforming elements ----------------------------------------------------

def test_identity_transform_returns_equal_elements():
    arc = Arc(Point(1, 2), 3.0, 10.0, 200.0)
    assert apply_transform(arc, Transform.identity()) == arc


def test_arc_under_mirror_keeps_point_set():
    arc = Arc(Point(2, 1), 4.0, 20.0, 130.0)
    t = Transform.mirror(Point(0, 0), 90.0)  # across the y-axis
    image = apply_transform(arc, t)
    assert isinstance(image, Arc)
    for k in range(33):
        angle = arc.start_angle + arc.sweep_deg * k / 32
        p = t.apply(arc.point_at(angle))
        dist = math.hypot(p.x - image.center.x, p.y - image.center.y)
        assert math.isclose(dist, image.radius, rel_tol=1e-9)
        bearing = math.degrees(math.atan2(p.y - image.center.y,
                                          p.x - image.center.x)) % 360.0
        diff = (bearing - image.start_angle) % 360.0
        assert diff <= image.sweep_deg + 1e-7 or diff >= 360.0 - 1e-7


def test_text_transform_scales_height_and_maps_angle():
    text = Text(Point(1, 0), 2.5, 0.0, "xy")
    t = Transform.rotation(90).compose(Transform.scaling(2.0))
    image = apply_transform(text, t)
    assert image.height_mm == 5.0
    assert image.angle_deg == 90.0
    assert image.anchor == Point(0, 2)


# --- zone grid ----------------------------------------------------------------

def test_zone_grid_rejects_oversized():
    with pytest.raises(ValueError):
        ZoneGrid(Point(0, 0), 1, 1, 65, 64)


@pytest.mark.parametrize("fields", [
    {"nx": 2.5}, {"ny": True}, {"nx": "4"},
    {"cell_w": "10"}, {"cell_w": True}, {"cell_h": None},
    {"cell_w": math.inf}, {"cell_h": math.nan},
])
def test_zone_grid_rejects_bad_field_types(fields):
    args = {"origin": Point(0, 0), "cell_w": 10.0, "cell_h": 10.0,
            "nx": 4, "ny": 4, **fields}
    with pytest.raises(ValueError):
        ZoneGrid(**args)


def test_zone_grid_refuses_a_cell_size_too_large_for_a_real():
    with pytest.raises(ValueError, match="^zone grid cell_w: value is too large$"):
        ZoneGrid(Point(0, 0), 10 ** 400, 1.0, 1, 1)


def test_zone_grid_accepts_int_cell_sizes():
    grid = ZoneGrid(Point(0, 0), 10, 5, 4, 4)
    assert (grid.cell_w, grid.cell_h) == (10.0, 5.0)
    assert isinstance(grid.cell_w, float)


# --- JSON fields ---------------------------------------------------------------

def test_field_reads_decodes_defaults_and_names_the_key():
    record = {"w": 2, "name": 5}
    assert _field(record, "w", _as_real) == 2.0
    assert _field(record, "h", _as_real, 0.5) == 0.5
    with pytest.raises(KeyError):
        _field(record, "h", _as_real)
    with pytest.raises(ValueError, match="^name: expected text, got int$"):
        _field(record, "name", _as_text, "")


@pytest.mark.parametrize("closed, got", [("no", "str"), (1, "int"), (None, "NoneType")])
def test_polyline_refuses_a_closed_that_is_not_a_boolean(closed, got):
    with pytest.raises(ValueError,
                       match=f"^closed: expected true or false, got {got}$"):
        Polyline((Point(0, 0), Point(1, 1)), closed)


# --- snap points ---------------------------------------------------------------

def test_snap_points_per_element():
    seg = Segment(Point(0, 0), Point(10, 0))
    assert snap_points(seg) == [Point(0, 0), Point(10, 0), Point(5, 0)]
    circle = Circle(Point(0, 0), 2.0)
    pts = snap_points(circle)
    assert Point(0, 0) in pts and Point(2, 0) in pts and Point(0, -2) in pts
    assert len(pts) == 5
    arc = Arc(Point(0, 0), 1.0, 0.0, 90.0)
    assert snap_points(arc) == [Point(1, 0), Point(0, 1), Point(0, 0)]
    text = Text(Point(3, 4), 2.5, 0.0, "q")
    assert snap_points(text) == [Point(3, 4)]


# --- JSON round trip ------------------------------------------------------------

_STYLE = LineStyle(LineType.DASH_DOT, 17)
_EVERY_KIND = {
    "segment": Segment(Point(0.5, -1), Point(2, 3), _STYLE),
    "polyline": Polyline((Point(0, 0), Point(1, 0), Point(1, 1)), True, _STYLE),
    "arc": Arc(Point(1, 1), 2.0, 350.0, 20.0, _STYLE),
    "circle": Circle(Point(-3, 0), 0.25, _STYLE),
    "text": Text(Point(0, 0), 3.5, 45.0, "Ду50", _STYLE),
}


def test_element_json_round_trip_every_kind():
    for element in _EVERY_KIND.values():
        assert element_from_json(element_to_json(element)) == element


@pytest.mark.parametrize("kind", _EVERY_KIND)
def test_an_element_record_is_its_kind_then_its_fields_by_name(kind):
    element = _EVERY_KIND[kind]
    doc = element_to_json(element)
    assert doc["kind"] == kind
    assert doc.keys() == {"kind"} | {f.name for f in dataclasses.fields(element)}
    assert doc["style"] == {"color": 17, "line_type": "dash_dot"}
    # Parsing builds plain JSON types alone: a tuple or a LineType left in
    # the record would dump as a list or a str, and repr otherwise.
    assert repr(json.loads(json.dumps(doc))) == repr(doc)


def test_element_to_json_refuses_what_is_not_an_element():
    with pytest.raises(TypeError, match="^not an element: "):
        element_to_json(Point(0, 0))


# Every finite binary64 value, so -0.0, subnormals and 1e+16 all occur.
any_real = st.floats(allow_nan=False, allow_infinity=False)
any_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
any_point = st.builds(Point, any_real, any_real)
any_style = st.builds(LineStyle, st.sampled_from(LineType), st.integers(0, 255))
any_element = st.one_of(
    st.builds(Segment, any_point, any_point, any_style),
    st.builds(Polyline, st.lists(any_point, min_size=2, max_size=6),
              st.booleans(), any_style),
    st.tuples(any_point, any_positive, any_real, any_real, any_style)
    .filter(lambda f: norm_deg(f[2]) != norm_deg(f[3]))
    .map(lambda f: Arc(*f)),
    st.builds(Circle, any_point, any_positive, any_style),
    st.builds(Text, any_point, any_positive, any_real, st.text(), any_style),
)


@given(st.lists(any_element, max_size=6))
@example([Segment(Point(-0.0, 1e16), Point(5e-324, -1.7976931348623157e308)),
          Text(Point(0.1, 1e-7), 1e22, -0.0, '"\\\x00\x1f\u2028 Ду50 😀'),
          Arc(Point(0.0, 0.0), 5e-324, 359.99999999999994, 0.0)])
@settings(max_examples=300, deadline=None)
def test_element_writer_equals_the_encoder(elements):
    assert geometry_bytes(elements) == canonical_encode(
        [element_to_json(e) for e in elements])


def test_element_from_json_rejects_junk():
    with pytest.raises(ValueError):
        element_from_json({"kind": "blob"})
    with pytest.raises(ValueError):
        element_from_json({"kind": "segment", "p1": [0, 0]})


@pytest.mark.parametrize("record,got", [
    ({"kind": "segment", "p1": ["0", 0.0], "p2": [1.0, 1.0]}, "str"),
    ({"kind": "segment", "p1": [0.0, False], "p2": [1.0, 1.0]}, "bool"),
    ({"kind": "polyline", "points": [[0.0, 0.0], [True, 1.0]]}, "bool"),
    ({"kind": "circle", "center": [0.0, 0.0], "radius": "2"}, "str"),
    ({"kind": "arc", "center": [0.0, 0.0], "radius": 1.0,
      "start_angle": 0.0, "end_angle": "90"}, "str"),
    ({"kind": "text", "anchor": [0.0, 0.0], "height_mm": True,
      "content": "a"}, "bool"),
    ({"kind": "text", "anchor": [0.0, 0.0], "height_mm": 2.5,
      "angle_deg": "45", "content": "a"}, "str"),
], ids=["string-coordinate", "boolean-coordinate", "boolean-vertex",
        "string-radius", "string-angle", "boolean-height", "string-text-angle"])
def test_element_from_json_takes_only_real_numbers(record, got):
    with pytest.raises(ValueError, match=f"expected a real number, got {got}$"):
        element_from_json(record)


def test_element_bbox_of_many_elements_folds_each_bbox():
    elements = [Segment(Point(3, -1), Point(-2, 4)),
                Circle(Point(10, 10), 2.5),
                Arc(Point(0, -5), 1.0, 180.0, 360.0),
                Text(Point(-7, 0), 2.0, 90.0, "ab")]
    boxes = [element_bbox(e) for e in elements]
    assert element_bbox(*elements) == Rect(
        Point(min(b.min.x for b in boxes), min(b.min.y for b in boxes)),
        Point(max(b.max.x for b in boxes), max(b.max.y for b in boxes)))
    assert element_bbox(*elements) == Rect.from_bounds(-9.0, -6.0, 12.5, 12.5)


@pytest.mark.parametrize("element", [
    Circle(Point(1.79e308, 0.0), 1e306),
    Text(Point(0.0, 0.0), 1e308, 90.0, "abcd"),
    Text(Point(0.0, 0.0), 1e308, 0.0, "abcd"),
], ids=["circle", "text-upright", "text-flat"])
def test_element_bbox_rejects_an_extent_that_overflows(element):
    with pytest.raises(ValueError, match="finite"):
        element_bbox(element)
    with pytest.raises(ValueError, match="finite"):
        element_bbox(Segment(Point(0, 0), Point(1, 1)), element)


# --- lean values ----------------------------------------------------------------

_DASH_DOT_17 = LineStyle(LineType.DASH_DOT, 17)
_SOLID_0_REPR = "LineStyle(line_type=<LineType.SOLID: 'solid'>, color=0)"
_DASH_DOT_17_REPR = "LineStyle(line_type=<LineType.DASH_DOT: 'dash_dot'>, color=17)"

# Every slotted class, each with the repr it has always had.
LEAN_VALUES = [
    (Point(1, -2.5), "Point(x=1.0, y=-2.5)"),
    (Transform.rotation(90),
     "Transform(a=0.0, b=-1.0, c=1.0, d=0.0, tx=0.0, ty=0.0)"),
    (_DASH_DOT_17, _DASH_DOT_17_REPR),
    (Segment(Point(0, 0), Point(1.5, 2), _DASH_DOT_17),
     "Segment(p1=Point(x=0.0, y=0.0), p2=Point(x=1.5, y=2.0), "
     f"style={_DASH_DOT_17_REPR})"),
    (Polyline((Point(0, 0), Point(1, 1)), True),
     "Polyline(points=(Point(x=0.0, y=0.0), Point(x=1.0, y=1.0)), "
     f"closed=True, style={_SOLID_0_REPR})"),
    (Arc(Point(1, 2), 3, -90, 45),
     "Arc(center=Point(x=1.0, y=2.0), radius=3.0, start_angle=270.0, "
     f"end_angle=45.0, style={_SOLID_0_REPR})"),
    (Circle(Point(0, 0), 2),
     f"Circle(center=Point(x=0.0, y=0.0), radius=2.0, style={_SOLID_0_REPR})"),
    (Text(Point(1, 1), 3.5, 30, "A<b", _DASH_DOT_17),
     "Text(anchor=Point(x=1.0, y=1.0), height_mm=3.5, angle_deg=30.0, "
     f"content='A<b', style={_DASH_DOT_17_REPR})"),
    (Rect.from_bounds(0, 0, 4, 2),
     "Rect(min=Point(x=0.0, y=0.0), max=Point(x=4.0, y=2.0))"),
    (ZoneGrid(Point(0, 0), 10, 20.5, 3, 2),
     "ZoneGrid(origin=Point(x=0.0, y=0.0), cell_w=10.0, cell_h=20.5, nx=3, ny=2)"),
]
_LEAN_IDS = [type(value).__name__ for value, _ in LEAN_VALUES]


@pytest.mark.parametrize("value, text", LEAN_VALUES, ids=_LEAN_IDS)
def test_value_classes_are_slotted_and_keep_their_repr(value, text):
    assert not hasattr(value, "__dict__")
    assert repr(value) == text


@pytest.mark.parametrize("clone", [
    lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("value", [value for value, _ in LEAN_VALUES], ids=_LEAN_IDS)
def test_slotted_values_survive_pickle_and_copy(value, clone):
    other = clone(value)
    assert type(other) is type(value)
    assert other == value and hash(other) == hash(value)


def _segment_record(style: dict) -> dict:
    return {"kind": "segment", "p1": [0.0, 0.0], "p2": [1.0, 1.0], "style": style}


@pytest.mark.parametrize("style", [None, "solid", ["solid", 0], 0])
def test_a_style_that_is_not_an_object_is_refused(style):
    with pytest.raises(ValueError) as info:
        element_from_json(_segment_record(style))
    assert str(info.value) == "bad segment element: line style must be an object"


@pytest.mark.parametrize("points", [[], (), iter(())])
def test_an_empty_point_set_has_no_bounds(points):
    with pytest.raises(ValueError) as info:
        Rect.from_points(points)
    assert type(info.value) is ValueError
    assert str(info.value) == "cannot bound an empty point set"


def test_equal_style_records_decode_to_one_style_object():
    first = element_from_json(_segment_record({"color": 7, "line_type": "dashed"}))
    second = element_from_json(_segment_record({"line_type": "dashed", "color": 7}))
    assert first.style is second.style
    assert first.style == LineStyle(LineType.DASHED, 7)
    plain = element_from_json({"kind": "circle", "center": [0.0, 0.0], "radius": 1.0})
    assert plain.style is element_from_json(
        _segment_record({"color": 0, "line_type": "solid"})).style


def test_style_table_holds_each_valid_style_once():
    def every_style():
        return [element_from_json(_segment_record({"color": c, "line_type": t.value})).style
                for t in LineType for c in range(256)]
    first, again = every_style(), every_style()
    assert all(a is b for a, b in zip(first, again))
    assert len(_STYLES) == 4 * 256


@pytest.mark.parametrize("color, reason", [
    (True, "color: expected an integer, got bool"),
    (256, "colour index out of range 0..255"),
    (1.0, "color: expected an integer, got float"),
], ids=["boolean", "too-large", "real"])
def test_a_shared_style_is_still_checked(color, reason):
    # Equal to the shared solid style of colour 1, yet still refused.
    element_from_json(_segment_record({"color": 1, "line_type": "solid"}))
    with pytest.raises(ValueError, match=f"^bad segment element: bad line style: {reason}$"):
        element_from_json(_segment_record({"color": color, "line_type": "solid"}))
    with pytest.raises(ValueError, match=f"^{reason}$"):
        LineStyle(LineType.SOLID, color)


# --- value constructors read numbers by the real kind ------------------------

_ORIGIN = Point(0.0, 0.0)
_NUMBER_READERS = {
    "Point": lambda v: Point(v, 0.0),
    "Transform": lambda v: Transform(1.0, 0.0, 0.0, 1.0, v, 0.0),
    "Transform.scaling": Transform.scaling,
    "Arc": lambda v: Arc(_ORIGIN, v, 0.0, 90.0),
    "Circle": lambda v: Circle(_ORIGIN, v),
    "Text": lambda v: Text(_ORIGIN, v, 0.0, "x"),
    "norm_deg": norm_deg,
    "Axis": lambda v: Axis(_ORIGIN, v),
    "offset_path-side_offset": lambda v: offset_path([(0, 0), (10, 0)], v),
    "offset_path-fillet_radius": lambda v: offset_path(
        [(0, 0), (10, 0), (10, 10)], 1.0, "bent", v),
}


@pytest.mark.parametrize("value, reason", [
    ("5", "expected a real number, got str"),
    (True, "expected a real number, got bool"),
    (10**400, "value is too large"),
], ids=["string", "bool", "huge-int"])
@pytest.mark.parametrize("build", _NUMBER_READERS.values(), ids=_NUMBER_READERS)
def test_value_constructors_refuse_a_number_of_the_wrong_kind(build, value, reason):
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == reason


_ANGLE_READERS = {
    "Arc-start": lambda a: Arc(_ORIGIN, 1.0, a, 10.0),
    "Arc-end": lambda a: Arc(_ORIGIN, 1.0, 10.0, a),
    "Text": lambda a: Text(Point(1.0, 2.0), 2.0, a, "x"),
    "Axis": lambda a: Axis(Point(1.0, 2.0), a),
    "Transform.rotation": Transform.rotation,
}


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("build", _ANGLE_READERS.values(), ids=_ANGLE_READERS)
def test_a_non_finite_angle_is_refused(build, angle):
    with pytest.raises(ValueError) as info:
        build(angle)
    assert str(info.value) == "value must be finite"


# --- decoders hand raw fields to the constructors that read them -------------

_RECORDS = {
    "segment": {"kind": "segment", "p1": [0.0, 0.0], "p2": [1.0, 1.0]},
    "polyline": {"kind": "polyline", "points": [[0.0, 0.0], [1.0, 1.0]],
                 "closed": False},
    "arc": {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0,
            "start_angle": 0.0, "end_angle": 90.0},
    "circle": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
    "text": {"kind": "text", "anchor": [0.0, 0.0], "height_mm": 2.0,
             "angle_deg": 0.0, "content": "a"},
}
_NUMBERS = ["5", True, 10**400, math.inf]
_NOT_TEXT = [5, None, ["a"]]
_NOT_BOOL = ["no", 1, None]
_STYLE_PREFIX = "bad line style: "


def _as_is(value):
    return value


# (record kind, field, values, the field's JSON for a value, the prefix the
# style decoder adds, the constructor call that reads the value on its own)
_FIELD_READERS = [
    ("segment", "p1", _NUMBERS, lambda v: [v, 0.0], "", lambda v: Point(v, 0.0)),
    ("arc", "center", _NUMBERS, lambda v: [0.0, v], "", lambda v: Point(0.0, v)),
    ("arc", "radius", _NUMBERS, _as_is, "", lambda v: Arc(_ORIGIN, v, 0.0, 90.0)),
    ("arc", "start_angle", _NUMBERS, _as_is, "", lambda v: Arc(_ORIGIN, 1.0, v, 90.0)),
    ("arc", "end_angle", _NUMBERS, _as_is, "", lambda v: Arc(_ORIGIN, 1.0, 0.0, v)),
    ("circle", "radius", _NUMBERS, _as_is, "", lambda v: Circle(_ORIGIN, v)),
    ("text", "anchor", _NUMBERS, lambda v: [v, 0.0], "", lambda v: Point(v, 0.0)),
    ("text", "height_mm", _NUMBERS, _as_is, "", lambda v: Text(_ORIGIN, v, 0.0, "a")),
    ("text", "angle_deg", _NUMBERS, _as_is, "", lambda v: Text(_ORIGIN, 2.0, v, "a")),
    ("text", "content", _NOT_TEXT, _as_is, "", lambda v: Text(_ORIGIN, 2.0, 0.0, v)),
    ("polyline", "closed", _NOT_BOOL, _as_is, "",
     lambda v: Polyline((_ORIGIN, Point(1.0, 1.0)), v)),
    ("segment", "style", _NUMBERS, lambda v: {"line_type": "solid", "color": v},
     _STYLE_PREFIX, lambda v: LineStyle(LineType.SOLID, v)),
    ("segment", "style", ["bogus", 5, None], lambda v: {"line_type": v, "color": 0},
     _STYLE_PREFIX, lambda v: LineStyle(v, 0)),
]


def _value_id(value) -> str:
    return "huge-int" if value == 10**400 else repr(value)


@pytest.mark.parametrize("kind, field, value, to_json, prefix, build", [
    pytest.param(kind, field, value, to_json, prefix, build,
                 id=f"{kind}-{field}-{_value_id(value)}")
    for kind, field, values, to_json, prefix, build in _FIELD_READERS
    for value in values])
def test_element_record_refusal_is_the_constructors_own(kind, field, value,
                                                        to_json, prefix, build):
    with pytest.raises(ValueError) as alone:
        build(value)
    record = {**_RECORDS[kind], field: to_json(value)}
    with pytest.raises(ValueError) as decoded:
        element_from_json(record)
    assert str(decoded.value) == f"bad {kind} element: {prefix}{alone.value}"


def test_text_names_a_content_that_is_not_text():
    with pytest.raises(ValueError) as info:
        Text(Point(0, 0), 2.0, 0.0, 5)
    assert str(info.value) == "content: expected text, got int"


@pytest.mark.parametrize("build, reason", [
    (lambda v: Arc(_ORIGIN, v, 0.0, 90.0), "arc radius must be positive"),
    (lambda v: Circle(_ORIGIN, v), "circle radius must be positive"),
    (lambda v: Text(_ORIGIN, v, 0.0, "a"), "text height must be positive"),
    (Transform.scaling, "scale factor must be positive"),
], ids=["arc", "circle", "text", "scaling"])
def test_an_infinite_radius_height_or_scale_is_not_positive(build, reason):
    with pytest.raises(ValueError) as info:
        build(math.inf)
    assert str(info.value) == reason


# --- each value reads its arguments in its own __init__ ----------------------

_P, _Q = Point(0.0, 0.0), Point(1.0, 1.0)
_DASHED_3 = LineStyle(LineType.DASHED, 3)

# (class, arguments, {field: value stored}, (field, new argument, value stored))
_CONSTRUCTED = [
    (Point, (1, -2), {"x": 1.0, "y": -2.0}, ("y", 3, 3.0)),
    (Transform, (0, -1, 1, 0, 5, -6),
     {"a": 0.0, "b": -1.0, "c": 1.0, "d": 0.0, "tx": 5.0, "ty": -6.0}, ("tx", 7, 7.0)),
    (LineStyle, ("dashed", 3), {"line_type": LineType.DASHED, "color": 3},
     ("line_type", "dash_dot", LineType.DASH_DOT)),
    (Segment, (_P, _Q, _DASHED_3), {"p1": _P, "p2": _Q, "style": _DASHED_3},
     ("p2", _P, _P)),
    (Polyline, ([_P, _Q], True), {"points": (_P, _Q), "closed": True, "style": LineStyle()},
     ("points", [_Q, _P], (_Q, _P))),
    (Arc, (_P, 2, -90, 450), {"center": _P, "radius": 2.0, "start_angle": 270.0,
                              "end_angle": 90.0}, ("start_angle", -45, 315.0)),
    (Circle, (_Q, 3), {"center": _Q, "radius": 3.0}, ("radius", 1, 1.0)),
    (Text, (_P, 2, -30, "a"), {"anchor": _P, "height_mm": 2.0, "angle_deg": 330.0,
                               "content": "a"}, ("angle_deg", 720, 0.0)),
    (Rect, (_P, _Q), {"min": _P, "max": _Q}, ("max", Point(2, 2), Point(2.0, 2.0))),
    (ZoneGrid, (_Q, 10, 20, 3, 2),
     {"origin": _Q, "cell_w": 10.0, "cell_h": 20.0, "nx": 3, "ny": 2}, ("nx", 4, 4)),
]


@pytest.mark.parametrize("cls, args, stored, change", _CONSTRUCTED,
                         ids=[row[0].__name__ for row in _CONSTRUCTED])
def test_a_value_stores_each_argument_as_its_decoder_reads_it(cls, args, stored, change):
    value = cls(*args)
    for name, expected in stored.items():
        got = getattr(value, name)
        assert got == expected and type(got) is type(expected), name
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, args))) == value
    name, argument, expected = change
    changed = dataclasses.replace(value, **{name: argument})
    assert getattr(changed, name) == expected
    assert type(getattr(changed, name)) is type(expected)
    assert dataclasses.replace(changed, **{name: getattr(value, name)}) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], getattr(value, names[0]))


_BAD_NUMBERS = [True, "1", None, math.nan, math.inf, -math.inf, 10**400]
_BAD_IDS = ["bool", "text", "None", "nan", "inf", "-inf", "huge-int"]


def _real_refusals(not_finite: str, prefix: str = "") -> list[str]:
    """The messages a real argument gives for each of _BAD_NUMBERS."""
    return [prefix + "expected a real number, got bool",
            prefix + "expected a real number, got str",
            prefix + "expected a real number, got NoneType",
            not_finite, not_finite, not_finite, prefix + "value is too large"]


def _integer_refusals(prefix: str, too_large: str) -> list[str]:
    return [prefix + "expected an integer, got bool", prefix + "expected an integer, got str",
            prefix + "expected an integer, got NoneType", *[prefix + "expected an integer, "
                                                            "got float"] * 3, too_large]


_POINT_FINITE = "point coordinates must be finite"
_COEFFICIENT_FINITE = "transform coefficients must be finite"
# (id, the call, the message for each of _BAD_NUMBERS)
_ARGUMENT_READERS = [
    ("Point-x", lambda v: Point(v, 0.0), _real_refusals(_POINT_FINITE)),
    ("Point-y", lambda v: Point(0.0, v), _real_refusals(_POINT_FINITE)),
    ("Transform-a", lambda v: Transform(v, 0.0, 0.0, 1.0), _real_refusals(_COEFFICIENT_FINITE)),
    ("Transform-ty", lambda v: Transform(1.0, 0.0, 0.0, 1.0, 0.0, v),
     _real_refusals(_COEFFICIENT_FINITE)),
    ("Arc-radius", lambda v: Arc(_P, v, 0.0, 90.0),
     _real_refusals("arc radius must be positive")),
    ("Arc-start_angle", lambda v: Arc(_P, 1.0, v, 90.0), _real_refusals("value must be finite")),
    ("Arc-end_angle", lambda v: Arc(_P, 1.0, 0.0, v), _real_refusals("value must be finite")),
    ("Circle-radius", lambda v: Circle(_P, v), _real_refusals("circle radius must be positive")),
    ("Text-height_mm", lambda v: Text(_P, v, 0.0, "a"),
     _real_refusals("text height must be positive")),
    ("Text-angle_deg", lambda v: Text(_P, 1.0, v, "a"), _real_refusals("value must be finite")),
    ("ZoneGrid-cell_w", lambda v: ZoneGrid(_P, v, 1.0, 1, 1),
     _real_refusals("zone grid cell_w: value must be finite", "zone grid cell_w: ")),
    ("ZoneGrid-cell_h", lambda v: ZoneGrid(_P, 1.0, v, 1, 1),
     _real_refusals("zone grid cell_h: value must be finite", "zone grid cell_h: ")),
    ("ZoneGrid-nx", lambda v: ZoneGrid(_P, 1.0, 1.0, v, 1),
     _integer_refusals("zone grid nx: ", "zone grid exceeds 4096 cells")),
    ("ZoneGrid-ny", lambda v: ZoneGrid(_P, 1.0, 1.0, 1, v),
     _integer_refusals("zone grid ny: ", "zone grid exceeds 4096 cells")),
    ("LineStyle-color", lambda v: LineStyle(LineType.SOLID, v),
     _integer_refusals("color: ", "colour index out of range 0..255")),
]


@pytest.mark.parametrize("build, value, reason", [
    pytest.param(build, value, reason, id=f"{name}-{value_id}")
    for name, build, reasons in _ARGUMENT_READERS
    for value, value_id, reason in zip(_BAD_NUMBERS, _BAD_IDS, reasons)])
def test_a_value_refuses_a_bad_argument_by_class_and_message(build, value, reason):
    with pytest.raises(ValueError) as info:
        build(value)
    assert type(info.value) is ValueError and str(info.value) == reason


@pytest.mark.parametrize("build, reason", [
    (lambda: Transform(math.nan, "x", 0.0, 1.0), _COEFFICIENT_FINITE),
    (lambda: Transform("x", math.nan, 0.0, 1.0), "expected a real number, got str"),
    (lambda: Point(math.nan, "x"), "expected a real number, got str"),
    (lambda: Arc(_P, -1.0, math.nan, "x"), "arc radius must be positive"),
    (lambda: Arc(_P, 1.0, math.nan, "x"), "value must be finite"),
    (lambda: Arc(_P, 1.0, 10.0, 370.0), "arc sweep must lie strictly between 0 and 360 degrees"),
    (lambda: Text(_P, 0.0, math.nan, 5), "text height must be positive"),
    (lambda: Text(_P, 1.0, math.nan, 5), "value must be finite"),
    (lambda: Text(_P, 1.0, 0.0, 5), "content: expected text, got int"),
    (lambda: ZoneGrid(_P, "a", math.nan, 0, 0), "zone grid cell_w: expected a real number, got str"),
    (lambda: ZoneGrid(_P, 1.0, 1.0, 0, True), "zone grid ny: expected an integer, got bool"),
    (lambda: LineStyle("bogus", True), "'bogus' is not a valid LineType"),
    (lambda: Polyline([_P], "no"), "polyline needs at least 2 points"),
    (lambda: Rect(_Q, _P), "rectangle corners are not ordered"),
], ids=["Transform-finite-first", "Transform-kind-first", "Point-kinds-first",
        "Arc-radius-first", "Arc-start-first", "Arc-sweep", "Text-height-first",
        "Text-angle-before-content", "Text-content", "ZoneGrid-cell_w-first",
        "ZoneGrid-checks-before-sizes", "LineStyle-type-first", "Polyline-points-first",
        "Rect-order"])
def test_a_value_with_two_bad_arguments_reports_the_first_it_reads(build, reason):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == reason


_S = LineStyle()


@pytest.mark.parametrize("build, reason", [
    (lambda: Segment(1, 2), "p1: expected a Point, got int"),
    (lambda: Segment(_P, (1.0, 1.0)), "p2: expected a Point, got tuple"),
    (lambda: Segment(_P, _Q, "solid"), "style: expected a LineStyle, got str"),
    (lambda: Polyline([1, 2]), "points: expected a Point, got int"),
    (lambda: Polyline([_P, [1.0, 1.0]]), "points: expected a Point, got list"),
    (lambda: Polyline([_P, _Q], False, None), "style: expected a LineStyle, got NoneType"),
    (lambda: Arc(None, 1, 0, 90), "center: expected a Point, got NoneType"),
    (lambda: Arc(_P, 1, 0, 90, LineType.SOLID), "style: expected a LineStyle, got LineType"),
    (lambda: Circle(Point(0, 0), 1, "x"), "style: expected a LineStyle, got str"),
    (lambda: Circle((0, 0), 1, _S), "center: expected a Point, got tuple"),
    (lambda: Text((0, 0), 2.5, 0.0, "x"), "anchor: expected a Point, got tuple"),
    (lambda: Text(_P, 2.5, 0.0, "x", 0), "style: expected a LineStyle, got int"),
    (lambda: Rect("a", "b"), "min: expected a Point, got str"),
    (lambda: Rect(_P, (5.0, 5.0)), "max: expected a Point, got tuple"),
    (lambda: ZoneGrid((0, 0), 10, 10, 10, 10), "origin: expected a Point, got tuple"),
    (lambda: Axis("a"), "origin: expected a Point, got str"),
    (lambda: Axis([0.0, 0.0], 90.0), "origin: expected a Point, got list"),
], ids=["Segment-p1", "Segment-p2", "Segment-style", "Polyline-points",
        "Polyline-one-point", "Polyline-style", "Arc-center", "Arc-style",
        "Circle-style", "Circle-center", "Text-anchor", "Text-style", "Rect-min",
        "Rect-max", "ZoneGrid-origin", "Axis-origin", "Axis-list-origin"])
def test_a_value_refuses_a_point_or_style_of_another_class(build, reason):
    # Each of these once built, and was refused only later: by a bare
    # AttributeError, or by a load of the file a save had written.
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == reason
