"""Per-type geometry generators: exact shapes, counts, and layout arithmetic."""

from __future__ import annotations

import json
import math
import random

import pytest
from modraft import (Arc, Circle, Drawing, LineType, ModuleType, Point,
                     Polyline, Rect, SchemaViolation, Segment, Text,
                     create_module, load_drawing, save_drawing, schema_for,
                     validate_props)

from propgen import random_props


def _segments(m):
    return [e for e in m.geometry if isinstance(e, Segment)]


def _texts(m):
    return [e for e in m.geometry if isinstance(e, Text)]


# --- valve ------------------------------------------------------------------

def test_valve_bowtie():
    m = create_module(ModuleType.VALVE, {})
    left, right = m.geometry
    assert left.points == (Point(-4, -1.5), Point(0, 0), Point(-4, 1.5))
    assert right.points == (Point(4, -1.5), Point(0, 0), Point(4, 1.5))
    assert left.closed and right.closed


def test_valve_attach_modes():
    axes = create_module(ModuleType.VALVE, {}).props["attach"]
    assert len(axes) == 2
    assert axes[0].origin == Point(-4, 0) and axes[1].origin == Point(4, 0)
    # both point along flow so a run of symbols chains end to end
    assert axes[0].angle_deg == 0.0 and axes[1].angle_deg == 0.0


# --- pipeline ---------------------------------------------------------------

def test_pipeline_welded_offsets_and_centerline():
    m = create_module(ModuleType.PIPELINE, {
        "path": [(0, 0), (100, 0), (100, 80)],
        "diameter_mm": 10.0, "corner": "welded"})
    segs = _segments(m)
    assert len(segs) == 4
    # left side (,+5) miters at (95, 5); right side (-5) at (105, -5)
    assert segs[0].p1 == Point(0, 5) and segs[0].p2 == Point(95, 5)
    assert segs[1].p1 == Point(95, 5) and segs[1].p2 == Point(95, 80)
    assert segs[2].p1 == Point(0, -5) and segs[2].p2 == Point(105, -5)
    assert segs[3].p1 == Point(105, -5) and segs[3].p2 == Point(105, 80)
    (center,) = [e for e in m.geometry if isinstance(e, Polyline)]
    assert center.points == (Point(0, 0), Point(100, 0), Point(100, 80))
    assert not center.closed
    assert center.style.line_type is LineType.DASH_DOT


def test_pipeline_bent_uses_arcs_everywhere():
    m = create_module(ModuleType.PIPELINE, {
        "path": [(0, 0), (100, 0), (100, 80)],
        "diameter_mm": 10.0, "corner": "bent", "fillet_radius": 12.0})
    kinds = [type(e).__name__ for e in m.geometry]
    # two offset sides and the centerline, each seg-arc-seg
    assert kinds == ["Segment", "Arc", "Segment"] * 3
    arcs = [e for e in m.geometry if isinstance(e, Arc)]
    # left of an east->north turn is the outside: radius grows by half width
    assert sorted(a.radius for a in arcs) == [7.0, 12.0, 17.0]


def test_pipeline_needs_two_points():
    with pytest.raises(SchemaViolation):
        create_module(ModuleType.PIPELINE, {"path": [(0, 0)]})


def test_pipeline_bent_needs_room():
    from modraft import GenerationError
    # fillet must not exceed half the shortest leg
    with pytest.raises(GenerationError):
        create_module(ModuleType.PIPELINE, {
            "path": [(0, 0), (10, 0), (10, 10)],
            "diameter_mm": 4.0, "corner": "bent", "fillet_radius": 100.0})


# --- instrument -------------------------------------------------------------

def test_instrument_text_metrics():
    m = create_module(ModuleType.INSTRUMENT, {
        "on_board": True, "function_code": "FIC",
        "upper_index": "10", "lower_index": "b"})
    code, pos = _texts(m)
    assert code.content == "FIC" and pos.content == "10b"
    # code centred in the upper half: x = -0.3 * h * len(chars)
    assert code.anchor == Point(-0.3 * 2.5 * 3, 1.25)
    assert pos.anchor == Point(-0.3 * 2.5 * 3, -3.75)
    assert code.height_mm == pos.height_mm == 2.5


def test_instrument_line_type_choice():
    m = create_module(ModuleType.INSTRUMENT, {
        "function_code": "LT", "kip_line_type": "dashed"})
    circle = next(e for e in m.geometry if isinstance(e, Circle))
    assert circle.style.line_type is LineType.DASHED


def test_instruments_of_one_line_type_share_one_style():
    styles = [next(e for e in create_module(ModuleType.INSTRUMENT, {
        "function_code": code, "kip_line_type": "dashed"}).geometry).style
        for code in ("LT", "PI")]
    assert styles[0] is styles[1]


# --- table ------------------------------------------------------------------

def test_table_layout_counts():
    rng = random.Random(31)
    for _ in range(20):
        cols = rng.randrange(1, 6)
        rows = rng.randrange(0, 7)
        m = create_module(ModuleType.TABLE, {
            "columns": [{"width_mm": rng.uniform(8, 40), "header": f"c{i}"}
                        for i in range(cols)],
            "row_height_mm": 8.0, "header_height_mm": 15.0,
            "rows": [{"cells": [f"v{i}{j}" for j in range(cols)]}
                     for i in range(rows)]})
        assert len(_segments(m)) == (cols + 1) + (rows + 2)
        assert len(_texts(m)) == cols * (rows + 1)


def test_table_exact_coordinates():
    m = create_module(ModuleType.TABLE, {
        "origin": (100, 200),
        "columns": [{"width_mm": 20.0, "header": "A"},
                    {"width_mm": 30.0, "header": "B"}],
        "row_height_mm": 8.0, "header_height_mm": 15.0,
        "rows": [{"cells": ["x", "y"]}]})
    segs = _segments(m)
    xs = sorted({s.p1.x for s in segs if s.p1.x == s.p2.x})
    ys = sorted({s.p1.y for s in segs if s.p1.y == s.p2.y})
    assert xs == [100.0, 120.0, 150.0]          # origin, +20, +30
    assert ys == [177.0, 185.0, 200.0]          # grows downward from origin
    texts = _texts(m)
    # 1 mm left inset, vertically centred in the cell
    assert texts[0].anchor == Point(101.0, 185.0 + (15.0 - 2.5) / 2)
    assert texts[2].anchor == Point(101.0, 177.0 + (8.0 - 2.5) / 2)


def test_table_row_cell_count_must_match():
    with pytest.raises(SchemaViolation):
        create_module(ModuleType.TABLE, {
            "columns": [{"width_mm": 20.0, "header": "A"}],
            "row_height_mm": 8.0, "header_height_mm": 15.0,
            "rows": [{"cells": ["a", "b"]}]})


# --- frame ------------------------------------------------------------------

def test_frame_a0_landscape():
    m = create_module(ModuleType.FRAME, {"format": "A0", "landscape": True})
    outer = m.geometry[0]
    assert outer.points == (Point(0, 0), Point(1189, 0),
                            Point(1189, 841), Point(0, 841))
    assert outer.style.line_type is LineType.THIN_SOLID
    inner = m.geometry[1]
    assert inner.points == (Point(20, 5), Point(1184, 5),
                            Point(1184, 836), Point(20, 836))
    block = m.geometry[2]
    assert block.points == (Point(999, 5), Point(1184, 5),
                            Point(1184, 60), Point(999, 60))


def test_frame_title_block_bands():
    m = create_module(ModuleType.FRAME, {"format": "A3", "landscape": True})
    # A3 landscape: 420 x 297, block right-aligned at inner corner
    bands = sorted(s.p1.y for s in _segments(m))
    assert bands == [30.0, 45.0]  # 25 + 15 + 15 = 55 total height


def test_frame_a4_portrait_only():
    with pytest.raises(SchemaViolation):
        create_module(ModuleType.FRAME, {"format": "A4", "landscape": True})
    m = create_module(ModuleType.FRAME, {"format": "A4"})
    assert m.geometry[0].points[2] == Point(210, 297)


def test_frame_multiplicity_stretches_long_side():
    m = create_module(ModuleType.FRAME, {
        "format": "A3", "landscape": True, "multiplicity": 3})
    assert m.geometry[0].points[2] == Point(1260, 297)


# --- position designation ---------------------------------------------------

def test_posdes_leader_shelf_text():
    m = create_module(ModuleType.POSDES, {
        "leader_from": (0, 0), "shelf_at": (20, 10), "position_text": "12"})
    leader, shelf = _segments(m)
    assert leader.p1 == Point(0, 0) and leader.p2 == Point(20, 10)
    assert shelf.p1 == Point(20, 10) and shelf.p2 == Point(28, 10)  # 8 mm shelf
    (label,) = _texts(m)
    assert label.content == "12"
    assert label.height_mm == 3.5
    assert label.anchor == Point(21.0, 10.5)  # +1.0, +0.5 above the shelf


def test_posdes_spec_props_do_not_change_geometry():
    base = {"leader_from": (3, 4), "shelf_at": (15, 20), "position_text": "7"}
    plain = create_module(ModuleType.POSDES, base)
    rich = create_module(ModuleType.POSDES, {**base, "spec_props": {
        "designation": "ГОСТ 123", "name": "Вентиль", "qty_hint": 1}})
    from modraft import geometry_bytes
    assert geometry_bytes(plain.geometry) == geometry_bytes(rich.geometry)


# --- signature --------------------------------------------------------------

def test_signature_stamp():
    m = create_module(ModuleType.SIGNATURE, {
        "person": "Иванов И.И.", "position": "ГИП",
        "date": "2024-03-01", "time": "10:30",
        "digest": "ab" * 32, "mac": "cd" * 32, "origin": (10, 20)})
    (stamp,) = m.geometry
    assert stamp.content == "Иванов И.И. / ГИП / 2024-03-01 10:30"
    assert stamp.height_mm == 3.5
    assert stamp.anchor == Point(10, 20)


# --- lightning plan view ----------------------------------------------------

def test_lightning_plan_symbols():
    m = create_module(ModuleType.LIGHTNING, {
        "rods": [{"x": 0.0, "y": 0.0, "h": 10.0}],
        "section_heights": [{"height": 5.0}],
        "zone_class": "B", "scale_mm_per_m": 2.0, "plan_origin": (50, 50)})
    segs = _segments(m)
    assert len(segs) == 2  # the rod cross
    assert {(segs[0].p1.x, segs[0].p1.y), (segs[0].p2.x, segs[0].p2.y)} == \
        {(48.5, 48.5), (51.5, 51.5)}
    (circle,) = [e for e in m.geometry if isinstance(e, Circle)]
    assert math.isclose(circle.radius, 2.0 * 1.5 * (10 - 5 / 0.92), rel_tol=1e-12)
    (label,) = _texts(m)
    assert label.content == "R6.85"
    assert label.anchor == Point(50.0, 50.0 + circle.radius + 1.0)


def test_lightning_circles_sorted_by_height_then_rod():
    m = create_module(ModuleType.LIGHTNING, {
        "rods": [{"x": 0.0, "y": 0.0, "h": 20.0}, {"x": 30.0, "y": 0.0, "h": 18.0}],
        "section_heights": [{"height": 3.0}, {"height": 7.0}],
        "zone_class": "B", "scale_mm_per_m": 1.0})
    circles = [e for e in m.geometry if isinstance(e, Circle)]
    assert len(circles) == 4
    # (height, rod) ordering: h=3 rod0, h=3 rod1, h=7 rod0, h=7 rod1
    assert [c.center.x for c in circles] == [0.0, 30.0, 0.0, 30.0]
    radii = [c.radius for c in circles]
    assert radii[0] > radii[2] and radii[1] > radii[3]


# --- element counts are linear in the inputs ---------------------------------

def _frame(k):
    return {"format": "A4", "multiplicity": k}


def _table(cols, rows):
    return {"columns": [{"width_mm": 10.0, "header": f"c{i}"} for i in range(cols)],
            "row_height_mm": 8.0, "header_height_mm": 15.0,
            "rows": [{"cells": [""] * cols} for _ in range(rows)]}


def _lightning(rods, heights):
    # every section height is below every rod's zone apex (0.92 * 30 m)
    return {"rods": [{"x": 10.0 * i, "y": 0.0, "h": 30.0} for i in range(rods)],
            "section_heights": [{"height": 0.4 * j} for j in range(heights)],
            "zone_class": "B", "scale_mm_per_m": 1.0}


def _welded_pipeline(n):
    return {"path": [(10.0 * i, 10.0 * (i % 2)) for i in range(n)],
            "diameter_mm": 2.0}


@pytest.mark.parametrize("mtype, props, count", [
    pytest.param(ModuleType.FRAME, _frame(1), 5, id="frame-1"),
    pytest.param(ModuleType.FRAME, _frame(10 ** 6), 5, id="frame-1e6"),
    *(pytest.param(ModuleType.TABLE, _table(c, r),
                   (c + 1) + (r + 2) + c * (r + 1), id=f"table-{c}x{r}")
      for c, r in ((1, 0), (3, 2), (6, 40))),
    *(pytest.param(ModuleType.LIGHTNING, _lightning(n, h), 2 * n + 2 * n * h,
                   id=f"lightning-{n}x{h}")
      for n, h in ((1, 1), (3, 4), (64, 64))),
    *(pytest.param(ModuleType.PIPELINE, _welded_pipeline(n), 2 * (n - 1) + 1,
                   id=f"welded-pipeline-{n}")
      for n in (2, 3, 200)),
])
def test_element_count_is_linear_in_the_inputs(mtype, props, count):
    assert len(create_module(mtype, props).geometry) == count


# --- generic: every generator only emits drawable elements -------------------

def test_generators_emit_known_element_kinds():
    rng = random.Random(32)
    allowed = (Segment, Circle, Arc, Polyline, Text)
    from propgen import PROP_MAKERS
    for mtype in PROP_MAKERS:
        for _ in range(5):
            m = create_module(mtype, random_props(rng, mtype))
            assert all(isinstance(e, allowed) for e in m.geometry)


# --- well-typed properties a generator cannot draw ---------------------------

_SEGMENT = {"kind": "segment", "p1": [0.0, 0.0], "p2": [1.0, 0.0]}
_TABLE = {"columns": [{"width_mm": 20.0, "header": "A"}],
          "row_height_mm": 8.0, "header_height_mm": 15.0}
_LIGHTNING = {"rods": [{"x": 0.0, "y": 0.0, "h": 20.0}],
              "section_heights": [{"height": 2.0}],
              "zone_class": "B", "scale_mm_per_m": 1.0}


_SYMMETRY_REFUSAL = "value 'diagonal' not one of ('none', 'mirror_x', 'mirror_y', 'both')"

# One refused value per single-value rule of the schema: validate_props
# refuses each, and so does everything that validates on its way in.
_SCHEMA_RULE_CASES = [
    pytest.param(ModuleType.USER, {"elements": []}, "elements",
                 "user module needs at least one element", id="user-no-elements"),
    pytest.param(ModuleType.PIPELINE, {"path": [(0, 0), (10, 0)],
                                       "diameter_mm": 0.0},
                 "diameter_mm", "must be positive", id="pipeline-zero-diameter"),
    pytest.param(ModuleType.INSTRUMENT, {"function_code": ""}, "function_code",
                 "must not be empty", id="instrument-empty-function-code"),
    pytest.param(ModuleType.TABLE, {**_TABLE, "columns": []}, "columns",
                 "table needs at least one column", id="table-no-columns"),
    pytest.param(ModuleType.TABLE, {**_TABLE, "row_height_mm": 0.0},
                 "row_height_mm", "must be positive", id="table-zero-row-height"),
    pytest.param(ModuleType.TABLE, {**_TABLE, "header_height_mm": -1.0},
                 "header_height_mm", "must be positive",
                 id="table-negative-header-height"),
    pytest.param(ModuleType.FRAME, {"format": "A3", "multiplicity": 0},
                 "multiplicity", "must be at least 1", id="frame-zero-multiplicity"),
    pytest.param(ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                     "position_text": ""},
                 "position_text", "must not be empty", id="posdes-empty-position"),
    pytest.param(ModuleType.LIGHTNING, {**_LIGHTNING, "scale_mm_per_m": 0.0},
                 "scale_mm_per_m", "must be positive", id="lightning-zero-scale"),
    pytest.param(ModuleType.LIGHTNING, {**_LIGHTNING, "rods": []}, "rods",
                 "at least one rod is required", id="lightning-no-rods"),
    pytest.param(ModuleType.USER, {"elements": [_SEGMENT], "scale": 0.0}, "scale",
                 "must be positive", id="user-zero-scale"),
    pytest.param(ModuleType.USER, {"elements": [_SEGMENT], "symmetry": "diagonal"},
                 "symmetry", _SYMMETRY_REFUSAL, id="user-unknown-symmetry"),
    pytest.param(ModuleType.VALVE, {"symmetry": "diagonal"}, "symmetry",
                 _SYMMETRY_REFUSAL, id="valve-unknown-symmetry"),
    pytest.param(ModuleType.PIPELINE, {"path": [(0, 0), (10, 0)],
                                       "diameter_mm": 4.0, "corner": "round"},
                 "corner", "value 'round' not one of ('welded', 'bent')",
                 id="pipeline-unknown-corner"),
    pytest.param(ModuleType.INSTRUMENT, {"function_code": "PI",
                                         "kip_line_type": "dotted"},
                 "kip_line_type", "value 'dotted' not one of "
                 "('', 'solid', 'dashed', 'dash_dot', 'thin_solid')",
                 id="instrument-unknown-line-type"),
    pytest.param(ModuleType.FRAME, {"format": "A9"}, "format",
                 "value 'A9' not one of ('A4', 'A3', 'A2', 'A1', 'A0')",
                 id="frame-unknown-format"),
    pytest.param(ModuleType.LIGHTNING, {**_LIGHTNING, "zone_class": "C"},
                 "zone_class", "value 'C' not one of ('A', 'B')",
                 id="lightning-unknown-zone-class"),
]

# Rules that relate two values or read inside a record: generation owns them.
_GENERATION_CASES = [
    pytest.param(ModuleType.PIPELINE, {"path": [(0, 0), (10, 0), (10, 10)],
                                       "diameter_mm": 4.0, "corner": "bent",
                                       "fillet_radius": 2.0},
                 "fillet_radius", "must exceed half the diameter for bent corners",
                 id="pipeline-fillet-within-half-diameter"),
    pytest.param(ModuleType.TABLE,
                 {**_TABLE, "columns": [{"width_mm": 0.0, "header": "A"}]},
                 "columns", "columns[0]: width_mm: must be positive",
                 id="table-zero-width"),
    pytest.param(ModuleType.TABLE,
                 {**_TABLE, "columns": [{"width_mm": 20.0, "header": 5}]},
                 "columns", "columns[0]: header: expected text, got int",
                 id="table-header-not-text"),
    pytest.param(ModuleType.TABLE, {**_TABLE, "rows": [{"cells": [1]}]},
                 "rows", "rows[0]: cells: expected one text per column",
                 id="table-cell-not-text"),
]


@pytest.mark.parametrize("mtype, props, key, reason",
                         _SCHEMA_RULE_CASES + _GENERATION_CASES)
def test_undrawable_property_is_a_schema_violation(mtype, props, key, reason):
    with pytest.raises(SchemaViolation) as info:
        create_module(mtype, props)
    assert (info.value.key, info.value.reason) == (key, reason)


@pytest.mark.parametrize("mtype, props, key, reason", _SCHEMA_RULE_CASES)
def test_validate_props_applies_every_schema_rule(mtype, props, key, reason):
    with pytest.raises(SchemaViolation) as info:
        validate_props(mtype, props)
    assert (info.value.key, info.value.reason) == (key, reason)


@pytest.mark.parametrize("mtype, props, key, reason", _SCHEMA_RULE_CASES)
def test_stored_module_breaking_a_schema_rule_does_not_load(mtype, props, key, reason):
    d = Drawing.new(Rect.from_bounds(0.0, 0.0, 800.0, 600.0))
    d.add_module(ModuleType.VALVE, {})
    d.add_module(mtype, random_props(random.Random(5), mtype))
    doc = json.loads(save_drawing(d))
    schema = schema_for(mtype)
    doc["items"][1]["props"] = {k: {"kind": schema[k].kind.value,
                                    "value": json.loads(json.dumps(v))}
                                for k, v in props.items()}
    with pytest.raises(SchemaViolation) as info:
        load_drawing(json.dumps(doc))
    assert str(info.value) == f"item 1 (module 2): property {key!r}: {reason}"


@pytest.mark.parametrize("scale", [0.0, -2.0])
def test_non_positive_user_scale_is_a_schema_violation(scale):
    with pytest.raises(SchemaViolation) as info:
        create_module(ModuleType.USER, {"elements": [_SEGMENT], "scale": scale})
    assert type(info.value) is SchemaViolation
    assert (info.value.key, info.value.reason) == ("scale", "must be positive")


_TRIANGLE = {"kind": "polyline", "points": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]}


@pytest.mark.parametrize("closed, got", [("no", "str"), (0, "int"),
                                         (None, "NoneType")])
def test_user_polyline_closed_must_be_true_or_false(closed, got):
    with pytest.raises(SchemaViolation) as info:
        create_module(ModuleType.USER,
                      {"elements": [{**_TRIANGLE, "closed": closed}]})
    assert info.value.key == "elements"
    assert info.value.reason == ("elements[0]: bad polyline element: closed: "
                                 f"expected true or false, got {got}")


@pytest.mark.parametrize("record, closed", [
    ({**_TRIANGLE, "closed": True}, True),
    ({**_TRIANGLE, "closed": False}, False),
    (_TRIANGLE, False),
])
def test_user_polyline_closed_reads_true_false_or_absent(record, closed):
    (polyline,) = create_module(ModuleType.USER, {"elements": [record]}).geometry
    assert polyline.closed is closed
