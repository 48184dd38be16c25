"""Module layer: creation, regeneration, placement edits, working modules."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from modraft import (Axis, Circle, GenerationError, KernelError, ModuleType,
                     Point, Rect, SchemaViolation, Segment, Text, ZoneGrid,
                     align_by_attach, apply_transform, create_module, element_bbox,
                     geometry_bytes, mirror_module, move_module, rotate_module,
                     set_properties, snap_points, spawn_working_modules,
                     Transform, apex_height)
from modraft.generators import internal_list_indices

from propgen import PROP_MAKERS, random_props

GRID = ZoneGrid(Point(-300, -300), 50.0, 50.0, 12, 12)


def _close(p: Point, q: Point, tol: float = 1e-9) -> bool:
    return math.isclose(p.x, q.x, abs_tol=tol) and math.isclose(p.y, q.y, abs_tol=tol)


def test_create_module_populates_everything():
    m = create_module(ModuleType.VALVE, {"origin": (10, 20), "layer": 2},
                      module_id=7, grid=GRID)
    assert m.id == 7
    assert m.layer == 2
    assert len(m.geometry) == 2  # two triangles of the symbol
    assert m.bbox.intersects(m.bbox)


@pytest.mark.parametrize("module_id", [1.5, True, "7", 0, -3])
def test_create_module_refuses_an_id_that_is_not_a_positive_int(module_id):
    """No coercion: 1.5 and True once built module 1 and "7" module 7, and
    -3 built a module that saved but then would not load."""
    with pytest.raises(KernelError) as info:
        create_module(ModuleType.VALVE, {}, module_id=module_id)
    assert str(info.value) == f"module id must be a positive integer, got {module_id!r}"


def test_instrument_symbol_shape():
    m = create_module(ModuleType.INSTRUMENT, {
        "on_board": True, "function_code": "TI",
        "upper_index": "1", "lower_index": "а"})
    circle, chord, code, pos = m.geometry
    assert isinstance(circle, Circle) and circle.radius == 5.0
    assert circle.center == Point(0, 0)
    assert chord == Segment(Point(-5, 0), Point(5, 0))
    assert isinstance(code, Text) and code.content == "TI"
    assert code.height_mm == 2.5
    assert isinstance(pos, Text) and pos.content == "1а"
    # field instrument: no board chord
    m = create_module(ModuleType.INSTRUMENT,
                      {"on_board": False, "function_code": "PI"})
    assert len(m.geometry) == 3
    assert not any(isinstance(e, Segment) for e in m.geometry)


def test_user_module_passes_elements_through():
    records = [{"kind": "segment", "p1": [0, 0], "p2": [10, 0],
                "style": {"color": 0, "line_type": "solid"}} for _ in range(3)]
    m = create_module(ModuleType.USER, {"elements": records})
    assert len(m.geometry) == 3
    assert all(isinstance(e, Segment) for e in m.geometry)


def test_kind_mismatch_raises():
    with pytest.raises(SchemaViolation):
        create_module(ModuleType.VALVE, {"dy": True})


def test_regeneration_purity_sampled():
    rng = random.Random(21)
    for mtype in PROP_MAKERS:
        for _ in range(10):
            props = random_props(rng, mtype)
            a = create_module(mtype, props)
            b = create_module(mtype, props)
            assert geometry_bytes(a.geometry) == geometry_bytes(b.geometry)


def test_set_properties_equals_fresh_create():
    rng = random.Random(22)
    for _ in range(50):
        mtype = rng.choice(list(PROP_MAKERS))
        m = create_module(mtype, random_props(rng, mtype), module_id=3)
        updates_full = random_props(rng, mtype)
        keys = rng.sample(sorted(updates_full), rng.randrange(1, len(updates_full)))
        updates = {k: updates_full[k] for k in keys}
        try:
            changed = set_properties(m, updates)
        except SchemaViolation:
            # a partial update may be internally inconsistent (e.g. new table
            # columns with the old rows); a fresh create must agree
            with pytest.raises(SchemaViolation):
                create_module(mtype, {**m.props, **updates}, module_id=3)
            continue
        fresh = create_module(mtype, {**m.props, **updates}, module_id=3)
        assert changed.id == 3
        assert geometry_bytes(changed.geometry) == geometry_bytes(fresh.geometry)
        assert changed.props == fresh.props


def test_set_properties_empty_update_is_noop():
    m = create_module(ModuleType.FRAME, {"format": "A2"})
    assert set_properties(m, {}) == m


def test_frame_reformat_regenerates():
    m = create_module(ModuleType.FRAME, {"format": "A1"})
    m2 = set_properties(m, {"format": "A0"})
    assert m2.props["format"] == "A0"
    assert geometry_bytes(m2.geometry) != geometry_bytes(m.geometry)


def test_move_updates_snap_points_exactly():
    m = create_module(ModuleType.VALVE, {"origin": (10, 20)})
    moved = move_module(m, 10, 0)
    before = [p for e in m.geometry for p in snap_points(e)]
    after = [p for e in moved.geometry for p in snap_points(e)]
    assert after == [Point(p.x + 10, p.y) for p in before]
    assert moved.props["origin"] == Point(20, 20)


def test_rotate_zero_is_identity():
    m = create_module(ModuleType.POSDES, {
        "leader_from": (0, 0), "shelf_at": (10, 10), "position_text": "5"})
    assert rotate_module(m, 0.0, Point(50, 50)) == m


def test_mirror_twice_restores_geometry():
    m = create_module(ModuleType.INSTRUMENT,
                      {"origin": (30, 40), "function_code": "FI"})
    once = mirror_module(m, Point(5, -3), 30.0)
    twice = mirror_module(once, Point(5, -3), 30.0)
    assert twice.props["mirrored"] == m.props["mirrored"]
    for e1, e2 in zip(m.geometry, twice.geometry):
        for p1, p2 in zip(snap_points(e1), snap_points(e2)):
            assert _close(p1, p2)


def test_edits_commute_with_regeneration():
    rng = random.Random(23)
    for _ in range(40):
        mtype = rng.choice(list(PROP_MAKERS))
        m = create_module(mtype, random_props(rng, mtype))
        kind = rng.choice(["move", "rotate", "mirror"])
        if kind == "move":
            dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            edited = move_module(m, dx, dy)
            t = Transform.translation(dx, dy)
        elif kind == "rotate":
            angle = rng.uniform(0, 360)
            about = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            edited = rotate_module(m, angle, about)
            t = Transform.rotation(angle, about)
        else:
            origin = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            axis = rng.uniform(0, 180)
            edited = mirror_module(m, origin, axis)
            t = Transform.mirror(origin, axis)
        assert len(edited.geometry) == len(m.geometry)
        for before, after in zip(m.geometry, edited.geometry):
            expected = apply_transform(before, t)
            for p, q in zip(snap_points(expected), snap_points(after)):
                assert _close(p, q, tol=1e-6)


def test_align_by_attach_moves_axis_onto_target():
    m = create_module(ModuleType.VALVE, {"origin": (0, 0)})
    target = Axis(Point(10, 5), 90.0)
    aligned = align_by_attach(m, 0, target)
    # the first attach axis sits at local (-4, 0) pointing along +x
    placement = aligned.props
    assert placement["angle_deg"] == 90.0
    # axis origin must land on the target origin
    from modraft import placement_transform
    t = placement_transform(aligned.type, aligned.props)
    mapped = t.apply(Point(-4, 0))
    assert _close(mapped, Point(10, 5))
    assert math.isclose(t.map_direction_deg(0.0) % 360.0, 90.0, abs_tol=1e-9)


def test_align_by_attach_identity_when_already_there():
    m = create_module(ModuleType.VALVE, {"origin": (4, 0)})
    target = Axis(Point(0, 0), 0.0)  # exactly where attach axis 0 already is
    assert align_by_attach(m, 0, target) == m


def test_align_by_attach_index_out_of_range():
    m = create_module(ModuleType.VALVE, {})
    with pytest.raises(ValueError):
        align_by_attach(m, 5, Axis(Point(0, 0), 0.0))


@pytest.mark.parametrize("mtype, props, index", [
    (ModuleType.VALVE, {}, True),
    (ModuleType.VALVE, {}, False),
    (ModuleType.VALVE, {}, 1.0),
    (ModuleType.VALVE, {}, "0"),
    (ModuleType.VALVE, {}, -1),
    (ModuleType.PIPELINE, {"path": [(0, 0), (10, 0)], "diameter_mm": 2.0}, 0),
])
def test_align_by_attach_takes_only_an_int_index_of_an_axis(mtype, props, index):
    """An attach axis index is a non-bool int, as a module id is: True is
    not axis 1, and 1.0 is refused with the same words, not a bare
    TypeError. A type without attach axes has no axis 0."""
    m = create_module(mtype, props, module_id=3)
    with pytest.raises(ValueError) as info:
        align_by_attach(m, index, Axis(Point(0, 0), 0.0))
    assert type(info.value) is ValueError
    assert str(info.value) == f"module 3 has no attach axis {index}"


def test_spawn_working_modules_lightning():
    m = create_module(ModuleType.LIGHTNING, {
        "rods": [{"x": 0.0, "y": 0.0, "h": 20.0}],
        "section_heights": [{"height": 2.0}, {"height": 5.0}, {"height": 8.0}],
        "zone_class": "B", "scale_mm_per_m": 2.0})
    working = spawn_working_modules(m, "radius_dimensions")
    assert [w.index for w in working] == [0, 1, 2]
    assert all(w.host_id == m.id for w in working)
    assert all(w.list_name == "radius_dimensions" for w in working)
    for w in working:
        assert len(w.geometry) == 1
        assert isinstance(w.geometry[0], Text)
        assert w.geometry[0].content.startswith("R")


def test_spawn_working_modules_table_rows():
    m = create_module(ModuleType.TABLE, {
        "columns": [{"width_mm": 20.0, "header": "h"}],
        "row_height_mm": 8.0, "header_height_mm": 15.0, "rows": []})
    assert spawn_working_modules(m, "rows") == []


def _emission_order_indices(m) -> dict:
    """Internal lists from the generators' emission order by index
    arithmetic: the oracle that reading them off the geometry must match."""
    if m.type is ModuleType.TABLE:
        n_cols, n_rows = len(m.props["columns"]), len(m.props["rows"])
        base = (n_cols + 1) + (n_rows + 2) + n_cols  # rules plus header texts
        return {"rows": tuple(tuple(range(base + r * n_cols, base + (r + 1) * n_cols))
                              for r in range(n_rows))}
    rods = m.props["rods"]
    n = sum(apex_height(rod["h"], m.props["zone_class"]) > rec["height"]
            for rec in m.props["section_heights"] for rod in rods)
    base = 2 * len(rods) + n
    return {"radius_dimensions": tuple((base + i,) for i in range(n))}


@pytest.mark.parametrize("mtype", [ModuleType.TABLE, ModuleType.LIGHTNING])
def test_internal_lists_match_the_emission_order(mtype):
    rng = random.Random(29)
    for _ in range(300):
        m = create_module(mtype, random_props(rng, mtype))
        lists = internal_list_indices(m)
        assert lists == _emission_order_indices(m)
        if mtype is ModuleType.TABLE:
            working = spawn_working_modules(m, "rows")
            assert [[t.content for t in w.geometry] for w in working] == \
                [rec["cells"] for rec in m.props["rows"]]


def test_spawn_working_modules_unknown_list():
    m = create_module(ModuleType.VALVE, {})
    with pytest.raises(ValueError):
        spawn_working_modules(m, "rows")


def test_symmetry_codes_orient_user_modules():
    records = [{"kind": "segment", "p1": [1, 2], "p2": [5, 3],
                "style": {"color": 0, "line_type": "solid"}}]
    base = create_module(ModuleType.USER, {"elements": records})
    seg = base.geometry[0]
    mx = create_module(ModuleType.USER, {"elements": records,
                                         "symmetry": "mirror_x"}).geometry[0]
    my = create_module(ModuleType.USER, {"elements": records,
                                         "symmetry": "mirror_y"}).geometry[0]
    both = create_module(ModuleType.USER, {"elements": records,
                                           "symmetry": "both"}).geometry[0]
    assert _close(mx.p1, Point(seg.p1.x, -seg.p1.y))
    assert _close(my.p1, Point(-seg.p1.x, seg.p1.y))
    assert _close(both.p1, Point(-seg.p1.x, -seg.p1.y))


def test_user_scale_is_uniform():
    records = [{"kind": "circle", "center": [4, 0], "radius": 2.0,
                "style": {"color": 0, "line_type": "solid"}}]
    m = create_module(ModuleType.USER, {"elements": records, "scale": 2.0})
    circle = m.geometry[0]
    assert circle.radius == 4.0
    assert _close(circle.center, Point(8, 0))


def test_geometry_json_is_cached_and_not_a_field():
    m = create_module(ModuleType.VALVE, {"origin": (10, 20)})
    assert m.geometry_json is m.geometry_json
    assert m.geometry_json == geometry_bytes(m.geometry)
    cold = create_module(ModuleType.VALVE, {"origin": (10, 20)})
    assert m == cold and repr(m) == repr(cold)
    assert "geometry_json" not in repr(m)
    moved = move_module(m, 1.0, 0.0)
    assert moved.geometry_json == geometry_bytes(moved.geometry)
    assert moved.geometry_json != m.geometry_json
    replaced = dataclasses.replace(m, geometry=moved.geometry)
    assert replaced.geometry_json == moved.geometry_json


# --- extents and overflow ---------------------------------------------------------

@given(st.sampled_from(list(PROP_MAKERS)), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_module_bbox_is_the_fold_of_its_element_bboxes(mtype, seed):
    m = create_module(mtype, random_props(random.Random(seed), mtype))
    boxes = [element_bbox(e) for e in m.geometry]
    assert m.bbox == Rect(
        Point(min(b.min.x for b in boxes), min(b.min.y for b in boxes)),
        Point(max(b.max.x for b in boxes), max(b.max.y for b in boxes)))


@pytest.mark.parametrize("props", [
    {"elements": [{"kind": "circle", "center": [1.79e308, 0.0], "radius": 1e306}]},
    {"elements": [{"kind": "text", "anchor": [0.0, 0.0], "height_mm": 1e308,
                   "content": "abcd"}]},
    {"elements": [{"kind": "circle", "center": [1.0, 0.0], "radius": 1.0}],
     "scale": 1e308},
    {"elements": [{"kind": "circle", "center": [1.0, 0.0], "radius": 1.0}],
     "scale": 1e-320},
], ids=["circle-extent", "text-extent", "huge-scale", "subnormal-scale"])
def test_finite_module_whose_extent_overflows_is_a_generation_error(props):
    with pytest.raises(GenerationError, match="^user module: "):
        create_module(ModuleType.USER, props)


@pytest.mark.parametrize("record", [
    {"kind": "segment", "p1": ["0", 0.0], "p2": [1.0, 1.0]},
    {"kind": "segment", "p1": [0.0, False], "p2": [1.0, 1.0]},
    {"kind": "circle", "center": [0.0, 0.0], "radius": "2"},
    {"kind": "text", "anchor": [0.0, 0.0], "height_mm": False, "content": "a"},
], ids=["string-coordinate", "boolean-coordinate", "string-radius",
        "boolean-height"])
def test_user_element_record_takes_only_real_numbers(record):
    with pytest.raises(SchemaViolation, match="expected a real number") as info:
        create_module(ModuleType.USER, {"elements": [record]})
    assert info.value.key == "elements"


def test_move_that_overflows_the_origin_is_a_schema_violation():
    m = move_module(create_module(ModuleType.VALVE, {}), 1e308, 0.0)
    assert m.props["origin"] == Point(1e308, 0.0)
    with pytest.raises(SchemaViolation, match="point coordinates must be finite") as info:
        move_module(m, 1e308, 0.0)
    assert info.value.key == "origin"


@pytest.mark.parametrize("edit", [
    lambda m: rotate_module(m, 90.0, Point(-1e308, 0.0)),
    lambda m: rotate_module(m, 180.0, Point(-1e308, -1e308)),
    lambda m: mirror_module(m, Point(-1e308, 0.0), 90.0),
    lambda m: align_by_attach(m, 0, Axis(Point(-1e308, 0.0), 0.0)),
], ids=["rotate", "rotate-about", "mirror", "align"])
def test_rigid_edit_that_overflows_the_placement_is_a_generation_error(edit):
    m = move_module(create_module(ModuleType.VALVE, {}), 1e308, 0.0)
    with pytest.raises(GenerationError, match="^valve module: "):
        edit(m)


# --- placement is one Transform with the compose chain's arithmetic -------------

_O = Point(0.0, 0.0)


def _part_by_compose(props: dict) -> Transform:
    """The placement without user scale or symmetry, as a chain of
    Transform.compose calls, one Transform per part: the reference for every
    bit of the rigid edits' placement part."""
    t = Transform.rotation(props["angle_deg"])
    if props["mirrored"]:
        t = t.compose(Transform.mirror(_O, 90.0))
    return Transform.translation(props["origin"].x, props["origin"].y).compose(t)


def _placement_by_compose(mtype: ModuleType, props: dict) -> Transform:
    """The reference for every bit of placement_transform, likewise."""
    t = _part_by_compose(props)
    if mtype is ModuleType.USER:
        code = props["symmetry"]
        inner = Transform.identity()
        if code == "both":
            inner = Transform.rotation(180.0)
        elif code == "mirror_x":
            inner = Transform.mirror(_O, 0.0)
        elif code == "mirror_y":
            inner = Transform.mirror(_O, 90.0)
        if props["scale"] != 1.0:
            inner = inner.compose(Transform.scaling(props["scale"]))
        if not inner.is_identity():
            t = t.compose(inner)
    return t


def _bits(t: Transform) -> list[str]:
    # float.hex tells -0.0 from 0.0, which Transform equality does not
    return [float.hex(v) for v in (t.a, t.b, t.c, t.d, t.tx, t.ty)]


def _outcome(build):
    try:
        return _bits(build())
    except ValueError as exc:
        return repr(exc)


@given(st.sampled_from([ModuleType.USER, ModuleType.VALVE]),
       st.one_of(st.sampled_from([0.0, -0.0, 90.0, 180.0, 270.0, 360.0, -90.0,
                                  45.0, 101.5, 1e-300, -1e-300]),
                 st.floats(-720, 720)),
       st.booleans(),
       st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1e308]),
                 st.floats(allow_nan=False, allow_infinity=False)),
       st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e4, 1e4)),
       st.sampled_from(["none", "both", "mirror_x", "mirror_y"]),
       st.one_of(st.just(1.0), st.floats(1e-3, 1e3),
                 st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
@settings(max_examples=400, deadline=None)
def test_placement_has_the_bits_of_the_compose_chain(mtype, angle, mirrored, ox, oy,
                                                     symmetry, scale):
    from modraft import placement_transform
    from modraft.core import _placement_part
    props = {"angle_deg": angle, "mirrored": mirrored, "origin": Point(ox, oy),
             "symmetry": symmetry, "scale": scale}
    assert _outcome(lambda: placement_transform(mtype, props)) == _outcome(
        lambda: _placement_by_compose(mtype, props))
    assert _outcome(lambda: _placement_part(props)) == _outcome(
        lambda: _part_by_compose(props))


def _compose_as_written(outer: Transform, inner: Transform) -> Transform:
    """Transform.compose's six expressions, written out: the reference for
    every bit of the one compose arithmetic that it and placement share."""
    return Transform(
        outer.a * inner.a + outer.b * inner.c,
        outer.a * inner.b + outer.b * inner.d,
        outer.c * inner.a + outer.d * inner.c,
        outer.c * inner.b + outer.d * inner.d,
        outer.a * inner.tx + outer.b * inner.ty + outer.tx,
        outer.c * inner.tx + outer.d * inner.ty + outer.ty,
    )


_ANY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1.0, -1.0, 1e308, -1e308]),
                 st.floats(allow_nan=False, allow_infinity=False))
_ANY_POINT = st.builds(Point, _ANY, _ANY)


@st.composite
def _transforms(draw) -> Transform:
    """A rotation, mirror, translation or scaling with any finite arguments;
    arguments whose transform is not finite are drawn again."""
    make, *args = draw(st.one_of(
        st.tuples(st.just(Transform.rotation), _ANY, st.none() | _ANY_POINT),
        st.tuples(st.just(Transform.mirror), _ANY_POINT, _ANY),
        st.tuples(st.just(Transform.translation), _ANY, _ANY),
        st.tuples(st.just(Transform.scaling), _ANY)))
    try:
        return make(*args)
    except ValueError:
        reject()


@given(_transforms(), _transforms())
@settings(max_examples=300, deadline=None)
def test_compose_has_the_bits_of_its_written_out_expressions(outer, inner):
    assert _outcome(lambda: outer.compose(inner)) == _outcome(
        lambda: _compose_as_written(outer, inner))
