"""Drawing and prototype files: round trips, verification, error reporting."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from modraft import (Arc, CatalogError, Circle, Drawing, FileFormatError,
                     GenerationError, IntegrityMismatch, KernelError,
                     LineStyle, LineType, Module, ModuleType, Point, Polyline,
                     Rect, SchemaViolation, Segment, Text, ZoneGrid,
                     canonical_bytes, canonical_encode, compute_digest,
                     create_module, element_to_json, geometry_bytes,
                     load_catalog, load_drawing, load_drawing_file,
                     load_prototypes, move_module, save_drawing,
                     save_drawing_file, save_prototypes, sign_drawing,
                     validate_props)
from modraft import geometry, persistence
from modraft.properties import Axis, props_from_json, props_to_json
from modraft.speccing import CATALOG_FIELDS

from propgen import PROP_MAKERS, random_props

EXTENT = Rect.from_bounds(-500, -500, 1500, 1500)


def _random_drawing(seed: int, n_modules: int = 6) -> Drawing:
    rng = random.Random(seed)
    d = Drawing.new(EXTENT)
    for _ in range(n_modules):
        mtype = rng.choice(list(PROP_MAKERS))
        d.add_module(mtype, random_props(rng, mtype))
    d.add_element(Segment(Point(0, 0), Point(50, 50), LineStyle()))
    return d


def test_round_trip_is_byte_identical():
    for seed in range(10):
        d = _random_drawing(seed)
        data = save_drawing(d)
        d2 = load_drawing(data)
        assert save_drawing(d2) == data
        assert d2.next_id == d.next_id
        assert [m.id for m in d2.modules()] == [m.id for m in d.modules()]
        for a, b in zip(d.modules(), d2.modules()):
            assert geometry_bytes(a.geometry) == geometry_bytes(b.geometry)


def test_file_round_trip(tmp_path):
    d = _random_drawing(99)
    path = tmp_path / "demo.json"
    save_drawing_file(d, path)
    assert save_drawing(load_drawing_file(path)) == save_drawing(d)


def test_saved_form_is_canonical_json():
    data = save_drawing(_random_drawing(7))
    doc = json.loads(data)
    recoded = json.dumps(doc, ensure_ascii=False, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    assert recoded == data


def test_bad_json_reports_position():
    with pytest.raises(FileFormatError) as exc:
        load_drawing('{"format_version": 1,\n  "items": [}')
    assert "line 2" in str(exc.value)


def test_version_check():
    with pytest.raises(FileFormatError, match="format_version"):
        load_drawing('{"format_version": 99}')
    with pytest.raises(FileFormatError, match="format_version"):
        load_drawing('{"items": []}')


def test_non_object_rejected():
    with pytest.raises(FileFormatError):
        load_drawing("[1, 2, 3]")


def _valid_doc() -> dict:
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (10, 10)})
    return json.loads(save_drawing(d))


def _expect_format_error(doc, match: str):
    with pytest.raises(FileFormatError, match=match):
        load_drawing(json.dumps(doc))


def test_id_range_checks():
    doc = _valid_doc()
    doc["items"][0]["id"] = 0
    _expect_format_error(doc, "out of range")
    doc = _valid_doc()
    doc["items"][0]["id"] = doc["next_id"]
    _expect_format_error(doc, "out of range")
    doc = _valid_doc()
    doc["items"][0]["id"] = "1"
    _expect_format_error(doc, "out of range")


def test_duplicate_id_rejected():
    doc = _valid_doc()
    doc["next_id"] = 3
    doc["items"].append(dict(doc["items"][0]))
    _expect_format_error(doc, "duplicate")


def test_unknown_item_kind():
    doc = _valid_doc()
    doc["items"][0] = {"kind": "mystery"}
    _expect_format_error(doc, "unknown item kind")


@pytest.mark.parametrize("items, match", [
    pytest.param({}, "^items must be a list$", id="object"),
    pytest.param("items", "^items must be a list$", id="text"),
    pytest.param([5], "^item 0: items must be objects$", id="number-item"),
    pytest.param([[]], "^item 0: items must be objects$", id="list-item"),
])
def test_items_must_be_a_list_of_objects(items, match):
    doc = _valid_doc()
    doc["items"] = items
    _expect_format_error(doc, match)


def test_bad_module_record():
    doc = _valid_doc()
    del doc["items"][0]["props"]
    _expect_format_error(doc, "bad module record")
    doc = _valid_doc()
    doc["items"][0]["type"] = "no-such-type"
    _expect_format_error(doc, "bad module record")


def test_corrupted_geometry_is_detected():
    doc = _valid_doc()
    record = doc["items"][0]["geometry"][0]
    # nudge one stored coordinate: regeneration must disagree
    record["points"][0][0] += 0.5
    with pytest.raises(IntegrityMismatch):
        load_drawing(json.dumps(doc))


def test_tampered_properties_are_detected():
    doc = _valid_doc()
    doc["items"][0]["props"]["origin"]["value"] = [999.0, 999.0]
    with pytest.raises(IntegrityMismatch):
        load_drawing(json.dumps(doc))


def test_free_elements_survive():
    d = Drawing.new(EXTENT)
    d.add_element(Segment(Point(1, 2), Point(3, 4), LineStyle()))
    d2 = load_drawing(save_drawing(d))
    (seg,) = d2.free_elements()
    assert seg == d.free_elements()[0]


# --- prototypes ---------------------------------------------------------------

def test_prototype_file_contains_no_geometry():
    rng = random.Random(55)
    modules, names = [], []
    for i, mtype in enumerate(PROP_MAKERS):
        modules.append(create_module(mtype, random_props(rng, mtype)))
        names.append(f"proto-{i}")
    data = save_prototypes(modules, names)
    doc = json.loads(data)
    assert set(doc) == {"entries", "format_version"}
    text = data.decode("utf-8")
    assert '"geometry"' not in text
    assert len(doc["entries"]) == len(modules)


def test_prototype_round_trip_regenerates_identically():
    rng = random.Random(56)
    modules, names = [], []
    for i, mtype in enumerate(PROP_MAKERS):
        modules.append(create_module(mtype, random_props(rng, mtype)))
        names.append(f"p{i}")
    loaded, errors = load_prototypes(save_prototypes(modules, names))
    assert errors == []
    assert [name for name, _ in loaded] == names
    for original, (_, proto) in zip(modules, loaded):
        assert proto.type == original.type
        # placement is reset; regenerate the original at identity to compare
        reset = create_module(original.type, {
            **original.props, "layer": 0, "origin": Point(0, 0),
            "angle_deg": 0.0, "mirrored": False})
        assert geometry_bytes(proto.geometry) == geometry_bytes(reset.geometry)


def test_prototype_names_validated():
    m = create_module(ModuleType.VALVE, {})
    from modraft import KernelError
    with pytest.raises(KernelError):
        save_prototypes([m, m], ["dup", "dup"])
    with pytest.raises(KernelError):
        save_prototypes([m], [""])
    with pytest.raises(KernelError):
        save_prototypes([m, m], ["only-one"])


def test_prototype_bad_entry_reported_not_fatal():
    m = create_module(ModuleType.VALVE, {})
    doc = json.loads(save_prototypes([m], ["good"]))
    doc["entries"].insert(0, {"name": "broken", "type": "no-such", "props": {}})
    loaded, errors = load_prototypes(json.dumps(doc))
    assert [name for name, _ in loaded] == ["good"]
    assert len(errors) == 1 and errors[0][0] == "broken"


def test_prototype_entry_that_is_not_an_object_is_reported():
    m = create_module(ModuleType.VALVE, {})
    doc = json.loads(save_prototypes([m], ["good"]))
    doc["entries"][:0] = [5, ["valve"]]
    loaded, errors = load_prototypes(json.dumps(doc))
    assert [name for name, _ in loaded] == ["good"]
    assert errors == [("entry 0", "prototype entries must be objects"),
                      ("entry 1", "prototype entries must be objects")]


def test_prototype_file_structure_checked():
    with pytest.raises(FileFormatError):
        load_prototypes('{"format_version": 1}')
    with pytest.raises(FileFormatError):
        load_prototypes("[]")


def _valve_library(**entry) -> dict:
    doc = json.loads(save_prototypes([create_module(ModuleType.VALVE, {})], ["v"]))
    doc["entries"][0].update(entry)
    return doc


@pytest.mark.parametrize("name", [None, ["a", 1], "", 5])
def test_prototype_name_must_be_non_empty_text(name):
    loaded, errors = load_prototypes(json.dumps(_valve_library(name=name)))
    assert loaded == []
    assert errors == [("entry 0",
                       "bad prototype entry: name must be non-empty text")]


def test_prototype_entry_without_a_type_names_the_missing_key():
    doc = _valve_library()
    del doc["entries"][0]["type"]
    assert load_prototypes(json.dumps(doc)) == (
        [], [("v", "bad prototype entry: missing key 'type'")])


def test_prototype_entry_with_an_unknown_key_is_reported():
    doc = _valve_library(origin=[0, 0])
    assert load_prototypes(json.dumps(doc)) == (
        [], [("v", "bad prototype entry: unknown key 'origin'")])


def test_prototype_name_used_twice_is_an_entry_error():
    valve, frame = (create_module(ModuleType.VALVE, {}),
                    create_module(ModuleType.FRAME, {"format": "A4"}))
    doc = json.loads(save_prototypes([valve, frame], ["a", "b"]))
    doc["entries"][1]["name"] = "a"
    loaded, errors = load_prototypes(json.dumps(doc))
    assert [(name, m.type) for name, m in loaded] == [("a", ModuleType.VALVE)]
    assert errors == [("a", "bad prototype entry: name 'a' is already used "
                            "by entry 0")]


_IDENTITY = {"layer": 0, "origin": Point(0.0, 0.0), "angle_deg": 0.0,
             "mirrored": False}


def test_prototype_library_bytes_equal_the_reference_encoding():
    for seed in range(40):
        rng = random.Random(seed)
        modules = [create_module(t, random_props(rng, t)) for t in PROP_MAKERS]
        names = [f'{m.type.value} "{seed}"\\ ✓' for m in modules]
        entries = [{"name": name, "type": m.type.value, "props": props_to_json(
            m.type, validate_props(m.type, {**m.props, **_IDENTITY}))}
            for m, name in zip(modules, names)]
        assert save_prototypes(modules, names) == canonical_encode(
            {"entries": entries, "format_version": 1})


def _posdes_library() -> dict:
    """A library of a posdes entry named ``p`` and a valve named ``good``."""
    posdes = create_module(ModuleType.POSDES,
                           random_props(random.Random(1), ModuleType.POSDES))
    return json.loads(save_prototypes([posdes, create_module(ModuleType.VALVE, {})],
                                      ["p", "good"]))


def _set_position_text(text: str):
    return lambda entry: entry["props"]["position_text"].update(value=text)


_LONE = "text holds the lone surrogate '\\ud800', which UTF-8 cannot encode"


@pytest.mark.parametrize("form", ["bytes-escape", "str-escape", "str"])
@pytest.mark.parametrize("change, name", [
    (_set_position_text("\ud800"), "p"),
    (_set_position_text("a\ud800b"), "p"),
    (lambda entry: entry.update(name="p\ud800"), "entry 0"),
], ids=["props", "props-inside", "name"])
def test_a_lone_surrogate_in_a_prototype_entry_is_an_entry_error(change, name, form):
    doc = _posdes_library()
    change(doc["entries"][0])
    text = json.dumps(doc, ensure_ascii=form != "str")
    assert ("\\ud800" in text) == (form != "str")
    loaded, errors = load_prototypes(text.encode() if form == "bytes-escape" else text)
    assert [n for n, _ in loaded] == ["good"]
    assert errors == [(name, _LONE)]
    save_prototypes([m for _, m in loaded], ["good"])


def test_an_escaped_surrogate_pair_in_a_prototype_loads_as_its_character():
    doc = _posdes_library()
    _set_position_text("😀")(doc["entries"][0])
    data = json.dumps(doc).encode()
    assert b"\\ud83d\\ude00" in data
    loaded, errors = load_prototypes(data)
    assert errors == [] and loaded[0][1].props["position_text"] == "😀"


def test_prototype_library_with_an_unknown_key_is_a_format_error():
    doc = _valve_library()
    doc["names"] = ["v"]
    with pytest.raises(FileFormatError,
                       match=r"^bad prototype library: unknown key 'names'$"):
        load_prototypes(json.dumps(doc))


def test_drawing_container_operations():
    d = Drawing.new(EXTENT)
    m1 = d.add_module(ModuleType.VALVE, {})
    m2 = d.add_module(ModuleType.INSTRUMENT, {"function_code": "PI"})
    assert (m1.id, m2.id) == (1, 2) and d.next_id == 3
    assert d.module(2) is m2
    changed = d.set_module_properties(1, {"origin": (5, 5)})
    assert d.module(1) is changed
    d.remove_module(1)
    from modraft import KernelError
    with pytest.raises(KernelError):
        d.module(1)
    assert [m.id for m in d.modules()] == [2]


def test_grid_override_is_persisted():
    grid = ZoneGrid(Point(0, 0), 100.0, 100.0, 4, 4)
    d = Drawing.new(EXTENT, grid)
    d.add_module(ModuleType.VALVE, {"origin": (150, 150)})
    d2 = load_drawing(save_drawing(d))
    assert d2.zone_grid == grid


@pytest.mark.parametrize("field, value", [
    ("nx", 2.5), ("ny", True), ("cell_w", "10"), ("cell_w", True),
])
def test_bad_zone_grid_field_types_rejected(field, value):
    doc = json.loads(save_drawing(_random_drawing(4)))
    doc["zone_grid"][field] = value
    with pytest.raises(FileFormatError, match="zone grid"):
        load_drawing(json.dumps(doc))


def test_non_utf8_input_is_a_format_error():
    with pytest.raises(FileFormatError, match="UTF-8"):
        load_drawing(b"\xff")
    with pytest.raises(FileFormatError, match="UTF-8"):
        load_prototypes(b"\xff")


# --- hostile input and located errors -----------------------------------------

DEEPLY_NESTED = b"[" * 100000 + b"]" * 100000


def test_deeply_nested_json_is_a_format_error():
    with pytest.raises(FileFormatError, match="nested too deeply"):
        load_drawing(DEEPLY_NESTED)
    with pytest.raises(FileFormatError, match="nested too deeply"):
        load_prototypes(DEEPLY_NESTED)


def test_deeply_nested_record_property_is_a_format_error():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                     "position_text": "1"})
    doc = json.loads(save_drawing(d))
    nested = json.loads("[" * 500 + "]" * 500)
    doc["items"][0]["props"]["spec_props"]["value"] = {"a": nested}
    with pytest.raises(FileFormatError, match=r"item 0 \(module 1\): nested"):
        load_drawing(json.dumps(doc))
    m = d.modules()[0]
    doc = json.loads(save_prototypes([m], ["p"]))
    doc["entries"][0]["props"]["spec_props"]["value"] = {"a": nested}
    assert load_prototypes(json.dumps(doc)) == ([], [("p", "nested too deeply")])


OVERFLOWING_USER = {
    "elements": [{"kind": "segment", "p1": [1e308, 0.0], "p2": [0.0, 0.0],
                  "style": {"color": 0, "line_type": "solid"}}],
    "scale": 1e10,
}


def test_overflowing_user_module_is_a_generation_error():
    with pytest.raises(GenerationError, match="finite"):
        create_module(ModuleType.USER, OVERFLOWING_USER)
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.USER, {**OVERFLOWING_USER, "scale": 1.0})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["scale"]["value"] = 1e10
    with pytest.raises(GenerationError, match=r"item 0 \(module 1\)"):
        load_drawing(json.dumps(doc))


def test_kind_tag_must_match_schema():
    doc = _valid_doc()
    doc["items"][0]["props"]["origin"]["kind"] = "text"
    _expect_format_error(doc, "property 'origin': kind 'text' does not match "
                              "the schema kind 'point'")
    m = create_module(ModuleType.VALVE, {})
    doc = json.loads(save_prototypes([m], ["v"]))
    doc["entries"][0]["props"]["mass"]["kind"] = "integer"
    loaded, errors = load_prototypes(json.dumps(doc))
    assert loaded == []
    assert errors == [("v", "property 'mass': kind 'integer' does not match "
                            "the schema kind 'real'")]


_TAG_EXTRA = "property 'layer': unknown key 'zz' in its tag"
_AXIS_EXTRA = "property 'attach': bad axis: unknown key 'zz'"


def _with_extra_keys(props: dict, where: str) -> None:
    """Add the key ``zz`` to the layer's tag or to the first attach axis."""
    if where == "tag":
        props["layer"]["zz"] = 1
    else:
        props["attach"]["value"][0]["zz"] = 2


@pytest.mark.parametrize("where, error, message",
                         [("tag", FileFormatError, _TAG_EXTRA),
                          ("axis", SchemaViolation, _AXIS_EXTRA)],
                         ids=["tag", "axis"])
def test_tags_and_axes_hold_exactly_their_keys(where, error, message):
    doc = _valid_doc()
    _with_extra_keys(doc["items"][0]["props"], where)
    with pytest.raises(error) as info:
        load_drawing(json.dumps(doc))
    assert str(info.value) == f"item 0 (module 1): {message}"
    doc = json.loads(save_prototypes([create_module(ModuleType.VALVE, {})], ["v"]))
    _with_extra_keys(doc["entries"][0]["props"], where)
    assert load_prototypes(json.dumps(doc)) == ([], [("v", message)])


def test_an_axis_built_in_memory_holds_exactly_its_keys():
    axis = {"origin": (-4.0, 0.0), "angle_deg": 0.0, "zz": 2}
    with pytest.raises(SchemaViolation, match=rf"^{_AXIS_EXTRA}$"):
        create_module(ModuleType.VALVE, {"attach": [axis]})
    del axis["zz"]
    assert create_module(ModuleType.VALVE, {"attach": [axis]}).props["attach"] == (
        Axis(Point(-4.0, 0.0), 0.0),)


def _two_frames_doc() -> dict:
    d = Drawing.new(EXTENT)
    d.add_element(Segment(Point(0, 0), Point(1, 1), LineStyle()))
    d.add_module(ModuleType.FRAME, {"format": "A4"})
    d.add_module(ModuleType.FRAME, {"format": "A3"})
    return json.loads(save_drawing(d))


def test_schema_violation_names_item_and_module():
    doc = _two_frames_doc()
    doc["items"][2]["props"]["format"]["value"] = "A9"
    with pytest.raises(SchemaViolation) as info:
        load_drawing(json.dumps(doc))
    assert str(info.value).startswith(
        "item 2 (module 2): property 'format': value 'A9' not one of")
    assert info.value.key == "format"


def test_stored_user_polyline_with_a_non_boolean_closed_does_not_load():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.USER, {"elements": [
        {"kind": "polyline", "points": [[0, 0], [4, 0], [0, 3]], "closed": True}]})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["elements"]["value"][0]["closed"] = "no"
    with pytest.raises(SchemaViolation) as info:
        load_drawing(json.dumps(doc))
    assert str(info.value) == (
        "item 0 (module 1): property 'elements': elements[0]: bad polyline "
        "element: closed: expected true or false, got str")


def test_format_error_names_item_and_module():
    doc = _two_frames_doc()
    doc["items"][1]["id"] = 9
    _expect_format_error(doc, r"^item 1 \(module 9\): module id 9 out of range$")
    doc = _two_frames_doc()
    doc["items"][0]["element"] = {"kind": "blob"}
    _expect_format_error(doc, r"^item 0: bad free element")


def test_integrity_mismatch_names_first_differing_element():
    doc = _two_frames_doc()
    geometry = doc["items"][2]["geometry"]
    geometry[3]["p1"][0] += 0.5
    geometry[4]["p1"][0] += 0.5
    with pytest.raises(IntegrityMismatch) as info:
        load_drawing(json.dumps(doc))
    message = str(info.value)
    assert message.startswith("item 2 (module 2): geometry does not match "
                              "its properties: element 3 is stored as ")
    stored = json.dumps(geometry[3], sort_keys=True, separators=(",", ":"))
    assert stored in message
    doc = _two_frames_doc()
    del doc["items"][2]["geometry"][4:]
    with pytest.raises(IntegrityMismatch, match="element 4 is stored as "
                                                "nothing but regenerates as"):
        load_drawing(json.dumps(doc))


def test_integrity_mismatch_truncates_long_records():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                     "position_text": "x" * 500})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["geometry"][2]["content"] = "y" * 500
    with pytest.raises(IntegrityMismatch) as info:
        load_drawing(json.dumps(doc))
    message = str(info.value)
    assert "element 2 is stored as" in message
    assert "yyy..." in message and "xxx..." in message
    assert len(message) < 400


# --- stored records are compared as canonical JSON ----------------------------

reals = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False,
                  allow_infinity=False)
radii = st.floats(min_value=0.01, max_value=1e3)
points = st.builds(Point, reals, reals)
styles = st.builds(LineStyle, st.sampled_from(list(LineType)),
                   st.integers(0, 255))
free_elements = st.one_of(
    st.builds(Segment, points, points, styles),
    st.builds(Polyline, st.lists(points, min_size=2, max_size=5),
              st.booleans(), styles),
    st.builds(Arc, points, radii, st.integers(0, 359).map(float),
              st.integers(0, 359).map(lambda a: a + 0.5), styles),
    st.builds(Circle, points, radii, styles),
    st.builds(Text, points, radii, reals, st.text(max_size=8), styles),
)


@given(st.integers(0, 2**32 - 1), st.integers(0, 6),
       st.lists(free_elements, max_size=4))
@settings(max_examples=40, deadline=None)
def test_load_save_is_identity_on_saved_drawings(seed, n_modules, free):
    d = _random_drawing(seed, n_modules)
    rng = random.Random(seed)
    for element in free:
        d.items.insert(rng.randint(0, len(d.items)), element)
    data = save_drawing(d)
    assert save_drawing(load_drawing(data)) == data


def _stored_reals(node):
    """(container, key) of every real (not integer or boolean) in a record."""
    keys = (range(len(node)) if isinstance(node, list)
            else list(node) if isinstance(node, dict) else [])
    for key in keys:
        if isinstance(node[key], float):
            yield node, key
        else:
            yield from _stored_reals(node[key])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from(["integer", "nudge"]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_changed_stored_real_is_an_integrity_mismatch(seed, n_modules, how,
                                                      rng):
    doc = json.loads(save_drawing(_random_drawing(seed, n_modules)))
    spots = [(index, element, container, key)
             for index, item in enumerate(doc["items"])
             for element, record in enumerate(item.get("geometry", []))
             for container, key in _stored_reals(record)
             if how == "nudge" or container[key].is_integer()]
    assume(spots)
    index, element, container, key = rng.choice(spots)
    value = container[key]
    container[key] = (int(value) if how == "integer"
                      else math.nextafter(value, math.inf))
    with pytest.raises(IntegrityMismatch) as info:
        load_drawing(json.dumps(doc))
    module_id = doc["items"][index]["id"]
    assert str(info.value).startswith(
        f"item {index} (module {module_id}): geometry does not match its "
        f"properties: element {element} is stored as ")


def test_stored_record_without_style_is_rejected():
    doc = _valid_doc()
    record = doc["items"][0]["geometry"][0]
    assert record["style"] == {"color": 0, "line_type": "solid"}
    del record["style"]
    with pytest.raises(IntegrityMismatch, match=r"^item 0 \(module 1\): "
                       r"geometry does not match its properties: element 0 "):
        load_drawing(json.dumps(doc))


def test_non_finite_stored_real_is_a_format_error():
    doc = _valid_doc()
    doc["items"][0]["geometry"][0]["points"][0][0] = math.nan
    _expect_format_error(doc, r"^item 0 \(module 1\): bad module record: ")
    doc["items"][0]["geometry"][0]["points"][0][0] = math.inf
    _expect_format_error(doc, r"^item 0 \(module 1\): bad module record: ")


@pytest.mark.parametrize("geometry", [{}, 5, "segment", None, True])
def test_non_list_geometry_is_a_format_error(geometry):
    doc = _valid_doc()
    doc["items"][0]["geometry"] = geometry
    _expect_format_error(doc, r"^item 0 \(module 1\): bad module record: "
                              r"geometry must be a list$")


def _free_element_doc() -> dict:
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (10, 10)})
    for element in (Segment(Point(0, 0), Point(1, 1)),
                    Polyline((Point(0, 0), Point(1, 1), Point(2, 0))),
                    Text(Point(5, 5), 2.5, 0.0, "A")):
        d.add_element(element)
    return json.loads(save_drawing(d))


def _drop(key):
    return lambda record: record.pop(key)


def _integer_x(record):
    point = (record["points"][0] if "points" in record
             else record.get("p1") or record["anchor"])
    point[0] = int(point[0])


_NOT_CANONICAL = r"free element is not canonical: stored as .* but saves as "


@pytest.mark.parametrize("item, change, reason", [
    pytest.param(1, _drop("style"), _NOT_CANONICAL, id="segment-without-style"),
    pytest.param(2, _drop("closed"), _NOT_CANONICAL, id="polyline-without-closed"),
    pytest.param(3, _drop("angle_deg"), _NOT_CANONICAL, id="text-without-angle"),
    pytest.param(1, _integer_x, _NOT_CANONICAL, id="segment-integer-x"),
    pytest.param(2, _integer_x, _NOT_CANONICAL, id="polyline-integer-x"),
    pytest.param(3, _integer_x, _NOT_CANONICAL, id="text-integer-x"),
    pytest.param(3, lambda record: record.update(height_mm=2), _NOT_CANONICAL,
                 id="text-integer-height"),
    pytest.param(2, lambda record: record.update(closed=0),
                 r"bad free element: bad polyline element: closed: "
                 r"expected true or false, got int$",
                 id="polyline-integer-closed"),
    pytest.param(3, lambda record: record.update(extra=1), _NOT_CANONICAL,
                 id="extra-key"),
])
def test_non_canonical_free_element_is_a_format_error(item, change, reason):
    doc = _free_element_doc()
    load_drawing(json.dumps(doc))
    change(doc["items"][item]["element"])
    _expect_format_error(doc, rf"^item {item}: " + reason)


def test_non_finite_free_element_is_a_format_error():
    doc = _free_element_doc()
    doc["items"][1]["element"]["p1"] = [math.nan, 0.0]
    _expect_format_error(doc, r"^item 1: bad free element: ")


# --- the document frame is checked --------------------------------------------

def test_boolean_module_id_is_a_format_error():
    doc = _free_element_doc()
    doc["items"][0]["id"] = True
    _expect_format_error(doc, r"^item 0 \(module True\): module id True "
                              r"out of range$")


@pytest.mark.parametrize("version", [True, 1.0])
def test_non_integer_format_version_is_a_format_error(version):
    doc = _free_element_doc()
    doc["format_version"] = version
    _expect_format_error(doc, rf"^unsupported format_version {version!r}$")
    m = create_module(ModuleType.VALVE, {})
    doc = json.loads(save_prototypes([m], ["v"]))
    doc["format_version"] = version
    with pytest.raises(FileFormatError, match="format_version"):
        load_prototypes(json.dumps(doc))


@pytest.mark.parametrize("next_id", [True, 2.0])
def test_non_integer_next_id_is_a_format_error(next_id):
    doc = _free_element_doc()
    doc["next_id"] = next_id
    _expect_format_error(doc, "^next_id must be a positive integer$")


def test_unknown_key_on_module_item_is_a_format_error():
    doc = _free_element_doc()
    doc["items"][0]["comment"] = "x"
    _expect_format_error(doc, r"^item 0 \(module 1\): bad module record: "
                              r"unknown key 'comment'$")


def test_unknown_key_on_free_element_item_is_a_format_error():
    doc = _free_element_doc()
    doc["items"][1]["layer"] = 0
    _expect_format_error(doc, r"^item 1: bad free element: "
                              r"unknown key 'layer'$")


def test_unknown_top_level_key_is_a_format_error():
    doc = _free_element_doc()
    doc["comment"] = "x"
    _expect_format_error(doc, r"^bad drawing structure: unknown key 'comment'$")
    doc = _free_element_doc()
    del doc["next_id"]
    _expect_format_error(doc, r"^bad drawing structure: missing key 'next_id'$")


def test_integer_extent_coordinate_is_a_format_error():
    doc = _free_element_doc()
    doc["extent"]["min"] = [-500, -500.0]
    _expect_format_error(doc, r'^extent is not canonical: stored as '
                              r'\{"max":\[1500.0,1500.0\],"min":\[-500,-500.0\]\}'
                              r' but saves as ')


def test_integer_zone_grid_origin_is_a_format_error():
    doc = _free_element_doc()
    doc["zone_grid"]["origin"] = [-500, -500.0]
    _expect_format_error(doc, r'^zone_grid is not canonical: stored as .*'
                              r'"origin":\[-500,-500.0\]')


@pytest.mark.parametrize("change, reason", [
    ({"cell_w": 0.0}, "zone cells must have positive size"),
    ({"cell_h": -125.0}, "zone cells must have positive size"),
    ({"nx": 0}, "zone grid needs at least one cell per axis"),
    ({"ny": -1}, "zone grid needs at least one cell per axis"),
])
def test_an_empty_zone_grid_is_a_format_error(change, reason):
    doc = _free_element_doc()
    doc["zone_grid"].update(change)
    _expect_format_error(doc, rf"^bad drawing structure: {reason}$")


@pytest.mark.parametrize("part, change", [
    pytest.param("extent", lambda doc: doc["extent"].update(unit="mm"),
                 id="extent-extra-key"),
    pytest.param("zone_grid", lambda doc: doc["zone_grid"].update(cell_w=125),
                 id="zone-grid-integer-cell"),
    pytest.param("zone_grid", lambda doc: doc["zone_grid"].update(label=""),
                 id="zone-grid-extra-key"),
])
def test_non_canonical_frame_part_is_a_format_error(part, change):
    doc = _free_element_doc()
    change(doc)
    _expect_format_error(doc, rf"^{part} is not canonical: ")


def test_huge_integer_extent_coordinate_is_a_format_error():
    text = json.dumps(_free_element_doc()).replace('"min": [-500.0', '"min": [' + "9" * 400)
    with pytest.raises(FileFormatError, match="^bad drawing structure: "):
        load_drawing(text)


def test_frame_checks_accept_whitespace_and_key_order():
    doc = _free_element_doc()
    text = json.dumps(dict(reversed(doc.items())), indent=2)
    assert save_drawing(load_drawing(text)) == canonical_encode(doc)


# --- the document is assembled from cached per-module fragments ----------------

def _reference_bytes(d: Drawing, exclude_signatures: bool) -> bytes:
    """The whole document built as one JSON value and encoded in one call,
    independently of how canonical_bytes assembles it."""
    items = []
    for item in d.items:
        if not isinstance(item, Module):
            items.append({"element": element_to_json(item), "kind": "element"})
        elif not (exclude_signatures and item.type is ModuleType.SIGNATURE):
            items.append({
                "geometry": [element_to_json(e) for e in item.geometry],
                "id": item.id, "kind": "module",
                "props": props_to_json(item.type, item.props),
                "type": item.type.value})
    g = d.zone_grid
    doc = {"extent": {"max": [d.extent.max.x, d.extent.max.y],
                      "min": [d.extent.min.x, d.extent.min.y]},
           "format_version": 1, "items": items,
           "zone_grid": {"cell_h": g.cell_h, "cell_w": g.cell_w, "nx": g.nx,
                         "ny": g.ny, "origin": [g.origin.x, g.origin.y]}}
    if not exclude_signatures:
        doc["next_id"] = d.next_id
    return canonical_encode(doc)


@given(st.integers(0, 2**32 - 1), st.integers(0, 6),
       st.lists(free_elements, max_size=4), st.integers(0, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_spliced_bytes_equal_the_reference_encoding(seed, n_modules, free,
                                                   n_signatures, loaded):
    d = _random_drawing(seed, n_modules)
    rng = random.Random(seed)
    for element in free:
        d.items.insert(rng.randint(0, len(d.items)), element)
    for k in range(n_signatures):
        sign_drawing(d, f"Подписант \"{k}\"", "ГИП\\", "2024-05-01", "14:05",
                     f"pw {k}")
    if loaded:  # module fragments cached by load's comparison
        d = load_drawing(save_drawing(d))
    for exclude_signatures in (False, True):
        data = canonical_bytes(d, exclude_signatures)
        assert data == _reference_bytes(d, exclude_signatures)
        assert canonical_encode(json.loads(data)) == data


@given(st.integers(0, 2**32 - 1), st.integers(0, 6),
       st.lists(free_elements, max_size=4), st.integers(0, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_the_streamed_digest_hashes_the_canonical_bytes(seed, n_modules, free,
                                                       n_signatures, loaded):
    d = _random_drawing(seed, n_modules)
    rng = random.Random(seed)
    for element in free:
        d.items.insert(rng.randint(0, len(d.items)), element)
    for k in range(n_signatures):
        sign_drawing(d, f"Подписант {k}", "ГИП", "2024-05-01", "14:05", f"pw {k}")
    if loaded:
        d = load_drawing(save_drawing(d))
    data = canonical_bytes(d, exclude_signatures=True)
    assert compute_digest(d) == hashlib.sha256(data).hexdigest()


@pytest.fixture()
def encoded(monkeypatch) -> list:
    """Every element passed to geometry._element_text, the writer of element
    bytes, at every binding."""
    calls = []
    original = geometry._element_text

    def counting(element):
        calls.append(element)
        return original(element)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("modraft")
                and getattr(module, "_element_text", None) is original):
            monkeypatch.setattr(module, "_element_text", counting)
    return calls


def _modules_only(seed: int, n_modules: int = 6) -> Drawing:
    d = _random_drawing(seed, n_modules)
    del d.items[-1]  # the free segment, which every save encodes
    return d


def test_save_and_digest_after_load_encode_no_element(encoded):
    d = load_drawing(save_drawing(_modules_only(5)))
    assert encoded
    encoded.clear()
    save_drawing(d)
    compute_digest(d)
    assert encoded == []


@pytest.mark.parametrize("edit", [
    lambda d: d.replace_module(move_module(d.module(2), 5.0, -3.0)),
    lambda d: d.set_module_properties(2, {"layer": 3}),
], ids=["move_module", "set_module_properties"])
def test_save_after_an_edit_encodes_only_the_edited_module(encoded, edit):
    fresh = _modules_only(8)
    d = load_drawing(save_drawing(fresh))
    edited = edit(d)
    edit(fresh)
    encoded.clear()
    data = save_drawing(d)
    assert encoded == list(edited.geometry)
    assert data == save_drawing(fresh) == _reference_bytes(fresh, False)


# A property value replaced with random JSON: what a hand-edited or hostile
# file can hold. Keys mix record fields the generators read with free text.
HUGE = 10 ** 400
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(-10 ** 30, 10 ** 30) | st.sampled_from([HUGE, -HUGE])
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["origin", "angle_deg", "width_mm", "header", "cells",
                         "x", "y", "h", "height", "kind", "p1", "p2", "style"])
        | st.text(max_size=4), children, max_size=4),
    max_leaves=12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["value", "kind"]),
       json_values, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_mutated_property_loads_or_raises_a_kernel_error(seed, part, value,
                                                         rng):
    doc = json.loads(save_drawing(_random_drawing(seed, 3)))
    item = rng.choice([i for i in doc["items"] if i["kind"] == "module"])
    key = rng.choice(sorted(item["props"]))
    item["props"][key][part] = value
    try:
        load_drawing(json.dumps(doc))
    except KernelError:
        pass
    # load_prototypes reports a bad entry instead of raising, so the decode
    # and construction it runs are also called directly.
    entry = {"name": "p", "props": item["props"], "type": item["type"]}
    loaded, errors = load_prototypes(json.dumps(
        {"entries": [entry], "format_version": 1}))
    assert len(loaded) + len(errors) == 1
    mtype = ModuleType(item["type"])
    try:
        create_module(mtype, props_from_json(mtype, item["props"]))
    except KernelError:
        pass


def _posdes_table_doc() -> dict:
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                     "position_text": "1"})
    d.add_module(ModuleType.TABLE, {
        "columns": [{"width_mm": 20.0, "header": "Поз."}],
        "row_height_mm": 8.0, "header_height_mm": 15.0})
    return json.loads(save_drawing(d))


@pytest.mark.parametrize("index,key,value", [
    (0, "leader_from", [None, 0.0]),
    (0, "leader_from", [HUGE, 0.0]),
    (0, "origin", [HUGE, 0.0]),
    (1, "row_height_mm", HUGE),
], ids=["null-point", "huge-point", "huge-origin", "huge-real"])
def test_malformed_property_value_is_a_schema_violation(index, key, value):
    doc = _posdes_table_doc()
    doc["items"][index]["props"][key]["value"] = value
    with pytest.raises(SchemaViolation) as info:
        load_drawing(json.dumps(doc))
    assert str(info.value).startswith(
        f"item {index} (module {index + 1}): property {key!r}: ")
    assert info.value.key == key


def test_huge_number_in_a_record_is_a_schema_violation():
    doc = _posdes_table_doc()
    doc["items"][1]["props"]["columns"]["value"][0]["width_mm"] = HUGE
    with pytest.raises(SchemaViolation, match=(
            r"^item 1 \(module 2\): property 'columns': columns\[0\]: "
            r"width_mm: value is too large$")):
        load_drawing(json.dumps(doc))


def _plan(rod: dict, height: object) -> dict:
    return {"rods": [rod], "section_heights": [{"height": height}],
            "zone_class": "B", "scale_mm_per_m": 2.0}


def _table(column: dict) -> dict:
    return {"columns": [column], "row_height_mm": 8.0, "header_height_mm": 15.0}


@pytest.mark.parametrize("mtype,props,key", [
    (ModuleType.LIGHTNING, _plan({"x": "5", "y": 0.0, "h": 20.0}, 2.0), "rods"),
    (ModuleType.LIGHTNING, _plan({"x": 5.0, "y": True, "h": 20.0}, 2.0), "rods"),
    (ModuleType.LIGHTNING, _plan({"x": 5.0, "y": 0.0, "h": "20"}, 2.0), "rods"),
    (ModuleType.LIGHTNING, _plan({"x": 5.0, "y": 0.0, "h": 20.0}, "2"),
     "section_heights"),
    (ModuleType.TABLE, _table({"width_mm": "20"}), "columns"),
    (ModuleType.TABLE, _table({"width_mm": True}), "columns"),
], ids=["rod-x-string", "rod-y-bool", "rod-h-string", "height-string",
        "width-string", "width-bool"])
def test_string_or_boolean_number_in_a_record_is_a_schema_violation(
        mtype, props, key):
    with pytest.raises(SchemaViolation, match="expected a real number") as info:
        create_module(mtype, props)
    assert info.value.key == key


@pytest.mark.parametrize("mtype,props,key,reason", [
    (ModuleType.LIGHTNING,
     {**_plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0),
      "rods": [{"x": 0.0, "y": 0.0, "h": 20.0}, {"x": 5.0, "y": 0.0, "h": "9"}]},
     "rods", "rods[1]: h: expected a real number, got str"),
    (ModuleType.LIGHTNING,
     {**_plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0),
      "rods": [{"x": 0.0, "y": 0.0, "h": 20.0}, {"x": 5.0, "y": 0.0}]},
     "rods", "rods[1]: missing 'h'"),
    (ModuleType.LIGHTNING,
     {**_plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0),
      "section_heights": [{"height": 1.0}, {"height": 2.0}, {"height": True}]},
     "section_heights", "section_heights[2]: height: expected a real number, "
                        "got bool"),
    (ModuleType.TABLE,
     {**_table({"width_mm": 20.0}), "columns": [{"width_mm": 20.0},
                                                 {"width_mm": 0.0}]},
     "columns", "columns[1]: width_mm: must be positive"),
    (ModuleType.TABLE, _table({"width_mm": 20.0, "header": 7}),
     "columns", "columns[0]: header: expected text, got int"),
    (ModuleType.TABLE,
     {**_table({"width_mm": 20.0}), "rows": [{"cells": ["a"]}, {"cells": [1]}]},
     "rows", "rows[1]: cells: expected one text per column"),
    (ModuleType.TABLE,
     {**_table({"width_mm": 20.0}), "rows": [{"cells": ["a", "b"]}]},
     "rows", "rows[0]: cells: expected one text per column"),
], ids=["rod-h-string", "rod-h-missing", "height-bool", "width-zero",
        "header-int", "cell-int", "cell-count"])
def test_bad_record_keeps_the_key_and_names_its_index(mtype, props, key, reason):
    with pytest.raises(SchemaViolation) as info:
        create_module(mtype, props)
    assert (info.value.key, info.value.reason) == (key, reason)


def test_bad_record_in_a_stored_module_names_item_property_and_record():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.LIGHTNING, _plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0))
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["rods"]["value"].append(
        {"x": 1.0, "y": 0.0, "h": "20"})
    with pytest.raises(SchemaViolation, match=(
            r"^item 0 \(module 1\): property 'rods': "
            r"rods\[1\]: h: expected a real number, got str$")):
        load_drawing(json.dumps(doc))


def _many_sections(n_rods: int, n_heights: int) -> dict:
    return {"rods": [{"x": float(i), "y": 0.0, "h": 20.0} for i in range(n_rods)],
            "section_heights": [{"height": 0.001 * k} for k in range(n_heights)],
            "zone_class": "B", "scale_mm_per_m": 1.0}


def test_lightning_sections_are_bounded():
    at_limit = create_module(ModuleType.LIGHTNING, _many_sections(64, 64))
    assert len(at_limit.geometry) == 2 * 64 + 2 * 64 * 64
    with pytest.raises(SchemaViolation) as info:
        create_module(ModuleType.LIGHTNING, _many_sections(65, 64))
    assert info.value.key == "section_heights"
    assert "4096 zone sections" in info.value.reason


def test_stored_lightning_module_past_the_section_bound_is_refused():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.LIGHTNING, _many_sections(1, 2))
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["rods"]["value"] = _many_sections(4097, 1)["rods"]
    with pytest.raises(SchemaViolation, match=(
            r"^item 0 \(module 1\): property 'section_heights': .*4096 zone")):
        load_drawing(json.dumps(doc))


def test_rod_past_the_method_range_is_a_located_schema_violation():
    props = _plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0)
    props["rods"].append({"x": 1.0, "y": 0.0, "h": 151.0})
    with pytest.raises(SchemaViolation) as info:
        create_module(ModuleType.LIGHTNING, props)
    assert str(info.value) == (
        "property 'rods': rods[1]: rod height 151.0 m exceeds 150.0 m")


def _heights(*heights: float) -> list:
    return [{"height": h} for h in heights]


_BAD_SECTION_HEIGHTS = pytest.mark.parametrize("heights,reason", [
    ((5.0, 2.0), "section heights must be distinct and ascending"),
    ((2.0, 2.0), "section heights must be distinct and ascending"),
    ((-1.0,), "section heights must be non-negative"),
], ids=["descending", "repeated", "negative"])


@_BAD_SECTION_HEIGHTS
def test_bad_section_heights_are_a_schema_violation(heights, reason):
    props = {**_plan({"x": 0.0, "y": 0.0, "h": 20.0}, 0.0),
             "section_heights": _heights(*heights)}
    with pytest.raises(SchemaViolation) as info:
        create_module(ModuleType.LIGHTNING, props)
    assert (info.value.key, info.value.reason) == ("section_heights", reason)


@_BAD_SECTION_HEIGHTS
def test_stored_bad_section_heights_do_not_load(heights, reason):
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.LIGHTNING, _plan({"x": 0.0, "y": 0.0, "h": 20.0}, 2.0))
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["section_heights"]["value"] = _heights(*heights)
    with pytest.raises(SchemaViolation) as info:
        load_drawing(json.dumps(doc))
    assert info.value.key == "section_heights"
    assert str(info.value) == (
        f"item 0 (module 1): property 'section_heights': {reason}")


def test_remove_free_element_removes_by_position():
    first = Segment(Point(0.0, 0.0), Point(1.0, 1.0))
    same = Segment(Point(0.0, 0.0), Point(1.0, 1.0))
    d = Drawing.new(EXTENT)
    d.add_element(first)
    d.add_module(ModuleType.VALVE, {})
    d.add_element(same)
    assert first == same
    before = [item for item in d.items]
    d.remove_free_element(1)
    assert len(d.items) == 2
    assert d.items[0] is before[0] and d.items[1] is before[1]
    d.remove_free_element(-1)
    assert d.items == [before[1]]


@pytest.mark.parametrize("index", [1, -2, 5])
def test_remove_free_element_out_of_range_is_a_kernel_error(index):
    d = Drawing.new(EXTENT)
    d.add_element(Segment(Point(0.0, 0.0), Point(1.0, 1.0)))
    with pytest.raises(KernelError, match=f"no free element at index {index}"):
        d.remove_free_element(index)
    assert len(d.items) == 1


@pytest.mark.parametrize("index", [True, False, 0.0, 1.0, "0", None],
                         ids=["true", "false", "zero-real", "one-real", "text", "none"])
def test_remove_free_element_takes_only_an_int_index(index):
    d = Drawing.new(EXTENT)
    d.add_element(Segment(Point(0.0, 0.0), Point(1.0, 1.0)))
    d.add_element(Segment(Point(2.0, 2.0), Point(3.0, 3.0)))
    before = list(d.items)
    with pytest.raises(KernelError) as info:
        d.remove_free_element(index)
    assert str(info.value) == f"no free element at index {index}"
    assert d.items == before


@pytest.mark.parametrize("module_id", [True, 1.0, "1", None],
                         ids=["true", "real", "text", "none"])
def test_a_module_id_that_is_not_an_int_finds_no_module(module_id):
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {})
    message = f"^no module with id {module_id}$"
    for find in (d.module, d.remove_module,
                 lambda i: d.set_module_properties(i, {"layer": 2})):
        with pytest.raises(KernelError, match=message):
            find(module_id)
    assert [m.id for m in d.modules()] == [1] and d.module(1).props["layer"] == 0


def test_unknown_property_is_a_schema_violation_whatever_its_tag():
    doc = _valid_doc()
    doc["items"][0]["props"]["colour"] = {"kind": "no-such-kind", "value": 1}
    with pytest.raises(SchemaViolation, match="property 'colour': unknown"):
        load_drawing(json.dumps(doc))


@pytest.mark.parametrize("mtype,props,key,value,got", [
    (ModuleType.VALVE, {}, "origin", ["0", False], "str"),
    (ModuleType.VALVE, {}, "origin", [0.0, False], "bool"),
    (ModuleType.PIPELINE, {"path": [(0, 0), (30, 0)], "diameter_mm": 4.0},
     "path", [[0.0, 0.0], [30.0, True]], "bool"),
    (ModuleType.VALVE, {}, "attach",
     [{"angle_deg": 0.0, "origin": ["-4", 0.0]}], "str"),
    (ModuleType.VALVE, {}, "attach",
     [{"angle_deg": "90", "origin": [-4.0, 0.0]}], "str"),
], ids=["origin-string", "origin-bool", "path-bool", "attach-string",
        "attach-angle-string"])
def test_string_or_boolean_point_coordinate_is_a_schema_violation(
        mtype, props, key, value, got):
    d = Drawing.new(EXTENT)
    d.add_module(mtype, props)
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"][key]["value"] = value
    with pytest.raises(SchemaViolation, match=(
            rf"^item 0 \(module 1\): property '{key}': "
            rf"expected a real number, got {got}$")):
        load_drawing(json.dumps(doc))


@pytest.mark.parametrize("field,value,got", [
    ("center", ["0", 0.0], "str"),
    ("center", [0.0, False], "bool"),
    ("radius", "2", "str"),
], ids=["string-coordinate", "boolean-coordinate", "string-radius"])
def test_user_element_record_with_a_non_real_number_is_a_schema_violation(
        field, value, got):
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.USER, {"elements": [
        {"kind": "circle", "center": [0.0, 0.0], "radius": 2.0}]})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["elements"]["value"][0][field] = value
    with pytest.raises(SchemaViolation, match=(
            rf"^item 0 \(module 1\): property 'elements': elements\[0\]: "
            rf"bad circle element: expected a real number, got {got}$")):
        load_drawing(json.dumps(doc))


@pytest.mark.parametrize("mtype,props,key,value", [
    (ModuleType.VALVE, {}, "attach", ""),
    (ModuleType.PIPELINE, {"path": [(0, 0), (30, 0)], "diameter_mm": 4.0},
     "path", ""),
    (ModuleType.TABLE, {"columns": [{"width_mm": 20.0}], "row_height_mm": 8.0,
                        "header_height_mm": 15.0}, "rows", {}),
], ids=["axis-list-text", "point-list-text", "record-list-object"])
def test_text_or_object_for_a_list_is_a_schema_violation(mtype, props, key,
                                                         value):
    d = Drawing.new(EXTENT)
    d.add_module(mtype, props)
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"][key]["value"] = value
    with pytest.raises(SchemaViolation, match=f"property '{key}': expected a"):
        load_drawing(json.dumps(doc))


@pytest.mark.parametrize("name", [5, None, ["a"], ""])
def test_save_prototypes_refuses_a_name_that_is_not_non_empty_text(name):
    m = create_module(ModuleType.VALVE, {})
    with pytest.raises(KernelError) as info:
        save_prototypes([m, m], [name, name])
    assert str(info.value) == f"prototype name {name!r}: must be non-empty text"


@pytest.mark.parametrize("item", ["junk", None, Point(0.0, 0.0)],
                         ids=["text", "none", "point"])
def test_add_element_refuses_what_is_not_an_element(item):
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    with pytest.raises(KernelError, match="^not an element: a "):
        d.add_element(item)
    assert d.items == []


@pytest.mark.parametrize("element", [
    Segment((0, 0), (1, 1)),
    Segment(Point(0, 0), Point(1, 1), "solid"),
    Segment(Point(0, 0), 5),
    Polyline(((0, 0), (1, 1))),
    Circle(Point(0, 0), 1.0, LineType.DASHED),
    Text(Point(0, 0), 2.5, 0.0, "x", None),
    Segment(Point(0, 0), Point(1, 1), ["solid", 0]),
], ids=["tuple-points", "text-style", "number-point", "tuple-vertices",
        "enum-style", "no-style", "unhashable-style"])
def test_add_element_refuses_what_the_element_reader_refuses(element):
    d = Drawing.new(EXTENT)
    d.add_element(Segment(Point(0, 0), Point(1, 1)))
    before = list(d.items)
    with pytest.raises(KernelError, match="^bad element: ") as info:
        d.add_element(element)
    assert not isinstance(info.value, (AttributeError, TypeError, ValueError))
    assert d.items == before
    assert load_drawing(save_drawing(d)).items == before


@pytest.mark.parametrize("element", [
    Segment(Point(0, 0), Point(1, 1)),
    Segment(Point(0, 0), Point(1, 1), LineStyle(LineType.DASHED, 3)),
    Polyline((Point(0, 0), Point(1, 1), Point(2, 0)), True),
    Arc(Point(5, 5), 2.0, 10.0, 350.0),
    Circle(Point(0, 0), 1.0),
    Text(Point(0, 0), 2.5, 30.0, "Клапан 😀"),
], ids=["segment", "styled", "polyline", "arc", "circle", "text"])
def test_add_element_stores_a_valid_element_as_given(element):
    d = Drawing.new(EXTENT)
    d.add_element(element)
    assert d.items == [element] and d.items[0] is element
    assert load_drawing(save_drawing(d)).items == [element]


# --- a lone surrogate has no UTF-8 bytes, so no drawing may hold one -----------

def _posdes_doc(position_text: str) -> dict:
    """A one-module drawing whose stored props, and only those, hold
    ``position_text``."""
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, random_props(random.Random(1), ModuleType.POSDES))
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["position_text"]["value"] = position_text
    return doc


def _lone_text_doc(content: str) -> dict:
    doc = _free_element_doc()
    doc["items"][3]["element"]["content"] = content
    return doc


@pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
@pytest.mark.parametrize("doc, where", [
    (_posdes_doc("\ud800"), r"item 0 \(module 1\)"),
    (_posdes_doc("a\udfff"), r"item 0 \(module 1\)"),
    (_lone_text_doc("x\udbff"), "item 3"),
], ids=["module-high", "module-low", "free-text"])
def test_a_lone_surrogate_escape_does_not_load(doc, where, as_bytes):
    text = json.dumps(doc)  # ensure_ascii: the surrogate is a \ud800-style escape
    assert "\\ud" in text
    with pytest.raises(FileFormatError, match=f"^{where}: text holds the lone "
                       "surrogate '\\\\ud[89a-f]..', which UTF-8 cannot encode$"):
        load_drawing(text.encode() if as_bytes else text)


def test_a_lone_surrogate_in_a_str_does_not_load():
    text = json.dumps(_lone_text_doc("\ud800"), ensure_ascii=False)
    assert "\ud800" in text
    with pytest.raises(FileFormatError, match="^item 3: text holds the lone surrogate"):
        load_drawing(text)


def test_an_escaped_surrogate_pair_loads_as_its_character():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, {
        **random_props(random.Random(1), ModuleType.POSDES), "position_text": "😀"})
    d.add_element(Text(Point(0, 0), 2.5, 0.0, "😀"))
    data = json.dumps(json.loads(save_drawing(d))).encode()
    assert data.count(b"\\ud83d\\ude00") == 3  # props, geometry, free text
    assert save_drawing(load_drawing(data)) == save_drawing(d)


def test_a_lone_surrogate_in_memory_saves_as_a_kernel_error():
    free = Drawing.new(EXTENT)
    free.add_element(Text(Point(0, 0), 2.5, 0.0, "x\ud800"))  # accepted in memory
    module = Drawing.new(EXTENT)
    module.add_module(ModuleType.POSDES, {
        **random_props(random.Random(1), ModuleType.POSDES), "position_text": "\udc00"})
    for d in (free, module):
        for write in (save_drawing, compute_digest):
            with pytest.raises(KernelError,
                               match="^text holds the lone surrogate") as info:
                write(d)
            assert not isinstance(info.value, UnicodeError)


# --- a str input is screened and refused exactly as its UTF-8 bytes are --------

_MARK = "MARKTEXT"

# JSON-text spellings put where the marker was: an escaped lone surrogate,
# an escaped pair, the lone surrogate itself (a str can hold it, bytes
# cannot), and an escaped backslash before "ud800", which is six characters
# of plain text and loads.
_HOSTILE = {"lone-escape": "\\ud800", "pair-escape": "\\ud83d\\ude00",
            "raw": "\ud800", "backslash-u": "\\\\ud800", "none": _MARK}


def _drawing_text(rng: random.Random) -> str:
    d = Drawing.new(EXTENT)
    for _ in range(rng.randrange(3)):
        mtype = rng.choice(list(PROP_MAKERS))
        d.add_module(mtype, random_props(rng, mtype))
    d.add_module(ModuleType.POSDES, {**random_props(rng, ModuleType.POSDES),
                                     "position_text": _MARK})
    d.add_element(Text(Point(1, 2), 2.5, 0.0, rng.choice(["", "x"]) + _MARK))
    rng.shuffle(d.items)
    return save_drawing(d).decode()


def _library_text(rng: random.Random) -> str:
    types = rng.sample([t for t in PROP_MAKERS if t is not ModuleType.SIGNATURE], 2)
    modules = [create_module(ModuleType.VALVE, {"comment": _MARK}),
               *(create_module(t, random_props(rng, t)) for t in types)]
    return save_prototypes(modules, ["a", rng.choice(["b", "b" + _MARK]), "c"]).decode()


def _catalog_text(rng: random.Random) -> str:
    entry = dict.fromkeys(CATALOG_FIELDS, "шт") | {"price": 1.5}
    marked = dict(entry, **{rng.choice(CATALOG_FIELDS[:-1]): _MARK})
    entries = {"e0": entry, rng.choice(["e1", "e" + _MARK]): marked}
    return json.dumps({"entries": entries}, ensure_ascii=False)


def _outcome(read, data):
    try:
        return read(data)
    except KernelError as exc:
        return type(exc), str(exc)


def _read_drawing(data):
    return save_drawing(load_drawing(data))


def _read_library(data):
    loaded, errors = load_prototypes(data)
    return [(name, save_prototypes([m], [name])) for name, m in loaded], errors


@given(st.sampled_from([(_drawing_text, _read_drawing),
                        (_library_text, _read_library),
                        (_catalog_text, load_catalog)]),
       st.sampled_from(sorted(_HOSTILE)), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_str_loads_exactly_as_its_utf8_bytes(kind, hostile, seed):
    write, read = kind
    text = write(random.Random(seed)).replace(_MARK, _HOSTILE[hostile])
    # Bytes cannot hold a surrogate itself; they get its escape instead.
    data = text.replace("\ud800", "\\ud800").encode()
    expected = _outcome(read, data)
    assert _outcome(read, text) == expected
    assert _outcome(read, bytearray(data)) == expected
    assert _outcome(read, memoryview(data)) == expected
    refused = (isinstance(expected, tuple) and isinstance(expected[0], type)
               or read is _read_library and expected[1] != [])
    assert refused == (hostile in ("lone-escape", "raw")), expected


@pytest.mark.parametrize("load, error", [(load_drawing, FileFormatError),
                                         (load_prototypes, FileFormatError),
                                         (load_catalog, CatalogError)],
                         ids=["drawing", "prototypes", "catalog"])
@pytest.mark.parametrize("data", [7, None, [b"{}"]], ids=["int", "None", "list"])
def test_a_file_that_is_not_bytes_or_text_is_refused_by_type(load, error, data):
    with pytest.raises(error, match=rf"^a file is bytes or text, not "
                                    rf"{type(data).__name__}$"):
        load(data)


@pytest.mark.parametrize("load, doc, error", [
    (load_drawing, '{"format_version": 1, "next_id": %s}', FileFormatError),
    (load_prototypes, '{"format_version": 1, "entries": [%s]}', FileFormatError),
    (load_catalog, '{"entries": {"a": %s}}', CatalogError)],
    ids=["drawing", "prototypes", "catalog"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_an_integer_too_long_to_read_is_refused_by_the_file_format(load, doc, error,
                                                                   as_bytes):
    # past the interpreter's int-to-str digit limit json raises a ValueError
    # that advises a call to sys.set_int_max_str_digits
    text = doc % ("9" * 4301)
    with pytest.raises(error, match="^an integer has too many digits to read$"):
        load(text.encode() if as_bytes else text)


def test_a_pipeline_segment_too_long_to_measure_is_a_located_generation_error():
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_module(ModuleType.PIPELINE, {"path": [(0, 0), (0, 50), (-50, 0)],
                                       "diameter_mm": 2.0})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["props"]["path"]["value"] = [[0, 0], [0, 1e308], [-1.5e308, 0]]
    with pytest.raises(GenerationError, match=r"^item 0 \(module 1\): degenerate path: "):
        load_drawing(json.dumps(doc))


# --- a canonical file is proven by one comparison of its bytes -----------------

def _reference_item(item_doc: object, next_id: int, seen_ids: set):
    """One item as the per-item loader reads it: every stored geometry is
    encoded and compared with its regeneration, and every free element
    checked for canonical form, as the item loads."""
    if not isinstance(item_doc, dict):
        raise FileFormatError("items must be objects")
    kind = item_doc.get("kind")
    if kind == "element":
        persistence._check_keys(item_doc, persistence._ELEMENT_KEYS, "free element")
        try:
            record = item_doc["element"]
            element = geometry.element_from_json(record)
            persistence._check_canonical("free element", record,
                                         geometry._element_text(element))
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"bad free element: {exc}") from exc
        return element
    if kind != "module":
        raise FileFormatError(f"unknown item kind {kind!r}")
    persistence._check_keys(item_doc, persistence._MODULE_KEYS, "module record")
    try:
        module_id = item_doc["id"]
        mtype = ModuleType(item_doc["type"])
        props = props_from_json(mtype, item_doc["props"])
        stored = item_doc["geometry"]
        if not isinstance(stored, list):
            raise TypeError("geometry must be a list")
        stored_bytes = canonical_encode(stored)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad module record: {exc}") from exc
    if not (type(module_id) is int and 1 <= module_id < next_id):
        raise FileFormatError(f"module id {module_id!r} out of range")
    if module_id in seen_ids:
        raise FileFormatError(f"duplicate module id {module_id}")
    seen_ids.add(module_id)
    m = create_module(mtype, props, module_id=module_id)
    if stored_bytes != m.geometry_json:
        raise persistence._mismatch(stored, m.geometry)
    return m


def _reference_load(data: bytes) -> Drawing:
    """The per-item loader, independent of any byte comparison; its frame,
    which the mutations below leave valid, is read by load_drawing."""
    text, _, screened = persistence._read_text(data)
    doc, check_surrogates = persistence._parse_json(text, screened)
    d = load_drawing(json.dumps({**doc, "items": []}))
    seen_ids: set[int] = set()
    for index, item_doc in enumerate(doc["items"]):
        spot = f"item {index}"
        if isinstance(item_doc, dict) and item_doc.get("kind") == "module":
            spot += f" (module {item_doc.get('id')!r})"
        try:
            check_surrogates(item_doc)
            d.items.append(_reference_item(item_doc, d.next_id, seen_ids))
        except RecursionError as exc:
            raise FileFormatError(f"{spot}: nested too deeply") from exc
        except KernelError as exc:
            exc.args = (f"{spot}: {exc}",)
            raise
    return d


def _dicts(node):
    """Every object in a parsed JSON value, outermost first."""
    if isinstance(node, dict):
        yield node
    for child in (node.values() if isinstance(node, dict)
                  else node if isinstance(node, list) else ()):
        yield from _dicts(child)


def _geometry_reals(doc: dict) -> list:
    return [(index, container, key)
            for index, item in enumerate(doc["items"])
            for container, key in _stored_reals(item.get("geometry", []))]


def _nudge(doc, rng):
    container, key = rng.choice(list(_stored_reals(doc["items"])))
    container[key] = math.nextafter(container[key], math.inf)


def _integer_for_real(doc, rng):
    spots = [(c, k) for c, k in _stored_reals(doc["items"]) if c[k].is_integer()]
    assume(spots)
    container, key = rng.choice(spots)
    container[key] = int(container[key])


def _drop_style(doc, rng):
    objects = [o for o in _dicts(doc["items"]) if "style" in o]
    del rng.choice(objects)["style"]


def _unknown_key(doc, rng):
    rng.choice(list(_dicts(doc["items"])))["zz"] = 1


def _nan_in_geometry(doc, rng):
    spots = _geometry_reals(doc)
    assume(spots)
    index, container, key = rng.choice(spots)
    container[key] = math.nan
    return doc["items"][index]


def _nan_and_a_later_check_fails(doc, rng):
    """NaN in stored geometry, and the same module fails a check that comes
    before (the props decode) or after (its id) the geometry's encoding."""
    item = _nan_in_geometry(doc, rng)
    if rng.random() < 0.5:
        props = item["props"]
        props[rng.choice(sorted(props))]["kind"] = "bogus"
    else:
        item["id"] = rng.choice([0, doc["next_id"]])


def _mismatch_then_format_error(doc, rng):
    """A changed stored real in one module and a bad item after it."""
    spots = [s for s in _geometry_reals(doc) if s[0] < len(doc["items"]) - 1]
    assume(spots)
    index, container, key = rng.choice(spots)
    container[key] = math.nextafter(container[key], -math.inf)
    later = doc["items"][rng.randrange(index + 1, len(doc["items"]))]
    rng.choice([lambda: later.update(zz=1), lambda: later.update(kind="x"),
                lambda: later.pop("kind")])()


_MUTATIONS = {"none": lambda doc, rng: None, "nudge": _nudge,
              "integer": _integer_for_real, "drop-style": _drop_style,
              "unknown-key": _unknown_key, "nan": _nan_in_geometry,
              "nan-and-later": _nan_and_a_later_check_fails,
              "mismatch-then-error": _mismatch_then_format_error}


@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.lists(free_elements, max_size=2), st.sampled_from(sorted(_MUTATIONS)),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_the_byte_comparison_never_changes_a_verdict(seed, n_modules, free,
                                                     mutation, rng):
    d = _random_drawing(seed, n_modules)
    for element in free:
        d.items.insert(rng.randint(0, len(d.items)), element)
    doc = json.loads(save_drawing(d))
    _MUTATIONS[mutation](doc, rng)
    # Canonical spacing and key order; NaN is written as the literal.
    data = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode()
    expected = _outcome(_read_drawing, data)
    # A trailing newline fails the comparison, so the item checks decide.
    assert _outcome(_read_drawing, data + b"\n") == expected
    assert _outcome(lambda x: save_drawing(_reference_load(x)), data) == expected


def test_stored_nan_is_reported_before_a_generation_error():
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (10, 10)})
    d.add_module(ModuleType.USER, {**OVERFLOWING_USER, "scale": 1.0})
    doc = json.loads(save_drawing(d))
    doc["items"][1]["props"]["scale"]["value"] = 1e10
    with pytest.raises(GenerationError, match=r"^item 1 \(module 2\): "):
        load_drawing(json.dumps(doc))
    doc["items"][1]["geometry"][0]["p1"][0] = math.nan
    _expect_format_error(doc, r"^item 1 \(module 2\): bad module record: ")
    doc["items"][0]["geometry"][0]["points"][0][0] += 1.0
    with pytest.raises(IntegrityMismatch, match=r"^item 0 \(module 1\): "):
        load_drawing(json.dumps(doc))


def _record_walks(monkeypatch, keep) -> list:
    """Hook persistence._load_items: the ``check`` flag of each call that
    ``keep`` accepts, in order."""
    calls = []
    original = persistence._load_items

    def recording(d, items_doc, check_surrogates, check):
        if keep(check):
            calls.append(check)
        return original(d, items_doc, check_surrogates, check)

    monkeypatch.setattr(persistence, "_load_items", recording)
    return calls


@pytest.fixture()
def item_checks(monkeypatch) -> list:
    """One entry per checking walk: a persistence._load_items call with check."""
    return _record_walks(monkeypatch, bool)


def test_a_canonical_file_loads_without_the_item_checks(item_checks):
    data = save_drawing(_random_drawing(11))
    for same in (data, bytearray(data), memoryview(data), data.decode()):
        assert save_drawing(load_drawing(same)) == data
    assert item_checks == []
    load_drawing(data + b" ")
    assert len(item_checks) == 1


def test_an_indented_file_loads_and_saves_canonical(item_checks):
    data = save_drawing(_random_drawing(12))
    indented = json.dumps(json.loads(data), indent=1)
    assert save_drawing(load_drawing(indented)) == data
    assert len(item_checks) == 1


# --- which walk loads a file --------------------------------------------------

@pytest.fixture()
def walks(monkeypatch) -> list:
    """The ``check`` flag of each persistence._load_items call, in order."""
    return _record_walks(monkeypatch, lambda check: True)


def test_a_canonical_file_runs_only_the_fast_walk(walks):
    data = save_drawing(_random_drawing(13))
    for same in (data, bytearray(data), memoryview(data), data.decode()):
        walks.clear()
        assert save_drawing(load_drawing(same)) == data
        assert walks == [False], type(same).__name__


@pytest.mark.parametrize("change", [
    lambda data: data + b"\n",
    lambda data: json.dumps(json.loads(data), indent=1).encode(),
], ids=["trailing-newline", "indent-1"])
def test_a_file_framed_otherwise_runs_only_the_checking_walk(walks, change):
    data = save_drawing(_random_drawing(13))
    assert save_drawing(load_drawing(change(data))) == data
    assert walks == [True]


def test_an_integer_for_a_real_property_runs_both_walks(walks):
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (10, 10)})
    d.add_module(ModuleType.VALVE, {"origin": (30, 10), "angle_deg": 90.0})
    data = save_drawing(d)
    doc = json.loads(data)
    doc["items"][1]["props"]["angle_deg"]["value"] = 90
    normalised = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert normalised != data
    assert save_drawing(load_drawing(normalised)) == data
    assert walks == [False, True]


def test_a_failing_file_runs_both_walks_and_raises_the_item_verdict(walks):
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (10, 10)})
    d.add_module(ModuleType.VALVE, {"origin": (30, 10)})
    doc = json.loads(save_drawing(d))
    doc["items"][0]["geometry"][0]["points"][0][0] += 1.0
    doc["items"][1]["zz"] = 1
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(IntegrityMismatch, match=r"^item 0 \(module 1\): "):
        load_drawing(data)
    assert walks == [False, True]


# --- the fast walk reads items from the bytes, never the stored geometry ------

# The reader's own markers, as text that a drawing may hold anywhere.
_MARKERS = '],"id":1,"kind":"module","props":,"type":"valve"}},"kind":"element"}'


def _marked_drawing(layout: str) -> Drawing:
    """A canonical drawing whose text element, table cells, comments and
    records hold the reader's markers, and one record a ``"type"`` key and a
    whole module item. ``layout`` puts free elements (E) among modules (M)."""
    note = Text(Point(5, 5), 2.5, 30.0, "Кран " + _MARKERS)
    item = {"geometry": [], "id": 1, "kind": "module", "props": {}, "type": "valve"}
    modules = iter([
        (ModuleType.TABLE, {"columns": [{"width_mm": 30.0, "header": _MARKERS}],
                            "rows": [{"cells": [_MARKERS]}], "row_height_mm": 8.0,
                            "header_height_mm": 10.0, "comment": _MARKERS}),
        (ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (10, 10),
                             "position_text": "Поз. 1", "comment": "Задвижка " + _MARKERS,
                             "spec_props": {"name": _MARKERS, "item": item, "type": "valve"}}),
        (ModuleType.USER, {"elements": [element_to_json(note)], "comment": _MARKERS}),
        (ModuleType.VALVE, {"origin": (40, 40), "name": "Кран шаровой", "comment": _MARKERS}),
    ])
    d = Drawing.new(EXTENT)
    for slot in layout:
        if slot == "E":
            d.add_element(note)
        else:
            d.add_module(*next(modules))
    return d


@pytest.mark.parametrize("layout", ["EMEMMME", "MMMM", "EE", ""],
                         ids=["mixed", "modules-only", "elements-only", "no-items"])
def test_text_holding_the_readers_markers_loads_by_the_fast_walk(walks, layout):
    data = save_drawing(_marked_drawing(layout))
    assert (_MARKERS.replace('"', '\\"').encode() in data) == bool(layout)
    assert save_drawing(load_drawing(data)) == data
    assert walks == [False]


_V1_DRAWINGS = sorted((Path(__file__).parent / "data" / "v1").glob("*.draw.json"))


@pytest.mark.parametrize("path", _V1_DRAWINGS, ids=[p.name for p in _V1_DRAWINGS])
def test_every_v1_drawing_loads_by_the_fast_walk(walks, path):
    data = path.read_bytes()
    assert save_drawing(load_drawing(data)) == data
    assert walks == [False]


def test_a_canonical_load_never_parses_its_stored_geometry(monkeypatch, walks):
    d = _marked_drawing("EMEMMME")
    for module in _random_drawing(21, 8).modules():
        d.add_module(module.type, module.props)
    data = save_drawing(d)
    text = data.decode()
    spans, at, previous = [], 0, b""  # where each module's stored geometry lies
    for fragment in persistence._fragments(d, False):
        size = len(fragment.decode())
        if previous.endswith(b'{"geometry":'):
            spans.append((at, at + size))
        at, previous = at + size, fragment
    assert at == len(text) and len(spans) == len(d.modules())
    parsed = []  # (whether the string decoded is the file's text, start, end)
    original = json.JSONDecoder.raw_decode

    def recording(self, s, idx=0):
        doc, end = original(self, s, idx)
        parsed.append((len(s) == len(text), idx, end))
        return doc, end

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
    assert save_drawing(load_drawing(data)) == data
    assert walks == [False]
    geometry = sum(stop - start for start, stop in spans)
    assert 0 < sum(end - idx for _, idx, end in parsed) < len(text) - geometry
    for in_text, idx, end in parsed:
        assert not in_text or all(end <= start or stop <= idx for start, stop in spans)
