"""Property schemas, validation, normalisation and JSON tagging."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modraft import (Axis, KernelError, LineType, ModuleType, Point, PropKind,
                     SchemaViolation, canonical_encode, russian_property_names,
                     schema_for, validate_props)
from modraft.properties import (_KINDS, _props_bytes, props_from_json,
                                props_to_json)

from propgen import PROP_MAKERS, random_props

PLACEMENT_KEYS = {"layer", "origin", "angle_deg", "mirrored"}


def test_every_schema_has_placement_keys():
    for mtype in ModuleType:
        schema = schema_for(mtype)
        assert PLACEMENT_KEYS <= set(schema)


def test_valve_schema_keys():
    keys = set(schema_for(ModuleType.VALVE)) - PLACEMENT_KEYS
    assert keys == {"attach", "symmetry", "comment", "face_to_face",
                    "designation", "name", "mass", "note", "dy", "py"}


def test_signature_schema_keys():
    keys = set(schema_for(ModuleType.SIGNATURE)) - PLACEMENT_KEYS
    assert keys == {"person", "position", "password", "date", "time",
                    "digest", "mac"}


def test_user_schema_keys():
    keys = set(schema_for(ModuleType.USER)) - PLACEMENT_KEYS
    assert keys == {"attach", "symmetry", "comment", "elements", "scale"}


def test_validate_fills_every_default():
    props = validate_props(ModuleType.VALVE, {})
    assert set(props) == set(schema_for(ModuleType.VALVE))
    assert props["layer"] == 0
    assert props["origin"] == Point(0, 0)
    assert props["angle_deg"] == 0.0
    assert props["mirrored"] is False
    assert props["mass"] == 0.0
    assert len(props["attach"]) == 2  # the two pipe connection axes


def test_a_missing_value_is_its_default_read_as_a_given_value():
    rng = random.Random(3)
    for mtype in ModuleType:
        full = validate_props(mtype, random_props(rng, mtype))
        for key, spec in schema_for(mtype).items():
            if spec.required:
                continue
            rest = {k: v for k, v in full.items() if k != key}
            filled = validate_props(mtype, rest)
            assert _props_bytes(mtype, filled) == _props_bytes(
                mtype, validate_props(mtype, {**rest, key: spec.default})), key
            if spec.kind is PropKind.RECORD:  # fresh for each property set
                assert filled[key] is not validate_props(mtype, rest)[key], key


def test_unknown_key_rejected():
    with pytest.raises(SchemaViolation) as err:
        validate_props(ModuleType.VALVE, {"pressure": 10})
    assert "pressure" in str(err.value)


def test_missing_required_rejected():
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.PIPELINE, {"diameter_mm": 4.0})  # no path


def test_kind_mismatch_rejected():
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.VALVE, {"dy": True})  # boolean into real
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.VALVE, {"name": 5})
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.TABLE, {"columns": "wide"})


def test_choices_enforced():
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.VALVE, {"symmetry": "diagonal"})
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.FRAME, {"format": "A5"})


def test_integer_accepts_int_not_bool():
    props = validate_props(ModuleType.FRAME, {"format": "A3", "multiplicity": 2})
    assert props["multiplicity"] == 2
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.FRAME, {"format": "A3", "multiplicity": True})


def test_real_accepts_int_value():
    props = validate_props(ModuleType.VALVE, {"mass": 3})
    assert props["mass"] == 3.0
    assert isinstance(props["mass"], float)


def test_angle_is_normalised():
    props = validate_props(ModuleType.VALVE, {"angle_deg": -90})
    assert props["angle_deg"] == 270.0
    props = validate_props(ModuleType.VALVE, {"angle_deg": 720})
    assert props["angle_deg"] == 0.0


def test_point_and_axis_coercion():
    props = validate_props(ModuleType.POSDES, {
        "leader_from": (1, 2), "shelf_at": [3, 4], "position_text": "1"})
    assert props["leader_from"] == Point(1, 2)
    assert props["shelf_at"] == Point(3, 4)
    props = validate_props(ModuleType.USER, {
        "elements": [{"kind": "segment", "p1": [0, 0], "p2": [1, 1],
                      "style": {"color": 0, "line_type": "solid"}}],
        "attach": [((5, 6), 45.0)]})
    axis = props["attach"][0]
    assert isinstance(axis, Axis)
    assert axis.origin == Point(5, 6) and axis.angle_deg == 45.0


def test_signature_password_never_stored():
    props = validate_props(ModuleType.SIGNATURE, {
        "person": "Иванов", "position": "ГИП", "date": "2026-01-01",
        "time": "10:00", "password": "hunter2"})
    assert props["password"] == ""


def test_record_values_must_be_plain_json():
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.POSDES, {
            "leader_from": (0, 0), "shelf_at": (1, 1), "position_text": "1",
            "spec_props": {"mass": float("inf")}})
    with pytest.raises(SchemaViolation):
        validate_props(ModuleType.POSDES, {
            "leader_from": (0, 0), "shelf_at": (1, 1), "position_text": "1",
            "spec_props": {"weird": object()}})


@pytest.mark.parametrize("record", [{1: "a"}, {"outer": {(0, 1): 2.0}}, {"a": [{None: 0}]}])
def test_record_keys_must_be_text(record):
    with pytest.raises(SchemaViolation) as info:
        validate_props(ModuleType.POSDES, {
            "leader_from": (0, 0), "shelf_at": (1, 1), "position_text": "1",
            "spec_props": record})
    assert str(info.value) == "property 'spec_props': record keys must be strings"


def test_validation_is_idempotent():
    rng = random.Random(3)
    for mtype in ModuleType:
        for _ in range(20):
            once = validate_props(mtype, random_props(rng, mtype))
            assert validate_props(mtype, once) == once


def test_json_round_trip_every_type():
    rng = random.Random(4)
    for mtype in PROP_MAKERS:
        for _ in range(20):
            props = validate_props(mtype, random_props(rng, mtype))
            doc = props_to_json(mtype, props)
            assert validate_props(mtype, props_from_json(mtype, doc)) == props


@given(st.sampled_from(list(ModuleType)), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_tag_strip_then_validate_is_the_identity(mtype, rng):
    props = validate_props(mtype, random_props(rng, mtype))
    data = canonical_encode(props_to_json(mtype, props))
    decoded = validate_props(mtype, props_from_json(mtype, json.loads(data)))
    assert decoded == props
    assert canonical_encode(props_to_json(mtype, decoded)) == data


@pytest.mark.parametrize("key,value", [
    ("origin", (None, 0.0)),
    ("origin", (10 ** 400, 0.0)),
    ("angle_deg", 10 ** 400),
    ("attach", [{"origin": [0.0, 0.0], "angle_deg": None}]),
    ("attach", [{"origin": [0.0, 0.0], "angle_deg": 10 ** 400}]),
    ("attach", [((None, 0.0), 0.0)]),
    ("attach", [((0.0, 0.0), 10 ** 400)]),
], ids=["null-point", "huge-point", "huge-real", "null-axis-angle",
        "huge-axis-angle", "null-axis-origin", "huge-axis-angle-pair"])
def test_uncoercible_values_are_schema_violations(key, value):
    with pytest.raises(SchemaViolation) as info:
        validate_props(ModuleType.VALVE, {key: value})
    assert info.value.key == key


def test_a_tagged_property_set_holds_plain_json_only():
    rng = random.Random(5)
    for mtype in PROP_MAKERS:
        for _ in range(20):
            doc = props_to_json(mtype, validate_props(mtype, random_props(rng, mtype)))
            assert all(tagged.keys() == {"kind", "value"} for tagged in doc.values())
            # Parsing builds plain JSON types alone: a Point or an Axis left
            # in the set would not dump, and a tuple or a LineType would
            # dump as a list or a str, and repr otherwise.
            assert repr(json.loads(json.dumps(doc))) == repr(doc)


def test_a_line_type_given_as_text_is_written_as_plain_text():
    props = validate_props(ModuleType.INSTRUMENT, {
        "function_code": "PI", "kip_line_type": LineType.DASHED})
    value = props_to_json(ModuleType.INSTRUMENT, props)["kip_line_type"]["value"]
    assert type(value) is str and value == "dashed"


def test_json_docs_are_tagged_by_kind():
    props = validate_props(ModuleType.VALVE, {"mass": 1.5})
    doc = props_to_json(ModuleType.VALVE, props)
    assert doc["mass"] == {"kind": "real", "value": 1.5}
    assert doc["origin"]["kind"] == "point"
    assert doc["mirrored"] == {"kind": "boolean", "value": False}


def test_russian_names_match_fixed_table():
    names = russian_property_names()
    expected = {
        "attach": "Привязка", "symmetry": "Симметрия", "comment": "Комментарий",
        "face_to_face": "Строительная длина", "designation": "Обозначение",
        "name": "Наименование", "mass": "Масса", "note": "Примечание",
        "dy": "Dy", "py": "Py", "carrier_geometry": "Несущая геометрия",
        "pos_designation": "Позиционное обозначение",
        "type_mark": "Тип, марка оборудования", "unit": "Единица измерения",
        "unit_code": "Код единиц измерения",
        "manufacturer_code": "Код завода-изготовителя",
        "item_code": "Код оборудования, материала", "price": "Цена",
        "name_tech": "Наименование и технич. х-ка", "on_board": "На щите",
        "function_code": "Функциональный признак прибора",
        "upper_index": "Верхний индекс", "lower_index": "Нижний индекс",
        "kip_line_type": "Тип линии приборов КИП", "person": "Сотрудник",
        "position": "Должность", "password": "Пароль", "date": "Дата",
        "time": "Время",
    }
    for key, value in expected.items():
        assert names[key] == value


def test_prop_kind_enumeration_is_complete():
    kinds = {spec.kind for mtype in ModuleType
             for spec in schema_for(mtype).values()}
    assert kinds == set(PropKind)


@pytest.mark.parametrize("mtype, key, reason", [
    (ModuleType.PIPELINE, "path", "expected a list of points"),
    (ModuleType.VALVE, "attach", "expected a list of axes"),
])
def test_a_record_is_not_a_list_of_points_or_axes(mtype, key, reason):
    with pytest.raises(SchemaViolation) as info:
        validate_props(mtype, {key: {"origin": [0.0, 0.0]}})
    assert (info.value.key, info.value.reason) == (key, reason)


# --- one writer per property kind ----------------------------------------------

def _reference(mtype: ModuleType, props: dict) -> bytes:
    return canonical_encode(props_to_json(mtype, props))


def test_every_kind_has_one_writer():
    assert set(_KINDS) == set(PropKind)
    assert all(len(row) == 2 and all(map(callable, row)) for row in _KINDS.values())


# Characters the encoder escapes or that UTF-8 writes in several bytes.
_AWKWARD = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\ufeff\U0001f600\U00010000é/<&'
hostile_text = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                                 st.sampled_from(_AWKWARD)), max_size=12)
hostile_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e308,
                     0.1, 1e16, 1e-7]),
    st.integers(-10**300, 10**300))  # an integer given for a real
hostile_ints = st.one_of(st.integers(), st.integers(-10**1000, 10**1000))
hostile_points = st.tuples(hostile_reals, hostile_reals)
hostile_axes = st.one_of(
    st.tuples(hostile_points, hostile_reals),
    st.fixed_dictionaries({"origin": hostile_points},
                          optional={"angle_deg": hostile_reals}))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), hostile_ints, hostile_text,
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(hostile_text, inner, max_size=3)),
    max_leaves=8)
hostile_records = st.dictionaries(hostile_text, json_values, max_size=4)
HOSTILE = {
    PropKind.TEXT: hostile_text, PropKind.REAL: hostile_reals,
    PropKind.INTEGER: hostile_ints, PropKind.BOOLEAN: st.booleans(),
    PropKind.POINT: hostile_points,
    PropKind.POINT_LIST: st.lists(hostile_points, max_size=4),
    PropKind.AXIS_LIST: st.lists(hostile_axes, max_size=3),
    PropKind.RECORD: st.one_of(st.none(), hostile_records),
    PropKind.RECORD_LIST: st.lists(hostile_records, max_size=3),
}


@st.composite
def hostile_props(draw) -> tuple:
    """A generated property set of any type, with some values replaced by
    hostile ones of their kind; a replacement the schema refuses is dropped."""
    mtype = draw(st.sampled_from(list(ModuleType)))
    props = random_props(draw(st.randoms(use_true_random=False)), mtype)
    for key, spec in schema_for(mtype).items():
        if draw(st.booleans()):
            candidate = {**props, key: draw(HOSTILE[spec.kind])}
            try:
                validate_props(mtype, candidate)
            except SchemaViolation:
                continue
            props = candidate
    return mtype, props


@given(hostile_props())
@settings(max_examples=300, deadline=None)
def test_the_writer_equals_the_reference_on_hostile_values(case):
    mtype, props = case
    props = validate_props(mtype, props)
    assert _props_bytes(mtype, props) == _reference(mtype, props)


@pytest.mark.parametrize("change", [
    {"position_text": "\ud800"},
    {"comment": "a\udfff"},
    {"spec_props": {"name": "x\udbff"}},
    {"spec_props": {"\udc00": 1}},
], ids=["text", "text-low", "record-value", "record-key"])
def test_a_lone_surrogate_is_the_same_kernel_error_from_the_writer(change):
    mtype = ModuleType.POSDES
    props = validate_props(mtype, {**random_props(random.Random(1), mtype), **change})
    with pytest.raises(KernelError, match="^text holds the lone surrogate") as writer:
        _props_bytes(mtype, props)
    with pytest.raises(KernelError) as reference:
        _reference(mtype, props)
    assert str(writer.value) == str(reference.value)


# The type each kind's reader decodes to; the writers rely on it (a real
# goes through float.__repr__, an integer through int.__repr__).
DECODED_TYPE = {
    PropKind.TEXT: str, PropKind.REAL: float, PropKind.INTEGER: int,
    PropKind.BOOLEAN: bool, PropKind.POINT: Point, PropKind.POINT_LIST: tuple,
    PropKind.AXIS_LIST: tuple, PropKind.RECORD: dict, PropKind.RECORD_LIST: tuple,
}
# Decoded values to try each rule on: each rule keeps at least one.
RULE_SAMPLES = {
    PropKind.TEXT: ["x", "", "none", "welded", "A4", "A", "solid"],
    PropKind.REAL: [1.0, 0.0, -1.0, 370.0],
    PropKind.INTEGER: [1, 0, 5],
    PropKind.RECORD_LIST: [({"a": 1},), ()],
}


def _kept(rule, value) -> list:
    try:
        return [rule(value)]
    except ValueError:
        return []


def test_schema_defaults_and_rules_keep_the_decoded_type():
    for mtype in ModuleType:
        for key, spec in schema_for(mtype).items():
            if spec.kind in (PropKind.REAL, PropKind.INTEGER) and not spec.required:
                assert type(spec.default) is DECODED_TYPE[spec.kind], key
            if spec.rule is not None:
                kept = [v for sample in RULE_SAMPLES[spec.kind]
                        for v in _kept(spec.rule, sample)]
                assert kept, f"{mtype.value}.{key}: no sample passes the rule"
                for value in kept:
                    assert type(value) is DECODED_TYPE[spec.kind], key

