"""Property schemas, validation, normalisation and JSON tagging."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modraft import (Axis, ModuleType, Point, PropKind, SchemaViolation,
                     canonical_encode, russian_property_names, schema_for,
                     validate_props)
from modraft.properties import props_from_json, props_to_json

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
