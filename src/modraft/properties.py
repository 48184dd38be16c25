"""Property model for drawing modules.

Each module type declares an ordered property schema. Property values are
typed, validated and normalised so that identical parameter sets always
serialise to identical bytes. Serialised values are tagged with their kind;
reading them back checks each tag against the schema and strips it, and
:func:`validate_props` decodes the bare JSON values, so it is the one place
a property value is coerced.

The schema holds every rule on a single value, as a spec's ``rule``;
generators keep only the checks that relate two values or read a record.

Canonical property keys are ASCII identifiers. Their fixed Russian display
names ship in ``data/property_names_ru.json`` (see
:func:`russian_property_names`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Mapping

from .errors import FileFormatError, KernelError, SchemaViolation
from .geometry import (Point, _as_bool, _as_int, _as_point, _as_real, _as_text,
                       _point_json, norm_deg)

__all__ = [
    "ModuleType", "PropKind", "Axis", "PropSpec",
    "schema_for", "validate_props", "props_to_json", "props_from_json",
    "russian_property_names", "SYMMETRY_CODES",
]


class ModuleType(str, Enum):
    USER = "user"
    PIPELINE = "pipeline"
    VALVE = "valve"
    INSTRUMENT = "instrument"
    TABLE = "table"
    FRAME = "frame"
    POSDES = "posdes"
    LIGHTNING = "lightning"
    SIGNATURE = "signature"


class PropKind(str, Enum):
    TEXT = "text"
    REAL = "real"
    INTEGER = "integer"
    BOOLEAN = "boolean"
    POINT = "point"
    POINT_LIST = "point_list"
    AXIS_LIST = "axis_list"
    RECORD = "record"
    RECORD_LIST = "record_list"


@dataclass(frozen=True)
class Axis:
    """Directed attachment axis: an origin point plus a direction angle."""

    origin: Point
    angle_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angle_deg", norm_deg(self.angle_deg))


@dataclass(frozen=True)
class PropSpec:
    """Kind, default and rule of one property key: ``rule`` maps a value
    decoded to ``kind`` to the value kept, or raises ``ValueError(reason)``."""

    kind: PropKind
    required: bool = False
    default: object = None
    rule: Callable[[object], object] | None = None


def _refuse_unless(test: Callable[[object], bool], reason: str) -> Callable[[object], object]:
    """A rule keeping each value that passes ``test``; ``{!r}`` in ``reason``
    names a refused one."""
    def rule(value: object) -> object:
        if not test(value):
            raise ValueError(reason.format(value))
        return value
    return rule


def _one_of(*choices: str) -> Callable[[object], object]:
    return _refuse_unless(choices.__contains__, f"value {{!r}} not one of {choices}")


SYMMETRY_CODES = ("none", "mirror_x", "mirror_y", "both")

_POSITIVE = _refuse_unless(lambda v: v > 0.0, "must be positive")
_NOT_EMPTY = _refuse_unless(bool, "must not be empty")

# Reserved placement keys present in every schema. Edits to placed geometry
# rewrite these and regenerate.
PLACEMENT_SCHEMA: dict[str, PropSpec] = {
    "layer": PropSpec(PropKind.INTEGER, default=0),
    "origin": PropSpec(PropKind.POINT, default=Point(0.0, 0.0)),
    "angle_deg": PropSpec(PropKind.REAL, default=0.0, rule=norm_deg),
    "mirrored": PropSpec(PropKind.BOOLEAN, default=False),
}

# Length of each valve bowtie triangle; the default axes sit at its two ends.
VALVE_LENGTH = 4.0
_VALVE_ATTACH_DEFAULT = (Axis(Point(-VALVE_LENGTH, 0.0), 0.0),
                         Axis(Point(VALVE_LENGTH, 0.0), 0.0))

_SCHEMAS: dict[ModuleType, dict[str, PropSpec]] = {
    ModuleType.USER: {
        "attach": PropSpec(PropKind.AXIS_LIST, default=()),
        "symmetry": PropSpec(PropKind.TEXT, default="none", rule=_one_of(*SYMMETRY_CODES)),
        "comment": PropSpec(PropKind.TEXT, default=""),
        "elements": PropSpec(PropKind.RECORD_LIST, required=True, rule=_refuse_unless(
            bool, "user module needs at least one element")),
        "scale": PropSpec(PropKind.REAL, default=1.0, rule=_POSITIVE),
    },
    ModuleType.PIPELINE: {
        "path": PropSpec(PropKind.POINT_LIST, required=True),
        "diameter_mm": PropSpec(PropKind.REAL, required=True, rule=_POSITIVE),
        "corner": PropSpec(PropKind.TEXT, default="welded", rule=_one_of("welded", "bent")),
        "fillet_radius": PropSpec(PropKind.REAL, default=0.0),
        "show_centerline": PropSpec(PropKind.BOOLEAN, default=True),
        "comment": PropSpec(PropKind.TEXT, default=""),
    },
    ModuleType.VALVE: {
        "attach": PropSpec(PropKind.AXIS_LIST, default=_VALVE_ATTACH_DEFAULT),
        "symmetry": PropSpec(PropKind.TEXT, default="none", rule=_one_of(*SYMMETRY_CODES)),
        "comment": PropSpec(PropKind.TEXT, default=""),
        "face_to_face": PropSpec(PropKind.REAL, default=0.0),
        "designation": PropSpec(PropKind.TEXT, default=""),
        "name": PropSpec(PropKind.TEXT, default=""),
        "mass": PropSpec(PropKind.REAL, default=0.0),
        "note": PropSpec(PropKind.TEXT, default=""),
        "dy": PropSpec(PropKind.REAL, default=0.0),
        "py": PropSpec(PropKind.REAL, default=0.0),
    },
    ModuleType.INSTRUMENT: {
        "attach": PropSpec(PropKind.AXIS_LIST, default=()),
        "carrier_geometry": PropSpec(PropKind.POINT_LIST, default=()),
        "pos_designation": PropSpec(PropKind.TEXT, default=""),
        "designation": PropSpec(PropKind.TEXT, default=""),
        "name": PropSpec(PropKind.TEXT, default=""),
        "mass": PropSpec(PropKind.REAL, default=0.0),
        "note": PropSpec(PropKind.TEXT, default=""),
        "type_mark": PropSpec(PropKind.TEXT, default=""),
        "unit": PropSpec(PropKind.TEXT, default=""),
        "unit_code": PropSpec(PropKind.TEXT, default=""),
        "manufacturer_code": PropSpec(PropKind.TEXT, default=""),
        "item_code": PropSpec(PropKind.TEXT, default=""),
        "price": PropSpec(PropKind.REAL, default=0.0),
        "name_tech": PropSpec(PropKind.TEXT, default=""),
        "on_board": PropSpec(PropKind.BOOLEAN, default=False),
        "function_code": PropSpec(PropKind.TEXT, required=True, rule=_NOT_EMPTY),
        "upper_index": PropSpec(PropKind.TEXT, default=""),
        "lower_index": PropSpec(PropKind.TEXT, default=""),
        "comment": PropSpec(PropKind.TEXT, default=""),
        "kip_line_type": PropSpec(PropKind.TEXT, default="", rule=_one_of(
            "", "solid", "dashed", "dash_dot", "thin_solid")),
    },
    ModuleType.TABLE: {
        "position": PropSpec(PropKind.POINT, default=Point(0.0, 0.0)),
        "columns": PropSpec(PropKind.RECORD_LIST, required=True, rule=_refuse_unless(
            bool, "table needs at least one column")),
        "row_height_mm": PropSpec(PropKind.REAL, required=True, rule=_POSITIVE),
        "header_height_mm": PropSpec(PropKind.REAL, required=True, rule=_POSITIVE),
        "rows": PropSpec(PropKind.RECORD_LIST, default=()),
        "comment": PropSpec(PropKind.TEXT, default=""),
    },
    ModuleType.FRAME: {
        "format": PropSpec(PropKind.TEXT, required=True,
                           rule=_one_of("A4", "A3", "A2", "A1", "A0")),
        "landscape": PropSpec(PropKind.BOOLEAN, default=False),
        "multiplicity": PropSpec(PropKind.INTEGER, default=1, rule=_refuse_unless(
            lambda k: k >= 1, "must be at least 1")),
        "comment": PropSpec(PropKind.TEXT, default=""),
    },
    ModuleType.POSDES: {
        "leader_from": PropSpec(PropKind.POINT, required=True),
        "shelf_at": PropSpec(PropKind.POINT, required=True),
        "position_text": PropSpec(PropKind.TEXT, required=True, rule=_NOT_EMPTY),
        "object_kind": PropSpec(PropKind.TEXT, default=""),
        "spec_props": PropSpec(PropKind.RECORD, default=None),
        "comment": PropSpec(PropKind.TEXT, default=""),
    },
    ModuleType.LIGHTNING: {
        "rods": PropSpec(PropKind.RECORD_LIST, required=True, rule=_refuse_unless(
            bool, "at least one rod is required")),
        "section_heights": PropSpec(PropKind.RECORD_LIST, required=True),
        "zone_class": PropSpec(PropKind.TEXT, required=True, rule=_one_of("A", "B")),
        "scale_mm_per_m": PropSpec(PropKind.REAL, required=True, rule=_POSITIVE),
        "plan_origin": PropSpec(PropKind.POINT, default=Point(0.0, 0.0)),
        "comment": PropSpec(PropKind.TEXT, default=""),
    },
    ModuleType.SIGNATURE: {
        "person": PropSpec(PropKind.TEXT, required=True),
        "position": PropSpec(PropKind.TEXT, required=True),
        # consumed at signing time, never stored
        "password": PropSpec(PropKind.TEXT, default="", rule=lambda _: ""),
        "date": PropSpec(PropKind.TEXT, required=True),
        "time": PropSpec(PropKind.TEXT, required=True),
        "digest": PropSpec(PropKind.TEXT, default=""),
        "mac": PropSpec(PropKind.TEXT, default=""),
    },
}


def schema_for(mtype: ModuleType) -> dict[str, PropSpec]:
    """Full ordered schema for a module type: placement keys first."""
    return {**PLACEMENT_SCHEMA, **_SCHEMAS[ModuleType(mtype)]}


def russian_property_names() -> dict[str, str]:
    """Fixed mapping from canonical ASCII property keys to Russian names."""
    data = resources.files("modraft.data").joinpath("property_names_ru.json")
    return json.loads(data.read_text("utf-8"))


def _normalize_json(value: object) -> object:
    """Deep-normalise free-form record content to plain JSON values."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("numbers must be finite")
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ValueError("record keys must be strings")
            out[k] = _normalize_json(v)
        return out
    if isinstance(value, (list, tuple)):
        # Through a tuple, the list is allocated at its exact size: a
        # comprehension over-allocates, 88 bytes for an [x, y] pair, not 72.
        # The generator is a frame of its own on every Python version, so
        # each level of nesting takes two frames of the recursion limit.
        return list(tuple(_normalize_json(v) for v in value))
    raise ValueError(f"value {value!r} is not serialisable")


def _as_axis(value: object) -> Axis:
    if isinstance(value, Axis):
        return value
    if isinstance(value, dict):
        if "origin" not in value:
            raise ValueError("bad axis: no 'origin'")
        return Axis(_as_point(value["origin"]),
                    _as_real(value.get("angle_deg", 0.0)))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Axis(_as_point(value[0]), _as_real(value[1]))
    raise ValueError(f"expected an axis, got {value!r}")


_DECODERS = {PropKind.TEXT: _as_text, PropKind.REAL: _as_real,
             PropKind.INTEGER: _as_int, PropKind.BOOLEAN: _as_bool,
             PropKind.POINT: _as_point}


def _normalize_value(kind: PropKind, value: object) -> object:
    """One property value decoded to its kind; a refusal is
    ``ValueError(reason)``."""
    decode = _DECODERS.get(kind)
    if decode is not None:
        return decode(value)
    if kind is PropKind.POINT_LIST:
        if isinstance(value, (Point, str)) or not hasattr(value, "__iter__"):
            raise ValueError("expected a list of points")
        return tuple(_as_point(p) for p in value)
    if kind is PropKind.AXIS_LIST:
        if isinstance(value, (Axis, str)) or not hasattr(value, "__iter__"):
            raise ValueError("expected a list of axes")
        return tuple(_as_axis(a) for a in value)
    if kind is PropKind.RECORD:
        if value is None:
            return {}
        if not isinstance(value, dict):
            raise ValueError(f"expected a record, got {type(value).__name__}")
        return _normalize_json(value)
    # PropKind.RECORD_LIST, the last kind
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        raise ValueError("expected a list of records")
    out = []
    for item in value:
        norm = _normalize_json(item)
        if not isinstance(norm, dict):
            raise ValueError("list items must be records")
        out.append(norm)
    return tuple(out)


def _read_records(props: Mapping[str, object], key: str, read) -> list:
    """``read`` applied to each record of the record-list property ``key``.
    Any refusal of a record, a kernel error included, is a SchemaViolation
    naming the key and the record's index."""
    out = []
    for i, rec in enumerate(props[key]):
        try:
            out.append(read(rec))
        except (KeyError, TypeError, ValueError, KernelError) as exc:
            reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise SchemaViolation(key, f"{key}[{i}]: {reason}") from exc
    return out


def _default_for(spec: PropSpec) -> object:
    if spec.kind is PropKind.RECORD:
        return dict(spec.default) if spec.default else {}
    return spec.default


def validate_props(mtype: ModuleType, props: Mapping[str, object]) -> dict[str, object]:
    """Validate ``props`` against the type's schema.

    Returns the normalised property set with every default filled in.
    Unknown keys, kind mismatches, values a spec's ``rule`` refuses and
    missing required values all raise :class:`SchemaViolation`, the first
    in schema order.
    """
    schema = schema_for(mtype)
    for key in props:
        if key not in schema:
            raise SchemaViolation(key, f"unknown property for type {ModuleType(mtype).value!r}")
    out: dict[str, object] = {}
    for key, spec in schema.items():
        if key in props:
            try:
                value = _normalize_value(spec.kind, props[key])
                out[key] = value if spec.rule is None else spec.rule(value)
            except ValueError as exc:
                raise SchemaViolation(key, str(exc)) from exc
        elif spec.required:
            raise SchemaViolation(key, "required property missing")
        else:
            out[key] = _default_for(spec)
    return out


def _value_to_json(value: object) -> object:
    """Plain-JSON form of a normalised property value. Points and axes are
    the only values JSON cannot hold and tuples become lists; everything
    else :func:`validate_props` has already made plain JSON."""
    if isinstance(value, Point):
        return _point_json(value)
    if isinstance(value, Axis):
        return {"angle_deg": value.angle_deg, "origin": _point_json(value.origin)}
    if isinstance(value, tuple):
        return [_value_to_json(v) for v in value]
    return value


def props_to_json(mtype: ModuleType, props: Mapping[str, object]) -> dict:
    """Kind-tagged JSON form of a normalised property set; the tags come
    from the schema."""
    schema = schema_for(mtype)
    return {key: {"kind": schema[key].kind.value, "value": _value_to_json(value)}
            for key, value in props.items()}


def props_from_json(mtype: ModuleType, doc: object) -> dict[str, object]:
    """Strip the kind tags of a serialised property set, the inverse of
    :func:`props_to_json`'s tagging; :func:`validate_props` decodes the
    values. A tag that differs from the schema kind is a format error.
    """
    if not isinstance(doc, dict):
        raise SchemaViolation("?", "property set must be an object")
    schema = schema_for(mtype)
    out = {}
    for key, tagged in doc.items():
        if not (isinstance(tagged, dict) and "kind" in tagged and "value" in tagged):
            raise SchemaViolation(key, "serialised value must carry 'kind' and 'value'")
        spec = schema.get(key)
        if spec is not None and tagged["kind"] != spec.kind:
            raise FileFormatError(
                f"property {key!r}: kind {tagged['kind']!r} does not match "
                f"the schema kind {spec.kind.value!r}")
        out[key] = tagged["value"]
    return out
