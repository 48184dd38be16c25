"""Property model for drawing modules.

Each module type declares an ordered property schema. Property values are
typed, validated and normalised so that identical parameter sets always
serialise to identical bytes. Serialised values are tagged with their kind;
reading them back checks each tag against the schema and strips it, and
:func:`validate_props` decodes the bare JSON values, so it is the one place
a property value is coerced.

Each property kind has one row in ``_KINDS``: its reader, which decodes a
JSON value to the kind's value class, and its writer, which writes a decoded
value straight to canonical JSON text. ``_props_bytes`` writes a whole
property set in one format call per module, keys in sorted order, with the
kind tags fixed per type. Its bytes are exactly those of the reference
form that tests compare it with, ``canonical_encode(props_to_json(...))``.

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
from json.encoder import encode_basestring
from typing import Callable, Mapping

from .canon import _utf8, canonical_dumps
from .errors import FileFormatError, KernelError, SchemaViolation
from .geometry import (LineType, Point, _as_bool, _as_int, _as_point, _as_real,
                       _as_text, _not_of_class, _to_json, norm_deg)

__all__ = ["ModuleType", "PropKind", "Axis", "PropSpec", "schema_for",
           "validate_props", "russian_property_names"]


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
        if not isinstance(self.origin, Point):
            raise _not_of_class(origin=self.origin)
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

# Portrait sheet sizes in mm (ГОСТ 2.301), by frame format.
SHEET_SIZES = {"A4": (210.0, 297.0), "A3": (297.0, 420.0), "A2": (420.0, 594.0),
               "A1": (594.0, 841.0), "A0": (841.0, 1189.0)}

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
            "", *(t.value for t in LineType))),
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
        "format": PropSpec(PropKind.TEXT, required=True, rule=_one_of(*SHEET_SIZES)),
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
    if value is None or isinstance(value, (str, int)):  # bool is an int
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
        unknown = sorted(map(repr, value.keys() - {"origin", "angle_deg"}))
        if unknown:
            raise ValueError(f"bad axis: unknown key {unknown[0]}")
        return Axis(_as_point(value["origin"]), value.get("angle_deg", 0.0))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Axis(_as_point(value[0]), value[1])
    raise ValueError(f"expected an axis, got {value!r}")


def _as_record(value: object) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"expected a record, got {type(value).__name__}")
    return _normalize_json(value)


def _as_list_item(value: object) -> dict:
    record = _normalize_json(value)
    if not isinstance(record, dict):
        raise ValueError("list items must be records")
    return record


def _list_of(read: Callable[[object], object], what: str) -> Callable[[object], tuple]:
    """A reader of a list each of whose items ``read`` reads. A value that
    is not iterable, or is a text or a record, is not a list of ``what``."""
    def read_list(value: object) -> tuple:
        if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
            raise ValueError(f"expected a list of {what}")
        return tuple(map(read, value))
    return read_list


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


def validate_props(mtype: ModuleType, props: Mapping[str, object]) -> dict[str, object]:
    """Validate ``props`` against the type's schema.

    Returns the normalised property set; a missing optional value is its
    spec's ``default``, read as a given value is read. Unknown keys, kind
    mismatches, values a spec's ``rule`` refuses and missing required
    values all raise :class:`SchemaViolation`, the first in schema order.
    """
    schema = schema_for(mtype)
    for key in props:
        if key not in schema:
            raise SchemaViolation(key, f"unknown property for type {ModuleType(mtype).value!r}")
    out: dict[str, object] = {}
    for key, spec in schema.items():
        if spec.required and key not in props:
            raise SchemaViolation(key, "required property missing")
        try:
            value = _KINDS[spec.kind][0](props.get(key, spec.default))
            out[key] = value if spec.rule is None else spec.rule(value)
        except ValueError as exc:
            raise SchemaViolation(key, str(exc)) from exc
    return out


def props_to_json(mtype: ModuleType, props: Mapping[str, object]) -> dict:
    """Kind-tagged JSON form of a normalised property set; the tags come
    from the schema. Files are written by ``_props_bytes``, whose bytes are
    this form's canonical encoding."""
    schema = schema_for(mtype)
    return {key: {"kind": schema[key].kind.value, "value": _to_json(value)}
            for key, value in props.items()}


def _point_text(p: Point) -> str:
    return "[%r,%r]" % (p.x, p.y)


def _axis_text(a: Axis) -> str:
    o = a.origin
    return '{"angle_deg":%r,"origin":[%r,%r]}' % (a.angle_deg, o.x, o.y)


# One row per property kind: its reader, which decodes a JSON value to the
# kind's value class and refuses with ``ValueError(reason)``, and its writer,
# which writes a value its reader decoded as canonical JSON text, as the
# encoder writes it (reals and integers by their ``__repr__``, text by
# ``encode_basestring``, the encoder's writer without ``ensure_ascii``).
# Decoded reals and points are finite floats, so no writer needs the
# encoder's NaN check. Records are free-form JSON, so the encoder writes them.
_KINDS = {
    PropKind.TEXT: (_as_text, encode_basestring),
    PropKind.REAL: (_as_real, float.__repr__),
    PropKind.INTEGER: (_as_int, int.__repr__),
    PropKind.BOOLEAN: (_as_bool, {True: "true", False: "false"}.__getitem__),
    PropKind.POINT: (_as_point, _point_text),
    PropKind.POINT_LIST: (_list_of(_as_point, "points"),
                          lambda ps: "[" + ",".join(map(_point_text, ps)) + "]"),
    PropKind.AXIS_LIST: (_list_of(_as_axis, "axes"),
                         lambda axes: "[" + ",".join(map(_axis_text, axes)) + "]"),
    PropKind.RECORD: (_as_record, canonical_dumps),
    PropKind.RECORD_LIST: (_list_of(_as_list_item, "records"), canonical_dumps),
}


def _layout(mtype: ModuleType) -> tuple[str, tuple]:
    """The format string of a type's tagged property set, keys in sorted
    order, and the (key, writer) pair of each of its ``%s`` slots."""
    schema = schema_for(mtype)
    keys = sorted(schema)
    template = "{" + ",".join(
        '%s:{"kind":"%s","value":%%s}' % (canonical_dumps(key), schema[key].kind.value)
        for key in keys) + "}"
    return template, tuple((key, _KINDS[schema[key].kind][1]) for key in keys)


_LAYOUTS = {mtype: _layout(mtype) for mtype in ModuleType}


def _props_bytes(mtype: ModuleType, props: Mapping[str, object]) -> bytes:
    """``canonical_encode(props_to_json(mtype, props))`` of a normalised
    property set, written in one format call. A lone surrogate in a text
    value is a :class:`KernelError`, as from the encoder."""
    template, fields = _LAYOUTS[mtype]
    return _utf8(template % tuple([write(props[key]) for key, write in fields]))


def props_from_json(mtype: ModuleType, doc: object) -> dict[str, object]:
    """Strip the kind tags of a serialised property set, the inverse of
    :func:`props_to_json`'s tagging; :func:`validate_props` decodes the
    values. A tag that differs from the schema kind, or holds a key beyond
    ``kind`` and ``value``, is a format error.
    """
    if not isinstance(doc, dict):
        raise SchemaViolation("?", "property set must be an object")
    schema = schema_for(mtype)
    out = {}
    for key, tagged in doc.items():
        if not (isinstance(tagged, dict) and "kind" in tagged and "value" in tagged):
            raise SchemaViolation(key, "serialised value must carry 'kind' and 'value'")
        if len(tagged) != 2:
            unknown = min(map(repr, tagged.keys() - {"kind", "value"}))
            raise FileFormatError(f"property {key!r}: unknown key {unknown} in its tag")
        spec = schema.get(key)
        if spec is not None and tagged["kind"] != spec.kind:
            raise FileFormatError(
                f"property {key!r}: kind {tagged['kind']!r} does not match "
                f"the schema kind {spec.kind.value!r}")
        out[key] = tagged["value"]
    return out
