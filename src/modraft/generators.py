"""Geometry generators for the built-in module types.

Every generator is a pure function of a normalised property set and returns
local-coordinate elements; placement (origin, rotation, mirroring, user
scale) is applied by the module layer afterwards. Identical properties must
always produce byte-identical geometry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import SchemaViolation
from .geometry import (Element, LineType, Point, Polyline, Circle, Segment,
                       Text, _as_real, _as_text, _field, _shared_style,
                       element_from_json, offset_path)
from .lightning import gen_lightning
from .properties import SHEET_SIZES, VALVE_LENGTH, ModuleType, _read_records

if TYPE_CHECKING:
    from .core import Module

__all__ = ["generate_local", "internal_list_indices", "SHEET_SIZES"]

# Valve bowtie (ГОСТ 2.785 style): two VALVE_LENGTH triangles nose to nose.
VALVE_HALF_BASE = 1.5

# Instrument symbol (ГОСТ 21.404 style): circle with optional board chord.
INSTRUMENT_RADIUS = 5.0
INSTRUMENT_TEXT_HEIGHT = 2.5

TABLE_TEXT_HEIGHT = 2.5
TABLE_TEXT_INSET = 1.0

POSDES_SHELF_LENGTH = 8.0
POSDES_TEXT_HEIGHT = 3.5
POSDES_TEXT_INSET = 1.0
POSDES_TEXT_GAP = 0.5

SIGNATURE_TEXT_HEIGHT = 3.5

FRAME_MARGIN_LEFT = 20.0
FRAME_MARGIN = 5.0
TITLE_BLOCK_W = 185.0
TITLE_BLOCK_H = 55.0
TITLE_BLOCK_ROWS = (15.0, 15.0, 25.0)  # band heights, top to bottom

_SOLID = _shared_style()
_THIN = _shared_style(LineType.THIN_SOLID)
_CENTERLINE = _shared_style(LineType.DASH_DOT)


def gen_user(props: dict) -> tuple[Element, ...]:
    """Stored free-form elements, parsed from their record form."""
    return tuple(_read_records(props, "elements", element_from_json))


def gen_pipeline(props: dict) -> tuple[Element, ...]:
    """Two offset runs at +-diameter/2, plus an optional centreline."""
    diameter = props["diameter_mm"]
    path = props["path"]
    corner = props["corner"]
    radius = props["fillet_radius"]
    if corner == "bent" and radius <= diameter / 2.0:
        raise SchemaViolation("fillet_radius",
                              "must exceed half the diameter for bent corners")
    half = diameter / 2.0
    elements: list[Element] = []
    elements += offset_path(path, half, corner, radius, style=_SOLID)
    elements += offset_path(path, -half, corner, radius, style=_SOLID)
    if props["show_centerline"]:
        if corner == "bent":
            elements += offset_path(path, 0.0, "bent", radius, style=_CENTERLINE)
        else:
            elements.append(Polyline(tuple(path), False, _CENTERLINE))
    return tuple(elements)


def gen_valve(props: dict) -> tuple[Element, ...]:
    """Bowtie symbol: two closed triangles meeting at the origin.

    The symbol is invariant under both mirror codes, so symmetry settings
    never change its geometry.
    """
    l, hb = VALVE_LENGTH, VALVE_HALF_BASE
    left = Polyline((Point(-l, -hb), Point(0.0, 0.0), Point(-l, hb)), True, _SOLID)
    right = Polyline((Point(l, -hb), Point(0.0, 0.0), Point(l, hb)), True, _SOLID)
    return (left, right)


def gen_instrument(props: dict) -> tuple[Element, ...]:
    """Instrument circle with function and position texts, chord if on-board."""
    code = props["function_code"]
    line_type = props["kip_line_type"]
    style = _shared_style(line_type) if line_type else _SOLID
    r = INSTRUMENT_RADIUS
    th = INSTRUMENT_TEXT_HEIGHT
    elements: list[Element] = [Circle(Point(0.0, 0.0), r, style)]
    if props["on_board"]:
        elements.append(Segment(Point(-r, 0.0), Point(r, 0.0), style))
    # Function letters centred in the upper half, position text in the lower.
    elements.append(Text(Point(-0.3 * th * len(code), r / 2.0 - th / 2.0),
                         th, 0.0, code, style))
    position = props["upper_index"] + props["lower_index"]
    elements.append(Text(Point(-0.3 * th * len(position), -r / 2.0 - th / 2.0),
                         th, 0.0, position, style))
    return tuple(elements)


def _column(rec: dict) -> tuple[float, str]:
    width = _field(rec, "width_mm", _as_real)
    if not width > 0.0:
        raise ValueError("width_mm: must be positive")
    return width, _field(rec, "header", _as_text, "")


def gen_table(props: dict) -> tuple[Element, ...]:
    """Ruled table growing downward from its top-left position.

    Emits (columns+1) vertical and (rows+2) horizontal segments, then one
    text per cell, header row first, each inset 1 mm from its column line.
    """
    columns = _read_records(props, "columns", _column)

    def cells(rec: dict) -> list[str]:
        cells = rec.get("cells")
        if not (isinstance(cells, list) and len(cells) == len(columns)
                and all(isinstance(c, str) for c in cells)):
            raise ValueError("cells: expected one text per column")
        return cells

    text_rows = [[header for _, header in columns]]
    text_rows += _read_records(props, "rows", cells)
    row_h, header_h = props["row_height_mm"], props["header_height_mm"]
    x0, y0 = props["position"].x, props["position"].y
    total_w = sum(width for width, _ in columns)
    total_h = header_h + row_h * (len(text_rows) - 1)
    band_tops = [y0, y0 - header_h]
    for _ in range(len(text_rows) - 1):
        band_tops.append(band_tops[-1] - row_h)

    elements: list[Element] = []
    x = x0
    xs = [x0]
    for width, _ in columns:
        x += width
        xs.append(x)
    for x in xs:
        elements.append(Segment(Point(x, y0 - total_h), Point(x, y0), _SOLID))
    for y in band_tops:
        elements.append(Segment(Point(x0, y), Point(x0 + total_w, y), _SOLID))
    for r, row in enumerate(text_rows):
        band_h = header_h if r == 0 else row_h
        y_center = band_tops[r] - band_h / 2.0
        for col, content in enumerate(row):
            anchor = Point(xs[col] + TABLE_TEXT_INSET,
                           y_center - TABLE_TEXT_HEIGHT / 2.0)
            elements.append(Text(anchor, TABLE_TEXT_HEIGHT, 0.0, content, _SOLID))
    return tuple(elements)


def frame_size(props: dict) -> tuple[float, float]:
    """Sheet width and height in mm after orientation and multiplicity."""
    fmt = props["format"]
    landscape = props["landscape"]
    k = props["multiplicity"]
    if fmt == "A4" and landscape:
        raise SchemaViolation("landscape", "A4 sheets are portrait-only")
    w, h = SHEET_SIZES[fmt]
    if landscape:
        w, h = h, w
        return w * k, h  # long side horizontal
    return w, h * k


def gen_frame(props: dict) -> tuple[Element, ...]:
    """Sheet boundary, inner frame (20 mm binding margin, 5 mm elsewhere)
    and a 185x55 title block at the inner frame's bottom-right."""
    w, h = frame_size(props)
    outer = Polyline((Point(0.0, 0.0), Point(w, 0.0), Point(w, h), Point(0.0, h)),
                     True, _THIN)
    ix0, iy0 = FRAME_MARGIN_LEFT, FRAME_MARGIN
    ix1, iy1 = w - FRAME_MARGIN, h - FRAME_MARGIN
    inner = Polyline((Point(ix0, iy0), Point(ix1, iy0), Point(ix1, iy1), Point(ix0, iy1)),
                     True, _SOLID)
    tx0 = ix1 - TITLE_BLOCK_W
    ty1 = iy0 + TITLE_BLOCK_H
    title = Polyline((Point(tx0, iy0), Point(ix1, iy0), Point(ix1, ty1), Point(tx0, ty1)),
                     True, _SOLID)
    elements: list[Element] = [outer, inner, title]
    y = ty1
    for band in TITLE_BLOCK_ROWS[:-1]:
        y -= band
        elements.append(Segment(Point(tx0, y), Point(ix1, y), _SOLID))
    return tuple(elements)


def gen_posdes(props: dict) -> tuple[Element, ...]:
    """Leader line to a horizontal 8 mm shelf with the position text above it."""
    text = props["position_text"]
    leader_from = props["leader_from"]
    shelf_at = props["shelf_at"]
    leader = Segment(leader_from, shelf_at, _SOLID)
    shelf = Segment(shelf_at, Point(shelf_at.x + POSDES_SHELF_LENGTH, shelf_at.y), _SOLID)
    label = Text(Point(shelf_at.x + POSDES_TEXT_INSET, shelf_at.y + POSDES_TEXT_GAP),
                 POSDES_TEXT_HEIGHT, 0.0, text, _SOLID)
    return (leader, shelf, label)


def gen_signature(props: dict) -> tuple[Element, ...]:
    """Visible stamp of an electronic signature."""
    content = (f"{props['person']} / {props['position']} / "
               f"{props['date']} {props['time']}")
    return (Text(Point(0.0, 0.0), SIGNATURE_TEXT_HEIGHT, 0.0, content, _SOLID),)


_GENERATORS = {
    ModuleType.USER: gen_user,
    ModuleType.PIPELINE: gen_pipeline,
    ModuleType.VALVE: gen_valve,
    ModuleType.INSTRUMENT: gen_instrument,
    ModuleType.TABLE: gen_table,
    ModuleType.FRAME: gen_frame,
    ModuleType.POSDES: gen_posdes,
    ModuleType.LIGHTNING: gen_lightning,
    ModuleType.SIGNATURE: gen_signature,
}


def generate_local(mtype: ModuleType, props: dict) -> tuple[Element, ...]:
    """Local-coordinate geometry for a normalised property set; every
    generator returns at least one element or raises."""
    return _GENERATORS[ModuleType(mtype)](props)


def internal_list_indices(m: "Module") -> dict[str, tuple[tuple[int, ...], ...]]:
    """Named internal lists of a module: list name -> per-entry geometry indices.

    Read off the generated geometry: a table's rows are its texts after the
    header row, one per column, and a lightning plan's radius labels are its
    texts.
    """
    texts = [i for i, e in enumerate(m.geometry) if isinstance(e, Text)]
    if m.type is ModuleType.TABLE:
        n = len(m.props["columns"])
        return {"rows": tuple(tuple(texts[k:k + n])
                              for k in range(n, len(texts), n))}
    if m.type is ModuleType.LIGHTNING:
        return {"radius_dimensions": tuple((i,) for i in texts)}
    return {}
