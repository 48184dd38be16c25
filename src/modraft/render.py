"""SVG rendering of drawing viewports.

The renderer draws a rectangular viewport of a drawing to standalone SVG,
one millimetre per SVG unit. Only items whose closed bounding box meets the
viewport are emitted; a module is tested by its stored bbox without touching
its geometry.

Culling uses the drawing's ``zone_grid`` as a uniform-grid index: each cell
lists the positions of the items whose bbox touches it, and items or
viewports beyond the grid fall into its border cells. A viewport gathers
candidates from the cells it overlaps and keeps, in drawing order, those
whose bbox passes the same closed test, so the result is that of a scan
over every item. The index is built on the first cull and kept on the
drawing with a snapshot of its items and grid; a cull whose drawing no
longer matches the snapshot, however the items list or grid was changed,
rebuilds it first.

Drawing coordinates are y-up; SVG is y-down, so the viewport is flipped
vertically and arc sweeps and text rotations change sign. ``_elements_svg``
maps and writes elements of every kind: a drawing point (x, y) becomes
(x - viewport.min.x, viewport.max.y - y). The document is one join of one
string per visible item: a module's ``<g>`` group, or a free element.
Stroke attributes are built once per (line type, colour).
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources
from typing import Iterable, Iterator, NamedTuple

from .errors import KernelError
from .geometry import (Arc, Circle, Element, LineType, Polyline, Rect,
                       Segment, Text, ZoneGrid, element_bbox)
from .persistence import Drawing, DrawingItem
from .core import Module

__all__ = ["palette", "visible_items", "render_svg"]

# One row per line type: its stroke width in millimetres and its dash
# pattern, None for a continuous line.
_STROKES = {
    LineType.SOLID: (0.5, None),
    LineType.THIN_SOLID: (0.25, None),
    LineType.DASHED: (0.5, "4,2"),
    LineType.DASH_DOT: (0.5, "8,2,1,2"),
}


@functools.cache
def palette() -> list[str]:
    """The fixed 256-colour palette as #rrggbb strings."""
    data = resources.files("modraft.data").joinpath("palette.json")
    return json.loads(data.read_text("utf-8"))


class _CellIndex(NamedTuple):
    """Item positions per zone-grid cell, row-major, for one items snapshot."""

    grid: ZoneGrid
    items: tuple
    boxes: tuple
    cells: list


def _cell(value: float, origin: float, size: float, n: int) -> int:
    """The cell along one axis that holds ``value``, clamped to [0, n).

    Clamped as a float before ``int()``: far from the grid the quotient
    overflows to an infinity, which has no integer.
    """
    t = (value - origin) / size
    if t <= 0.0:
        return 0
    return n - 1 if t >= n else int(t)


def _cell_rows(grid: ZoneGrid, rect: Rect) -> Iterator[slice]:
    """Per grid row, the slice of row-major cells a closed rectangle touches.

    Item boxes and viewports go through this one monotone map, so a box and
    a viewport that meet always share a cell.
    """
    nx = grid.nx
    i0 = _cell(rect.min.x, grid.origin.x, grid.cell_w, nx)
    i1 = _cell(rect.max.x, grid.origin.x, grid.cell_w, nx) + 1
    for j in range(_cell(rect.min.y, grid.origin.y, grid.cell_h, grid.ny),
                   _cell(rect.max.y, grid.origin.y, grid.cell_h, grid.ny) + 1):
        yield slice(j * nx + i0, j * nx + i1)


def _build_index(grid: ZoneGrid, items: tuple) -> _CellIndex:
    """File each item under every cell its closed bbox touches."""
    cells = [[] for _ in range(grid.nx * grid.ny)]
    boxes = []
    for k, item in enumerate(items):
        box = item.bbox if isinstance(item, Module) else element_bbox(item)
        boxes.append(box)
        for row in _cell_rows(grid, box):
            for cell in cells[row]:
                cell.append(k)
    return _CellIndex(grid, items, tuple(boxes), cells)


def visible_items(d: Drawing, viewport: Rect, cull: bool = True) -> list[DrawingItem]:
    """Items whose closed extent intersects the viewport, in drawing order.

    Candidates come from the cells of ``d.zone_grid`` that the viewport
    overlaps, and each is kept only if its bbox passes the closed
    ``Rect.intersects`` test, so the result equals a scan of every item.
    The cell index is built here, on first use, and reused only while the
    drawing's grid and items (compared as a tuple, element by element) are
    those it was built from; any other change to ``d.items`` or
    ``d.zone_grid``, direct list edits included, makes this call rebuild
    it. ``cull`` is accepted for compatibility and has no effect.
    """
    items = tuple(d.items)
    index = d._cull_index
    if index is None or index.grid != d.zone_grid or index.items != items:
        index = d._cull_index = _build_index(d.zone_grid, items)
    candidates = set()
    for row in _cell_rows(index.grid, viewport):
        for cell in index.cells[row]:
            candidates.update(cell)
    boxes = index.boxes
    return [items[k] for k in sorted(candidates)
            if boxes[k].intersects(viewport)]


def _fmt(value: float) -> str:
    """Fixed-point SVG number: micrometre precision, no trailing zeros."""
    text = format(value, ".6f").rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _trim(text: str) -> str:
    """:func:`_fmt` for each quote-ended ``%.6f`` number in ``text``: its six
    decimals go 3 + 2 + 1 at a time, and the point after them."""
    return (text.replace('000"', '"').replace('00"', '"').replace('0"', '"')
            .replace('."', '"').replace('"-0"', '"0"'))


# Markup characters as entities; characters XML 1.0 forbids as U+FFFD.
_ESCAPES = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord('"'): "&quot;",
            **dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20),
                             *range(0xD800, 0xE000), 0xFFFE, 0xFFFF], "\ufffd")}


@functools.cache
def _stroke(line_type: LineType, color: int) -> str:
    """Stroke attributes of a line style, built once per (type, colour)."""
    width, dash = _STROKES[line_type]
    attrs = f'stroke="{palette()[color]}" stroke-width="{_fmt(width)}"'
    return attrs if dash is None else f'{attrs} stroke-dasharray="{dash}"'


def _elements_svg(elements: Iterable[Element], x0: float, top: float) -> list[str]:
    """Elements as SVG lines; a drawing point (x, y) maps to (x - x0, top - y)."""
    lines = []
    for element in elements:
        stroke = _stroke(element.style.line_type, element.style.color)
        if isinstance(element, Segment):
            p1, p2 = element.p1, element.p2
            head = '<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"' % (
                p1.x - x0, top - p1.y, p2.x - x0, top - p2.y)
            if '0"' in head:
                head = _trim(head)
            line = f"{head} {stroke}/>"
        elif isinstance(element, Polyline):
            points = " ".join(f"{_fmt(p.x - x0)},{_fmt(top - p.y)}"
                              for p in element.points)
            tag = "polygon" if element.closed else "polyline"
            line = f'<{tag} points="{points}" fill="none" {stroke}/>'
        elif isinstance(element, Circle):
            c = element.center
            head = '<circle cx="%.6f" cy="%.6f" r="%.6f"' % (
                c.x - x0, top - c.y, element.radius)
            if '0"' in head:
                head = _trim(head)
            line = f'{head} fill="none" {stroke}/>'
        elif isinstance(element, Arc):
            # A counter-clockwise sweep in y-up coordinates appears
            # counter-clockwise on screen, which is SVG sweep direction 0.
            s = element.point_at(element.start_angle)
            e = element.point_at(element.end_angle)
            r = _fmt(element.radius)
            large = 1 if element.sweep_deg > 180.0 else 0
            line = (f'<path d="M {_fmt(s.x - x0)} {_fmt(top - s.y)} '
                    f'A {r} {r} 0 {large} 0 {_fmt(e.x - x0)} {_fmt(top - e.y)}" '
                    f'fill="none" {stroke}/>')
        elif isinstance(element, Text):
            a = element.anchor
            transform = f"translate({_fmt(a.x - x0)} {_fmt(top - a.y)})"
            if element.angle_deg != 0.0:
                transform += f" rotate({_fmt(-element.angle_deg)})"
            length = ""
            if element.content:
                length = (f' textLength="{_fmt(element.box_width)}"'
                          ' lengthAdjust="spacingAndGlyphs"')
            line = (f'<text transform="{transform}" font-size="{_fmt(element.height_mm)}" '
                    f'font-family="monospace" fill="{palette()[element.style.color]}" '
                    f'stroke="none"{length}>{element.content.translate(_ESCAPES)}</text>')
        else:
            raise TypeError(f"not an element: {element!r}")
        lines.append(line)
    return lines


def render_svg(d: Drawing, viewport: "Rect | None" = None,
               cull: bool = True) -> str:
    """Render a drawing viewport (default: the full extent) to SVG text.

    A viewport whose width or height overflows to infinity raises
    :class:`KernelError`.
    ``cull`` is accepted for compatibility and has no effect.
    """
    vp = viewport if viewport is not None else d.extent
    if not (math.isfinite(vp.width) and math.isfinite(vp.height)):
        raise KernelError("viewport width and height must be finite")
    x0, top = vp.min.x, vp.max.y
    chunks = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(vp.width)}mm" '
        f'height="{_fmt(vp.height)}mm" '
        f'viewBox="0 0 {_fmt(vp.width)} {_fmt(vp.height)}">',
    ]
    # One string per item, so the document is joined once and never copied.
    for item in visible_items(d, vp):
        if isinstance(item, Module):
            chunks.append("\n".join([
                f'<g data-module-id="{item.id}" '
                f'data-module-type="{item.type.value}">',
                *_elements_svg(item.geometry, x0, top), "</g>"]))
        else:
            chunks.extend(_elements_svg((item,), x0, top))
    chunks.append("</svg>\n")
    return "\n".join(chunks)
