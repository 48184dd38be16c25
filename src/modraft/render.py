"""SVG rendering of drawing viewports.

The renderer draws a rectangular viewport of a drawing to standalone SVG,
one millimetre per SVG unit. Only items whose closed bounding box meets the
viewport are emitted; a module is tested by its stored bbox without touching
its geometry.

Drawing coordinates are y-up; SVG is y-down, so the viewport is flipped
vertically and arc sweeps and text rotations change sign.
"""

from __future__ import annotations

import json
from importlib import resources

from .geometry import (Arc, Circle, Element, LineType, Polyline, Rect,
                       Segment, Text, element_bbox)
from .persistence import Drawing, DrawingItem
from .core import Module

__all__ = ["palette", "visible_items", "render_svg"]

STROKE_WIDTH_MM = 0.5
THIN_STROKE_WIDTH_MM = 0.25

_DASH_PATTERNS = {
    LineType.SOLID: None,
    LineType.THIN_SOLID: None,
    LineType.DASHED: "4,2",
    LineType.DASH_DOT: "8,2,1,2",
}

_palette_cache: "list[str] | None" = None


def palette() -> list[str]:
    """The fixed 256-colour palette as #rrggbb strings."""
    global _palette_cache
    if _palette_cache is None:
        data = resources.files("modraft.data").joinpath("palette.json")
        _palette_cache = json.loads(data.read_text("utf-8"))
    return _palette_cache


def visible_items(d: Drawing, viewport: Rect, cull: bool = True) -> list[DrawingItem]:
    """Items whose closed extent intersects the viewport, in drawing order.

    ``cull`` is accepted for compatibility and has no effect.
    """
    return [item for item in d.items
            if (item.bbox if isinstance(item, Module)
                else element_bbox(item)).intersects(viewport)]


def _fmt(value: float) -> str:
    """Fixed-point SVG number: micrometre precision, no trailing zeros."""
    text = format(value, ".6f").rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class _Mapper:
    """Drawing-to-SVG coordinate mapping for one viewport."""

    def __init__(self, viewport: Rect):
        self.x0 = viewport.min.x
        self.y1 = viewport.max.y

    def point(self, p) -> tuple[float, float]:
        return p.x - self.x0, self.y1 - p.y

    def xy(self, p) -> str:
        x, y = self.point(p)
        return f"{_fmt(x)},{_fmt(y)}"


def _style_attrs(style) -> str:
    colors = palette()
    attrs = [f'stroke="{colors[style.color]}"']
    width = THIN_STROKE_WIDTH_MM if style.line_type is LineType.THIN_SOLID \
        else STROKE_WIDTH_MM
    attrs.append(f'stroke-width="{_fmt(width)}"')
    dash = _DASH_PATTERNS[style.line_type]
    if dash is not None:
        attrs.append(f'stroke-dasharray="{dash}"')
    return " ".join(attrs)


def _element_svg(element: Element, mapper: _Mapper) -> str:
    if isinstance(element, Segment):
        x1, y1 = mapper.point(element.p1)
        x2, y2 = mapper.point(element.p2)
        return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" {_style_attrs(element.style)}/>')
    if isinstance(element, Polyline):
        points = " ".join(mapper.xy(p) for p in element.points)
        tag = "polygon" if element.closed else "polyline"
        return (f'<{tag} points="{points}" fill="none" '
                f'{_style_attrs(element.style)}/>')
    if isinstance(element, Circle):
        cx, cy = mapper.point(element.center)
        return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(element.radius)}" fill="none" '
                f'{_style_attrs(element.style)}/>')
    if isinstance(element, Arc):
        # A counter-clockwise sweep in y-up coordinates appears
        # counter-clockwise on screen, which is SVG sweep direction 0.
        sx, sy = mapper.point(element.point_at(element.start_angle))
        ex, ey = mapper.point(element.point_at(element.end_angle))
        r = _fmt(element.radius)
        large = 1 if element.sweep_deg > 180.0 else 0
        return (f'<path d="M {_fmt(sx)} {_fmt(sy)} A {r} {r} 0 {large} 0 '
                f'{_fmt(ex)} {_fmt(ey)}" fill="none" '
                f'{_style_attrs(element.style)}/>')
    if isinstance(element, Text):
        ax, ay = mapper.point(element.anchor)
        transform = f"translate({_fmt(ax)} {_fmt(ay)})"
        if element.angle_deg != 0.0:
            transform += f" rotate({_fmt(-element.angle_deg)})"
        colors = palette()
        length = ""
        if element.content:
            length = (f' textLength="{_fmt(element.box_width)}"'
                      ' lengthAdjust="spacingAndGlyphs"')
        return (f'<text transform="{transform}" font-size="{_fmt(element.height_mm)}" '
                f'font-family="monospace" fill="{colors[element.style.color]}" '
                f'stroke="none"{length}>{_escape(element.content)}</text>')
    raise TypeError(f"not an element: {element!r}")


def render_svg(d: Drawing, viewport: "Rect | None" = None,
               cull: bool = True) -> str:
    """Render a drawing viewport (default: the full extent) to SVG text.

    ``cull`` is accepted for compatibility and has no effect.
    """
    vp = viewport if viewport is not None else d.extent
    mapper = _Mapper(vp)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(vp.width)}mm" '
        f'height="{_fmt(vp.height)}mm" '
        f'viewBox="0 0 {_fmt(vp.width)} {_fmt(vp.height)}">',
    ]
    for item in visible_items(d, vp):
        if isinstance(item, Module):
            lines.append(f'<g data-module-id="{item.id}" '
                         f'data-module-type="{item.type.value}">')
            lines.extend(_element_svg(e, mapper) for e in item.geometry)
            lines.append("</g>")
        else:
            lines.append(_element_svg(item, mapper))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
