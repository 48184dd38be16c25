"""Viewport culling and SVG output."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from modraft import (Arc, Circle, Drawing, KernelError, LineStyle, LineType,
                     ModuleType, Point, Polyline, Rect, Segment, Text,
                     ZoneGrid, element_bbox, move_module, palette,
                     render_svg, visible_items)
from modraft.render import _fmt, _trim

from propgen import PROP_MAKERS, random_props

EXTENT = Rect.from_bounds(-1000, -1000, 2000, 2000)


def _scene(seed: int, n: int = 60) -> Drawing:
    rng = random.Random(seed)
    d = Drawing.new(EXTENT)
    for _ in range(n):
        if rng.random() < 0.6:
            mtype = rng.choice(list(PROP_MAKERS))
            d.add_module(mtype, random_props(rng, mtype))
        else:
            x, y = rng.uniform(-900, 1900), rng.uniform(-900, 1900)
            d.add_element(Segment(Point(x, y),
                                  Point(x + rng.uniform(1, 80), y + 5),
                                  LineStyle()))
    return d


def _brute_force(d: Drawing, viewport: Rect):
    out = []
    for item in d.items:
        box = item.bbox if hasattr(item, "bbox") else element_bbox(item)
        if box.intersects(viewport):
            out.append(item)
    return out


def test_culling_matches_brute_force():
    rng = random.Random(71)
    for seed in range(5):
        d = _scene(seed)
        for _ in range(40):
            x, y = rng.uniform(-1200, 2100), rng.uniform(-1200, 2100)
            vp = Rect.from_bounds(x, y, x + rng.uniform(10, 900),
                                  y + rng.uniform(10, 900))
            expected = _brute_force(d, vp)
            assert visible_items(d, vp, cull=True) == expected
            assert visible_items(d, vp, cull=False) == expected


def test_culling_never_changes_the_rendering():
    rng = random.Random(72)
    d = _scene(11)
    for _ in range(10):
        x, y = rng.uniform(-500, 1500), rng.uniform(-500, 1500)
        vp = Rect.from_bounds(x, y, x + 400, y + 300)
        assert render_svg(d, vp, cull=True) == render_svg(d, vp, cull=False)


def test_render_is_deterministic():
    assert render_svg(_scene(5)) == render_svg(_scene(5))


def test_empty_drawing_renders_bare_document():
    svg = render_svg(Drawing.new(Rect.from_bounds(0, 0, 100, 50)))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(root) == 0
    assert root.get("viewBox") == "0 0 100 50"
    assert root.get("width") == "100mm" and root.get("height") == "50mm"


def test_full_extent_viewport_includes_everything():
    d = _scene(13)
    assert visible_items(d, d.extent) == d.items


def test_svg_parses_and_groups_modules():
    d = Drawing.new(Rect.from_bounds(0, 0, 400, 300))
    d.add_module(ModuleType.VALVE, {"origin": (100, 100)})
    d.add_module(ModuleType.INSTRUMENT, {"origin": (200, 100),
                                         "function_code": "PI"})
    d.add_element(Segment(Point(0, 0), Point(10, 10), LineStyle()))
    root = ET.fromstring(render_svg(d))
    groups = [c for c in root if c.tag.endswith("g")]
    assert [g.get("data-module-id") for g in groups] == ["1", "2"]
    assert [g.get("data-module-type") for g in groups] == ["valve", "instrument"]
    # the free element sits outside any group
    assert any(c.tag.endswith("line") for c in root)


def test_y_axis_flips():
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_element(Segment(Point(10, 20), Point(30, 90), LineStyle()))
    root = ET.fromstring(render_svg(d))
    (line,) = [c for c in root if c.tag.endswith("line")]
    assert (line.get("x1"), line.get("y1")) == ("10", "80")
    assert (line.get("x2"), line.get("y2")) == ("30", "10")


def test_viewport_offset_shifts_coordinates():
    d = Drawing.new(Rect.from_bounds(0, 0, 500, 500))
    d.add_element(Segment(Point(100, 100), Point(120, 100), LineStyle()))
    root = ET.fromstring(render_svg(d, Rect.from_bounds(50, 50, 250, 250)))
    (line,) = [c for c in root if c.tag.endswith("line")]
    assert (line.get("x1"), line.get("y1")) == ("50", "150")


def test_line_styles_map_to_stroke_attributes():
    d = Drawing.new(Rect.from_bounds(0, 0, 200, 200))
    styles = [LineStyle(LineType.SOLID, 0), LineStyle(LineType.THIN_SOLID, 0),
              LineStyle(LineType.DASHED, 2), LineStyle(LineType.DASH_DOT, 250)]
    for i, style in enumerate(styles):
        d.add_element(Segment(Point(0, 10 * i), Point(50, 10 * i), style))
    root = ET.fromstring(render_svg(d))
    lines = [c for c in root if c.tag.endswith("line")]
    colors = palette()
    assert lines[0].get("stroke-width") == "0.5"
    assert lines[0].get("stroke-dasharray") is None
    assert lines[1].get("stroke-width") == "0.25"
    assert lines[2].get("stroke-dasharray") == "4,2"
    assert lines[2].get("stroke") == colors[2]
    assert lines[3].get("stroke-dasharray") == "8,2,1,2"
    assert lines[3].get("stroke") == colors[250]


def test_palette_shape():
    colors = palette()
    assert len(colors) == 256
    assert colors[0] == "#000000"
    assert all(re.fullmatch(r"#[0-9a-f]{6}", c) for c in colors)
    assert len(set(colors)) == 256  # all distinct


def test_circle_and_arc_rendering():
    d = Drawing.new(Rect.from_bounds(0, 0, 200, 200))
    d.add_element(Circle(Point(100, 100), 25.0, LineStyle()))
    d.add_element(Arc(Point(100, 100), 40.0, 0.0, 90.0, LineStyle()))
    root = ET.fromstring(render_svg(d))
    (circle,) = [c for c in root if c.tag.endswith("circle")]
    assert (circle.get("cx"), circle.get("cy"), circle.get("r")) == \
        ("100", "100", "25")
    (path,) = [c for c in root if c.tag.endswith("path")]
    m = re.fullmatch(
        r"M (?P<sx>\S+) (?P<sy>\S+) A 40 40 0 (?P<large>[01]) 0 (?P<ex>\S+) (?P<ey>\S+)",
        path.get("d"))
    assert m, path.get("d")
    # start at angle 0 -> (140, 100) -> svg (140, 100); end at 90 -> svg (100, 60)
    assert (m["sx"], m["sy"]) == ("140", "100")
    assert (m["ex"], m["ey"]) == ("100", "60")
    assert m["large"] == "0"


def test_arc_over_half_turn_sets_large_flag():
    d = Drawing.new(Rect.from_bounds(0, 0, 200, 200))
    d.add_element(Arc(Point(100, 100), 40.0, 0.0, 270.0, LineStyle()))
    root = ET.fromstring(render_svg(d))
    (path,) = [c for c in root if c.tag.endswith("path")]
    assert " A 40 40 0 1 0 " in path.get("d")


def test_text_rendering():
    d = Drawing.new(Rect.from_bounds(0, 0, 200, 200))
    d.add_element(Text(Point(20, 30), 5.0, 30.0, "AB", LineStyle()))
    root = ET.fromstring(render_svg(d))
    (text,) = [c for c in root if c.tag.endswith("text")]
    assert text.text == "AB"
    assert text.get("transform") == "translate(20 170) rotate(-30)"
    assert text.get("font-size") == "5"
    assert text.get("font-family") == "monospace"
    # fixed-pitch box: 0.6 * height per character
    assert text.get("textLength") == "6"
    assert text.get("lengthAdjust") == "spacingAndGlyphs"
    assert text.get("stroke") == "none"


def test_text_escaping():
    d = Drawing.new(Rect.from_bounds(0, 0, 200, 200))
    d.add_element(Text(Point(0, 0), 5.0, 0.0, 'a<b>&"c', LineStyle()))
    svg = render_svg(d)
    assert "a&lt;b&gt;&amp;&quot;c" in svg
    ET.fromstring(svg)  # still well-formed


def test_number_formatting_is_trimmed():
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_element(Segment(Point(10.5, 0.0000001), Point(1 / 3, 100), LineStyle()))
    root = ET.fromstring(render_svg(d))
    (line,) = [c for c in root if c.tag.endswith("line")]
    assert line.get("x1") == "10.5"
    assert line.get("y1") == "100"  # 99.9999999 rounds at micrometre precision
    assert line.get("x2") == "0.333333"
    assert line.get("y2") == "0"


# SHA-256 of the mixed scene's SVG: any byte of drift in the emitter fails.
MIXED_SCENE_SHA256 = \
    "afe17fb74c87d59e4c3008adee5ea04d79b62e5d3ba9ddf33abdbacc3f6401b7"


def _mixed_scene() -> Drawing:
    """Every element kind and line type, plus two module groups."""
    d = Drawing.new(Rect.from_bounds(-50, -50, 350, 250))
    styles = [LineStyle(LineType.SOLID, 0), LineStyle(LineType.THIN_SOLID, 7),
              LineStyle(LineType.DASHED, 2), LineStyle(LineType.DASH_DOT, 250)]
    for i, style in enumerate(styles):
        y = 10.0 * i + 1 / 3
        d.add_element(Segment(Point(-20.125, y), Point(80.5, y + 2.75), style))
        d.add_element(Polyline((Point(100, y), Point(120.25, y + 5),
                                Point(140, y - 0.0000004)), i % 2 == 1, style))
        d.add_element(Circle(Point(200 + 15 * i, 40), 2.5 + i, style))
        d.add_element(Arc(Point(60, 120), 10.0 + i, 30.0 * i, 30.0 * i + 95.0, style))
        d.add_element(Arc(Point(160, 120), 12.5, -45.0 + i, 200.0 + i, style))
        d.add_element(Text(Point(10 + 40 * i, 200), 3.5, 37.5 * i,
                           ['AB', 'a<b>&"c', '', 'Вентиль'][i], style))
    d.add_module(ModuleType.VALVE, {"origin": (250, 150), "angle_deg": 30.0})
    d.add_module(ModuleType.INSTRUMENT, {"origin": (300.5, 100),
                                         "function_code": "PI", "on_board": True})
    return d


def test_mixed_scene_svg_bytes_are_pinned():
    svg = render_svg(_mixed_scene(), Rect.from_bounds(-30.5, -20.25, 330, 230))
    for tag in ("line", "polyline", "polygon", "circle", "path", "text", "g"):
        assert f"<{tag} " in svg
    assert hashlib.sha256(svg.encode()).hexdigest() == MIXED_SCENE_SHA256


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@given(_finite, _finite)
@example(-0.0, 4e-7)
@example(-4e-7, 5e-7)
@example(-5e-7, 10.0)
@example(100.0, 1e20)
@example(1e300, -1e300)
@example(0.5, 0.25)  # five and four trailing zeros
@example(1.125, 2.0625)  # three and two
def test_trim_is_fmt_for_every_quote_ended_number(u, v):
    assert _trim('a="%.6f" b="%.6f"' % (u, v)) == f'a="{_fmt(u)}" b="{_fmt(v)}"'


def test_segment_and_circle_lines_are_pinned():
    # Each number hits one trimming branch: a value that rounds to -0, an
    # integer, one trailing zero, six zeros after 100, and 0.000001.
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_element(Segment(Point(-4e-7, 0), Point(12.34561, 80), LineStyle()))
    d.add_element(Segment(Point(0.000001, 99.5), Point(100, 100.0000004), LineStyle()))
    d.add_element(Circle(Point(0.000001, 90), 10.0, LineStyle()))
    d.add_element(Circle(Point(-4e-7, 100.0000004), 2.5, LineStyle(LineType.DASHED, 7)))
    assert render_svg(d).splitlines()[2:-1] == [
        '<line x1="0" y1="100" x2="12.34561" y2="20" stroke="#000000" stroke-width="0.5"/>',
        '<line x1="0.000001" y1="0.5" x2="100" y2="0" stroke="#000000" stroke-width="0.5"/>',
        '<circle cx="0.000001" cy="10" r="10" fill="none" stroke="#000000" '
        'stroke-width="0.5"/>',
        '<circle cx="0" cy="0" r="2.5" fill="none" stroke="#ffffff" stroke-width="0.5" '
        'stroke-dasharray="4,2"/>',
    ]


# Characters XML 1.0 forbids in a document; the renderer writes U+FFFD.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _rendered_text(content: str) -> str:
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_element(Text(Point(10, 10), 5.0, 0.0, content, LineStyle()))
    root = ET.fromstring(render_svg(d).encode("utf-8"))
    (text,) = [c for c in root if c.tag.endswith("text")]
    return text.text or ""


@pytest.mark.parametrize("content", ["bell\x07", "nul\x00", "\ufffe", "\uffff",
                                     "lone \ud800 surrogate", "\x0b\x0c\x1f"])
def test_xml_forbidden_text_characters_render_as_replacement(content):
    assert _rendered_text(content) == _XML_FORBIDDEN.sub("\ufffd", content)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_any_text_renders_to_well_formed_svg(content):
    text = _rendered_text(content)
    if not _XML_FORBIDDEN.search(content) and "\r" not in content:
        assert text == content


# --- the cell index behind visible_items --------------------------------

HUGE = 1e308


def _same_objects(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def _coord(data, grid: ZoneGrid, axis: int) -> float:
    """A coordinate near the grid, on one of its cell boundaries, or far
    beyond it."""
    origin = (grid.origin.x, grid.origin.y)[axis]
    size, n = (grid.cell_w, grid.nx) if axis == 0 else (grid.cell_h, grid.ny)
    kind = data.draw(st.sampled_from(["near", "boundary", "far"]))
    if kind == "boundary":
        return origin + data.draw(st.integers(-2, n + 2)) * size
    if kind == "far":
        return data.draw(st.floats(-1e300, 1e300))
    span = max(n * size, 1.0)
    return data.draw(st.floats(origin - span, origin + 2 * span))


def _segment(data, grid: ZoneGrid) -> Segment:
    return Segment(Point(_coord(data, grid, 0), _coord(data, grid, 1)),
                   Point(_coord(data, grid, 0), _coord(data, grid, 1)),
                   LineStyle())


_grids = st.builds(
    ZoneGrid,
    st.builds(Point, st.floats(-3000, 3000), st.floats(-3000, 3000)),
    st.one_of(st.floats(0.01, 500), st.just(1e6)),
    st.one_of(st.floats(0.01, 500), st.just(1e6)),
    st.integers(1, 64), st.integers(1, 64))


def _viewport(data, d: Drawing) -> Rect:
    grid = d.zone_grid
    kind = data.draw(st.sampled_from(
        ["random", "degenerate", "item-edge", "huge", "full"]))
    if kind == "huge":
        return Rect.from_bounds(-HUGE, -HUGE, HUGE, data.draw(
            st.sampled_from([HUGE, -HUGE, 0.0])))
    if kind == "full":
        return Rect.from_bounds(-HUGE, -HUGE, HUGE, HUGE)
    x0, y0 = _coord(data, grid, 0), _coord(data, grid, 1)
    if kind == "degenerate":
        return Rect.from_bounds(x0, y0, x0, data.draw(
            st.sampled_from([y0, _coord(data, grid, 1)])))
    if kind == "item-edge" and d.items:
        # Touch one item's bbox from outside: the closed test keeps it.
        item = data.draw(st.sampled_from(d.items))
        box = item.bbox if hasattr(item, "bbox") else element_bbox(item)
        return Rect.from_bounds(box.max.x, box.max.y,
                                box.max.x + data.draw(st.floats(0, 50)),
                                box.max.y + data.draw(st.floats(0, 50)))
    return Rect.from_bounds(x0, y0, _coord(data, grid, 0), _coord(data, grid, 1))


def _mutate(data, d: Drawing) -> None:
    modules = d.modules()
    op = data.draw(st.sampled_from(
        ["add_module", "add_element", "set_props", "move", "remove",
         "append", "slice", "reassign", "grid"]))
    if op in ("set_props", "move", "remove") and not modules:
        op = "add_module"
    if op == "add_module":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        mtype = rng.choice(list(PROP_MAKERS))
        d.add_module(mtype, random_props(rng, mtype))
    elif op == "add_element":
        d.add_element(_segment(data, d.zone_grid))
    elif op == "set_props":
        m = data.draw(st.sampled_from(modules))
        d.set_module_properties(m.id, {"origin": (
            data.draw(st.floats(-2000, 2000)), data.draw(st.floats(-2000, 2000)))})
    elif op == "move":
        m = data.draw(st.sampled_from(modules))
        d.replace_module(move_module(m, data.draw(st.floats(-500, 500)),
                                     data.draw(st.floats(-500, 500))))
    elif op == "remove":
        d.remove_module(data.draw(st.sampled_from(modules)).id)
    elif op == "append":
        d.items.append(_segment(data, d.zone_grid))
    elif op == "slice":
        i = data.draw(st.integers(0, len(d.items)))
        j = data.draw(st.integers(i, len(d.items)))
        d.items[i:j] = [_segment(data, d.zone_grid)
                        for _ in range(data.draw(st.integers(0, 3)))]
    elif op == "reassign":
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        d.items = rng.sample(d.items, rng.randrange(len(d.items) + 1))
    else:
        d.zone_grid = data.draw(_grids)


@settings(max_examples=60, deadline=None)
@given(st.data(), _grids)
def test_culling_equals_brute_force_through_any_mutation(data, grid):
    d = Drawing.new(Rect.from_bounds(-1000, -1000, 2000, 2000), grid)
    for _ in range(data.draw(st.integers(1, 12))):
        _mutate(data, d)
        for _ in range(data.draw(st.integers(1, 4))):
            vp = _viewport(data, d)
            assert _same_objects(visible_items(d, vp), _brute_force(d, vp))


def _index_scene() -> Drawing:
    d = Drawing.new(Rect.from_bounds(0, 0, 1000, 1000))
    d.add_module(ModuleType.VALVE, {"origin": (100, 100)})
    d.add_module(ModuleType.VALVE, {"origin": (700, 700)})
    d.add_element(Segment(Point(400, 400), Point(420, 420), LineStyle()))
    return d


_FAR_SEGMENT = Segment(Point(900, 100), Point(950, 120), LineStyle())
_MUTATIONS = {
    "add_module": lambda d: d.add_module(ModuleType.VALVE, {"origin": (910, 110)}),
    "add_element": lambda d: d.add_element(_FAR_SEGMENT),
    "set_module_properties":
        lambda d: d.set_module_properties(2, {"origin": (910, 110)}),
    "replace_module": lambda d: d.replace_module(move_module(d.module(2), 210, -590)),
    "remove_module": lambda d: d.remove_module(1),
    "items_append": lambda d: d.items.append(_FAR_SEGMENT),
    "items_slice": lambda d: d.items.__setitem__(slice(0, 1), [_FAR_SEGMENT]),
    "items_reassign": lambda d: setattr(d, "items", d.items[1:] + [_FAR_SEGMENT]),
    "zone_grid": lambda d: setattr(d, "zone_grid", ZoneGrid(Point(0, 0), 7.0, 7.0, 64, 64)),
    "equal_copy": lambda d: d.items.__setitem__(2, dataclasses.replace(d.items[2])),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_stale_index_is_never_reused(mutation):
    d = _index_scene()
    views = [Rect.from_bounds(0, 0, 1000, 1000), Rect.from_bounds(850, 50, 1000, 200),
             Rect.from_bounds(0, 0, 150, 150), Rect.from_bounds(420, 420, 420, 420)]
    for vp in views:
        visible_items(d, vp)
    built = d._cull_index
    before = [visible_items(d, vp) for vp in views]
    assert d._cull_index is built  # unchanged drawing: the index is reused
    _MUTATIONS[mutation](d)
    after = [visible_items(d, vp) for vp in views]
    assert all(_same_objects(visible_items(d, vp), _brute_force(d, vp))
               for vp in views)
    if mutation == "equal_copy":
        # Equal items have equal boxes, so the index stays, but the result
        # holds the new object.
        assert d._cull_index is built
        assert after[3][0] is d.items[2] and after[3][0] is not before[3][0]
    else:
        assert d._cull_index is not built
        # A new grid changes where items are filed, never what is visible.
        assert (after == before) == (mutation == "zone_grid")


def test_index_is_built_on_first_cull_only():
    d = _index_scene()
    d.set_module_properties(1, {"origin": (120, 100)})
    assert d._cull_index is None
    render_svg(d)
    assert d._cull_index is not None


def test_drawing_equality_and_repr_ignore_the_index():
    first, second = _index_scene(), _index_scene()
    visible_items(first, Rect.from_bounds(0, 0, 500, 500))
    assert first._cull_index is not None and second._cull_index is None
    assert first == second
    assert repr(first) == repr(second)
    assert "_cull_index" not in repr(first)
    (f,) = [f for f in dataclasses.fields(Drawing) if f.name == "_cull_index"]
    assert not (f.init or f.repr or f.compare)


@pytest.mark.parametrize("vp", [(-1e308, 0, 1e308, 10), (0, -1e308, 10, 1e308)],
                         ids=["wide", "tall"])
def test_overflowing_viewport_is_a_kernel_error(vp):
    d = _index_scene()
    assert visible_items(d, Rect.from_bounds(*vp)) == _brute_force(
        d, Rect.from_bounds(*vp))
    with pytest.raises(KernelError, match="viewport width and height"):
        render_svg(d, Rect.from_bounds(*vp))


def test_one_cell_grid_and_items_beyond_the_grid():
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100),
                    ZoneGrid(Point(0, 0), 100.0, 100.0, 1, 1))
    inside = Segment(Point(10, 10), Point(20, 20), LineStyle())
    beyond = Segment(Point(-900, 500), Point(-800, 2820), LineStyle())
    d.add_element(inside)
    d.add_element(beyond)
    assert _same_objects(visible_items(d, Rect.from_bounds(-850, 600, -840, 700)),
                         [beyond])
    d.zone_grid = ZoneGrid(Point(0, 0), 10.0, 10.0, 10, 10)
    assert _same_objects(visible_items(d, Rect.from_bounds(-2000, -2000, 3000, 3000)),
                         [inside, beyond])
    assert visible_items(d, Rect.from_bounds(20.5, 20.5, 30, 30)) == []
    assert _same_objects(visible_items(d, Rect.from_bounds(20, 20, 30, 30)), [inside])
