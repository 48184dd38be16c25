"""
Rendering to SVG, whole sheets and zoomed viewports
===================================================

"""

# The renderer turns a drawing into a standalone SVG string.  Module
# geometry is wrapped in per-module <g> groups so a downstream tool can
# pick symbols apart; coordinates are flipped from y-up drawing space
# to y-down SVG space.
import tempfile
from pathlib import Path

from modraft import Drawing, ModuleType, Point, Rect, render_svg

d = Drawing.new(Rect(Point(0.0, 0.0), Point(420.0, 297.0)))
d.add_module(ModuleType.FRAME, {"format": "A3", "landscape": True})
d.add_module(
    ModuleType.PIPELINE,
    {
        "path": [(40.0, 150.0), (200.0, 150.0), (200.0, 220.0), (360.0, 220.0)],
        "diameter_mm": 8.0,
        "corner": "bent",
        "fillet_radius": 16.0,
    },
)
d.add_module(ModuleType.VALVE, {"origin": (120.0, 150.0), "name": "Вентиль"})
d.add_module(
    ModuleType.INSTRUMENT,
    {"function_code": "PI", "pos_designation": "1а", "origin": (280.0, 250.0)},
)

# Whole sheet.
svg = render_svg(d)
print("sheet svg:", len(svg), "bytes,", svg.count("<g "), "module groups")

# A viewport crops to a window in drawing coordinates.  Only modules
# whose bounding box meets the window are emitted.
window = Rect(Point(100.0, 130.0), Point(220.0, 240.0))
zoomed = render_svg(d, viewport=window)
print("zoomed svg :", len(zoomed), "bytes,", zoomed.count("<g "), "module groups")

out = Path(tempfile.mkdtemp()) / "sheet.svg"
out.write_text(svg, encoding="utf-8")
print("wrote", out)
