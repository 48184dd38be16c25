"""Write the frozen format-v1 corpus: ``tests/data/v1/`` and its manifest.

Run from the repository root with the code whose bytes the corpus records:

    PYTHONPATH=src python tools/make_v1_corpus.py

It writes one drawing per module type, a mixed sheet with a free element of
every kind, a drawing with three signatures from different signers, one
with modules rotated about the origin, a prototype library and a catalog,
and ``manifest.json``, which pins for each drawing its content digest, the
SHA-256 of its SVG for the full extent and for one viewport, its
specification rows (``repr`` of each field) and its signers' passwords,
and, for the library and the catalog, what loads.

``tests/test_v1_corpus.py`` checks every later version of the code against
these files: they are the evidence that existing files still load and
existing signatures still verify. The corpus is never regenerated to make
that test pass; a change to the manifest is a change to format v1.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from modraft import (Arc, Circle, Drawing, LineStyle, LineType, ModuleType,
                     Point, Polyline, Rect, Segment, SpecRow, Text,
                     collect_spec_rows, compute_digest, create_module,
                     load_catalog, load_prototypes, render_svg, save_drawing,
                     save_prototypes, sign_drawing)

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "v1"

EXTENT = Rect(Point(0.0, 0.0), Point(420.0, 297.0))

# A text holding every kind of JSON escape the writer makes, and Cyrillic.
ESCAPED = 'Кран "Ду 50" \\ путь\tтаб\nстрока \x01\x1f конец'

_USER_ELEMENTS = [
    {"kind": "segment", "p1": [0.0, 0.0], "p2": [10.0, 0.0],
     "style": {"color": 3, "line_type": "solid"}},
    {"kind": "polyline", "points": [[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]],
     "closed": True, "style": {"color": 0, "line_type": "dashed"}},
    {"kind": "arc", "center": [5.0, 0.0], "radius": 2.5, "start_angle": 0.0,
     "end_angle": 180.0, "style": {"color": 1, "line_type": "thin_solid"}},
    {"kind": "circle", "center": [5.0, 2.0], "radius": 1.0,
     "style": {"color": 7, "line_type": "dash_dot"}},
    {"kind": "text", "anchor": [0.0, 6.0], "height_mm": 2.5,
     "angle_deg": 0.0, "content": "Узел А", "style": {"color": 0,
                                                     "line_type": "solid"}},
]

# One property set per module type, each off the identity placement.
MODULES = {
    ModuleType.USER: {
        "origin": (60.5, 80.25), "angle_deg": 30.0, "layer": 2, "scale": 2.0,
        "symmetry": "mirror_x", "elements": _USER_ELEMENTS,
        "attach": [{"origin": [0.0, 0.0], "angle_deg": 90.0}],
        "comment": "пользовательский модуль"},
    ModuleType.PIPELINE: {
        "path": [(40.0, 40.0), (200.0, 40.0), (200.0, 180.0), (330.0, 180.0)],
        "diameter_mm": 6.0, "corner": "bent", "fillet_radius": 12.0,
        "layer": 1, "comment": "трубопровод Т1"},
    ModuleType.VALVE: {
        "origin": (210.0, 148.5), "angle_deg": 45.0, "mirrored": True,
        "designation": "15кч18п", "name": "Вентиль запорный", "mass": 2.35,
        "note": "Ду 25", "dy": 25.0, "py": 1.6, "face_to_face": 90.0},
    ModuleType.INSTRUMENT: {
        "origin": (150.0, 120.0), "function_code": "PI",
        "pos_designation": "1а", "upper_index": "1", "lower_index": "а",
        "on_board": True, "kip_line_type": "dashed", "designation": "МП4-У",
        "name": "Манометр", "type_mark": "МП4-У", "unit": "шт",
        "mass": 0.8, "price": 1250.5, "carrier_geometry": [(150.0, 100.0),
                                                           (150.0, 115.0)]},
    ModuleType.TABLE: {
        "position": (120.0, 250.0), "row_height_mm": 8.0,
        "header_height_mm": 15.0,
        "columns": [{"width_mm": 20.0, "header": "Поз."},
                    {"width_mm": 110.0, "header": "Наименование"},
                    {"width_mm": 10.0, "header": "Кол."}],
        "rows": [{"cells": ["1", "Вентиль 15кч18п", "2"]},
                 {"cells": ["2", ESCAPED, "1"]}]},
    ModuleType.FRAME: {"format": "A3", "landscape": True},
    ModuleType.POSDES: {
        "leader_from": (200.0, 150.0), "shelf_at": (215.0, 165.0),
        "position_text": "3", "object_kind": "арматура",
        "spec_props": {"designation": "ГОСТ 5762", "name": "Задвижка",
                       "type_mark": "30с41нж", "unit": "шт",
                       "mass": 12.5, "price": 300.0, "note": "Ду 50"}},
    ModuleType.LIGHTNING: {
        "rods": [{"x": 10.0, "y": 10.0, "h": 30.0},
                 {"x": 40.0, "y": 25.0, "h": 45.5}],
        "section_heights": [{"height": 0.0}, {"height": 8.0},
                            {"height": 20.0}],
        "zone_class": "A", "scale_mm_per_m": 2.0,
        "plan_origin": (100.0, 60.0)},
}

SIGNERS = [("Иванов И.И.", "инженер", "2024-05-01", "14:05", "s3cret"),
           ("Петров П.П.", "нач. отдела", "2024-05-02", "09:30", "0000"),
           ("Сидорова А.В.", "ГИП", "2024-05-03", "18:45", "пароль-№3")]


def _new() -> Drawing:
    return Drawing.new(EXTENT)


def module_drawings() -> dict[str, Drawing]:
    """One drawing per module type; the signature type signs its drawing."""
    out = {}
    for mtype, props in MODULES.items():
        d = _new()
        d.add_module(mtype, props)
        out[f"module_{mtype.value}.draw.json"] = d
    d = _new()
    sign_drawing(d, *SIGNERS[0])
    out["module_signature.draw.json"] = d
    return out


def mixed_sheet() -> Drawing:
    """Modules between free elements of every kind and every line type."""
    d = _new()
    d.add_module(ModuleType.FRAME, {"format": "A3", "landscape": True})
    d.add_element(Segment(Point(30.0, 30.0), Point(120.5, 61.25),
                          LineStyle(LineType.DASHED, 12)))
    d.add_module(ModuleType.VALVE, {"origin": (120.0, 150.0),
                                    "designation": "15кч18п", "mass": 1.5})
    d.add_element(Polyline((Point(50.0, 200.0), Point(80.0, 230.0),
                            Point(110.0, 200.0)), False,
                           LineStyle(LineType.THIN_SOLID, 255)))
    d.add_element(Polyline((Point(300.0, 40.0), Point(340.0, 40.0),
                            Point(340.0, 70.0)), True, LineStyle()))
    d.add_element(Arc(Point(250.0, 120.0), 17.5, 300.0, 45.0,
                      LineStyle(LineType.DASH_DOT, 4)))
    d.add_module(ModuleType.INSTRUMENT, {"origin": (260.0, 200.0),
                                         "function_code": "TE",
                                         "pos_designation": "2б",
                                         "name": "Термометр", "price": 99.99})
    d.add_element(Circle(Point(180.0, 90.0), 0.1, LineStyle(color=9)))
    d.add_element(Text(Point(40.0, 260.0), 5.0, 15.0, ESCAPED,
                       LineStyle(LineType.SOLID, 1)))
    d.add_element(Text(Point(40.0, 250.0), 3.5, 0.0,
                       "Схема автоматизации — лист 1 😀", LineStyle()))
    d.add_module(ModuleType.POSDES, {"leader_from": (120.0, 150.0),
                                     "shelf_at": (130.0, 165.0),
                                     "position_text": "1",
                                     "spec_props": {"name": "Вентиль",
                                                    "mass": 1.5}})
    return d


def placed_at_origin() -> Drawing:
    """Modules rotated about the origin. Placed far from it, a coordinate's
    last bit is lost to the origin's, so a one-ulp change in a sine or
    cosine would not show in the bytes; here it does."""
    d = Drawing.new(Rect(Point(-50.0, -50.0), Point(50.0, 50.0)))
    d.add_module(ModuleType.VALVE, {"angle_deg": 30.0})
    d.add_module(ModuleType.USER, {"angle_deg": 45.0,
                                   "elements": _USER_ELEMENTS})
    d.add_module(ModuleType.INSTRUMENT, {"angle_deg": 60.0, "mirrored": True,
                                         "function_code": "FT"})
    return d


def signed_three_times() -> Drawing:
    d = _new()
    d.add_module(ModuleType.VALVE, {"origin": (100.0, 100.0),
                                    "name": "Вентиль", "mass": 3.0})
    d.add_module(ModuleType.POSDES, {"leader_from": (100.0, 100.0),
                                     "shelf_at": (110.0, 112.0),
                                     "position_text": "7"})
    for signer in SIGNERS:
        sign_drawing(d, *signer)
    return d


def library() -> bytes:
    types = (ModuleType.VALVE, ModuleType.INSTRUMENT, ModuleType.USER,
             ModuleType.TABLE)
    modules = [create_module(t, MODULES[t]) for t in types]
    names = ["вентиль-15кч18п", "манометр", "узел А", "таблица"]
    return save_prototypes(modules, names)


CATALOG = {"entries": {
    "V-100": {"name": "Вентиль 15кч18п", "type_mark": "15кч18п",
              "manufacturer_code": "АРМ-01", "item_code": "100500",
              "unit": "шт", "unit_code": "796", "price": 250.0},
    "M-7": {"name": "Манометр \"МП4\"", "type_mark": "МП4-У",
            "manufacturer_code": "ПРИБОР", "item_code": "7",
            "unit": "шт", "unit_code": "796", "price": 1250.5}}}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _viewport(d: Drawing) -> list[float]:
    """The middle half of the extent, which cuts through the items."""
    lo, hi = d.extent.min, d.extent.max
    w, h = hi.x - lo.x, hi.y - lo.y
    return [lo.x + w / 4, lo.y + h / 4, lo.x + 3 * w / 4, lo.y + 3 * h / 4]


def drawing_entry(name: str, d: Drawing) -> dict:
    view = _viewport(d)
    rows, errors = collect_spec_rows([(name, d)])
    if errors:
        raise SystemExit(f"{name}: {errors}")
    passwords = {person: password for person, _, _, _, password in SIGNERS}
    signers = [m.props["person"] for m in d.modules()
               if m.type is ModuleType.SIGNATURE]
    return {
        "digest": compute_digest(d),
        "svg_full_sha256": _sha256(render_svg(d).encode("utf-8")),
        "viewport": view,
        "svg_view_sha256": _sha256(
            render_svg(d, Rect.from_bounds(*view)).encode("utf-8")),
        "spec_rows": [[repr(getattr(row, f.name)) for f in fields(SpecRow)]
                      for row in rows],
        "passwords": {person: passwords[person] for person in signers},
    }


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    drawings = module_drawings()
    drawings["mixed_sheet.draw.json"] = mixed_sheet()
    drawings["signed_three.draw.json"] = signed_three_times()
    drawings["placed_at_origin.draw.json"] = placed_at_origin()
    manifest: dict = {"drawings": {}}
    for name, d in sorted(drawings.items()):
        (OUT / name).write_bytes(save_drawing(d))
        manifest["drawings"][name] = drawing_entry(name, d)

    lib = library()
    (OUT / "library.proto.json").write_bytes(lib)
    loaded, errors = load_prototypes(lib)
    if errors:
        raise SystemExit(f"library: {errors}")
    manifest["library"] = {"file": "library.proto.json",
                           "names": [name for name, _ in loaded]}

    # Catalogs are formatted freely; this one is indented, not canonical.
    catalog = json.dumps(CATALOG, ensure_ascii=False, indent=2).encode("utf-8")
    (OUT / "catalog.cat.json").write_bytes(catalog + b"\n")
    manifest["catalog"] = {"file": "catalog.cat.json",
                           "entries": sorted(load_catalog(catalog).entries)}

    (OUT / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    total = sum(p.stat().st_size for p in OUT.iterdir())
    print(f"wrote {len(list(OUT.iterdir()))} files, {total} bytes, to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
