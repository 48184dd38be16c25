"""End-to-end command-line checks, run in process via main(argv)."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from modraft import (Drawing, ModuleType, Point, Rect, Text, load_drawing_file,
                     load_prototypes, render_svg, save_drawing_file,
                     single_rod_radius, ZoneClass)
from modraft.cli import _join_negative_values, build_parser, main


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv) -> "tuple[int, str, str]":
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m modraft`` in a child, to see what reaches stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "modraft", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture()
def drawing(tmp_path, capsys):
    path = str(tmp_path / "d.json")
    code, _, _ = run(capsys, "new", path, "--extent", "0,0,800,600")
    assert code == 0
    return path


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "modraft 0.1.0 (drawing format 1)"


def test_usage_errors_exit_2(capsys, tmp_path):
    for argv in (["bogus-command"],
                 ["new", str(tmp_path / "x.json")],          # missing --extent
                 ["new", str(tmp_path / "x.json"), "--extent", "garbage"],
                 ["add", str(tmp_path / "x.json")],          # missing --type
                 ["add", str(tmp_path / "x.json"), "--type", "no-such"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_new_writes_loadable_drawing(drawing):
    d = load_drawing_file(drawing)
    assert d.extent.max.x == 800
    assert d.items == []


def test_new_with_grid(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    code, _, _ = run(capsys, "new", path, "--extent", "0,0,100,100",
                     "--grid", "4,2")
    assert code == 0
    d = load_drawing_file(path)
    assert (d.zone_grid.nx, d.zone_grid.ny) == (4, 2)


@pytest.mark.parametrize("grid, code", [("0,5", 2), ("5,0", 2), ("100,100", 1)])
def test_new_bad_grid_exits_cleanly(tmp_path, grid, code):
    path = tmp_path / "g.json"
    proc = run_process("new", str(path), "--extent", "0,0,100,100",
                       "--grid", grid)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not path.exists()
    if code == 1:
        assert proc.stderr.startswith("error: ")


def test_add_parses_typed_props(drawing, capsys):
    code, out, _ = run(capsys, "add", drawing, "--type", "valve",
                       "--props", "origin=(100,50)", "mass=2.5",
                       "name=Вентиль", "note=для пара")
    assert code == 0
    assert out.strip() == "module 1 valve"
    m = load_drawing_file(drawing).module(1)
    assert (m.props["origin"].x, m.props["origin"].y) == (100.0, 50.0)
    assert m.props["mass"] == 2.5
    assert m.props["name"] == "Вентиль"
    assert m.props["note"] == "для пара"


def test_add_keeps_text_kind_values_verbatim(drawing, capsys):
    code, out, _ = run(capsys, "add", drawing, "--type", "posdes",
                       "--props", "leader_from=(0,0)", "shelf_at=(30,20)",
                       "position_text=1")
    assert code == 0
    m = load_drawing_file(drawing).module(1)
    assert m.props["position_text"] == "1"  # text, not the integer 1


def test_add_rejects_bad_props(drawing, capsys):
    code, _, err = run(capsys, "add", drawing, "--type", "valve",
                       "--props", "mass=oops")
    assert code == 1
    assert "error:" in err


def test_add_refuses_a_pipeline_segment_too_long_to_measure(drawing):
    before = Path(drawing).read_bytes()
    proc = run_process("add", drawing, "--type", "pipeline", "--props",
                       "path=[(0, 0), (0, 1e308), (-1.5e308, 0)]", "diameter_mm=2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: degenerate path: ")
    assert "Traceback" not in proc.stderr
    assert Path(drawing).read_bytes() == before


def test_set_regenerates(drawing, capsys):
    run(capsys, "add", drawing, "--type", "frame",
        "--props", "format=A1", "landscape=true")
    code, _, _ = run(capsys, "set", drawing, "--id", "1",
                     "--props", "format=A0")
    assert code == 0
    m = load_drawing_file(drawing).module(1)
    assert m.props["format"] == "A0"
    assert m.props["landscape"] is True
    assert m.geometry[0].points[2].x == 1189.0


def test_set_unknown_id(drawing, capsys):
    code, _, err = run(capsys, "set", drawing, "--id", "9",
                       "--props", "mass=1.0")
    assert code == 1 and "no module with id 9" in err


@pytest.mark.parametrize("token", ["novalue", "=1.0"])
def test_set_refuses_a_token_without_key_and_value(drawing, capsys, token):
    run(capsys, "add", drawing, "--type", "valve")
    before = Path(drawing).read_bytes()
    code, _, err = run(capsys, "set", drawing, "--id", "1", "--props", token)
    assert code == 1
    assert err == f"error: bad property assignment {token!r}; use key=value\n"
    assert Path(drawing).read_bytes() == before


def test_edit_move_rotate_mirror(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(10,10)")
    assert run(capsys, "edit", drawing, "--id", "1", "--move", "5,-2")[0] == 0
    m = load_drawing_file(drawing).module(1)
    assert (m.props["origin"].x, m.props["origin"].y) == (15.0, 8.0)
    assert run(capsys, "edit", drawing, "--id", "1",
               "--rotate", "0,0,90")[0] == 0
    assert load_drawing_file(drawing).module(1).props["angle_deg"] == 90.0
    assert run(capsys, "edit", drawing, "--id", "1",
               "--mirror", "0,0,90")[0] == 0
    assert load_drawing_file(drawing).module(1).props["mirrored"] is True


@pytest.mark.parametrize("option, value", [
    ("--move", "-3.5,2"), ("--rotate", "-10,-20,-30"), ("--mirror", "-5,0,-45"),
])
def test_edit_accepts_negative_values(drawing, tmp_path, capsys, option, value):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(10,10)")
    spaced, joined = str(tmp_path / "spaced.json"), str(tmp_path / "joined.json")
    assert run(capsys, "edit", drawing, "--id", "1", option, value,
               "--out", spaced)[0] == 0
    assert run(capsys, "edit", drawing, "--id", "1", f"{option}={value}",
               "--out", joined)[0] == 0
    assert Path(spaced).read_bytes() == Path(joined).read_bytes()
    assert Path(spaced).read_bytes() != Path(drawing).read_bytes()


def test_negative_extent_and_viewport(tmp_path, capsys):
    path, svg = str(tmp_path / "d.json"), str(tmp_path / "v.svg")
    assert run(capsys, "new", path, "--extent", "-100,-50,100,50")[0] == 0
    assert load_drawing_file(path).extent.min.x == -100.0
    assert run(capsys, "render", path, "--out", svg,
               "--viewport", "-10,-10,10,10")[0] == 0


def _typed_options() -> list:
    """Every option, of every subcommand, whose value a type converts."""
    parser = build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return [pytest.param(action, id=f"{name} {action.option_strings[0]}")
            for name, sub in subcommands.items() for action in sub._actions
            if action.option_strings and action.type is not None]


def _reads(action, text: str) -> bool:
    try:
        action.type(text)
    except (argparse.ArgumentTypeError, ValueError):
        return False
    return True


@pytest.mark.parametrize("action", _typed_options())
def test_every_number_option_takes_a_negative_value(action):
    # argparse reads "-1e1" as an option name, so main() must join it to
    # every option whose type reads it, and only to those.
    option = action.option_strings[0]
    value = next((v for v in (",".join(["-1e1"] * n) for n in range(1, 5))
                  if _reads(action, v)), "-1e1")
    joined = _join_negative_values(build_parser(), [option, value])
    assert (joined == [f"{option}={value}"]) == _reads(action, value)


def test_edit_requires_exactly_one_action(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    code, _, err = run(capsys, "edit", drawing, "--id", "1")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "edit", drawing, "--id", "1",
                       "--move", "1,0", "--rotate", "0,0,10")
    assert code == 1 and "exactly one" in err


def test_edit_out_writes_copy(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    out_path = str(tmp_path / "copy.json")
    run(capsys, "edit", drawing, "--id", "1", "--move", "7,0",
        "--out", out_path)
    assert load_drawing_file(drawing).module(1).props["origin"].x == 0.0
    assert load_drawing_file(out_path).module(1).props["origin"].x == 7.0


def test_list_output(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(10,20)")
    run(capsys, "add", drawing, "--type", "instrument",
        "--props", "function_code=PI")
    code, out, _ = run(capsys, "list", drawing)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("module 1 valve layer=0 origin=(10,20) angle=0 "
                        "mirrored=false elements=2")
    assert lines[1].startswith("module 2 instrument ")


def test_list_writes_a_moved_origin_unrounded(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(10,20)")
    run(capsys, "edit", drawing, "--id", "1", "--move", "1224.5678,-19.5")
    code, out, _ = run(capsys, "list", drawing)
    assert (code, out) == (0, "module 1 valve layer=0 origin=(1234.5678,0.5) "
                              "angle=0 mirrored=false elements=2\n")


def test_list_non_utf8_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff")
    proc = run_process("list", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_deeply_nested_file_exits_1(drawing, tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100000 + b"]" * 100000)
    for argv in (["list", str(path)],
                 ["catalog-apply", drawing, "--id", "1", "--catalog",
                  str(path), "--entry", "x"]):
        proc = run_process(*argv)
        assert proc.returncode == 1
        assert proc.stderr == "error: JSON nested too deeply\n"


def test_overflowing_user_module_exits_1(drawing):
    proc = run_process(
        "add", drawing, "--type", "user", "--props", "scale=1e10",
        "elements=[{'kind': 'segment', 'p1': [1e308, 0.0], 'p2': [0.0, 0.0], "
        "'style': {'color': 0, 'line_type': 'solid'}}]")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: user module: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["(None,0)", f"({10 ** 400},0)"],
                         ids=["null", "huge"])
def test_uncoercible_point_props_exit_1(drawing, value):
    for key in ("leader_from", "origin"):
        proc = run_process(
            "add", drawing, "--type", "posdes", "--props", "leader_from=(0,0)",
            "shelf_at=(30,20)", "position_text=1", f"{key}={value}")
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: property {key!r}: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value,got", [("('5', True)", "str"), ("(5, True)", "bool")],
                         ids=["string", "bool"])
def test_string_or_boolean_point_coordinate_exits_1(drawing, value, got):
    before = Path(drawing).read_bytes()
    proc = run_process("add", drawing, "--type", "valve", "--props",
                       f"origin={value}")
    assert proc.returncode == 1
    assert proc.stderr == (f"error: property 'origin': expected a real "
                           f"number, got {got}\n")
    assert Path(drawing).read_bytes() == before


def test_edit_that_overflows_the_placement_exits_1(drawing, capsys):
    assert run(capsys, "add", drawing, "--type", "valve")[0] == 0
    assert run(capsys, "edit", drawing, "--id", "1", "--move=1e308,0")[0] == 0
    before = Path(drawing).read_bytes()
    for action, message in [
            ("--move=1e308,0", "property 'origin': point coordinates must be finite"),
            ("--rotate=-1e308,-1e308,180",
             "valve module: transform coefficients must be finite"),
            ("--mirror=-1e308,5,90",
             "valve module: transform coefficients must be finite")]:
        proc = run_process("edit", drawing, "--id", "1", action)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert Path(drawing).read_bytes() == before


@pytest.mark.parametrize("record", [
    "{'kind':'circle','center':[1.79e308,0.0],'radius':1e306}",
    "{'kind':'text','anchor':[0.0,0.0],'height_mm':1e308,'content':'abcd'}",
], ids=["circle", "text"])
def test_user_module_whose_extent_overflows_exits_1(drawing, record):
    before = Path(drawing).read_bytes()
    proc = run_process("add", drawing, "--type", "user", "--props",
                       f"elements=[{record}]")
    assert proc.returncode == 1
    assert proc.stderr == ("error: user module: point coordinates must be "
                           "finite\n")
    assert Path(drawing).read_bytes() == before


def test_user_element_record_with_a_string_radius_exits_1(drawing):
    proc = run_process("add", drawing, "--type", "user", "--props",
                       "elements=[{'kind':'circle','center':[0,0],'radius':'2'}]")
    assert proc.returncode == 1
    assert proc.stderr == ("error: property 'elements': elements[0]: bad circle "
                           "element: expected a real number, got str\n")


@pytest.mark.parametrize("argv", [
    ["edit", "{d}", "--id", "1", "--move=inf,0"],
    ["edit", "{d}", "--id", "1", "--rotate=0,0,nan"],
    ["render", "{d}", "--out", "{out}", "--viewport=0,0,inf,10"],
], ids=["move-inf", "rotate-nan", "viewport-inf"])
def test_non_finite_number_argument_exits_2(drawing, tmp_path, argv):
    out = tmp_path / "out"
    before = Path(drawing).read_bytes()
    proc = run_process(*[a.format(d=drawing, out=out) for a in argv])
    assert proc.returncode == 2
    assert "(numbers must be finite)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert Path(drawing).read_bytes() == before and not out.exists()


@pytest.mark.parametrize("command", ["new", "render"])
def test_overflowing_rectangle_exits_2(drawing, tmp_path, command):
    rect, out = "-1e308,0,1e308,10", tmp_path / "out"
    if command == "new":
        proc = run_process("new", str(out), f"--extent={rect}")
    else:
        proc = run_process("render", drawing, "--out", str(out),
                           f"--viewport={rect}")
    assert proc.returncode == 2
    assert "width and height must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_render_writes_svg(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(50,50)")
    out_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", drawing, "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text("utf-8")
    assert svg.startswith("<?xml") and "</svg>" in svg
    # viewport + culling give identical bytes with culling on or off
    vp = tmp_path / "vp.svg"
    run(capsys, "render", drawing, "--out", str(vp),
        "--viewport", "0,0,200,200", "--cull")
    vp2 = tmp_path / "vp2.svg"
    run(capsys, "render", drawing, "--out", str(vp2),
        "--viewport", "0,0,200,200")
    assert vp.read_text("utf-8") == vp2.read_text("utf-8")


@pytest.mark.parametrize("viewport", [None, "-100,-100,300,300"])
def test_render_writes_exactly_the_utf8_of_render_svg(tmp_path, capsys, viewport):
    d = Drawing.new(Rect.from_bounds(0, 0, 400, 300))
    d.add_module(ModuleType.VALVE, {"origin": (50, 50), "name": "Кран"})
    d.add_element(Text(Point(10, 20), 3.5, 0.0, "Ду50 <&>"))
    path = tmp_path / "d.json"
    save_drawing_file(d, path)
    out = tmp_path / "out.svg"
    argv = ["render", str(path), "--out", str(out)]
    code, _, _ = run(capsys, *argv, *(["--viewport", viewport] if viewport else []))
    expected = render_svg(load_drawing_file(path),
                          viewport and Rect.from_bounds(-100, -100, 300, 300))
    assert code == 0 and "\n" in expected
    assert out.read_bytes() == expected.encode("utf-8")


def _add_spec_modules(capsys, drawing):
    run(capsys, "add", drawing, "--type", "valve",
        "--props", "designation=15кч18п", "name=Вентиль", "mass=1.5")
    run(capsys, "add", drawing, "--type", "valve",
        "--props", "designation=15кч18п", "name=Вентиль", "mass=1.5",
        "origin=(60,0)")


def test_spec_merges_and_prints_tsv(drawing, capsys):
    _add_spec_modules(capsys, drawing)
    code, out, err = run(capsys, "spec", drawing)
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header.split("\t") == ["position", "designation", "name",
                                  "type_mark", "unit", "qty", "mass",
                                  "price", "note"]
    cells = row.split("\t")
    assert cells[1] == "15кч18п" and cells[5] == "2" and cells[6] == "1.5"


def test_spec_tells_apart_reals_that_differ_past_six_digits(drawing, capsys):
    for mass in ("1234567.0", "1234568.0"):
        run(capsys, "add", drawing, "--type", "valve",
            "--props", "name=Вентиль", f"mass={mass}")
    assert run(capsys, "spec", drawing) == (0, (
        "position\tdesignation\tname\ttype_mark\tunit\tqty\tmass\tprice\tnote\n"
        "\t\tВентиль\t\t\t1\t1234567\t0\t\n"
        "\t\tВентиль\t\t\t1\t1234568\t0\t\n"), "")


SPEC_PIN_STDOUT = (
    "position\tdesignation\tname\ttype_mark\tunit\tqty\tmass\tprice\tnote\n"
    "\t15кч18п\tВентиль\t\t\t2\t1.5\t0\tDN15\n"
    "1а\tМП4-У\tМанометр\tМП4-У-1,6МПа\tшт\t1\t0.8\t1250.5\t\n"
    "2\tГОСТ 8732\tТруба\t\tм\t1\t12\t300\t57x3,5\n")


def _spec_pin_drawing() -> Drawing:
    # a valve (no type_mark, unit or price), an instrument with them, a
    # posdes reading its spec_props record and a pipeline, which makes no row
    d = Drawing.new(Rect.from_bounds(0, 0, 800, 600))
    valve = {"designation": "15кч18п", "name": "Вентиль", "mass": 1.5,
             "note": "DN15"}
    d.add_module(ModuleType.VALVE, valve)
    d.add_module(ModuleType.INSTRUMENT, {
        "function_code": "PI", "pos_designation": "1а",
        "designation": "МП4-У", "name": "Манометр",
        "type_mark": "МП4-У-1,6МПа", "unit": "шт", "price": 1250.5,
        "mass": 0.8})
    d.add_module(ModuleType.POSDES, {
        "leader_from": (0, 0), "shelf_at": (5, 5), "position_text": "2",
        "spec_props": {"designation": "ГОСТ 8732", "name": "Труба",
                       "unit": "м", "mass": 12, "price": 300,
                       "note": "57x3,5"}})
    d.add_module(ModuleType.PIPELINE, {"path": [(0, 0), (100, 0)],
                                       "diameter_mm": 5.0})
    d.add_module(ModuleType.VALVE, {**valve, "origin": (60, 0)})
    return d


def test_spec_stdout_is_pinned_for_every_specifying_type(tmp_path, capsys):
    path = str(tmp_path / "spec.json")
    save_drawing_file(_spec_pin_drawing(), path)
    assert run(capsys, "spec", path) == (0, SPEC_PIN_STDOUT, "")


def test_spec_types_keeps_only_the_named_types(tmp_path, capsys):
    path = str(tmp_path / "spec.json")
    save_drawing_file(_spec_pin_drawing(), path)
    header, valve, instrument, posdes = SPEC_PIN_STDOUT.splitlines(keepends=True)
    assert run(capsys, "spec", path, "--types", "valve") == (0, header + valve, "")
    assert run(capsys, "spec", path, "--types", "posdes,instrument") == (
        0, header + instrument + posdes, "")


def test_spec_types_names_an_unknown_type(tmp_path, capsys):
    path = str(tmp_path / "spec.json")
    save_drawing_file(_spec_pin_drawing(), path)
    with pytest.raises(SystemExit) as exc:
        main(["spec", path, "--types", "valve,bogus"])
    assert exc.value.code == 2
    names = ", ".join(t.value for t in ModuleType)
    assert capsys.readouterr().err.endswith(
        f"argument --types: unknown module type 'bogus' (choose from {names})\n")


def test_fill_table_types_fills_only_the_named_types(tmp_path, capsys):
    d = _spec_pin_drawing()
    table = d.add_module(ModuleType.TABLE, {
        "columns": [{"width_mm": 30.0, "header": "обозначение"}],
        "row_height_mm": 8.0, "header_height_mm": 15.0})
    path = str(tmp_path / "spec.json")
    save_drawing_file(d, path)
    assert run(capsys, "fill-table", path, "--id", str(table.id), "--columns",
               "designation=0", "--types", "instrument,posdes") == (
        0, "filled 2 rows\n", "")
    assert list(load_drawing_file(path).module(table.id).props["rows"]) == [
        {"cells": ["МП4-У"]}, {"cells": ["ГОСТ 8732"]}]


# (subcommand and its arguments, with "{}" where the module id goes)
_ID_OPTIONS = [
    "set D --id {} --props mass=1",
    "edit D --id {} --move=1,0",
    "fill-table D --id {} --columns designation=0",
    "catalog-apply D --id {} --catalog CAT --entry M-1",
    "lightning-section D --hx 5 --id {}",
]


@pytest.mark.parametrize("value", ["1_0", " 1", "+1", "-1", "-0", "1.0", "x"])
@pytest.mark.parametrize("template", _ID_OPTIONS, ids=lambda t: t.split()[0])
def test_module_id_is_read_as_decimal_digits(drawing, capsys, template, value):
    run(capsys, "add", drawing, "--type", "valve")
    before = Path(drawing).read_bytes()
    argv = [drawing if token == "D" else token for token in template.split()]
    with pytest.raises(SystemExit) as exc:
        main([value if token == "{}" else token for token in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument --id: bad module id {value!r}; use decimal digits\n")
    assert Path(drawing).read_bytes() == before


def test_spec_missing_file_exits_1(drawing, tmp_path, capsys):
    _add_spec_modules(capsys, drawing)
    code, out, err = run(capsys, "spec", drawing, str(tmp_path / "nope.json"))
    assert code == 1
    assert len(out.splitlines()) == 2  # good file still aggregated
    assert "error:" in err and "nope.json" in err


def test_spec_exits_1_naming_a_file_with_an_over_long_integer(drawing, tmp_path,
                                                              capsys):
    _add_spec_modules(capsys, drawing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "next_id": ' + "9" * 4301 + "}")
    code, out, err = run(capsys, "spec", drawing, str(bad))
    assert code == 1
    assert len(out.splitlines()) == 2  # the good file still makes its row
    assert err == f"error: {bad}: an integer has too many digits to read\n"


def test_spec_and_fill_table_exit_1_on_a_text_spec_mass(drawing, capsys):
    _add_spec_modules(capsys, drawing)
    run(capsys, "add", drawing, "--type", "posdes", "--props",
        "leader_from=(0,0)", "shelf_at=(5,5)", "position_text=4",
        "spec_props={'mass': '2.5'}")
    run(capsys, "add", drawing, "--type", "table", "--props",
        'columns=[{"width_mm":30,"header":"поз"}]',
        "row_height_mm=8", "header_height_mm=15", "rows=[]")
    message = ("error: " + drawing + ": module 3: property 'spec_props': "
               "mass: expected a real number, got str")
    code, out, err = run(capsys, "spec", drawing)
    assert code == 1 and err.strip() == message
    assert len(out.splitlines()) == 2  # the valves still make their row
    code, out, err = run(capsys, "fill-table", drawing, "--id", "4",
                         "--columns", "designation=0")
    assert code == 1 and out == "" and err.strip() == message


def test_fill_table_defaults_to_drawing_itself(drawing, capsys):
    _add_spec_modules(capsys, drawing)
    run(capsys, "add", drawing, "--type", "table", "--props",
        "origin=(100,500)",
        'columns=[{"width_mm":30,"header":"поз"},{"width_mm":20,"header":"кол"}]',
        "row_height_mm=8", "header_height_mm=15", "rows=[]")
    code, out, _ = run(capsys, "fill-table", drawing, "--id", "3",
                       "--columns", "designation=0,qty=1")
    assert code == 0 and out.strip() == "filled 1 rows"
    table = load_drawing_file(drawing).module(3)
    assert list(table.props["rows"]) == [{"cells": ["15кч18п", "2"]}]


def test_check_dup(drawing, tmp_path, capsys):
    code, out, _ = run(capsys, "check-dup", drawing)
    assert code == 0 and out.strip() == "no duplicate positions"
    run(capsys, "add", drawing, "--type", "instrument",
        "--props", "function_code=PI", "pos_designation=1а")
    other = str(tmp_path / "other.json")
    run(capsys, "new", other, "--extent", "0,0,400,300")
    run(capsys, "add", other, "--type", "instrument",
        "--props", "function_code=TI", "pos_designation=1а")
    code, out, _ = run(capsys, "check-dup", drawing, other)
    assert code == 0
    assert "position '1а' used 2 times" in out
    assert drawing + "#1" in out and other + "#1" in out


def test_proto_round_trip(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "valve",
        "--props", "origin=(44,55)", "name=Кран", "mass=3.0")
    lib = str(tmp_path / "lib.json")
    code, out, _ = run(capsys, "proto-save", drawing, lib, "--entry", "1=кран")
    assert code == 0 and out.strip() == "saved 1 prototypes"
    entries, errors = load_prototypes(Path(lib).read_bytes())
    assert errors == [] and entries[0][0] == "кран"
    # placement was reset on save
    assert entries[0][1].props["origin"].x == 0.0
    code, out, _ = run(capsys, "proto-load", drawing, lib, "--name", "кран",
                       "--at", "200,100", "--angle", "45")
    assert code == 0 and out.strip() == "module 2 valve"
    m = load_drawing_file(drawing).module(2)
    assert (m.props["origin"].x, m.props["origin"].y) == (200.0, 100.0)
    assert m.props["angle_deg"] == 45.0
    assert m.props["name"] == "Кран"


def test_proto_load_unknown_name(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    lib = str(tmp_path / "lib.json")
    run(capsys, "proto-save", drawing, lib, "--entry", "1=v")
    code, _, err = run(capsys, "proto-load", drawing, lib, "--name", "нет")
    assert code == 1 and "no prototype named" in err


def test_proto_load_reports_a_reused_name_and_takes_the_first(drawing, tmp_path,
                                                              capsys):
    run(capsys, "add", drawing, "--type", "valve")
    run(capsys, "add", drawing, "--type", "frame", "--props", "format=A4")
    lib = tmp_path / "lib.json"
    run(capsys, "proto-save", drawing, str(lib), "--entry", "1=a", "--entry", "2=b")
    doc = json.loads(lib.read_bytes())
    doc["entries"][1]["name"] = "a"
    lib.write_text(json.dumps(doc))
    code, out, err = run(capsys, "proto-load", drawing, str(lib), "--name", "a")
    assert code == 0 and out.strip() == "module 3 valve"
    assert err == ("error: a: bad prototype entry: name 'a' is already used "
                   "by entry 0\n")


def test_catalog_apply(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "instrument",
        "--props", "function_code=PI")
    catalog = tmp_path / "cat.json"
    catalog.write_text(json.dumps({"entries": {"M-1": {
        "name": "Манометр", "type_mark": "МП-100",
        "manufacturer_code": "МЗ", "item_code": "1001",
        "unit": "шт", "unit_code": "796", "price": 99.5}}}), "utf-8")
    code, _, _ = run(capsys, "catalog-apply", drawing, "--id", "1",
                     "--catalog", str(catalog), "--entry", "M-1")
    assert code == 0
    m = load_drawing_file(drawing).module(1)
    assert m.props["name"] == "Манометр" and m.props["price"] == 99.5


@pytest.mark.parametrize("field", ["name", "unit"])
def test_catalog_apply_refuses_a_lone_surrogate_naming_the_entry(drawing, tmp_path,
                                                                 capsys, field):
    run(capsys, "add", drawing, "--type", "instrument", "--props", "function_code=PI")
    catalog = tmp_path / "cat.json"
    catalog.write_bytes(json.dumps({"entries": {"M-1": {
        "name": "Манометр", "type_mark": "МП-100", "manufacturer_code": "МЗ",
        "item_code": "1001", "unit": "шт", "unit_code": "796", "price": 99.5,
        field: "\ud800"}}}).encode())
    before = Path(drawing).read_bytes()
    code, out, err = run(capsys, "catalog-apply", drawing, "--id", "1",
                         "--catalog", str(catalog), "--entry", "M-1")
    assert (code, out) == (1, "")
    assert err == ("error: entry 'M-1': text holds the lone surrogate '\\ud800', "
                   "which UTF-8 cannot encode\n")
    assert Path(drawing).read_bytes() == before


def test_catalog_apply_unknown_entry(drawing, tmp_path, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    catalog = tmp_path / "cat.json"
    catalog.write_text('{"entries": {}}', "utf-8")
    code, _, err = run(capsys, "catalog-apply", drawing, "--id", "1",
                       "--catalog", str(catalog), "--entry", "X")
    assert code == 1 and "no catalog entry" in err


def test_lightning_section_output(drawing, capsys):
    run(capsys, "add", drawing, "--type", "lightning", "--props",
        'rods=[{"x":0,"y":0,"h":10},{"x":30,"y":0,"h":6}]',
        'section_heights=[{"height":5}]', "zone_class=B", "scale_mm_per_m=2")
    code, out, _ = run(capsys, "lightning-section", drawing, "--hx", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == repr(single_rod_radius(10.0, 5.0, ZoneClass.B))
    assert lines[1] == repr(single_rod_radius(6.0, 5.0, ZoneClass.B))
    # above the short rod's apex (5.52): one radius, one refusal
    code, out, _ = run(capsys, "lightning-section", drawing, "--hx", "6")
    assert out.splitlines() == [repr(single_rod_radius(10.0, 6.0, ZoneClass.B)),
                                "no protection"]


def test_lightning_section_requires_lightning_module(drawing, capsys):
    code, _, err = run(capsys, "lightning-section", drawing, "--hx", "1")
    assert code == 1 and "no lightning module" in err
    run(capsys, "add", drawing, "--type", "valve")
    code, _, err = run(capsys, "lightning-section", drawing, "--hx", "1",
                       "--id", "1")
    assert code == 1 and "not a lightning module" in err


SIGN_ARGS = ["--person", "Иванов И.И.", "--position", "инженер",
             "--date", "2024-05-01", "--time", "14:05"]


def test_sign_and_verify_flow(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve", "--props", "origin=(10,10)")
    code, out, _ = run(capsys, "sign", drawing, *SIGN_ARGS,
                       "--password", "pw")
    assert code == 0 and out.strip() == "module 2 signature"

    code, out, _ = run(capsys, "verify", drawing)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "integrity: valid"
    assert lines[1] == ("signature 2 (Иванов И.И., инженер, 2024-05-01 14:05): "
                        "integrity valid, authenticity unchecked")

    code, out, _ = run(capsys, "verify", drawing, "--password", "pw")
    assert code == 0 and "authenticity valid" in out

    code, out, _ = run(capsys, "verify", drawing, "--password", "wrong")
    assert code == 1 and "authenticity broken" in out

    # now tamper: move the valve and re-verify
    run(capsys, "edit", drawing, "--id", "1", "--move", "1,0")
    code, out, _ = run(capsys, "verify", drawing, "--password", "pw")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "integrity: broken"
    assert "integrity broken, authenticity valid" in lines[1]


def test_verify_gives_every_verdict_when_a_stored_digest_is_not_hex(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    run(capsys, "sign", drawing, *SIGN_ARGS, "--password", "pw")
    run(capsys, "sign", drawing, *SIGN_ARGS, "--password", "pw")
    code, _, _ = run(capsys, "set", drawing, "--id", "2", "--props", "digest=zz")
    assert code == 0
    code, out, err = run(capsys, "verify", drawing, "--password", "pw")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "integrity: broken",
        "signature 2 (Иванов И.И., инженер, 2024-05-01 14:05): "
        "integrity broken, authenticity broken",
        "signature 3 (Иванов И.И., инженер, 2024-05-01 14:05): "
        "integrity valid, authenticity valid"]


def test_verify_no_signatures(drawing, capsys):
    code, out, _ = run(capsys, "verify", drawing)
    assert code == 0
    assert out.splitlines() == ["integrity: valid", "signatures: none"]


def test_sign_validates_fields(drawing, capsys):
    code, _, err = run(capsys, "sign", drawing, "--person", " ",
                       "--position", "x", "--date", "2024-05-01",
                       "--time", "14:05", "--password", "pw")
    assert code == 1 and "person" in err


@pytest.mark.parametrize("option, value, message", [
    ("--date", "2024-05-01\n", "date must be YYYY-MM-DD"),
    ("--date", "\uff12\uff10\uff12\uff14-\uff10\uff15-\uff10\uff11",
     "date must be YYYY-MM-DD"),
    ("--time", "1\uff14:05\n", "time must be HH:MM"),
], ids=["date-newline", "date-fullwidth", "time-fullwidth-newline"])
def test_sign_refuses_a_date_or_time_beyond_its_format_and_leaves_the_file(
        drawing, capsys, option, value, message):
    run(capsys, "add", drawing, "--type", "valve")
    before = Path(drawing).read_bytes()
    argv = ["sign", drawing, *SIGN_ARGS, "--password", "pw"]
    argv[argv.index(option) + 1] = value
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert Path(drawing).read_bytes() == before


_LONE_ERR = ("error: text holds the lone surrogate '\\udcff', "
             "which UTF-8 cannot encode\n")


@pytest.mark.parametrize("option", ["--person", "--position", "--password"])
def test_sign_refuses_a_lone_surrogate_and_leaves_the_file(drawing, capsys, option):
    run(capsys, "add", drawing, "--type", "valve")
    before = Path(drawing).read_bytes()
    argv = ["sign", drawing, *SIGN_ARGS, "--password", "pw"]
    argv[argv.index(option) + 1] = "\udcff"
    assert run(capsys, *argv) == (1, "", _LONE_ERR)
    assert Path(drawing).read_bytes() == before


def test_verify_refuses_a_lone_surrogate_password(drawing, capsys):
    run(capsys, "sign", drawing, *SIGN_ARGS, "--password", "pw")
    before = Path(drawing).read_bytes()
    assert run(capsys, "verify", drawing, "--password", "\udcff") == (1, "", _LONE_ERR)
    assert Path(drawing).read_bytes() == before


@pytest.mark.skipif(os.name != "posix", reason="an argv byte that is not UTF-8 is POSIX")
def test_a_non_utf8_argument_byte_exits_1_without_a_traceback(drawing):
    # The child reads the byte 0xff in its argv as the lone surrogate '\udcff'.
    main(["sign", drawing, *SIGN_ARGS, "--password", "pw"])
    before = Path(drawing).read_bytes()
    for argv in (["sign", drawing, *SIGN_ARGS, "--password", b"\xff"],
                 ["verify", drawing, "--password", b"\xff"]):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", _LONE_ERR)
        assert Path(drawing).read_bytes() == before


def test_second_signature_keeps_first(drawing, capsys):
    run(capsys, "add", drawing, "--type", "valve")
    run(capsys, "sign", drawing, *SIGN_ARGS, "--password", "pw1")
    run(capsys, "sign", drawing, "--person", "Петров", "--position", "ГИП",
        "--date", "2024-05-02", "--time", "09:00", "--password", "pw2")
    code, out, _ = run(capsys, "verify", drawing)
    assert code == 0
    assert out.splitlines()[0] == "integrity: valid"
    assert out.count("integrity valid") == 2


def test_over_nested_props_literal_exits_1(drawing, capsys):
    deep = "[" * 250 + "]" * 250
    posdes = ["--type", "posdes", "--props", "leader_from=(0,0)",
              "shelf_at=(30,20)", "position_text=1"]
    assert run(capsys, "add", drawing, *posdes)[0] == 0
    for argv in (["add", drawing, *posdes, f"spec_props={{'a': {deep}}}"],
                 ["set", drawing, "--id", "1", "--props",
                  f"spec_props={{'a': {deep}}}"],
                 ["set", drawing, "--id", "1", "--props",
                  "shelf_at=" + "-" * 5000 + "1"]):
        proc = run_process(*argv)
        assert proc.returncode == 1
        key = argv[-1].partition("=")[0]
        assert proc.stderr == (f"error: property {key!r}: "
                               "value is nested too deeply\n")


def _doc_with_free_segment(drawing) -> dict:
    assert main(["add", drawing, "--type", "valve", "--props",
                 "origin=(10,10)"]) == 0
    doc = json.loads(Path(drawing).read_text(encoding="utf-8"))
    doc["items"].append({"kind": "element", "element": {
        "kind": "segment", "p1": [0.0, 0.0], "p2": [1.0, 1.0],
        "style": {"color": 0, "line_type": "solid"}}})
    return doc


def _first_point(doc: dict) -> list:
    return doc["items"][0]["geometry"][0]["points"][0]


@pytest.mark.parametrize("change, message", [
    (lambda doc: _first_point(doc).__setitem__(0, float("nan")),
     "item 0 (module 1): bad module record: "),
    (lambda doc: doc["items"][0].__setitem__("geometry", {}),
     "item 0 (module 1): bad module record: geometry must be a list"),
    (lambda doc: _first_point(doc).__setitem__(0, int(_first_point(doc)[0])),
     "item 0 (module 1): geometry does not match its properties: "),
    (lambda doc: doc["items"][0]["geometry"][0].pop("style"),
     "item 0 (module 1): geometry does not match its properties: "),
    (lambda doc: doc["items"][1]["element"].pop("style"),
     "item 1: free element is not canonical: "),
], ids=["nan", "non-list-geometry", "integer-coordinate", "missing-style",
        "non-canonical-free-element"])
def test_non_canonical_stored_records_exit_1(drawing, change, message):
    doc = _doc_with_free_segment(drawing)
    assert _first_point(doc)[0] == 6.0
    change(doc)
    Path(drawing).write_text(json.dumps(doc), encoding="utf-8")
    proc = run_process("list", drawing)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: " + message)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["items"][0].__setitem__("id", True),
     "item 0 (module True): module id True out of range"),
    (lambda doc: doc.__setitem__("format_version", 1.0),
     "unsupported format_version 1.0"),
    (lambda doc: doc["items"][0].__setitem__("note", ""),
     "item 0 (module 1): bad module record: unknown key 'note'"),
    (lambda doc: doc["items"][1].__setitem__("note", ""),
     "item 1: bad free element: unknown key 'note'"),
    (lambda doc: doc.__setitem__("note", ""),
     "bad drawing structure: unknown key 'note'"),
    (lambda doc: doc["extent"].__setitem__("min", [0, 0.0]),
     "extent is not canonical: "),
    (lambda doc: doc["zone_grid"].__setitem__("origin", [0, 0.0]),
     "zone_grid is not canonical: "),
], ids=["boolean-id", "real-format-version", "module-item-key",
        "free-element-item-key", "top-level-key", "integer-extent",
        "integer-grid-origin"])
def test_non_canonical_frame_exits_1(drawing, change, message):
    doc = _doc_with_free_segment(drawing)
    change(doc)
    Path(drawing).write_text(json.dumps(doc), encoding="utf-8")
    proc = run_process("list", drawing)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: " + message)
    assert "Traceback" not in proc.stderr


def test_spec_and_fill_table_exit_1_on_a_null_spec_designation(drawing, capsys):
    _add_spec_modules(capsys, drawing)
    run(capsys, "add", drawing, "--type", "posdes", "--props",
        "leader_from=(0,0)", "shelf_at=(5,5)", "position_text=4",
        "spec_props={'designation': None, 'mass': 2.5}")
    run(capsys, "add", drawing, "--type", "table", "--props",
        'columns=[{"width_mm":30,"header":"поз"}]',
        "row_height_mm=8", "header_height_mm=15", "rows=[]")
    before = Path(drawing).read_bytes()
    message = ("error: " + drawing + ": module 3: property 'spec_props': "
               "designation: expected text, got NoneType")
    code, out, err = run(capsys, "spec", drawing)
    assert code == 1 and err.strip() == message
    assert len(out.splitlines()) == 2  # the valves still make their row
    code, out, err = run(capsys, "fill-table", drawing, "--id", "4",
                         "--columns", "designation=0")
    assert code == 1 and out == "" and err.strip() == message
    assert Path(drawing).read_bytes() == before
    code, out, err = run(capsys, "check-dup", drawing)
    assert code == 0 and out.strip() == "no duplicate positions" and err == ""


# --- one parser per process ------------------------------------------------------

def test_one_parser_serves_every_subcommand_in_a_process(drawing, tmp_path, capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "add", drawing, "--type", "valve")[:2] == (0, "module 1 valve\n")
    assert run(capsys, "edit", drawing, "--id", "1", "--move", "7,0")[0] == 0
    code, out, _ = run(capsys, "list", drawing)
    assert code == 0 and "origin=(7,0)" in out
    svg = str(tmp_path / "v.svg")
    assert run(capsys, "render", drawing, "--out", svg)[0] == 0
    assert run(capsys, "fill-table", drawing, "--id", "1", "--columns", "qty=0")[0] == 1
    # the shared defaults of --props and --from are never filled in
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    defaults = {action.dest: action.default for sub in subcommands.values()
                for action in sub._actions if action.nargs == "*"}
    assert defaults == {"props": [], "sources": []}


@pytest.mark.parametrize("name, argv, expected", [
    ("cmd_edit", ["edit", "{d}", "--id", "1", "--move", "7,0"], 0),
    ("cmd_list", ["list", "{d}"], 0),
], ids=["rewriting", "reading"])
def test_a_handler_rebound_after_the_first_call_is_the_one_that_runs(
        drawing, capsys, monkeypatch, name, argv, expected):
    from modraft import cli
    assert run(capsys, "add", drawing, "--type", "valve")[0] == 0  # parser built
    calls = []
    original = getattr(cli, name)

    def counting(*args):
        calls.append(args[0].drawing)
        return original(*args)

    monkeypatch.setattr(cli, name, counting)
    assert run(capsys, *(a.format(d=drawing) for a in argv))[0] == expected
    assert calls == [drawing]
