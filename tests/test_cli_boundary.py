"""The command line's boundary: hostile numbers and ids end as exit 0, 1 or
2 and never as a traceback, and every subcommand that rewrites a drawing
writes the same bytes in place or to --out, and nothing when it fails."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from modraft.cli import main

from test_cli import SIGN_ARGS, run_process

HOSTILE = ["nan", "inf", "-inf", "1e400", "7" * 400, "-1", "-0", "-1e1"]

# Every subcommand, and every option that takes a number or an id; "{}"
# marks a slot for a hostile value, the other slots hold plain numbers.
# D is a drawing with a valve (1), a table (2), a lightning module (3) and
# a posdes (4); LIB holds prototype "v" and CAT entry "M-1"; OUT is a path
# nothing exists at. Subcommands that take no number get the value as a
# file name, or in a text option.
TEMPLATES = [
    "new OUT --extent {},0,10,10",
    "new OUT --extent 0,0,10,{}",
    "new OUT --extent 0,0,10,10 --grid {},2",
    "new OUT --extent 0,0,10,10 --grid 2,{}",
    "add D --type valve --props origin=({},0)",
    "add D --type valve --props mass={}",
    "set D --id {} --props mass=1",
    "set D --id 1 --props angle_deg={}",
    "edit D --id {} --move 1,1",
    "edit D --id 1 --move {},0",
    "edit D --id 1 --move 0,{}",
    "edit D --id 1 --rotate {},0,0",
    "edit D --id 1 --rotate 0,0,{}",
    "edit D --id 1 --mirror 0,{},0",
    "edit D --id 1 --mirror 0,0,{}",
    "list {}",
    "render D --out OUT --viewport {},0,10,10",
    "render D --out OUT --viewport 0,0,10,{}",
    "spec {}",
    "fill-table D --id {} --columns designation=0",
    "fill-table D --id 2 --columns designation={}",
    "check-dup {}",
    "proto-save D OUT --entry {}=x",
    "proto-load D LIB --name v --at {},0",
    "proto-load D LIB --name v --at 0,{}",
    "proto-load D LIB --name v --angle {}",
    "catalog-apply D --id {} --catalog CAT --entry M-1",
    "lightning-section D --hx {}",
    "lightning-section D --hx 5 --id {}",
    "sign D --person p --position q --date {} --time 10:00 --password pw",
    "verify {}",
]

# Seeded mixes fill every slot of a many-number option with hostile values.
MIXED = ["edit D --id 1 --rotate {},{},{}", "render D --out OUT --viewport {},{},{},{}",
         "new OUT --extent {},{},{},{}", "proto-load D LIB --name v --at {},{}"]


def _argvs() -> list[str]:
    argvs = [t.format(v) for t in TEMPLATES for v in HOSTILE]
    rng = random.Random(12)
    for template in MIXED:
        for _ in range(6):
            argvs.append(template.format(
                *(rng.choice(HOSTILE) for _ in range(template.count("{}")))))
    return argvs


@pytest.fixture()
def sheet(tmp_path, monkeypatch):
    """The files the templates name, in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    d, lib, cat = tmp_path / "d.json", tmp_path / "lib.json", tmp_path / "cat.json"
    for argv in (["new", str(d), "--extent", "0,0,800,600"],
                 ["add", str(d), "--type", "valve"],
                 ["add", str(d), "--type", "table", "--props",
                  'columns=[{"width_mm":30,"header":"поз"}]',
                  "row_height_mm=8", "header_height_mm=15", "rows=[]"],
                 ["add", str(d), "--type", "lightning", "--props",
                  'rods=[{"x":0,"y":0,"h":10}]', 'section_heights=[{"height":5}]',
                  "zone_class=B", "scale_mm_per_m=2"],
                 ["add", str(d), "--type", "posdes", "--props",
                  "leader_from=(0,0)", "shelf_at=(5,5)", "position_text=1",
                  "spec_props={'designation': 'ГОСТ 8732', 'mass': 1.5}"],
                 ["proto-save", str(d), str(lib), "--entry", "1=v"]):
        assert main(argv) == 0
    cat.write_text(json.dumps({"entries": {"M-1": {
        "name": "Манометр", "type_mark": "МП-100", "manufacturer_code": "МЗ",
        "item_code": "1001", "unit": "шт", "unit_code": "796", "price": 99.5}}}),
        "utf-8")
    return {"D": str(d), "LIB": str(lib), "CAT": str(cat),
            "OUT": str(tmp_path / "out")}


def test_hostile_numbers_and_ids_end_in_an_exit_code(sheet, capsys):
    drawing = Path(sheet["D"])
    base = drawing.read_bytes()
    escaped = []
    for line in _argvs():
        argv = [sheet.get(token, token) for token in line.split()]
        drawing.write_bytes(base)
        Path(sheet["OUT"]).unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the probe's finding: a traceback
            escaped.append(f"{line}: {type(exc).__name__}: {exc}"[:200])
            continue
        if code not in (0, 1, 2):
            escaped.append(f"{line}: exit {code!r}")
        elif code and (drawing.read_bytes() != base
                       or Path(sheet["OUT"]).exists()):
            escaped.append(f"{line}: exit {code} but wrote a file")
    capsys.readouterr()
    assert escaped == []


@pytest.mark.parametrize("argv, option", [
    ("lightning-section D --hx nan", "--hx"),
    ("proto-load D LIB --name v --angle nan", "--angle"),
], ids=["hx", "angle"])
def test_non_finite_single_number_exits_2(sheet, argv, option):
    drawing = Path(sheet["D"])
    base = drawing.read_bytes()
    proc = run_process(*(sheet.get(token, token) for token in argv.split()))
    assert proc.returncode == 2
    assert f"bad {option}: 'nan' (numbers must be finite)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert drawing.read_bytes() == base


@pytest.mark.parametrize("value", ["-1", "-1e1"])
def test_negative_hx_exits_1(sheet, value):
    proc = run_process("lightning-section", sheet["D"], "--hx", value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_grid_too_large_for_a_real_exits_1(sheet):
    out = Path(sheet["OUT"])
    proc = run_process("new", str(out), "--extent", "0,0,10,10",
                       "--grid", "7" * 400 + ",2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["{[]: 1}", "{{1}}"])
def test_unhashable_literal_in_props_exits_1(sheet, value):
    drawing = Path(sheet["D"])
    base = drawing.read_bytes()
    proc = run_process("add", sheet["D"], "--type", "valve", "--props",
                       f"origin={value}")
    assert proc.returncode == 1
    assert proc.stderr == f"error: property 'origin': not a point: {value!r}\n"
    assert drawing.read_bytes() == base


@pytest.mark.parametrize("argv, code, message", [
    ("new OUT --extent 0,0,10,10 --grid ²,2", 2,
     "grid needs NX,NY positive integers"),
    ("fill-table D --id 2 --columns position=²", 2,
     "bad column mapping 'position=²'; use field=index"),
    ("proto-save D OUT --entry ²=x", 1,
     "error: bad prototype entry '²=x'; use ID=NAME"),
], ids=["grid", "column-map", "proto-entry"])
def test_superscript_digit_is_not_an_integer(sheet, argv, code, message):
    drawing = Path(sheet["D"])
    base = drawing.read_bytes()
    proc = run_process(*(sheet.get(token, token) for token in argv.split()))
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "invalid literal" not in proc.stderr
    assert drawing.read_bytes() == base and not Path(sheet["OUT"]).exists()


def test_add_past_the_lightning_section_bound_exits_1(sheet):
    drawing = Path(sheet["D"])
    base = drawing.read_bytes()
    rods = [{"x": float(i), "y": 0.0, "h": 20.0} for i in range(65)]
    heights = [{"height": 0.1 * k} for k in range(64)]
    proc = run_process("add", sheet["D"], "--type", "lightning", "--props",
                       f"rods={rods!r}", f"section_heights={heights!r}",
                       "zone_class=B", "scale_mm_per_m=2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: property 'section_heights': ")
    assert "4096 zone sections" in proc.stderr
    assert drawing.read_bytes() == base


# --- the shared rewrite path -------------------------------------------------

# (subcommand arguments that succeed, arguments that fail with exit 1)
REWRITES = {
    "add": (["--type", "valve", "--props", "origin=(5,5)"],
            ["--type", "valve", "--props", "mass='x'"]),
    "set": (["--id", "1", "--props", "mass=2.5"],
            ["--id", "9", "--props", "mass=2.5"]),
    "edit": (["--id", "1", "--move", "-3.5,2"], ["--id", "9", "--move", "1,1"]),
    "fill-table": (["--id", "2", "--columns", "designation=0"],
                   ["--id", "2", "--columns", "designation=0",
                    "--from", "absent.json"]),
    "proto-load": (["LIB", "--name", "v", "--at", "7,7", "--angle", "-30"],
                   ["LIB", "--name", "absent"]),
    "catalog-apply": (["--id", "4", "--catalog", "CAT", "--entry", "M-1"],
                      ["--id", "4", "--catalog", "CAT", "--entry", "absent"]),
    "sign": ([*SIGN_ARGS, "--password", "pw"],
             ["--person", " ", "--position", "q", "--date", "2024-05-01",
              "--time", "10:00", "--password", "pw"]),
}


def _rewrite_argv(sheet, command, args, drawing) -> list[str]:
    return [command, str(drawing), *(sheet.get(a, a) for a in args)]


@pytest.mark.parametrize("command", sorted(REWRITES))
def test_out_writes_what_in_place_writes(sheet, capsys, command):
    drawing, out = Path(sheet["D"]), Path(sheet["OUT"])
    base = drawing.read_bytes()
    args = REWRITES[command][0]
    assert main(_rewrite_argv(sheet, command, args, drawing) + ["--out", str(out)]) == 0
    line_out = capsys.readouterr().out
    assert drawing.read_bytes() == base
    assert main(_rewrite_argv(sheet, command, args, drawing)) == 0
    assert capsys.readouterr().out == line_out
    assert drawing.read_bytes() == out.read_bytes() != base


@pytest.mark.parametrize("command", sorted(REWRITES))
def test_failed_rewrite_writes_nothing(sheet, capsys, command):
    drawing, out = Path(sheet["D"]), Path(sheet["OUT"])
    base = drawing.read_bytes()
    args = REWRITES[command][1]
    for extra in (["--out", str(out)], []):
        assert main(_rewrite_argv(sheet, command, args, drawing) + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert drawing.read_bytes() == base and not out.exists()
