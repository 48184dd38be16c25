"""Specification aggregation, duplicate control, table fill and catalogs."""

from __future__ import annotations

import json
import random
import time

import pytest
from modraft import (Catalog, CatalogError, Drawing, FileFormatError,
                     KernelError, ModuleType, Rect, SpecRow,
                     apply_catalog_entry, collect_spec_rows, create_module,
                     fill_table_module, find_duplicate_positions,
                     geometry_bytes, load_catalog, load_drawing,
                     save_drawing_file)

EXTENT = Rect.from_bounds(0, 0, 800, 600)

VALVE_A = {"designation": "15кч18п", "name": "Вентиль", "mass": 1.5,
           "note": "", "origin": (10, 10)}
VALVE_B = {"designation": "15с65нж", "name": "Задвижка", "mass": 8.0,
           "note": "привод", "origin": (40, 10)}


def _drawing(*specs) -> Drawing:
    d = Drawing.new(EXTENT)
    for mtype, props in specs:
        d.add_module(mtype, props)
    return d


def test_identical_modules_merge_with_summed_qty():
    d = _drawing((ModuleType.VALVE, VALVE_A),
                 (ModuleType.VALVE, {**VALVE_A, "origin": (90, 10)}))
    rows, errors = collect_spec_rows([d])
    assert errors == []
    (row,) = rows
    assert row.qty == 2
    assert row.designation == "15кч18п"
    assert row.sources == (("", 1), ("", 2))


def test_distinct_modules_stay_separate():
    d = _drawing((ModuleType.VALVE, VALVE_A),
                 (ModuleType.VALVE, VALVE_B),
                 (ModuleType.VALVE, {**VALVE_A, "mass": 2.0}))
    rows, _ = collect_spec_rows([d])
    assert len(rows) == 3
    assert sum(r.qty for r in rows) == 3


def test_rows_sorted_by_field_tuple():
    d = _drawing((ModuleType.VALVE, VALVE_B), (ModuleType.VALVE, VALVE_A))
    rows, _ = collect_spec_rows([d])
    keys = [r.merge_key() for r in rows]
    assert keys == sorted(keys)


def test_source_order_does_not_matter():
    d1 = _drawing((ModuleType.VALVE, VALVE_A), (ModuleType.VALVE, VALVE_B))
    d2 = _drawing((ModuleType.VALVE, VALVE_A),
                  (ModuleType.INSTRUMENT, {"function_code": "PI",
                                           "pos_designation": "1а",
                                           "name": "Манометр"}))
    rows_ab, _ = collect_spec_rows([("one", d1), ("two", d2)])
    rows_ba, _ = collect_spec_rows([("two", d2), ("one", d1)])
    assert rows_ab == rows_ba


def test_qty_conservation_random():
    rng = random.Random(61)
    pool = [VALVE_A, VALVE_B, {**VALVE_A, "note": "x"}, {**VALVE_B, "mass": 9.0}]
    for _ in range(20):
        picks = [rng.choice(pool) for _ in range(rng.randrange(1, 12))]
        d = _drawing(*((ModuleType.VALVE, p) for p in picks))
        rows, _ = collect_spec_rows([d])
        assert sum(r.qty for r in rows) == len(picks)
        assert len(rows) == len({json.dumps(p, sort_keys=True, default=str)
                                 for p in picks})


def test_type_filter():
    d = _drawing((ModuleType.VALVE, VALVE_A),
                 (ModuleType.INSTRUMENT, {"function_code": "TI",
                                          "name": "Термометр"}))
    rows, _ = collect_spec_rows([d], type_filter={ModuleType.VALVE})
    assert len(rows) == 1 and rows[0].name == "Вентиль"
    rows, _ = collect_spec_rows([d], type_filter=set())
    assert rows == []


def test_posdes_spec_props_feed_rows():
    d = _drawing((ModuleType.POSDES, {
        "leader_from": (0, 0), "shelf_at": (10, 10), "position_text": "5",
        "spec_props": {"designation": "ГОСТ 8732", "name": "Труба 57x3.5",
                       "mass": 4.62, "unit": "м"}}))
    (row,), _ = collect_spec_rows([d])
    assert row.position == "5"
    assert row.designation == "ГОСТ 8732"
    assert row.name == "Труба 57x3.5"
    assert row.unit == "м"
    assert row.mass == 4.62
    assert row.price == 0.0 and row.type_mark == "" and row.note == ""


@pytest.mark.parametrize("spec, reason", [
    pytest.param({"mass": "2.5"}, "mass: expected a real number, got str",
                 id="text-mass"),
    pytest.param({"price": True}, "price: expected a real number, got bool",
                 id="boolean-price"),
    pytest.param({"mass": 10 ** 400}, "mass: value is too large",
                 id="huge-mass"),
])
def test_posdes_spec_number_that_is_not_real_is_an_error(spec, reason):
    d = _drawing((ModuleType.VALVE, VALVE_A),
                 (ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                      "position_text": "7", "spec_props": spec}))
    rows, errors = collect_spec_rows([("sheet", d)])
    assert [(r.designation, r.qty) for r in rows] == [("15кч18п", 1)]
    assert errors == [("sheet", f"module 2: property 'spec_props': {reason}")]
    # the position is still a position
    groups, errors = find_duplicate_positions([("sheet", d), ("copy", d)])
    assert errors == [] and [g.position for g in groups] == ["7"]


@pytest.mark.parametrize("spec, reason", [
    pytest.param({"designation": None},
                 "designation: expected text, got NoneType", id="null-designation"),
    pytest.param({"name": 5}, "name: expected text, got int", id="integer-name"),
    pytest.param({"note": ["a"]}, "note: expected text, got list", id="list-note"),
])
def test_posdes_spec_text_that_is_not_text_is_an_error(spec, reason):
    d = _drawing((ModuleType.VALVE, VALVE_A),
                 (ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                      "position_text": "7", "spec_props": spec}))
    rows, errors = collect_spec_rows([("sheet", d)])
    assert [(r.designation, r.qty) for r in rows] == [("15кч18п", 1)]
    assert errors == [("sheet", f"module 2: property 'spec_props': {reason}")]
    groups, errors = find_duplicate_positions([("sheet", d), ("copy", d)])
    assert errors == [] and [g.position for g in groups] == ["7"]


def test_posdes_spec_text_that_is_missing_is_blank():
    d = _drawing((ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                      "position_text": "7",
                                      "spec_props": {"mass": 1.0}}))
    (row,), errors = collect_spec_rows([d])
    assert errors == []
    assert (row.designation, row.name, row.type_mark, row.unit, row.note) == \
        ("", "", "", "", "")


def test_missing_file_reported_scan_continues(tmp_path):
    d = _drawing((ModuleType.VALVE, VALVE_A))
    good = tmp_path / "good.json"
    save_drawing_file(d, good)
    rows, errors = collect_spec_rows([str(tmp_path / "absent.json"), str(good)])
    assert len(rows) == 1 and rows[0].qty == 1
    assert len(errors) == 1 and errors[0][0] == str(tmp_path / "absent.json")


def test_an_over_long_integer_is_reported_and_the_scans_continue(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_drawing_file(_drawing((ModuleType.VALVE, VALVE_A),
                               (ModuleType.POSDES, {"leader_from": (0, 0),
                                                    "shelf_at": (5, 5),
                                                    "position_text": "1"}),
                               (ModuleType.INSTRUMENT, {"function_code": "PI",
                                                        "pos_designation": "1"})),
                      good)
    bad.write_text('{"format_version": 1, "next_id": ' + "9" * 4301 + "}")
    refusal = [(str(bad), "an integer has too many digits to read")]
    rows, errors = collect_spec_rows([str(good), str(bad)])
    assert [row.designation for row in rows] == ["15кч18п", ""]
    assert errors == refusal
    groups, errors = find_duplicate_positions([str(good), str(bad)])
    assert [g.occurrences for g in groups] == [((str(good), 2), (str(good), 3))]
    assert errors == refusal


def test_merge_across_files(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_drawing_file(_drawing((ModuleType.VALVE, VALVE_A)), p1)
    save_drawing_file(_drawing((ModuleType.VALVE, VALVE_A)), p2)
    rows, errors = collect_spec_rows([str(p1), str(p2)])
    assert errors == []
    (row,) = rows
    assert row.qty == 2
    assert row.sources == ((str(p1), 1), (str(p2), 1))


# --- duplicate position control ------------------------------------------------

def test_duplicates_cross_module_kinds():
    d1 = _drawing((ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (5, 5),
                                       "position_text": "1а"}))
    d2 = _drawing((ModuleType.INSTRUMENT, {"function_code": "PI",
                                           "pos_designation": "1а"}))
    groups, errors = find_duplicate_positions([("left", d1), ("right", d2)])
    assert errors == []
    (g,) = groups
    assert g.position == "1а"
    assert g.occurrences == (("left", 1), ("right", 1))


def test_blank_positions_are_not_duplicates():
    # blank pos_designation is the schema default; blanks are not positions
    d = _drawing((ModuleType.INSTRUMENT, {"function_code": "PI"}),
                 (ModuleType.INSTRUMENT, {"function_code": "TI"}))
    groups, _ = find_duplicate_positions([d])
    assert groups == []


def test_unique_positions_not_reported():
    d = _drawing((ModuleType.INSTRUMENT, {"function_code": "PI",
                                          "pos_designation": "1"}),
                 (ModuleType.INSTRUMENT, {"function_code": "TI",
                                          "pos_designation": "2"}))
    groups, _ = find_duplicate_positions([d])
    assert groups == []


def test_duplicate_groups_sorted():
    mods = [(ModuleType.INSTRUMENT, {"function_code": "PI",
                                     "pos_designation": t})
            for t in ("2б", "1а", "2б", "1а")]
    groups, _ = find_duplicate_positions([_drawing(*mods)])
    assert [g.position for g in groups] == ["1а", "2б"]


# --- table fill -----------------------------------------------------------------

def _table_drawing(n_cols: int = 4) -> "tuple[Drawing, int]":
    d = Drawing.new(EXTENT)
    t = d.add_module(ModuleType.TABLE, {
        "origin": (50, 500),
        "columns": [{"width_mm": 25.0, "header": f"c{i}"} for i in range(n_cols)],
        "row_height_mm": 8.0, "header_height_mm": 15.0, "rows": []})
    return d, t.id


def _rows() -> list[SpecRow]:
    base = dict(type_mark="", unit="", mass=0.0, price=0.0, note="", sources=())
    return [SpecRow(position="1", designation="D1", name="N1", qty=2, **base),
            SpecRow(position="2", designation="D2", name="N2", qty=1, **base)]


def test_fill_table_writes_mapped_cells():
    d, table_id = _table_drawing()
    m = fill_table_module(d, table_id, _rows(),
                          {"position": 0, "name": 1, "qty": 3})
    assert list(m.props["rows"]) == [
        {"cells": ["1", "N1", "", "2"]},
        {"cells": ["2", "N2", "", "1"]},
    ]
    # the drawing holds the regenerated module
    assert d.module(table_id) is m


def test_fill_table_idempotent():
    d, table_id = _table_drawing()
    column_map = {"position": 0, "qty": 1}
    once = fill_table_module(d, table_id, _rows(), column_map)
    bytes_once = geometry_bytes(once.geometry)
    twice = fill_table_module(d, table_id, _rows(), column_map)
    assert geometry_bytes(twice.geometry) == bytes_once
    assert twice.props == once.props


def test_fill_table_formats_numbers():
    d, table_id = _table_drawing()
    base = dict(position="1", designation="", name="", type_mark="", unit="",
                note="", sources=())
    rows = [SpecRow(qty=3, mass=1.5, price=12.0, **base)]
    m = fill_table_module(d, table_id, rows,
                          {"qty": 0, "mass": 1, "price": 2})
    assert list(m.props["rows"]) == [{"cells": ["3", "1.5", "12", ""]}]


def test_fill_table_validates_map():
    d, table_id = _table_drawing(2)
    with pytest.raises(KernelError, match="unknown spec row field"):
        fill_table_module(d, table_id, [], {"bogus": 0})
    with pytest.raises(KernelError, match="out of range"):
        fill_table_module(d, table_id, [], {"qty": 2})
    with pytest.raises(KernelError, match="out of range"):
        fill_table_module(d, table_id, [], {"qty": -1})


@pytest.mark.parametrize("index", [True, False])
def test_fill_table_refuses_a_boolean_column_index(index):
    d, table_id = _table_drawing(2)
    with pytest.raises(KernelError, match=f"column index {index} out of range"):
        fill_table_module(d, table_id, _rows(), {"designation": index})
    assert d.module(table_id).props["rows"] == ()


def test_fill_table_requires_table_module():
    d = _drawing((ModuleType.VALVE, VALVE_A))
    with pytest.raises(KernelError, match="not a table"):
        fill_table_module(d, 1, [], {})


# --- catalogs --------------------------------------------------------------------

CATALOG_DOC = {
    "entries": {
        "V-100": {"name": "Вентиль 15кч18п", "type_mark": "15кч18п",
                  "manufacturer_code": "АРМ-01", "item_code": "100500",
                  "unit": "шт", "unit_code": "796", "price": 250.0},
        "I-200": {"name": "Манометр МП-100", "type_mark": "МП-100",
                  "manufacturer_code": "МЗ-7", "item_code": "200300",
                  "unit": "шт", "unit_code": "796", "price": 1200.5},
    }
}


def test_load_catalog():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    assert set(cat.entries) == {"V-100", "I-200"}
    assert cat.entry("V-100")["price"] == 250.0
    with pytest.raises(CatalogError, match="no catalog entry"):
        cat.entry("missing")


def test_catalog_rejects_duplicate_ids():
    text = ('{"entries": {"X": ' + json.dumps(CATALOG_DOC["entries"]["V-100"]) +
            ', "X": ' + json.dumps(CATALOG_DOC["entries"]["I-200"]) + '}}')
    with pytest.raises(CatalogError, match="duplicate key"):
        load_catalog(text)


def test_catalog_duplicate_key_named_is_the_first_that_repeats():
    with pytest.raises(CatalogError, match="duplicate key 'a'"):
        load_catalog('{"entries": {}, "x": {"a": 1, "b": 2, "b": 3, "a": 4}}')


def test_catalog_duplicate_key_search_is_linear():
    keys = ", ".join(f'"k{i}": 0' for i in range(100_000))
    text = '{"entries": {"E": {' + keys + ', "k99999": 1}}}'
    start = time.perf_counter()
    with pytest.raises(CatalogError, match="duplicate key 'k99999'"):
        load_catalog(text)
    assert time.perf_counter() - start < 5.0


def test_catalog_field_validation():
    entry = dict(CATALOG_DOC["entries"]["V-100"])
    missing = {k: v for k, v in entry.items() if k != "unit"}
    with pytest.raises(CatalogError, match="exactly the fields"):
        load_catalog(json.dumps({"entries": {"X": missing}}))
    extra = dict(entry, bonus=1)
    with pytest.raises(CatalogError, match="exactly the fields"):
        load_catalog(json.dumps({"entries": {"X": extra}}))
    bad_price = dict(entry, price=-5)
    with pytest.raises(CatalogError, match="price"):
        load_catalog(json.dumps({"entries": {"X": bad_price}}))
    bad_text = dict(entry, name=42)
    with pytest.raises(CatalogError,
                       match="^entry 'X': name: expected text, got int$"):
        load_catalog(json.dumps({"entries": {"X": bad_text}}))
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog("{nope}")
    with pytest.raises(CatalogError, match="entries"):
        load_catalog("{}")


_LONE = "text holds the lone surrogate '\\ud800', which UTF-8 cannot encode"


@pytest.mark.parametrize("form", ["bytes-escape", "str-escape", "str"])
@pytest.mark.parametrize("entry_id, field, value", [
    ("e1", "name", "\ud800"),
    ("e1", "unit", "шт\ud800"),
    ("e\ud800", None, None),
], ids=["name", "unit", "id"])
def test_a_lone_surrogate_in_a_catalog_entry_is_a_catalog_error(entry_id, field, value,
                                                                form):
    entry = dict(CATALOG_DOC["entries"]["V-100"])
    if field is not None:
        entry[field] = value
    text = json.dumps({"entries": {**CATALOG_DOC["entries"], entry_id: entry}},
                      ensure_ascii=form != "str")
    assert ("\\ud800" in text) == (form != "str")
    with pytest.raises(CatalogError) as info:
        load_catalog(text.encode() if form == "bytes-escape" else text)
    assert str(info.value) == f"entry {entry_id!r}: {_LONE}"


def test_an_escaped_surrogate_pair_in_a_catalog_loads_as_its_character():
    data = json.dumps({"entries": {"😀": dict(CATALOG_DOC["entries"]["V-100"],
                                             name="😀")}}).encode()
    assert data.count(b"\\ud83d\\ude00") == 2
    assert load_catalog(data).entry("😀")["name"] == "😀"


def test_apply_catalog_to_instrument():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.INSTRUMENT, {"function_code": "PI"})
    m2 = apply_catalog_entry(m, cat, "I-200")
    assert m2.props["name"] == "Манометр МП-100"
    assert m2.props["type_mark"] == "МП-100"
    assert m2.props["price"] == 1200.5
    assert m2.props["unit_code"] == "796"
    # geometry is untouched by spec fields
    assert geometry_bytes(m2.geometry) == geometry_bytes(m.geometry)


def test_apply_catalog_to_valve_takes_matching_fields_only():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.VALVE, {"designation": "old"})
    m2 = apply_catalog_entry(m, cat, "V-100")
    assert m2.props["name"] == "Вентиль 15кч18п"
    assert m2.props["designation"] == "old"  # not a catalog field
    assert "type_mark" not in m2.props


def test_apply_catalog_to_posdes_fills_spec_props():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.POSDES, {
        "leader_from": (0, 0), "shelf_at": (10, 10), "position_text": "7",
        "spec_props": {"note": "keep me"}})
    m2 = apply_catalog_entry(m, cat, "V-100")
    rec = m2.props["spec_props"]
    assert rec["name"] == "Вентиль 15кч18п"
    assert rec["note"] == "keep me"
    # the filled record flows into specification rows
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.POSDES, m2.props)
    (row,), _ = collect_spec_rows([d])
    assert row.name == "Вентиль 15кч18п"
    assert row.position == "7"


def test_apply_catalog_idempotent():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.INSTRUMENT, {"function_code": "PI"})
    once = apply_catalog_entry(m, cat, "I-200")
    twice = apply_catalog_entry(once, cat, "I-200")
    assert twice.props == once.props
    assert geometry_bytes(twice.geometry) == geometry_bytes(once.geometry)


def test_apply_catalog_unknown_entry():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.VALVE, {})
    with pytest.raises(CatalogError):
        apply_catalog_entry(m, cat, "nope")


def test_apply_catalog_needs_spec_capable_module():
    cat = load_catalog(json.dumps(CATALOG_DOC))
    m = create_module(ModuleType.FRAME, {"format": "A4"})
    with pytest.raises(CatalogError):
        apply_catalog_entry(m, cat, "V-100")


def test_load_catalog_rejects_non_utf8():
    with pytest.raises(CatalogError, match="UTF-8"):
        load_catalog(b"\xff")


def test_load_catalog_rejects_deeply_nested_json():
    with pytest.raises(CatalogError, match="nested too deeply"):
        load_catalog(b"[" * 100000 + b"]" * 100000)


@pytest.mark.parametrize("price", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "infinity", "minus-infinity", "huge-integer"])
def test_catalog_price_must_be_a_finite_number(price):
    entry = json.dumps(dict(CATALOG_DOC["entries"]["V-100"], price=0.0))
    text = '{"entries": {"X": ' + entry.replace('"price": 0.0', f'"price": {price}') + "}}"
    with pytest.raises(CatalogError, match="entry 'X': price: value"):
        load_catalog(text)


def test_catalog_json_errors_read_like_drawing_json_errors():
    with pytest.raises(FileFormatError) as drawing_error:
        load_drawing("{nope}")
    with pytest.raises(CatalogError) as catalog_error:
        load_catalog("{nope}")
    assert str(catalog_error.value) == str(drawing_error.value)
