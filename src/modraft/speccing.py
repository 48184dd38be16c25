"""Specification aggregation, duplicate position control and catalogs.

Valve, instrument and position-designation modules carry specifying
properties; :func:`collect_spec_rows` scans any number of drawings (on disk
or in memory) and folds them into specification rows. Rows whose spec
fields are all equal merge into one row with the quantity summed, so the
sum of quantities always equals the number of source modules without errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Union

from .core import Module, set_properties
from .errors import CatalogError, FileFormatError, KernelError, SchemaViolation
from .geometry import _as_real, _as_text, _field
from .persistence import Drawing, _parse_json, _read_text, load_drawing_file
from .properties import ModuleType, schema_for

__all__ = ["SpecRow", "DuplicateGroup", "Catalog", "collect_spec_rows",
           "find_duplicate_positions", "fill_table_module", "load_catalog",
           "load_catalog_file", "apply_catalog_entry"]

SPEC_MODULE_TYPES = frozenset(
    {ModuleType.VALVE, ModuleType.INSTRUMENT, ModuleType.POSDES})

CATALOG_FIELDS = ("name", "type_mark", "manufacturer_code", "item_code",
                  "unit", "unit_code", "price")

DrawingSource = Union[str, Path, Drawing, "tuple[str, Drawing]"]


@dataclass(frozen=True)
class SpecRow:
    """One specification row; qty always equals the source count."""

    position: str
    designation: str
    name: str
    type_mark: str
    unit: str
    qty: int
    mass: float
    price: float
    note: str
    sources: tuple = ()  # ((drawing label, module id), ...)

    def merge_key(self) -> tuple:
        return tuple(getattr(self, name) for name in SPEC_ROW_FIELDS)


# Specification columns in SpecRow's field order; the row fields, which are
# the merge key in that order, are the columns but qty.
_SPEC_COLUMNS = tuple(f.name for f in fields(SpecRow) if f.name != "sources")
SPEC_ROW_FIELDS = tuple(name for name in _SPEC_COLUMNS if name != "qty")


@dataclass(frozen=True)
class DuplicateGroup:
    """A position text used by two or more modules."""

    position: str
    occurrences: tuple = ()  # ((drawing label, module id), ...)


@dataclass(frozen=True)
class Catalog:
    """Electronic product catalog: unique entry ids mapping to the seven
    catalog fields."""

    entries: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def entry(self, entry_id: str) -> Mapping[str, object]:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise CatalogError(f"no catalog entry {entry_id!r}") from None


# The property that holds a module type's position designation.
_POSITION_KEY = {ModuleType.INSTRUMENT: "pos_designation",
                 ModuleType.POSDES: "position_text"}


def _spec_key(m: Module) -> tuple:
    """A specifying module's row fields in ``SPEC_ROW_FIELDS`` order, the
    merge key. They are read from the module's own properties, or from a
    posdes module's ``spec_props`` record; a field the source lacks reads
    blank."""
    source = m.props["spec_props"] if m.type is ModuleType.POSDES else m.props
    position = m.props[_POSITION_KEY[m.type]] if m.type in _POSITION_KEY else ""
    try:
        return (position,) + tuple(
            _field(source, name, _as_real, 0.0) if name in ("mass", "price")
            else _field(source, name, _as_text, "") for name in SPEC_ROW_FIELDS[1:])
    except ValueError as exc:
        raise SchemaViolation("spec_props", str(exc)) from exc


def _modules(sources: Iterable[DrawingSource], errors: list):
    """Yield (label, module) for every module of every source, in order.

    A source that fails to load adds (label, message) to ``errors`` and
    yields nothing; it never aborts the scan.
    """
    for src in sources:
        if isinstance(src, Drawing):
            label, d = "", src
        elif isinstance(src, tuple):
            label, d = src
            label = str(label)
        else:
            label = str(src)
            try:
                d = load_drawing_file(src)
            except (OSError, KernelError) as exc:
                errors.append((label, str(exc)))
                continue
        for m in d.modules():
            yield label, m


def collect_spec_rows(
    sources: Iterable[DrawingSource],
    type_filter: "frozenset | set | None" = None,
) -> "tuple[list[SpecRow], list[tuple[str, str]]]":
    """Aggregate specification rows across drawings.

    Sources may be file paths, in-memory drawings, or (label, drawing)
    pairs. Returns (rows, errors): rows merged on the full field tuple and
    sorted by it ascending (code-point text order); errors as (label,
    message) pairs, which never abort the scan, for sources that failed to
    load and for posdes modules whose ``spec_props`` ``mass`` or ``price``
    is not a real number, or whose text field is not text. Such a module
    gets no row.
    """
    wanted = SPEC_MODULE_TYPES if type_filter is None else \
        SPEC_MODULE_TYPES & frozenset(ModuleType(t) for t in type_filter)
    merged: dict[tuple, list] = {}
    errors: list[tuple[str, str]] = []
    for label, m in _modules(sources, errors):
        if m.type not in wanted:
            continue
        try:
            key = _spec_key(m)
        except SchemaViolation as exc:
            errors.append((label, f"module {m.id}: {exc}"))
            continue
        merged.setdefault(key, []).append((label, m.id))
    rows = []
    for key in sorted(merged):
        sources_for_row = tuple(sorted(merged[key]))
        rows.append(SpecRow(**dict(zip(SPEC_ROW_FIELDS, key)),
                            qty=len(sources_for_row), sources=sources_for_row))
    return rows, errors


def find_duplicate_positions(
    sources: Iterable[DrawingSource],
) -> "tuple[list[DuplicateGroup], list[tuple[str, str]]]":
    """Report position texts used by two or more modules.

    Position designations come from posdes position_text and instrument
    pos_designation properties; blank texts are not positions and are
    skipped. Returns (groups, errors) with groups sorted by position text.
    """
    occurrences: dict[str, list] = {}
    errors: list[tuple[str, str]] = []
    for label, m in _modules(sources, errors):
        key = _POSITION_KEY.get(m.type)
        if key is not None and m.props[key]:
            occurrences.setdefault(m.props[key], []).append((label, m.id))
    groups = [DuplicateGroup(text, tuple(sorted(occ)))
              for text, occ in sorted(occurrences.items()) if len(occ) >= 2]
    return groups, errors


def _cell_text(value: object) -> str:
    """A row field as printed and as put in a table cell: a real as the file
    writer writes it (``repr``), less the ``.0`` of a whole number."""
    return repr(value).removesuffix(".0") if isinstance(value, float) else str(value)


def fill_table_module(d: Drawing, table_id: int, rows: Iterable[SpecRow],
                      column_map: Mapping[str, int]) -> Module:
    """Fill a table module's rows from specification rows.

    column_map maps row field names ("position", "qty", …) to zero-based
    column indices of the table; unmapped columns stay blank. The table
    module is regenerated in place and returned.
    """
    table = d.module(table_id)
    if table.type is not ModuleType.TABLE:
        raise KernelError(f"module {table_id} is not a table")
    n_columns = len(table.props["columns"])
    for name, index in column_map.items():
        if name not in _SPEC_COLUMNS:
            raise KernelError(f"unknown spec row field {name!r}")
        if not (type(index) is int and 0 <= index < n_columns):
            raise KernelError(
                f"column index {index!r} out of range for {n_columns} columns")
    table_rows = []
    for row in rows:
        cells = [""] * n_columns
        for name, index in column_map.items():
            cells[index] = _cell_text(getattr(row, name))
        table_rows.append({"cells": cells})
    return d.set_module_properties(table_id, {"rows": table_rows})


def load_catalog(data: "bytes | str") -> Catalog:
    """Parse a catalog file: {"entries": {id: {the seven fields}}}.

    Each entry, its id included, gets the drawing reader's lone-surrogate
    check. A bad entry raises :class:`CatalogError` naming it."""
    def reject_duplicates(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            counts = Counter(k for k, _ in pairs)
            dup = next(k for k, _ in pairs if counts[k] > 1)
            raise CatalogError(f"duplicate key {dup!r} in catalog")
        return obj

    try:
        text, _, screened = _read_text(data)
        doc, check_surrogates = _parse_json(text, screened, reject_duplicates)
    except FileFormatError as exc:
        raise CatalogError(str(exc)) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
        raise CatalogError("catalog must be an object with an 'entries' map")
    entries: dict[str, dict] = {}
    for entry_id, entry in doc["entries"].items():
        if not isinstance(entry, dict):
            raise CatalogError(f"entry {entry_id!r} must be an object")
        if set(entry) != set(CATALOG_FIELDS):
            raise CatalogError(
                f"entry {entry_id!r} must have exactly the fields "
                f"{', '.join(CATALOG_FIELDS)}")
        try:
            check_surrogates((entry_id, entry))
            clean = {name: _field(entry, name,
                                  _as_real if name == "price" else _as_text)
                     for name in CATALOG_FIELDS}
        except (FileFormatError, ValueError) as exc:
            raise CatalogError(f"entry {entry_id!r}: {exc}") from exc
        if clean["price"] < 0:
            raise CatalogError(f"entry {entry_id!r}: price must be non-negative")
        entries[entry_id] = clean
    return Catalog(entries)


def load_catalog_file(path: "str | Path") -> Catalog:
    return load_catalog(Path(path).read_bytes())


def apply_catalog_entry(m: Module, catalog: Catalog, entry_id: str,
                        grid=None) -> Module:
    """Copy a catalog entry's fields onto a module and regenerate it.

    Valve and instrument modules receive the fields on their same-named
    schema keys; posdes modules receive them inside the spec_props record.
    Idempotent: applying the same entry twice changes nothing. ``grid`` is
    accepted for compatibility and has no effect.
    """
    entry = catalog.entry(entry_id)
    if m.type is ModuleType.POSDES:
        rec = dict(m.props["spec_props"])
        rec.update(entry)
        return set_properties(m, {"spec_props": rec})
    schema = schema_for(m.type)
    updates = {name: value for name, value in entry.items() if name in schema}
    if not updates:
        raise CatalogError(f"module type {m.type.value} has no catalog fields")
    return set_properties(m, updates)
