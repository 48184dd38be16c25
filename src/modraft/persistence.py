"""Drawing files, prototype libraries and canonical serialisation.

All files are UTF-8 JSON in canonical form (sorted keys, no insignificant
whitespace, shortest round-tripping reals) with a top-level format_version.
Conventional extensions: ``.draw.json`` for drawings, ``.proto.json`` for
prototype libraries, ``.cat.json`` for catalogs.

A drawing stores each module's properties AND generated geometry; loading
regenerates every module from its properties and rejects the file with
:class:`IntegrityMismatch` when the stored geometry records, as canonical
JSON, differ from what saving writes for the regenerated geometry — so a
malformed, incomplete or integer-for-real record is a mismatch too. Free
element records must be canonical as well, and so must the frame: every
object holds exactly the keys the format defines, ids and versions are
JSON integers, and ``extent`` and ``zone_grid`` are canonical. One
comparison of a canonical file's bytes with the regenerated drawing's
proves the records, so its stored geometry is never parsed; any other file
is parsed whole and checked item by item. Property
values are decoded by :func:`validate_props` alone and normalised on load
(an integer for a real is saved as a real), so load∘save is the identity on
canonical files.

Each module's geometry is encoded once — by load's comparison, or by the
first save or digest — and kept on the module as ``geometry_json``. Saves
and digests read one stream of fragments, ``_fragments``: the frame's
head, then each item, then its tail, where a module item passes its cached
``geometry_json`` on as it is and writes only its properties. A save joins
the fragments; a digest hashes them one by one and never holds the whole
document. Bytes come from one writer per thing, not from the JSON encoder:
``geometry._element_text`` for elements, of modules and free ones alike,
and ``properties._props_bytes``, one writer per property kind, for
property sets, in drawings and prototype libraries alike. Text holding a
lone surrogate has no UTF-8 bytes, so a drawing or prototype library that
holds one neither loads nor saves: ``canon._utf8`` is the one rule, and
a ``str`` input is screened as its UTF-8 bytes are. Prototype libraries
store (name, type, properties) only — no geometry records — with
placement reset to identity.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Union

from .canon import _utf8, canonical_dumps, canonical_encode
from .core import Module, create_module, set_properties
from .errors import FileFormatError, IntegrityMismatch, KernelError
from .geometry import (Element, Rect, ZoneGrid, _as_point, _element_text,
                       _named, _to_json, element_from_json)
from .properties import (PLACEMENT_SCHEMA, ModuleType, _props_bytes,
                         props_from_json, validate_props)

__all__ = ["FORMAT_VERSION", "Drawing", "canonical_bytes", "save_drawing",
           "load_drawing", "save_drawing_file", "load_drawing_file",
           "save_prototypes", "load_prototypes"]

FORMAT_VERSION = 1

DEFAULT_GRID_NX = 16
DEFAULT_GRID_NY = 16

DrawingItem = Union[Module, Element]


def _default_grid(extent: Rect, nx: int = DEFAULT_GRID_NX,
                  ny: int = DEFAULT_GRID_NY) -> ZoneGrid:
    """An nx x ny zone grid of equal cells covering the extent."""
    return ZoneGrid(extent.min, max(extent.width, 1e-6) / nx,
                    max(extent.height, 1e-6) / ny, nx, ny)


@dataclass
class Drawing:
    """Ordered container of modules and free elements over a fixed extent.

    Single-writer: one mutator at a time; readers see a consistent snapshot
    between mutations. Item order is drawing (z) order.
    """

    extent: Rect
    zone_grid: ZoneGrid
    next_id: int = 1
    items: list = field(default_factory=list)
    # Viewport culling index, built and checked by ``render.visible_items``.
    _cull_index: object = field(default=None, init=False, repr=False,
                                compare=False)

    @classmethod
    def new(cls, extent: Rect, grid: "ZoneGrid | None" = None) -> "Drawing":
        return cls(extent, grid if grid is not None else _default_grid(extent))

    def modules(self) -> list[Module]:
        return [item for item in self.items if isinstance(item, Module)]

    def free_elements(self) -> list[Element]:
        return [item for item in self.items if not isinstance(item, Module)]

    def _module_index(self, module_id: int) -> int:
        if type(module_id) is int:  # True == 1 and 2.0 == 2 would find a module
            for i, item in enumerate(self.items):
                if isinstance(item, Module) and item.id == module_id:
                    return i
        raise KernelError(f"no module with id {module_id}")

    def module(self, module_id: int) -> Module:
        return self.items[self._module_index(module_id)]

    def add_module(self, mtype: ModuleType, props: dict) -> Module:
        m = create_module(mtype, props, module_id=self.next_id)
        self.next_id += 1
        self.items.append(m)
        return m

    def add_element(self, element: Element) -> None:
        if not isinstance(element, Element):
            raise KernelError(f"not an element: a {type(element).__name__}")
        self.items.append(element)

    def replace_module(self, replacement: Module) -> Module:
        """Swap in a module with the same id."""
        self.items[self._module_index(replacement.id)] = replacement
        return replacement

    def set_module_properties(self, module_id: int, updates: dict) -> Module:
        m = set_properties(self.module(module_id), updates)
        return self.replace_module(m)

    def remove_module(self, module_id: int) -> None:
        del self.items[self._module_index(module_id)]

    def remove_free_element(self, index: int) -> None:
        positions = [i for i, item in enumerate(self.items)
                     if not isinstance(item, Module)]
        if type(index) is not int or not -len(positions) <= index < len(positions):
            raise KernelError(f"no free element at index {index}")
        del self.items[positions[index]]


_MODULE_HEAD = b'{"geometry":'
_MODULE_REST = b',"id":%d,"kind":"module","props":%b,"type":%b}'
_ELEMENT_ITEM = '{"element":%s,"kind":"element"}'
_TYPE_JSON = {t: canonical_encode(t.value) for t in ModuleType}
# What :func:`_read_items` reads, cut from the writer's own templates above.
_OPEN = _MODULE_HEAD.decode()
_ID, _PROPS, _TYPE, _CLOSE = re.split("%[db]", _MODULE_REST.decode())
_ELEMENT_HEAD, _ELEMENT_TAIL = _ELEMENT_ITEM.split("%s")
_TYPE_OF = {_TYPE + text.decode() + _CLOSE: t for t, text in _TYPE_JSON.items()}
_DECODER = json.JSONDecoder()


def _fragments(d: Drawing, exclude_signatures: bool) -> Iterator[bytes]:
    """The canonical bytes of a drawing, fragment by fragment: the frame's
    head, each item, then the frame's tail, keys in sorted order. A module
    item passes its cached ``geometry_json`` on as it is and writes its
    properties, which are mutable and so never cached."""
    frame = {"extent": _to_json(d.extent), "format_version": FORMAT_VERSION,
             "items": [], "zone_grid": _to_json(d.zone_grid)}
    if not exclude_signatures:
        frame["next_id"] = d.next_id
    # Every other frame value is a number, so the empty list is found once.
    head, tail = canonical_encode(frame).split(b'"items":[]')
    yield head + b'"items":['
    comma = b""
    for item in d.items:
        if not isinstance(item, Module):
            yield comma + _utf8(_ELEMENT_ITEM % _element_text(item))
        elif exclude_signatures and item.type is ModuleType.SIGNATURE:
            continue
        else:
            yield comma + _MODULE_HEAD
            yield item.geometry_json
            yield _MODULE_REST % (item.id, _props_bytes(item.type, item.props),
                                  _TYPE_JSON[item.type])
        comma = b","
    yield b"]" + tail


def canonical_bytes(d: Drawing, exclude_signatures: bool = False) -> bytes:
    """Canonical byte form of a drawing; the basis for files and digests.

    With exclude_signatures the view drops every signature module and the
    id counter, so signing — which adds a module and allocates an id —
    never changes the bytes it signed: a drawing supports any number of
    signatures without later ones invalidating earlier ones.

    The bytes are the join of :func:`_fragments`, which digests hash one
    by one.
    """
    return b"".join(_fragments(d, exclude_signatures))


def save_drawing(d: Drawing) -> bytes:
    """Serialise a drawing; the file content IS its canonical form."""
    return canonical_bytes(d)


def _read_text(data: "bytes | str") -> tuple[str, "bytes | bytearray", bool]:
    """A UTF-8 file as text and as bytes, and whether one search of those
    bytes finds a surrogate's escape, or ``_utf8`` a surrogate in a ``str``."""
    data = data.tobytes() if isinstance(data, memoryview) else data
    if not isinstance(data, (bytes, bytearray, str)):
        raise FileFormatError(f"a file is bytes or text, not {type(data).__name__}")
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
        raw = _utf8(data) if isinstance(data, str) else data
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except KernelError:
        return text, b"", True
    return text, raw, _SURROGATE_ESCAPE.search(raw) is not None


def _parse_json(text: str, screened: bool, object_pairs_hook=None) -> tuple:
    """Decode JSON text; a key repeated in one object is read last-wins
    unless ``object_pairs_hook`` decides otherwise. Also return the
    lone-surrogate check for one item: :func:`_check_surrogates`, or a no-op
    when ``screened``, :func:`_read_text`'s search, found no sign of one."""
    try:
        doc = json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise FileFormatError("an integer has too many digits to read") from exc
    except RecursionError as exc:
        raise FileFormatError("JSON nested too deeply") from exc
    return doc, _check_surrogates if screened else _no_surrogates


def _check_version(doc: dict) -> None:
    version = doc.get("format_version")
    if not (type(version) is int and version == FORMAT_VERSION):
        raise FileFormatError(f"unsupported format_version {version!r}")


_DRAWING_KEYS = frozenset({"extent", "format_version", "items", "next_id",
                           "zone_grid"})
_MODULE_KEYS = frozenset({"geometry", "id", "kind", "props", "type"})
_ELEMENT_KEYS = frozenset({"element", "kind"})
_LIBRARY_KEYS = frozenset({"entries", "format_version"})
_ENTRY_KEYS = frozenset({"name", "props", "type"})


def _check_keys(doc: dict, keys: frozenset, what: str) -> None:
    """Exactly the keys the format defines: none missing, none unknown."""
    if doc.keys() != keys:
        unknown, missing = doc.keys() - keys, keys - doc.keys()
        raise FileFormatError(f"bad {what}: " + (
            f"unknown key {min(unknown)!r}" if unknown
            else f"missing key {min(missing)!r}"))


def _check_canonical(what: str, stored: object, saved: str) -> None:
    """``stored``, a parsed value, encodes to ``saved``, canonical text."""
    stored = canonical_dumps(stored)
    if stored != saved:
        raise FileFormatError(f"{what} is not canonical: stored as "
                              f"{_clip(stored)} but saves as {_clip(saved)}")


# A lone UTF-16 surrogate parses into a Python string but has no UTF-8
# bytes, so an item holding one could not be saved. UTF-8 bytes spell one
# only as a JSON escape, which canonical files never hold, so one search of
# the input's bytes gates the exact check of every item.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _check_surrogates(item_doc: object) -> None:
    """``_utf8``'s verdict on the item's JSON text, as a FileFormatError."""
    try:
        _utf8(json.dumps(item_doc, ensure_ascii=False))
    except KernelError as exc:
        raise FileFormatError(*exc.args) from None


def _no_surrogates(item_doc: object) -> None:
    """The check when the input shows no sign of a surrogate."""


def load_drawing(data: "bytes | str") -> Drawing:
    """Parse and verify a drawing file.

    Every module is regenerated from its stored properties; stored geometry
    that disagrees raises :class:`IntegrityMismatch`. The frame around the
    items must hold exactly the defined keys, and ``extent`` and
    ``zone_grid`` must be canonical. No text may hold a lone surrogate.
    An input with no sign of a surrogate and a canonical frame first loads
    by the fast walk over :func:`_read_items`, which never parses stored
    geometry, and equal canonical bytes prove it; otherwise the whole input
    is parsed, and a walk with the per-item checks gives the verdict.
    """
    text, raw, screened = _read_text(data)
    if not screened:
        with suppress(KernelError, RecursionError):
            # The frame without its items: only numbers lie around them.
            start = text.find('"items":[') + len('"items":[')
            frame = _read_frame(_parse_json(
                text[:start] + text[text.rfind('],"next_id":'):], False)[0])
            head, tail = _fragments(Drawing(*frame), False)  # an empty drawing's bytes
            if raw.startswith(head) and raw.endswith(tail):
                items = _read_items(text, len(head), len(text) - len(tail))
                d = _load_items(Drawing(*frame), items, _no_surrogates, False)
                if raw == canonical_bytes(d):
                    return d
    doc, check_surrogates = _parse_json(text, screened)
    return _load_items(Drawing(*_read_frame(doc)), doc["items"], check_surrogates, True)


def _read_frame(doc: object) -> tuple[Rect, ZoneGrid, int]:
    """A parsed drawing's extent, zone grid and next id, its frame checked."""
    if not isinstance(doc, dict):
        raise FileFormatError("drawing file must contain a JSON object")
    _check_version(doc)
    _check_keys(doc, _DRAWING_KEYS, "drawing structure")
    try:
        extent = Rect(_named("extent.min", doc["extent"]["min"], _as_point),
                      _named("extent.max", doc["extent"]["max"], _as_point))
        grid_doc = doc["zone_grid"]
        grid = ZoneGrid(_named("zone_grid.origin", grid_doc["origin"], _as_point),
                        grid_doc["cell_w"], grid_doc["cell_h"],
                        grid_doc["nx"], grid_doc["ny"])
        _check_canonical("extent", doc["extent"], canonical_dumps(_to_json(extent)))
        _check_canonical("zone_grid", grid_doc, canonical_dumps(_to_json(grid)))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FileFormatError(f"bad drawing structure: {exc}") from exc
    next_id = doc["next_id"]
    if not (type(next_id) is int and next_id >= 1):
        raise FileFormatError("next_id must be a positive integer")
    if not isinstance(doc["items"], list):
        raise FileFormatError("items must be a list")
    return extent, grid, next_id


def _read_items(text: str, at: int, end: int) -> Iterator[dict]:
    """Each item of ``text[at:end]`` as parsing gives it, read in the grammar
    of :func:`_fragments`, but a module's stored geometry is skipped up to
    the first ``_ID``: no element record has an ``id`` key, and JSON text
    escapes every quote. Props and free elements are decoded from their own
    spans. A misplaced item is a FileFormatError; the caller's byte
    comparison proves the rest, the comma skipped after each item included."""
    try:
        while at < end:
            if text.startswith(_OPEN, at):
                at = text.index(_ID, at) + len(_ID)
                props_at = text.index(_PROPS, at)
                item = {"geometry": None, "id": int(text[at:props_at]), "kind": "module"}
                item["props"], at = _DECODER.raw_decode(text, props_at + len(_PROPS))
                close = text.index(_CLOSE, at) + len(_CLOSE)
                item["type"], at = _TYPE_OF[text[at:close]], close + 1
            elif text.startswith(_ELEMENT_HEAD, at):
                record, at = _DECODER.raw_decode(text, at + len(_ELEMENT_HEAD))
                if not text.startswith(_ELEMENT_TAIL, at):
                    raise ValueError("no kind after the record")
                item = {"element": record, "kind": "element"}
                at += len(_ELEMENT_TAIL) + 1
            else:
                raise ValueError("no item")
            yield item
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"not a canonical item at character {at}: {exc}") from None


def _load_items(d: Drawing, items_doc: Iterable, check_surrogates, check: bool) -> Drawing:
    """Load each item into ``d``, locating what one raises; ``check`` adds the
    byte checks: stored geometry as it regenerates, free elements canonical."""
    seen_ids: set[int] = set()
    for index, item_doc in enumerate(items_doc):
        try:
            check_surrogates(item_doc)
            d.items.append(_load_item(item_doc, d.next_id, seen_ids, check))
        except (KernelError, RecursionError) as exc:
            spot = f"item {index}"  # plus the module id, for a module
            if isinstance(item_doc, dict) and item_doc.get("kind") == "module":
                spot += f" (module {item_doc.get('id')!r})"
            if isinstance(exc, RecursionError):
                raise FileFormatError(f"{spot}: nested too deeply") from exc
            exc.args = (f"{spot}: {exc}",)
            raise
    return d


def _load_item(item_doc: object, next_id: int, seen_ids: set,
               check: bool) -> DrawingItem:
    if not isinstance(item_doc, dict):
        raise FileFormatError("items must be objects")
    kind = item_doc.get("kind")
    if kind == "element":
        _check_keys(item_doc, _ELEMENT_KEYS, "free element")
        try:
            record = item_doc["element"]
            element = element_from_json(record)
            if check:
                _check_canonical("free element", record, _element_text(element))
        except ValueError as exc:
            raise FileFormatError(f"bad free element: {exc}") from exc
        return element
    if kind != "module":
        raise FileFormatError(f"unknown item kind {kind!r}")
    _check_keys(item_doc, _MODULE_KEYS, "module record")
    try:
        module_id = item_doc["id"]
        mtype = ModuleType(item_doc["type"])
        props = props_from_json(mtype, item_doc["props"])
        if check:
            stored = item_doc["geometry"]
            if not isinstance(stored, list):
                raise TypeError("geometry must be a list")
            stored_bytes = canonical_encode(stored)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"bad module record: {exc}") from exc
    if not (type(module_id) is int and 1 <= module_id < next_id):
        raise FileFormatError(f"module id {module_id!r} out of range")
    if module_id in seen_ids:
        raise FileFormatError(f"duplicate module id {module_id}")
    seen_ids.add(module_id)
    m = create_module(mtype, props, module_id=module_id)
    if check and stored_bytes != m.geometry_json:
        raise _mismatch(stored, m.geometry)
    return m


def _clip(text: str, limit: int = 120) -> str:
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _mismatch(stored: list, regenerated: "tuple[Element, ...]") -> IntegrityMismatch:
    """Name the first record where stored and regenerated geometry differ."""
    pairs = zip_longest(map(canonical_dumps, stored),
                        map(_element_text, regenerated), fillvalue="nothing")
    i, (was, now) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    return IntegrityMismatch(
        f"geometry does not match its properties: element {i} is stored as "
        f"{_clip(was)} but regenerates as {_clip(now)}")


def save_drawing_file(d: Drawing, path: "str | Path") -> None:
    Path(path).write_bytes(save_drawing(d))


def load_drawing_file(path: "str | Path") -> Drawing:
    return load_drawing(Path(path).read_bytes())


_PLACEMENT_RESET = {key: spec.default for key, spec in PLACEMENT_SCHEMA.items()}
_LIBRARY = b'{"entries":[%b],"format_version":%d}'
_ENTRY = b'{"name":%b,"props":%b,"type":%b}'


def _is_prototype_name(name: object) -> bool:
    """Prototype names are non-empty text, in files and in calls alike."""
    return isinstance(name, str) and name != ""


def save_prototypes(modules: Iterable[Module], names: Iterable[str]) -> bytes:
    """Serialise modules as a prototype library: names, types and properties
    only (placement reset to identity); geometry is never written."""
    modules = list(modules)
    names = list(names)
    if len(modules) != len(names):
        raise KernelError("one name is required per prototype")
    for name in names:
        if not _is_prototype_name(name):
            raise KernelError(f"prototype name {name!r}: must be non-empty text")
    if len(set(names)) != len(names):
        raise KernelError("prototype names must be unique")
    entries = [_ENTRY % (canonical_encode(name), _props_bytes(
        m.type, validate_props(m.type, {**m.props, **_PLACEMENT_RESET})),
        _TYPE_JSON[m.type]) for m, name in zip(modules, names)]
    return _LIBRARY % (b",".join(entries), FORMAT_VERSION)


def load_prototypes(
    data: "bytes | str",
) -> tuple[list[tuple[str, Module]], list[tuple[str, str]]]:
    """Regenerate prototype modules from a library file.

    Returns ((name, module) pairs, errors). An entry holds exactly a
    non-empty text ``name`` that no earlier entry used, a ``type`` and
    ``props``, and no text holding a lone surrogate; a bad one is reported
    in ``errors`` as (its name, or ``entry N``, message) and the remaining
    entries still load.
    """
    text, _, screened = _read_text(data)
    doc, check_surrogates = _parse_json(text, screened)
    if not isinstance(doc, dict):
        raise FileFormatError("prototype file must contain a JSON object")
    _check_version(doc)
    _check_keys(doc, _LIBRARY_KEYS, "prototype library")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise FileFormatError("prototype file needs an 'entries' list")
    loaded: list[tuple[str, Module]] = []
    errors: list[tuple[str, str]] = []
    first_use: dict[str, int] = {}
    for i, entry in enumerate(entries):
        name = f"entry {i}"
        try:
            if not isinstance(entry, dict):
                raise FileFormatError("prototype entries must be objects")
            named = _is_prototype_name(entry.get("name"))
            if named:
                with suppress(FileFormatError):
                    check_surrogates(entry["name"])
                    name = entry["name"]
            check_surrogates(entry)
            _check_keys(entry, _ENTRY_KEYS, "prototype entry")
            if not named:
                raise FileFormatError("bad prototype entry: name must be non-empty text")
            if first_use.setdefault(name, i) != i:
                raise FileFormatError(f"bad prototype entry: name {name!r} is "
                                      f"already used by entry {first_use[name]}")
            mtype = ModuleType(entry["type"])
            props = props_from_json(mtype, entry["props"])
            loaded.append((name, create_module(mtype, props,
                                               module_id=len(loaded) + 1)))
        except RecursionError:
            errors.append((name, "nested too deeply"))
        except (KernelError, KeyError, TypeError, ValueError) as exc:
            errors.append((name, str(exc)))
    return loaded, errors
