"""Seeded fuzz gate for the file loaders: hostile content never escapes.

A small valid drawing holds one module of each type and a free element.
Each mutation sets one value at one JSON path of that drawing, of a
prototype library made from the same modules, of a catalog, or of a posdes
module's ``spec_props`` record, to a hostile value; random byte strings go
to every loader. Each call must return or raise a ``KernelError`` (a
catalog a ``CatalogError``), and a specification scan must give the posdes
module a row or report it: any other outcome is an escape, and the test
lists the first few with the path and value that caused them.
"""

from __future__ import annotations

import json
import random

import pytest
from modraft import (CatalogError, Drawing, KernelError, LineStyle, ModuleType,
                     Point, Rect, Segment, collect_spec_rows, create_module,
                     load_catalog, load_drawing, load_prototypes, save_drawing,
                     save_prototypes)

from propgen import PROP_MAKERS

HOSTILE = [
    None, True, False, 1e308, -1e308, float("nan"), float("inf"),
    float("-inf"), 10 ** 400, -10 ** 400, "", [], {},
    {"kind": "point", "value": [0.0, 0.0]},
    {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0},
]

# Fragments that random byte strings are built from, besides raw bytes, so
# that some of them parse and reach the structure checks.
TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"0", b"-1", b"1e400",
          b"NaN", b"true", b"null", b'"entries"', b'"format_version"',
          b'"items"', b'"kind"', b'"module"', b'"props"', b'"name"',
          b'"type"', b'"valve"', b"\xff", b"\\u"]

SEED = 20260418


def _modules(rng: random.Random) -> list:
    return [create_module(mtype, make(rng))
            for mtype, make in PROP_MAKERS.items()]


def _drawing_doc() -> dict:
    d = Drawing.new(Rect.from_bounds(-500, -500, 1500, 1500))
    for m in _modules(random.Random(SEED)):
        d.add_module(m.type, m.props)
    d.add_element(Segment(Point(0, 0), Point(50, 50), LineStyle()))
    return json.loads(save_drawing(d))


def _library_doc() -> dict:
    modules = _modules(random.Random(SEED))
    names = [f"p{i}" for i in range(len(modules))]
    return json.loads(save_prototypes(modules, names))


_ENTRY = {"name": "Вентиль", "type_mark": "15кч18п", "manufacturer_code": "АРМ-01",
          "item_code": "100500", "unit": "шт", "unit_code": "796", "price": 250.0}
_CATALOG_DOC = {"entries": {"V-100": _ENTRY, "V-200": {**_ENTRY, "price": 3}}}

# A posdes module's spec_props record, and where a drawing file holds it.
_SPEC_PROPS = {"designation": "Д-1", "name": "Труба", "type_mark": "57x3",
               "unit": "м", "mass": 4.5, "price": 12, "note": ""}
_SPEC_PROPS_PATH = ("items", 0, "props", "spec_props", "value")


def _spec_doc() -> dict:
    d = Drawing.new(Rect.from_bounds(0, 0, 100, 100))
    d.add_module(ModuleType.POSDES, {"leader_from": (0, 0), "shelf_at": (10, 10),
                                     "position_text": "1",
                                     "spec_props": _SPEC_PROPS})
    return json.loads(save_drawing(d))


def _spec_scan(text: str) -> None:
    """Scan a drawing that holds one posdes module: it gets a row, or the
    scan reports it."""
    rows, errors = collect_spec_rows([("d", load_drawing(text))])
    if sum(row.qty for row in rows) + len(errors) != 1:
        raise AssertionError(f"rows {rows}, errors {errors}")


def _paths(node: object, path: tuple = ()) -> list:
    """Every path below ``node``: its keys and indices, at every depth."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out += _paths(child, path + (key,))
    return out


def _escapes(load, inputs, refusal=KernelError) -> list:
    escapes = []
    for what, data in inputs:
        try:
            load(data)
        except refusal:
            pass
        except Exception as exc:  # an escape is what this gate looks for
            escapes.append(f"{what}: {type(exc).__name__}: {exc}")
    return escapes


def _mutations(doc: dict, n: int, rng: random.Random, under: tuple = ()):
    """(description, JSON text) for ``n`` single-path mutations of ``doc``,
    each at a path below ``under``."""
    node = doc
    for key in under:
        node = node[key]
    paths = [under + path for path in _paths(node)]
    for _ in range(n):
        path, value = rng.choice(paths), rng.choice(HOSTILE)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = value
        yield f"{'/'.join(map(str, path))} = {value!r}"[:200], json.dumps(doc)
        parent[path[-1]] = old


def _byte_strings(n: int, rng: random.Random):
    for i in range(n):
        if i % 2:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        else:
            data = b"".join(rng.choice(TOKENS) for _ in range(rng.randrange(24)))
        yield repr(data)[:200], data


def test_mutated_drawing_loads_or_raises_a_kernel_error():
    rng = random.Random(SEED)
    escapes = _escapes(load_drawing, _mutations(_drawing_doc(), 500, rng))
    assert escapes == [], "\n".join(escapes[:5])


def test_mutated_prototype_library_loads_or_raises_a_kernel_error():
    rng = random.Random(SEED + 1)
    escapes = _escapes(load_prototypes, _mutations(_library_doc(), 500, rng))
    assert escapes == [], "\n".join(escapes[:5])


def test_mutated_catalog_loads_or_raises_a_catalog_error():
    rng = random.Random(SEED + 3)
    escapes = _escapes(load_catalog, _mutations(_CATALOG_DOC, 300, rng),
                       CatalogError)
    assert escapes == [], "\n".join(escapes[:5])


def test_mutated_spec_props_give_a_row_or_an_error():
    rng = random.Random(SEED + 4)
    escapes = _escapes(_spec_scan,
                       _mutations(_spec_doc(), 300, rng, under=_SPEC_PROPS_PATH))
    assert escapes == [], "\n".join(escapes[:5])


@pytest.mark.parametrize("load", [load_drawing, load_prototypes, load_catalog],
                         ids=["drawing", "prototypes", "catalog"])
def test_random_bytes_load_or_raise_a_kernel_error(load):
    escapes = _escapes(load, _byte_strings(300, random.Random(SEED + 2)))
    assert escapes == [], "\n".join(escapes[:5])
