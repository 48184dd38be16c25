"""Seeded fuzz gate for the file loaders: hostile content never escapes.

A small valid drawing holds one module of each type and a free element.
Each mutation sets one value at one JSON path of that drawing, or of a
prototype library made from the same modules, to a hostile value; random
byte strings go to every loader. Each call must return or raise a
``KernelError``: any other exception is an escape, and the test lists the
first few with the path and value that caused them.
"""

from __future__ import annotations

import json
import random

import pytest
from modraft import (Drawing, KernelError, LineStyle, Point, Rect, Segment,
                     create_module, load_catalog, load_drawing, load_prototypes,
                     save_drawing, save_prototypes)

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


def _escapes(load, inputs) -> list:
    escapes = []
    for what, data in inputs:
        try:
            load(data)
        except KernelError:
            pass
        except Exception as exc:  # an escape is what this gate looks for
            escapes.append(f"{what}: {type(exc).__name__}: {exc}")
    return escapes


def _mutations(doc: dict, n: int, rng: random.Random):
    """(description, JSON text) for ``n`` single-path mutations of ``doc``."""
    paths = _paths(doc)
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


@pytest.mark.parametrize("load", [load_drawing, load_prototypes, load_catalog],
                         ids=["drawing", "prototypes", "catalog"])
def test_random_bytes_load_or_raise_a_kernel_error(load):
    escapes = _escapes(load, _byte_strings(300, random.Random(SEED + 2)))
    assert escapes == [], "\n".join(escapes[:5])
