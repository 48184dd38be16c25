"""The frozen format-v1 corpus still loads, digests, verifies and renders.

``tests/data/v1/`` was written once by ``tools/make_v1_corpus.py``, and
``manifest.json`` pins what that code computed for each file. These tests
are the evidence that files saved in format v1 still load byte for byte
and that their signatures still verify. The corpus is never regenerated to
make a test here pass: a change to the manifest is a change to format v1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest

from modraft import (ModuleType, Rect, SpecRow, collect_spec_rows,
                     compute_digest, load_catalog_file, load_drawing,
                     load_prototypes, render_svg, save_drawing,
                     save_prototypes, verify_signatures)

CORPUS = Path(__file__).parent / "data" / "v1"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
DRAWINGS = sorted(MANIFEST["drawings"])


def _load(name: str):
    raw = (CORPUS / name).read_bytes()
    return raw, load_drawing(raw)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_covers_every_module_type_and_fits_its_budget():
    types = {m.type for name in DRAWINGS for m in _load(name)[1].modules()}
    assert types == set(ModuleType)
    assert sum(p.stat().st_size for p in CORPUS.iterdir()) < 300_000


@pytest.mark.parametrize("name", DRAWINGS)
def test_load_save_is_byte_identical(name):
    raw, d = _load(name)
    assert save_drawing(d) == raw


@pytest.mark.parametrize("name", DRAWINGS)
def test_digest_is_pinned(name):
    assert compute_digest(_load(name)[1]) == MANIFEST["drawings"][name]["digest"]


@pytest.mark.parametrize("name", DRAWINGS)
def test_every_signature_verifies(name):
    d = _load(name)[1]
    passwords = MANIFEST["drawings"][name]["passwords"]
    signers = [m.props["person"] for m in d.modules()
               if m.type is ModuleType.SIGNATURE]
    assert sorted(signers) == sorted(passwords)
    checked = verify_signatures(d, passwords)
    assert [(s.integrity, s.authenticity) for s in checked] == \
        [("valid", "valid")] * len(signers)
    unchecked = verify_signatures(d)
    assert [(s.integrity, s.authenticity) for s in unchecked] == \
        [("valid", "unchecked")] * len(signers)


@pytest.mark.parametrize("name", DRAWINGS)
def test_svg_is_pinned(name):
    d = _load(name)[1]
    entry = MANIFEST["drawings"][name]
    assert _sha256(render_svg(d)) == entry["svg_full_sha256"]
    view = Rect.from_bounds(*entry["viewport"])
    assert _sha256(render_svg(d, view)) == entry["svg_view_sha256"]


@pytest.mark.parametrize("name", DRAWINGS)
def test_spec_rows_are_pinned(name):
    rows, errors = collect_spec_rows([(name, _load(name)[1])])
    assert errors == []
    assert [[repr(getattr(row, f.name)) for f in fields(SpecRow)]
            for row in rows] == MANIFEST["drawings"][name]["spec_rows"]


def test_library_loads_and_saves_byte_identical():
    raw = (CORPUS / MANIFEST["library"]["file"]).read_bytes()
    loaded, errors = load_prototypes(raw)
    assert errors == []
    names = [name for name, _ in loaded]
    assert names == MANIFEST["library"]["names"]
    assert save_prototypes([m for _, m in loaded], names) == raw


def test_catalog_loads():
    catalog = load_catalog_file(CORPUS / MANIFEST["catalog"]["file"])
    assert sorted(catalog.entries) == MANIFEST["catalog"]["entries"]
