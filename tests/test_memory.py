"""Memory held by decoded drawing values and by rendering them.

A dense drawing holds tens of thousands of elements, so what one decoded
element keeps alive is pinned here. A slotted segment and its two slotted
points take 152 bytes on CPython 3.10 to 3.13, and the style is shared; a
per-instance ``__dict__`` or a style per segment each push past the bound.
A render holds one string per visible item and the joined document, about
twice the document; a string per element or a copy of the document pushes
past its bound. A digest hashes the canonical bytes fragment by fragment,
so it never holds the document at all.
"""

from __future__ import annotations

import random
import tracemalloc

from modraft import (Drawing, LineType, ModuleType, Rect, canonical_bytes,
                     compute_digest, element_from_json, render_svg)

SEGMENTS = 20_000
MAX_BYTES_PER_SEGMENT = 200


def test_decoded_segments_keep_at_most_200_bytes_each():
    rng = random.Random(16)
    line_types = [t.value for t in LineType]
    records = [{"kind": "segment",
                "p1": [rng.uniform(0, 1000), rng.uniform(0, 1000)],
                "p2": [rng.uniform(0, 1000), rng.uniform(0, 1000)],
                "style": {"color": rng.randrange(256),
                          "line_type": rng.choice(line_types)}}
               for _ in range(SEGMENTS)]
    tracemalloc.start()
    try:
        segments = [element_from_json(r) for r in records]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(segments) == SEGMENTS
    per_segment = held / SEGMENTS
    assert per_segment <= MAX_BYTES_PER_SEGMENT, f"{per_segment:.0f} bytes per segment"


MAX_RENDER_PEAK_PER_SVG_BYTE = 2.5


def _user_sheet(seed: int) -> Drawing:
    """300 user modules of 15 segments each, 4,500 segments in all."""
    rng = random.Random(seed)
    d = Drawing.new(Rect.from_bounds(0, 0, 1000, 1000))
    for _ in range(300):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        d.add_module(ModuleType.USER, {"elements": [
            {"kind": "segment", "p1": [x + rng.uniform(0, 80), y + rng.uniform(0, 80)],
             "p2": [x + rng.uniform(0, 80), y + rng.uniform(0, 80)],
             "style": {"color": rng.randrange(256), "line_type": "solid"}}
            for _ in range(15)]})
    return d


def test_render_peak_is_at_most_two_and_a_half_documents():
    d = _user_sheet(19)
    render_svg(d)  # builds the cull index outside the traced render
    tracemalloc.start()
    try:
        svg = render_svg(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert svg.count("<line ") == 4_500
    ratio = peak / len(svg)
    assert ratio <= MAX_RENDER_PEAK_PER_SVG_BYTE, f"peak {ratio:.2f}x the document"


MAX_DIGEST_PEAK_PER_DOCUMENT_BYTE = 0.05


def test_a_digest_never_holds_the_document():
    d = _user_sheet(21)
    size = len(canonical_bytes(d, exclude_signatures=True))  # caches geometry
    tracemalloc.start()
    try:
        compute_digest(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / size
    assert ratio <= MAX_DIGEST_PEAK_PER_DOCUMENT_BYTE, f"peak {ratio:.3f}x the document"
