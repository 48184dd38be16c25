"""Memory held by decoded drawing values.

A dense drawing holds tens of thousands of elements, so what one decoded
element keeps alive is pinned here. A slotted segment and its two slotted
points take 152 bytes on CPython 3.10 to 3.13, and the style is shared; a
per-instance ``__dict__`` or a style per segment each push past the bound.
"""

from __future__ import annotations

import random
import tracemalloc

from modraft import LineType, element_from_json

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
