"""Host-speed scaling of measured times.

The shared 2-core machine this benchmark was tuned on drifts in speed by
20 % and more within seconds. CPU time drifts with wall
time, so the drift is the host's speed, not scheduling. Identical
verifies of a 144-module sheet took from 138 to 209 ms in one process,
and the medians of separate 20-second runs ranged from 119 to 159 ms.

The harness therefore times a fixed slice of pure-Python work, unrelated
to modraft, between consecutive operations, and scales each operation's
wall time by ``REFERENCE_MS`` over the mean of the ten slices nearest to
it, five before and five after. A slowdown of the host stretches both by
the same factor and cancels; a slowdown of modraft stretches only the
operation and shows. Ten slices smooth out the slices' own jitter; using
only the two neighbours left nearly twice the run-to-run spread in the
90th percentile. The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import json
import math
import time

# About the slice's time on the tuning machine, so that scaled times read
# close to wall times there.
REFERENCE_MS = 5.0


class _Vec:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _slice(n: int = 600) -> int:
    """Small objects, dicts, sorted JSON and float maths: the kernel's mix."""
    acc = 0
    kept = []
    for k in range(n):
        v = _Vec(k * 0.5, -k)
        doc = {"x": v.x, "y": v.y, "s": str(k)}
        acc += len(json.dumps(doc, sort_keys=True)) + int(math.hypot(v.x, v.y))
        kept.append(v)
    return acc


def reference_ms() -> float:
    """Wall time of one reference slice, in milliseconds."""
    t0 = time.perf_counter()
    _slice()
    return (time.perf_counter() - t0) * 1000.0


WINDOW = 5  # slices on each side of an operation


def scaled_series(walls_s: list[float], slices_ms: list[float]) -> list[float]:
    """Each of ``walls_s`` at the reference speed. ``slices_ms[i]`` is the
    slice timed just before operation ``i``; one more follows the last."""
    if len(slices_ms) != len(walls_s) + 1:
        raise ValueError("need one slice before each operation and one after")
    out = []
    for i, wall in enumerate(walls_s):
        near = slices_ms[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(wall * REFERENCE_MS * len(near) / sum(near))
    return out
