"""Canonical JSON encoding.

One serialisation rule for everything that is hashed, signed or compared
byte-for-byte: keys sorted lexicographically, no insignificant whitespace,
UTF-8, reals as Python's shortest round-tripping decimal, NaN/Inf rejected.
"""

from __future__ import annotations

import json


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False, allow_nan=False)


def canonical_dumps(obj: object) -> str:
    """Serialise ``obj`` to the canonical JSON text form."""
    return _ENCODER.encode(obj)


def canonical_encode(obj: object) -> bytes:
    """Canonical JSON as UTF-8 bytes."""
    return canonical_dumps(obj).encode("utf-8")
