"""Canonical JSON encoding.

One serialisation rule for everything that is hashed, signed or compared
byte-for-byte: keys sorted lexicographically, no insignificant whitespace,
UTF-8, reals as Python's shortest round-tripping decimal, NaN/Inf rejected.
"""

from __future__ import annotations

import json

from .errors import KernelError


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False, allow_nan=False)


def canonical_dumps(obj: object) -> str:
    """Serialise ``obj`` to the canonical JSON text form."""
    return _ENCODER.encode(obj)


def canonical_encode(obj: object) -> bytes:
    """Canonical JSON as UTF-8 bytes."""
    return _utf8(canonical_dumps(obj))


def _lone_surrogate(char: str) -> str:
    """Why text holding ``char``, a lone UTF-16 surrogate, has no bytes."""
    return f"text holds the lone surrogate {char!r}, which UTF-8 cannot encode"


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate, which a Python string can hold
    but UTF-8 cannot, is a :class:`KernelError`."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise KernelError(_lone_surrogate(exc.object[exc.start])) from None
