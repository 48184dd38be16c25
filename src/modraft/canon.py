"""Canonical JSON encoding.

One serialisation rule for everything that is hashed, signed or compared
byte-for-byte: keys sorted lexicographically, no insignificant whitespace,
UTF-8, reals as Python's shortest round-tripping decimal, NaN/Inf rejected.
:func:`_utf8` is the one place text becomes UTF-8, in files, MACs and SVG.
"""

import json

from .errors import KernelError

__all__ = ["canonical_dumps", "canonical_encode"]

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False, allow_nan=False)


# Serialise an object to the canonical JSON text form.
canonical_dumps = _ENCODER.encode


def canonical_encode(obj: object) -> bytes:
    """Canonical JSON as UTF-8 bytes."""
    return _utf8(canonical_dumps(obj))


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8, and the one test for a lone surrogate: a Python
    string can hold one but UTF-8 cannot, so it is a :class:`KernelError`."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise KernelError(f"text holds the lone surrogate {exc.object[exc.start]!r}, "
                          "which UTF-8 cannot encode") from None
