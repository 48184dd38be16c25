"""Content digests and password-based signatures for drawings.

The digest covers the canonical bytes of the drawing with every signature
module excluded, so signing (which adds a signature module) never
invalidates an existing signature. It hashes those bytes fragment by
fragment, as saving writes them, without building the whole document. The
authentication code is an HMAC-SHA-256 over the digest and the signer
fields, keyed by the signer's password; the password itself is never
stored. Signer fields and passwords become UTF-8 through ``canon._utf8``.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from dataclasses import dataclass
from typing import Mapping

from .canon import _utf8
from .geometry import _as_text, _named
from .persistence import Drawing, _fragments
from .properties import ModuleType

__all__ = ["SignatureStatus", "compute_digest", "signature_mac",
           "validate_signer_fields", "sign_drawing", "verify_signatures"]

DATE_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
TIME_RE = re.compile(r"^[0-9]{2}:[0-9]{2}\Z")

_SEP = "\x1f"
_SIGNER_FIELDS = ("person", "position", "date", "time", "password")


def compute_digest(d: Drawing) -> str:
    """Hex SHA-256 of the drawing's canonical bytes, signatures excluded."""
    digest = hashlib.sha256()
    for fragment in _fragments(d, exclude_signatures=True):
        digest.update(fragment)
    return digest.hexdigest()


def signature_mac(digest_hex: str, person: str, position: str,
                  date: str, time: str, password: str) -> str:
    """Hex HMAC-SHA-256 binding signer identity to a drawing digest.

    Message layout: raw digest bytes then person, position, date and time
    as UTF-8, all five parts joined by a 0x1F unit separator. A lone
    surrogate in a field or the password is ``_utf8``'s :class:`KernelError`,
    and one that is not text, or a digest that is not hex text, a
    ``ValueError`` naming it.
    """
    for name, value in zip(_SIGNER_FIELDS, (person, position, date, time, password)):
        _named(name, value, _as_text)
    try:
        digest = bytes.fromhex(_as_text(digest_hex))
    except ValueError:
        raise ValueError("digest: expected hex text") from None
    message = digest + _utf8(_SEP + _SEP.join([person, position, date, time]))
    return hmac.new(_utf8(password), message, hashlib.sha256).hexdigest()


def validate_signer_fields(person: str, position: str, date: str, time: str,
                           password: str) -> None:
    for name, value in zip(_SIGNER_FIELDS, (person, position, date, time, password)):
        _named(name, value, _as_text)
    if not person.strip():
        raise ValueError("signer person must not be blank")
    if not position.strip():
        raise ValueError("signer position must not be blank")
    if not password:
        raise ValueError("signing password must not be empty")
    if not DATE_RE.match(date):
        raise ValueError("date must be YYYY-MM-DD")
    if not TIME_RE.match(time):
        raise ValueError("time must be HH:MM")


@dataclass(frozen=True)
class SignatureStatus:
    """Verification verdicts for one signature module.

    integrity says whether the drawing content still matches the digest the
    signer saw ("valid" | "broken"); authenticity says whether the stored
    MAC matches the signer's password ("valid" | "broken", or "unchecked"
    when no password was supplied).
    """

    module_id: int
    person: str
    position: str
    date: str
    time: str
    integrity: str
    authenticity: str

    @property
    def ok(self) -> bool:
        return self.integrity == "valid" and self.authenticity != "broken"


def _is_hex(text: str) -> bool:
    try:
        bytes.fromhex(text)
    except ValueError:
        return False
    return True


def _status(module, digest: str, password: "str | None") -> SignatureStatus:
    """Verdicts for one signature module against an already computed digest."""
    props = module.props
    person, position = props["person"], props["position"]
    date, time = props["date"], props["time"]
    integrity = "valid" if props["digest"] == digest else "broken"
    if password is None:
        authenticity = "unchecked"
    elif _is_hex(props["digest"]) and props["mac"] == signature_mac(
            props["digest"], person, position, date, time, password):
        authenticity = "valid"
    else:
        authenticity = "broken"
    return SignatureStatus(module.id, person, position, date, time,
                           integrity, authenticity)


def verify_signature_module(d: Drawing, module, password: "str | None") -> SignatureStatus:
    """Check one signature module against the drawing's current content.

    The stored digest is compared with the recomputed one (integrity); with
    a password the MAC is recomputed over the STORED digest and compared
    too (authenticity), so a wrong password is detected even on intact
    content, and tampered content with a genuine signature still reports
    authenticity valid alongside broken integrity.
    """
    return _status(module, compute_digest(d), password)


def verify_signatures(
    d: Drawing,
    passwords: "str | Mapping[str, str] | None" = None,
) -> list[SignatureStatus]:
    """Verify every signature module in the drawing, in drawing order.

    ``passwords`` may be one password applied to every signature, or a
    mapping from signer person to that signer's password (signers absent
    from the mapping stay unchecked), or None for integrity-only checks.

    The content digest is computed once per call, and only when the drawing
    holds a signature; every signature is checked against that one digest,
    so the cost of a verify does not grow with the number of signatures.
    """
    signatures = [m for m in d.modules() if m.type is ModuleType.SIGNATURE]
    if not signatures:
        return []
    digest = compute_digest(d)
    statuses = []
    for m in signatures:
        if isinstance(passwords, Mapping):
            password = passwords.get(m.props["person"])
        else:
            password = passwords
        statuses.append(_status(m, digest, password))
    return statuses


def sign_drawing(d: Drawing, person: str, position: str, date: str, time: str,
                 password: str, origin=None):
    """Add a signature module binding the signer to the drawing's content.

    Returns the new module. The password is used to compute the MAC and
    immediately discarded; the stored properties keep it blank. The stamp
    anchors 5 mm in from the drawing extent's bottom-left corner unless an
    explicit origin is given.
    """
    validate_signer_fields(person, position, date, time, password)
    if origin is None:
        origin = (d.extent.min.x + 5.0, d.extent.min.y + 5.0)
    digest = compute_digest(d)
    mac = signature_mac(digest, person, position, date, time, password)
    return d.add_module(ModuleType.SIGNATURE, {
        "person": person, "position": position, "date": date, "time": time,
        "digest": digest, "mac": mac, "origin": origin,
    })
