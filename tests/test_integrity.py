"""Digests, HMAC signatures, and the verification verdict matrix."""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modraft import (Drawing, KernelError, ModuleType, Rect, compute_digest,
                     integrity, move_module, save_drawing, sign_drawing,
                     signature_mac, validate_signer_fields, verify_signatures)
from modraft.integrity import verify_signature_module

from propgen import PROP_MAKERS, random_props

EXTENT = Rect.from_bounds(0, 0, 400, 300)

SIGNER = dict(person="Иванов И.И.", position="инженер",
              date="2024-05-01", time="14:05")


def _drawing() -> Drawing:
    d = Drawing.new(EXTENT)
    d.add_module(ModuleType.VALVE, {"origin": (100, 100)})
    d.add_module(ModuleType.INSTRUMENT, {"origin": (200, 100),
                                         "function_code": "PI"})
    return d


# --- HMAC-SHA-256 primitive against published test vectors (RFC 4231) --------

RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]


def test_hmac_sha256_test_vectors():
    """The MAC builds on the stdlib primitive; pin it to the published vectors."""
    for key, msg, expected in RFC4231:
        assert hmac.new(key, msg, hashlib.sha256).hexdigest() == expected


def test_signature_mac_layout():
    digest = hashlib.sha256(b"content").hexdigest()
    got = signature_mac(digest, "p", "q", "2024-01-02", "03:04", "pw")
    message = b"\x1f".join([bytes.fromhex(digest), b"p", b"q",
                            b"2024-01-02", b"03:04"])
    assert got == hmac.new(b"pw", message, hashlib.sha256).hexdigest()
    # every field is bound: changing any one changes the MAC
    assert got != signature_mac(digest, "P", "q", "2024-01-02", "03:04", "pw")
    assert got != signature_mac(digest, "p", "Q", "2024-01-02", "03:04", "pw")
    assert got != signature_mac(digest, "p", "q", "2024-01-03", "03:04", "pw")
    assert got != signature_mac(digest, "p", "q", "2024-01-02", "03:05", "pw")
    assert got != signature_mac(digest, "p", "q", "2024-01-02", "03:04", "pW")


# --- digest behaviour ---------------------------------------------------------

def test_digest_is_stable_and_content_sensitive():
    d = _drawing()
    before = compute_digest(d)
    assert before == compute_digest(d)
    d.set_module_properties(1, {"origin": (101, 100)})
    assert compute_digest(d) != before


def test_signing_does_not_change_the_digest():
    d = _drawing()
    before = compute_digest(d)
    sign_drawing(d, password="pw", **SIGNER)
    assert compute_digest(d) == before


# --- verdict matrix -----------------------------------------------------------

def test_fresh_signature_verifies():
    d = _drawing()
    m = sign_drawing(d, password="pw", **SIGNER)
    assert m.props["password"] == ""  # never stored
    (status,) = verify_signatures(d, "pw")
    assert (status.integrity, status.authenticity) == ("valid", "valid")
    assert status.ok
    assert status.person == SIGNER["person"]


def test_verify_without_password_leaves_authenticity_unchecked():
    d = _drawing()
    sign_drawing(d, password="pw", **SIGNER)
    (status,) = verify_signatures(d)
    assert (status.integrity, status.authenticity) == ("valid", "unchecked")
    assert status.ok


def test_wrong_password_breaks_authenticity_only():
    d = _drawing()
    sign_drawing(d, password="pw", **SIGNER)
    (status,) = verify_signatures(d, "wrong")
    assert (status.integrity, status.authenticity) == ("valid", "broken")
    assert not status.ok


def test_content_change_breaks_integrity_not_authenticity():
    d = _drawing()
    sign_drawing(d, password="pw", **SIGNER)
    d.set_module_properties(1, {"origin": (150, 100)})
    (status,) = verify_signatures(d, "pw")
    # the MAC matches the digest the signer saw, so the signature is genuine;
    # the content simply no longer matches that digest
    assert (status.integrity, status.authenticity) == ("broken", "valid")
    assert not status.ok


def test_module_addition_and_removal_break_integrity():
    d = _drawing()
    sign_drawing(d, password="pw", **SIGNER)
    added = d.add_module(ModuleType.VALVE, {"origin": (50, 50)})
    assert verify_signatures(d)[0].integrity == "broken"
    d.remove_module(added.id)
    assert verify_signatures(d)[0].integrity == "valid"
    d.remove_module(2)
    assert verify_signatures(d)[0].integrity == "broken"


def test_second_signature_keeps_first_valid():
    d = _drawing()
    sign_drawing(d, password="pw1", **SIGNER)
    sign_drawing(d, person="Петров П.П.", position="ГИП",
                 date="2024-05-02", time="09:00", password="pw2")
    first, second = verify_signatures(d)
    assert first.integrity == "valid"
    assert second.integrity == "valid"
    # each signature answers to its own password
    first, second = verify_signatures(d, "pw1")
    assert (first.authenticity, second.authenticity) == ("valid", "broken")
    first, second = verify_signatures(d, "pw2")
    assert (first.authenticity, second.authenticity) == ("broken", "valid")


def test_password_map_checks_each_signer():
    d = _drawing()
    sign_drawing(d, password="pw1", **SIGNER)
    sign_drawing(d, person="Петров П.П.", position="ГИП",
                 date="2024-05-02", time="09:00", password="pw2")
    first, second = verify_signatures(
        d, {SIGNER["person"]: "pw1", "Петров П.П.": "pw2"})
    assert (first.authenticity, second.authenticity) == ("valid", "valid")
    # absent from the map -> unchecked; wrong entry -> broken
    first, second = verify_signatures(d, {"Петров П.П.": "oops"})
    assert (first.authenticity, second.authenticity) == ("unchecked", "broken")


def test_stamp_anchors_inside_extent():
    d = Drawing.new(Rect.from_bounds(-200, -100, 400, 300))
    m = sign_drawing(d, password="pw", **SIGNER)
    assert (m.props["origin"].x, m.props["origin"].y) == (-195.0, -95.0)
    assert m.geometry[0].anchor == m.props["origin"]
    explicit = sign_drawing(Drawing.new(EXTENT), password="pw",
                            origin=(7.0, 8.0), **SIGNER)
    assert (explicit.props["origin"].x, explicit.props["origin"].y) == (7.0, 8.0)


def test_tampered_stored_digest_detected():
    d = _drawing()
    m = sign_drawing(d, password="pw", **SIGNER)
    fake = dict(m.props)
    fake["digest"] = "0" * 64
    from modraft import create_module
    d.replace_module(create_module(ModuleType.SIGNATURE, fake, module_id=m.id))
    (status,) = verify_signatures(d, "pw")
    assert status.integrity == "broken"
    assert status.authenticity == "broken"


def test_signer_field_validation():
    ok = dict(person="p", position="q", date="2024-01-01", time="12:00",
              password="pw")
    validate_signer_fields(**ok)
    for bad in [dict(ok, person="  "), dict(ok, position=""),
                dict(ok, password=""), dict(ok, date="01-01-2024"),
                dict(ok, date="2024-1-1"), dict(ok, time="9:00"),
                dict(ok, time="09:00:00")]:
        with pytest.raises(ValueError):
            validate_signer_fields(**bad)


@pytest.mark.parametrize("field, value, message", [
    ("date", "2024-01-01\n", "date must be YYYY-MM-DD"),
    ("date", "\uff12\uff10\uff12\uff14-\uff10\uff11-\uff10\uff11",
     "date must be YYYY-MM-DD"),
    ("date", "2024-01-\u0660\u0661", "date must be YYYY-MM-DD"),
    ("time", "12:00\n", "time must be HH:MM"),
    ("time", "1\uff10:00\n", "time must be HH:MM"),
    ("time", "\u0661\u0662:00", "time must be HH:MM"),
], ids=["date-newline", "date-fullwidth", "date-arabic-indic", "time-newline",
        "time-fullwidth-newline", "time-arabic-indic"])
def test_signer_date_and_time_are_ascii_digits_and_nothing_after(field, value,
                                                                  message):
    fields = dict(person="p", position="q", date="2024-01-01", time="12:00",
                  password="pw")
    with pytest.raises(ValueError, match=rf"^{message}$"):
        validate_signer_fields(**{**fields, field: value})
    d = _drawing()
    before = save_drawing(d)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        sign_drawing(d, **{**fields, field: value})
    assert save_drawing(d) == before


def test_sign_rejects_bad_fields_without_touching_drawing():
    d = _drawing()
    with pytest.raises(ValueError):
        sign_drawing(d, person="", position="q", date="2024-01-01",
                     time="12:00", password="pw")
    assert len(d.modules()) == 2
    assert d.next_id == 3


# --- a lone surrogate in a signer field or password has no UTF-8 bytes ----------

_LONE = "^text holds the lone surrogate '\\\\udcff', which UTF-8 cannot encode$"


@pytest.mark.parametrize("field", ["person", "position", "password"])
def test_signing_with_a_lone_surrogate_is_a_kernel_error(field):
    d = _drawing()
    before = save_drawing(d)
    fields = {**SIGNER, "password": "pw", field: "\udcff"}
    with pytest.raises(KernelError, match=_LONE) as info:
        sign_drawing(d, **fields)
    assert not isinstance(info.value, UnicodeError)
    assert save_drawing(d) == before and d.next_id == 3


@pytest.mark.parametrize("by_person", [False, True], ids=["one", "per-person"])
@pytest.mark.parametrize("field", ["person", "position", "date", "time", "password"])
def test_verifying_with_a_lone_surrogate_is_a_kernel_error(field, by_person):
    d = _drawing()
    m = sign_drawing(d, **SIGNER, password="pw")
    if field != "password":
        d.set_module_properties(m.id, {field: "\udcff"})  # held in memory only
    password = "\udcff" if field == "password" else "pw"
    person = d.module(m.id).props["person"]
    passwords = {person: password} if by_person else password
    with pytest.raises(KernelError, match=_LONE) as info:
        verify_signatures(d, passwords)
    assert not isinstance(info.value, UnicodeError)
    with pytest.raises(KernelError, match=_LONE):
        verify_signature_module(d, d.module(m.id), password)
    assert verify_signatures(d)[0].authenticity == "unchecked"


# --- a signer field or password that is not text is refused by name ----------

_NOT_TEXT = pytest.mark.parametrize("value, kind", [
    (None, "NoneType"), (5, "int"), (b"pw", "bytes")], ids=["None", "int", "bytes"])


@_NOT_TEXT
@pytest.mark.parametrize("field", ["person", "position", "date", "time", "password"])
def test_signing_with_a_field_that_is_not_text_names_it(field, value, kind):
    d = _drawing()
    before = save_drawing(d)
    fields = {**SIGNER, "password": "pw", field: value}
    message = rf"^{field}: expected text, got {kind}$"
    with pytest.raises(ValueError, match=message):
        validate_signer_fields(**fields)
    with pytest.raises(ValueError, match=message):
        signature_mac("00" * 32, **fields)
    with pytest.raises(ValueError, match=message):
        sign_drawing(d, **fields)
    assert save_drawing(d) == before and d.next_id == 3


# A password of None is no password: verify leaves authenticity unchecked.
@pytest.mark.parametrize("value, kind", [(5, "int"), (b"pw", "bytes")],
                         ids=["int", "bytes"])
@pytest.mark.parametrize("by_person", [False, True], ids=["one", "per-person"])
def test_verifying_with_a_password_that_is_not_text_names_it(value, kind, by_person):
    d = _drawing()
    sign_drawing(d, **SIGNER, password="pw")
    passwords = {SIGNER["person"]: value} if by_person else value
    with pytest.raises(ValueError, match=rf"^password: expected text, got {kind}$"):
        verify_signatures(d, passwords)


# --- a stored digest that is not hex text reads broken ------------------------

@pytest.mark.parametrize("stored", ["zz", "abc", "0" * 63 + "g", "é1"],
                         ids=["zz", "odd-length", "last-digit", "non-ascii"])
def test_a_stored_digest_that_is_not_hex_reads_broken(stored):
    d = _drawing()
    first = sign_drawing(d, **SIGNER, password="pw")
    sign_drawing(d, **{**SIGNER, "person": "Петров"}, password="pw")
    d.set_module_properties(first.id, {"digest": stored})
    verdicts = [(s.integrity, s.authenticity) for s in verify_signatures(d, "pw")]
    assert verdicts == [("broken", "broken"), ("valid", "valid")]
    assert verify_signatures(d)[0].authenticity == "unchecked"
    with pytest.raises(ValueError, match=r"^password: expected text, got int$"):
        verify_signatures(d, 5)


@pytest.mark.parametrize("digest", ["zz", "abc", None, 5, b"00"],
                         ids=["zz", "odd-length", "None", "int", "bytes"])
def test_signature_mac_refuses_a_digest_that_is_not_hex_text(digest):
    with pytest.raises(ValueError) as info:
        signature_mac(digest, **SIGNER, password="pw")
    assert type(info.value) is ValueError
    assert str(info.value) == "digest: expected hex text"


# --- one digest per verify ----------------------------------------------------

_CONTENT_TYPES = [t for t in PROP_MAKERS if t is not ModuleType.SIGNATURE]


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_sequential_signatures_stay_valid(seed, n_signers):
    """A new signature never invalidates an earlier one, verify_signatures
    agrees with per-module checks, and any content edit breaks them all."""
    rng = random.Random(seed)
    d = Drawing.new(Rect.from_bounds(-500, -500, 1500, 1500))
    for _ in range(rng.randrange(1, 6)):
        mtype = rng.choice(_CONTENT_TYPES)
        d.add_module(mtype, random_props(rng, mtype))
    passwords = {f"signer {k}": f"pw {k}" for k in range(n_signers)}
    for k, (person, password) in enumerate(passwords.items()):
        sign_drawing(d, person, "инженер", "2024-05-01", "14:05", password)
        verdicts = [(s.integrity, s.authenticity)
                    for s in verify_signatures(d, passwords)]
        assert verdicts == [("valid", "valid")] * (k + 1)

    signatures = [m for m in d.modules() if m.type is ModuleType.SIGNATURE]
    for given_passwords, password_for in [
            ("pw 0", lambda m: "pw 0"),
            (passwords, lambda m: passwords.get(m.props["person"])),
            (None, lambda m: None)]:
        assert verify_signatures(d, given_passwords) == [
            verify_signature_module(d, m, password_for(m)) for m in signatures]

    before = verify_signatures(d, passwords)
    target = rng.choice([m for m in d.modules()
                         if m.type is not ModuleType.SIGNATURE])
    d.replace_module(move_module(target, 0.001, 0.0))
    after = verify_signatures(d, passwords)
    assert [s.integrity for s in after] == ["broken"] * n_signers
    assert [s.authenticity for s in after] == [s.authenticity for s in before]


def test_verify_computes_the_digest_once(monkeypatch):
    calls = []
    real = integrity.compute_digest

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(integrity, "compute_digest", counting)
    d = _drawing()
    assert verify_signatures(d, "pw") == []
    assert calls == []
    for k in range(3):
        sign_drawing(d, f"signer {k}", "инженер", "2024-05-01", "14:05", "pw")
    calls.clear()
    statuses = verify_signatures(d, "pw")
    assert [s.ok for s in statuses] == [True] * 3
    assert len(calls) == 1
