from __future__ import annotations

import hashlib
import hmac
import random
from unittest import mock

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings
from hypothesis import strategies as st

from tapsim import crypto
from tapsim.crypto import (
    AC_COVERAGE_KERNEL2,
    BadSignature,
    CAStore,
    Certificate,
    CryptoError,
    LookupFailure,
    METHOD_HEADERS,
    SDAD_COVERAGE,
    STATIC_SIGNED_TAGS,
    ac_coverage_kernel3,
    compute_ac,
    compute_cvc3,
    decrypt_pin,
    encrypt_pin,
    generate_signing_key,
    issue_certificate,
    kdf,
    public_bytes,
    sign_sdad,
    sign_static_records,
    verify_ac,
    verify_sdad,
    verify_static_records,
)
from tapsim.elements import (
    AIP,
    CTQ,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    CVMResult,
    CVMResults,
    ActionCodes,
    Amount,
    DataElementMap,
    IAD,
    TTQ,
    Tag,
)
from tapsim.runner import AMOUNT_HIGH, build_env, run_genuine

RNG = random.Random(7)


def k2_elements() -> DataElementMap:
    return DataElementMap({
        Tag.AMOUNT: Amount(12000, "EUR"),
        Tag.UN: 0x01020304,
        Tag.CVM_RESULTS: CVMResults(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit, CVMResult.Performed),
        Tag.AIP: AIP(cda_supported=True),
        Tag.ATC: 9,
        Tag.IAD: IAD(False, "plastic"),
    })


def k3_elements() -> DataElementMap:
    return DataElementMap({
        Tag.AMOUNT: Amount(12000, "EUR"),
        Tag.UN: 0x0A0B0C0D,
        Tag.AIP: AIP(dda_supported=True),
        Tag.ATC: 3,
        Tag.IAD: IAD(True, "phone"),
        Tag.TTQ: TTQ(online_pin_supported=True, cvm_required=True),
    })


# --- kdf / AC -----------------------------------------------------------------

def test_kdf_varies_with_atc_and_key():
    mk = b"m" * 32
    assert kdf(mk, 1) != kdf(mk, 2)
    assert kdf(mk, 1) != kdf(b"n" * 32, 1)
    assert len(kdf(mk, 1)) == 32


def _reference_mac(key: bytes, msg: bytes) -> bytes:
    """The HMAC-object construction the one-shot calls must match."""
    return hmac.new(key, msg, hashlib.sha256).digest()


# sampled keys, with the ATC and UN range ends
_MAC_KEYS = [bytes(32), b"\xff" * 32, RNG.randbytes(32), RNG.randbytes(32)]
_ATCS = [0, 1, 0x1234, 0xFFFF]
_UNS = [0, 1, 0x89ABCDEF, 2**32 - 1]


def test_mac_functions_match_the_hmac_object_reference():
    for key in _MAC_KEYS:
        for atc in _ATCS:
            assert kdf(key, atc) == _reference_mac(key, b"sess" + atc.to_bytes(2, "big"))
            for un in _UNS:
                msg = b"cvc3" + atc.to_bytes(2, "big") + un.to_bytes(4, "big")
                assert compute_cvc3(key, atc, un) == _reference_mac(key, msg)[:3]
        for elements, coverage in ((k2_elements(), AC_COVERAGE_KERNEL2),
                                   (k3_elements(), ac_coverage_kernel3(True))):
            covered = DataElementMap({tag: elements[tag] for tag in coverage})
            assert compute_ac(key, elements, coverage) == \
                _reference_mac(key, b"ac" + covered.encode())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=200).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       st.binary(max_size=300))
def test_precomputed_state_mac_equals_hmac_digest(key, msg):
    # keys on both sides of the 64-byte block, where a long key is hashed first
    assert crypto._hmac_sha256(key, msg) == hmac.digest(key, msg, "sha256")
    assert crypto._hmac_sha256(key, msg) == hmac.digest(key, msg, "sha256")  # from the memo


def test_ac_roundtrip_and_tamper():
    key = kdf(b"m" * 32, 9)
    el = k2_elements()
    ac = compute_ac(key, el, AC_COVERAGE_KERNEL2)
    assert verify_ac(key, el, AC_COVERAGE_KERNEL2, ac)
    el2 = el.copy()
    el2.put(Tag.AMOUNT, Amount(12001, "EUR"))
    assert not verify_ac(key, el2, AC_COVERAGE_KERNEL2, ac)
    assert not verify_ac(kdf(b"m" * 32, 10), el, AC_COVERAGE_KERNEL2, ac)


def test_ac_mutation_of_every_covered_field_detected():
    key = kdf(b"k" * 32, 9)
    el = k2_elements()
    ac = compute_ac(key, el, AC_COVERAGE_KERNEL2)
    mutations = {
        Tag.AMOUNT: Amount(999, "USD"),
        Tag.UN: 0,
        Tag.CVM_RESULTS: CVMResults(),
        Tag.AIP: AIP(),
        Tag.ATC: 10,
        Tag.IAD: IAD(True, "phone"),
    }
    for tag, bad in mutations.items():
        tampered = el.copy()
        tampered.put(tag, bad)
        assert not verify_ac(key, tampered, AC_COVERAGE_KERNEL2, ac), tag.name


def test_ac_ignores_uncovered_elements():
    key = kdf(b"k" * 32, 9)
    el = k2_elements()
    ac = compute_ac(key, el, AC_COVERAGE_KERNEL2)
    widened = el.copy()
    widened.put(Tag.MERCHANT_ID, "M-1")
    assert compute_ac(key, widened, AC_COVERAGE_KERNEL2) == ac


def test_kernel3_coverage_toggle():
    assert Tag.TTQ not in ac_coverage_kernel3(False)
    assert Tag.TTQ in ac_coverage_kernel3(True)
    key = kdf(b"k" * 32, 3)
    el = k3_elements()
    ac_no = compute_ac(key, el, ac_coverage_kernel3(False))
    ac_yes = compute_ac(key, el, ac_coverage_kernel3(True))
    assert ac_no != ac_yes
    # TTQ tamper detected only when covered
    tampered = el.copy()
    tampered.put(Tag.TTQ, TTQ())
    assert verify_ac(key, tampered, ac_coverage_kernel3(False), ac_no)
    assert not verify_ac(key, tampered, ac_coverage_kernel3(True), ac_yes)


def test_projection_equals_a_put_built_map():
    checked = 0
    for elements in (k2_elements(), k3_elements(), sdad_elements("cda"), sdad_elements("fdda")):
        for coverage in (AC_COVERAGE_KERNEL2, ac_coverage_kernel3(True), *SDAD_COVERAGE.values()):
            if not coverage <= elements.tags():
                continue
            built = DataElementMap()
            for tag in coverage:
                built.put(tag, elements[tag])
            projected = crypto._project(elements, coverage)
            assert type(projected) is DataElementMap and projected == built
            assert projected.encode() == built.encode()
            checked += 1
    assert checked >= 4


def test_ac_missing_coverage_element():
    key = kdf(b"k" * 32, 3)
    el = k2_elements()
    partial = DataElementMap({Tag.AMOUNT: el[Tag.AMOUNT]})
    with pytest.raises(CryptoError):
        compute_ac(key, partial, AC_COVERAGE_KERNEL2)
    ac = compute_ac(key, el, AC_COVERAGE_KERNEL2)
    assert not verify_ac(key, partial, AC_COVERAGE_KERNEL2, ac)


# --- SDAD -----------------------------------------------------------------------

def sdad_elements(method: str) -> DataElementMap:
    el = DataElementMap({
        Tag.UN_CARD: 111,
        Tag.UN: 222,
        Tag.AC: b"\xaa" * 32,
        Tag.ATC: 5,
        Tag.IAD: IAD(False, "plastic"),
        Tag.CTQ: CTQ(online_pin_required=True),
        Tag.AIP: AIP(dda_supported=True),
    })
    return el


@pytest.mark.parametrize("method", ["cda", "fdda"])
def test_sdad_roundtrip(method):
    priv = generate_signing_key(RNG.randbytes(32))
    el = sdad_elements(method)
    sdad = sign_sdad(priv, method, el)
    assert sdad[0] == METHOD_HEADERS[method]
    assert verify_sdad(public_bytes(priv), method, el, sdad)


@pytest.mark.parametrize("method", ["cda", "fdda"])
def test_sdad_mutation_of_every_covered_field_detected(method):
    priv = generate_signing_key(b"s" * 32)
    el = sdad_elements(method)
    sdad = sign_sdad(priv, method, el)
    substitutes = {
        Tag.UN_CARD: 112,
        Tag.UN: 223,
        Tag.AC: b"\xbb" * 32,
        Tag.ATC: 6,
        Tag.IAD: IAD(True, "phone"),
        Tag.CTQ: CTQ(),
        Tag.AIP: AIP(),
    }
    for tag in SDAD_COVERAGE[method]:
        tampered = el.copy()
        tampered.put(tag, substitutes[tag])
        assert not verify_sdad(public_bytes(priv), method, tampered, sdad), tag.name


def test_sdad_method_header_mismatch():
    # a CDA-headered SDAD must not pass where fDDA is demanded, even with
    # a signature that would otherwise verify
    priv = generate_signing_key(b"h" * 32)
    el = sdad_elements("cda")
    sdad_cda = sign_sdad(priv, "cda", el)
    assert not verify_sdad(public_bytes(priv), "fdda", el, sdad_cda)


def test_sdad_wrong_key_and_truncation():
    priv = generate_signing_key(b"a" * 32)
    other = generate_signing_key(b"b" * 32)
    el = sdad_elements("cda")
    sdad = sign_sdad(priv, "cda", el)
    assert not verify_sdad(public_bytes(other), "cda", el, sdad)
    assert not verify_sdad(public_bytes(priv), "cda", el, sdad[:-1])
    assert not verify_sdad(public_bytes(priv), "cda", el, b"")


# --- static records / chain --------------------------------------------------------

def static_records() -> DataElementMap:
    return DataElementMap({
        Tag.PAN: "4111111111111111",
        Tag.EXPIRY: "2812",
        Tag.AIP: AIP(dda_supported=True),
        Tag.CVM_LIST: CVMList((CVMEntry(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit),)),
        Tag.IAC: ActionCodes(),
        Tag.CA_PK_INDEX: 1,
    })


def test_static_signature_roundtrip_and_tamper():
    issuer = generate_signing_key(b"i" * 32)
    rec = static_records()
    sig = sign_static_records(issuer, rec)
    assert verify_static_records(public_bytes(issuer), rec, sig)
    for tag in STATIC_SIGNED_TAGS:
        tampered = rec.copy()
        if tag is Tag.PAN:
            tampered.put(tag, "5555555555554444")
        elif tag is Tag.EXPIRY:
            tampered.put(tag, "3001")
        elif tag is Tag.AIP:
            tampered.put(tag, AIP(cda_supported=True))
        elif tag is Tag.CVM_LIST:
            tampered.put(tag, CVMList(()))
        elif tag is Tag.IAC:
            tampered.put(tag, ActionCodes(denial=type(rec[Tag.IAC].denial)(cda_failed=True)))
        else:
            tampered.put(tag, 2)
        assert not verify_static_records(public_bytes(issuer), tampered, sig), tag.name


def test_certificate_roundtrip_bytes():
    ca = generate_signing_key(b"c" * 32)
    issuer = generate_signing_key(b"i" * 32)
    cert = issue_certificate(ca, "bank-a", public_bytes(issuer))
    back = Certificate.from_bytes(cert.to_bytes())
    assert back == cert


@pytest.mark.parametrize("raw", [
    b"", b"junk", b"cert", b"cert\x00\x05ab",                  # short, foreign, truncated
    b"cert\x00\x02\xff\xfe\x00\x00",                         # subject is not UTF-8
    b"cert\x00\x01a\x00\x20" + bytes(31),                    # public key cut short
])
def test_malformed_certificate_does_not_verify(raw):
    with pytest.raises(BadSignature):
        Certificate.from_bytes(raw)


def test_a_malformed_public_key_fails_closed():
    ca, card = generate_signing_key(b"c" * 32), generate_signing_key(b"d" * 32)
    el, rec = sdad_elements("cda"), static_records()
    short = public_bytes(card)[:31]
    assert not verify_sdad(short, "cda", el, sign_sdad(card, "cda", el))
    assert not verify_static_records(short, rec, sign_static_records(card, rec))
    issuer_cert = issue_certificate(ca, "bank-a", short)  # a signed link to a 31-byte key
    card_cert = issue_certificate(card, "4111111111111111", public_bytes(card))
    for store in (CAStore({1: short}), CAStore({1: public_bytes(ca)})):
        with pytest.raises(BadSignature):
            store.verify_chain(1, issuer_cert, card_cert, "4111111111111111")


def test_chain_verifies_and_rejects():
    ca = generate_signing_key(b"c" * 32)
    issuer = generate_signing_key(b"i" * 32)
    card = generate_signing_key(b"d" * 32)
    store = CAStore({1: public_bytes(ca)})
    issuer_cert = issue_certificate(ca, "bank-a", public_bytes(issuer))
    card_cert = issue_certificate(issuer, "4111111111111111", public_bytes(card))

    got = store.verify_chain(1, issuer_cert, card_cert, "4111111111111111")
    assert got == public_bytes(card)

    with pytest.raises(LookupFailure):
        store.verify_chain(2, issuer_cert, card_cert, "4111111111111111")
    with pytest.raises(BadSignature):
        store.verify_chain(1, issuer_cert, card_cert, "5555555555554444")

    rogue = generate_signing_key(b"r" * 32)
    forged = issue_certificate(rogue, "4111111111111111", public_bytes(card))
    with pytest.raises(BadSignature):
        store.verify_chain(1, issuer_cert, forged, "4111111111111111")
    forged_issuer = issue_certificate(rogue, "bank-a", public_bytes(issuer))
    with pytest.raises(BadSignature):
        store.verify_chain(1, forged_issuer, card_cert, "4111111111111111")


# --- the Ed25519 memo -----------------------------------------------------------------

MEMOS = (generate_signing_key, public_bytes, crypto._signature, crypto._holds)


def _hits() -> int:
    return sum(memo.cache_info().hits for memo in MEMOS)


def _misses() -> int:
    return sum(memo.cache_info().misses for memo in MEMOS)


def test_memo_hits_return_what_cryptography_returns():
    seed, el = b"m" * 32, sdad_elements("cda")
    msg = bytes([METHOD_HEADERS["cda"]]) + DataElementMap(
        {tag: el[tag] for tag in SDAD_COVERAGE["cda"]}).encode()

    def outputs(key):
        return (public_bytes(key), sign_sdad(key, "cda", el),
                issue_certificate(key, "bank-a", bytes(32)).signature)

    first = outputs(generate_signing_key(seed))
    hits = _hits()
    again = outputs(generate_signing_key(seed))
    assert _hits() == hits + 4  # the key, its public bytes and both signatures
    fresh = Ed25519PrivateKey.from_private_bytes(seed)
    assert first == again == (
        fresh.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw),
        bytes([METHOD_HEADERS["cda"]]) + fresh.sign(msg),
        fresh.sign(Certificate("bank-a", bytes(32), b"").payload()))
    for _ in range(2):  # a miss or a hit, then a hit
        assert verify_sdad(first[0], "cda", el, again[1])
    Ed25519PublicKey.from_public_bytes(first[0]).verify(again[1][1:], msg)


def test_tampering_fails_after_the_genuine_triple_is_cached():
    priv = generate_signing_key(b"t" * 32)
    el = sdad_elements("cda")
    sdad = sign_sdad(priv, "cda", el)
    assert verify_sdad(public_bytes(priv), "cda", el, sdad)
    assert verify_sdad(bytearray(public_bytes(priv)), "cda", el, bytearray(sdad))  # unhashable
    flipped = sdad[:-1] + bytes([sdad[-1] ^ 1])
    assert not verify_sdad(public_bytes(priv), "cda", el, flipped)
    tampered = el.copy()
    tampered.put(Tag.UN, 223)
    assert not verify_sdad(public_bytes(priv), "cda", tampered, sdad)

    ca = generate_signing_key(b"c" * 32)
    store = CAStore({1: public_bytes(ca)})
    issuer_cert = issue_certificate(ca, "bank-a", public_bytes(priv))
    card_cert = issue_certificate(priv, "4111111111111111", public_bytes(ca))
    store.verify_chain(1, issuer_cert, card_cert, "4111111111111111")
    forged = Certificate(issuer_cert.subject, issuer_cert.public_key,
                         issuer_cert.signature[:-1] + bytes([issuer_cert.signature[-1] ^ 1]))
    with pytest.raises(BadSignature):
        store.verify_chain(1, forged, card_cert, "4111111111111111")


def test_a_cached_failure_is_never_reported_as_success():
    priv = generate_signing_key(b"f" * 32)
    el = sdad_elements("fdda")
    forged = bytes([METHOD_HEADERS["fdda"]]) + bytes(64)
    assert not verify_sdad(public_bytes(priv), "fdda", el, forged)
    hits = crypto._holds.cache_info().hits
    assert not verify_sdad(public_bytes(priv), "fdda", el, forged)
    assert crypto._holds.cache_info().hits == hits + 1
    assert verify_sdad(public_bytes(priv), "fdda", el, sign_sdad(priv, "fdda", el))


def test_errors_are_never_cached():
    hits, record = _hits(), dict(crypto._SIGNED)
    for _ in range(2):
        with pytest.raises(CryptoError):
            generate_signing_key(b"short")
        with pytest.raises(TypeError):  # a public key that is not bytes
            crypto._holds("x" * 32, bytes(64), b"msg")
        with pytest.raises(AttributeError):  # a signing key that is no key
            crypto._signature(None, b"msg")
    assert _hits() == hits and crypto._SIGNED == record


def test_each_memo_stays_within_its_bound():
    el = sdad_elements("cda")
    for i in range(300):
        key = generate_signing_key(i.to_bytes(32, "big"))
        verify_sdad(public_bytes(key), "cda", el, sign_sdad(key, "cda", el))
    for i in range(300):
        kdf(i.to_bytes(32, "big"), 1)
    for memo in MEMOS + (crypto._hmac_states,):
        info = memo.cache_info()
        assert info.currsize <= info.maxsize == 256
    # the record keeps the latest 256 signatures made, the last one included
    newest = (public_bytes(key), sign_sdad(key, "cda", el)[1:])
    assert len(crypto._SIGNED) == 256 and newest in crypto._SIGNED


def _cryptography_verifies(public: bytes, signature: bytes, msg: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, msg)
    except (InvalidSignature, ValueError):
        return False
    return True


def test_a_signature_made_here_holds_by_its_record(monkeypatch):
    # the record keeps the message under (key, signature); the memo is bypassed so the
    # verdict comes from the record, and no real verify is possible
    key = generate_signing_key(b"r" * 32)
    msg = b"a message signed once in this process"
    public, signature = public_bytes(key), crypto._signature(key, msg)
    assert crypto._SIGNED[public, signature] == msg
    edited = msg[:-1] + b"!"
    with monkeypatch.context() as patched:
        patched.setattr(crypto, "Ed25519PublicKey", None)  # any real verify would raise
        assert crypto._holds.__wrapped__(public, signature, msg) is True
        assert crypto._holds.__wrapped__(public, signature, edited) is False
    assert _cryptography_verifies(public, signature, msg)
    assert not _cryptography_verifies(public, signature, edited)


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=1, max_size=40),
       st.sampled_from([None, 0, 1, 2, "message", "key"]), st.integers(min_value=0),
       st.binary(max_size=40))
def test_holds_agrees_with_cryptography_on_signed_and_flipped_triples(seed, msg, part, bit,
                                                                      other):
    # a triple signed here, or one bit of its key, signature or message flipped, or an
    # unrelated message under its (key, signature), or its signature under another key
    # made here; a triple keeping the recorded (key, signature) needs no real verify
    key = generate_signing_key(seed)
    triple = [public_bytes(key), crypto._signature(key, msg), msg]
    if part == "message":
        triple[2] = other
    elif part == "key":
        other_key = generate_signing_key(hashlib.sha256(seed).digest())
        crypto._signature(other_key, msg)
        triple[0] = public_bytes(other_key)
    elif part is not None:
        raw = bytearray(triple[part])
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << bit % 8
        triple[part] = bytes(raw)
    expected = triple[2] == msg and part not in (0, 1, "key")
    if part in (None, 2, "message"):
        with mock.patch.object(crypto, "Ed25519PublicKey", None):  # any real verify would raise
            assert crypto._holds.__wrapped__(*triple) is expected
    assert crypto._holds(*triple) is _cryptography_verifies(*triple) is expected


def test_a_world_rebuilt_at_one_seed_pays_no_ed25519_again():
    first = run_genuine(build_env(3), "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    misses = _misses()
    again = run_genuine(build_env(3), "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    assert _misses() == misses
    assert again == first and again["outcome"] == "approve_online"


# --- PIN ---------------------------------------------------------------------------

def test_pin_encrypt_roundtrip():
    key = b"p" * 32
    blob = encrypt_pin(key, "1234", b"\x00" * 12)
    assert decrypt_pin(key, blob) == "1234"
    assert decrypt_pin(b"q" * 32, blob) is None
    tampered = blob[:-1] + bytes([blob[-1] ^ 1])
    assert decrypt_pin(key, tampered) is None
    assert decrypt_pin(key, b"") is None
    with pytest.raises(CryptoError):
        encrypt_pin(key, "1234", b"\x00" * 11)


def test_pin_blob_differs_by_nonce():
    key = b"p" * 32
    b1 = encrypt_pin(key, "1234", b"\x00" * 12)
    b2 = encrypt_pin(key, "1234", b"\x01" + b"\x00" * 11)
    assert b1 != b2


# --- CVC3 ---------------------------------------------------------------------------

def test_cvc3_shape_and_determinism():
    key = b"v" * 32
    c = compute_cvc3(key, 7, 123)
    assert len(c) == 3
    assert c == compute_cvc3(key, 7, 123)
    assert c != compute_cvc3(key, 8, 123)
    assert c != compute_cvc3(key, 7, 124)
    assert c != compute_cvc3(b"w" * 32, 7, 123)


def test_cvc3_all_thousand_uns_distinct_for_fixed_key():
    # deterministic for this key/ATC; the 3-digit UN space yields 1000 codes
    key = b"v" * 32
    codes = {compute_cvc3(key, 7, un) for un in range(1000)}
    assert len(codes) == 1000
