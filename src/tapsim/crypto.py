"""Modeled cryptography for the sandbox.

Real primitives, modeled constructions: application cryptograms are HMACs
over the canonical encoding of a declared coverage set, dynamic signatures
are Ed25519 over a one-byte method header plus a coverage set, and the PKI
is a two-level chain (CA -> issuer -> card) of Ed25519-signed certificates. A
certificate is its wire bytes, and walking the chain returns the keys it proves.
Online PIN travels under AES-GCM between terminal and issuer.

The point is not cryptographic strength but *binding*: what each signature
or MAC does and does not cover is exactly what the attack catalogue probes.
The coverage sets below are the only list of it: callers pass what they hold
(the card what it signs, the terminal what it received, the issuer the whole
request) and each operation encodes its coverage straight from that map, so
widening a set is an edit here alone. The issuer checks an AC against the
card's personalized set.

Each Ed25519 operation is memoized on its exact inputs (seed, key object, public
key, signature and message bytes), the last 256 of each, and so is each certificate,
issued under its (parent key, subject, public key) and parsed from its exact bytes.
Ed25519 is deterministic and bytes cannot change, so a hit returns what a fresh call
would; a failed check is kept, an error (a malformed certificate's too) never.
A signing records its message by (key, signature), so a check under one of the last 256 made
needs no verify: a changed message costs two SHA-512s, a changed key or signature a verify.
The session-key and CVC3 MACs start from SHA-256 states memoized the same way on
their exact key bytes.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Mapping
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .elements import CodecError, DataElementMap, Tag, TagInfo, keep


class CryptoError(Exception):
    pass


class LookupFailure(CryptoError):
    """The terminal has no CA key for the index the card named."""


class BadSignature(CryptoError):
    """A certificate or static signature failed verification."""


# --- coverage sets -----------------------------------------------------------
# What each cryptogram/signature binds. Gaps here are deliberate attack surface.

AC_COVERAGE_KERNEL2 = frozenset({Tag.AMOUNT, Tag.UN, Tag.CVM_RESULTS, Tag.AIP, Tag.ATC, Tag.IAD})
AC_COVERAGE_KERNEL3_BASE = frozenset({Tag.AMOUNT, Tag.UN, Tag.AIP, Tag.ATC, Tag.IAD})


def ac_coverage_kernel3(include_ttq: bool) -> frozenset[TagInfo]:
    if include_ttq:
        return AC_COVERAGE_KERNEL3_BASE | {Tag.TTQ}
    return AC_COVERAGE_KERNEL3_BASE


# Dynamic signature method headers; the first SDAD byte names the method,
# so a signature made for one method cannot pass as another.
METHOD_HEADERS = {"sda": 0x05, "cda": 0x07, "fdda": 0x15}

SDAD_COVERAGE = {
    "cda": frozenset({Tag.UN_CARD, Tag.UN, Tag.AC, Tag.ATC, Tag.IAD}),
    "fdda": frozenset({Tag.UN_CARD, Tag.UN, Tag.ATC, Tag.CTQ, Tag.AIP}),
}

# Records under the issuer's static signature (read from the card's files).
STATIC_SIGNED_TAGS = frozenset(
    {Tag.PAN, Tag.EXPIRY, Tag.AIP, Tag.CVM_LIST, Tag.IAC, Tag.CA_PK_INDEX}
)


# --- session keys and cryptograms ---------------------------------------------

# per operation: a sweep pass meets at most 21 distinct inputs of one (the signature checks;
# 5 certificates issued and 5 parsed) and 7 MAC keys, a genuine pass at most 52 and 28
_MEMO_SIZE = 256
_MEMO = lru_cache(maxsize=_MEMO_SIZE)
# (signer's public key, signature) -> message, for the last _MEMO_SIZE signatures made
_SIGNED: dict[tuple[bytes, bytes], bytes] = {}
_L = 2**252 + 27742317777372353535851937790883648493  # the order of the Ed25519 base point
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@_MEMO
def _hmac_states(key: bytes) -> tuple:
    """SHA-256 after absorbing the HMAC inner and outer key blocks (RFC 2104)."""
    block = (hashlib.sha256(key).digest() if len(key) > 64 else key).ljust(64, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """``hmac.digest(key, msg, "sha256")``, with the key's pads hashed once per key."""
    inner, outer = _hmac_states(key)
    inner = inner.copy()
    inner.update(msg)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def kdf(master_key: bytes, atc: int) -> bytes:
    """Per-transaction session key from the card master key and the ATC."""
    return _hmac_sha256(master_key, b"sess" + atc.to_bytes(2, "big"))


def compute_ac(session_key: bytes, elements: DataElementMap,
               coverage: frozenset[TagInfo]) -> bytes:
    """MAC over the canonical encoding of exactly the covered elements."""
    try:
        msg = elements.encode(coverage)
    except CodecError as missing:
        raise CryptoError(f"coverage {missing}") from None
    return hmac.digest(session_key, b"ac" + msg, "sha256")


def verify_ac(session_key: bytes, elements: DataElementMap,
              coverage: frozenset[TagInfo], ac: bytes) -> bool:
    try:
        expected = compute_ac(session_key, elements, coverage)
    except CryptoError:
        return False
    return hmac.compare_digest(expected, ac)


# --- dynamic signatures ---------------------------------------------------------


@_MEMO
def _signature(private_key: Ed25519PrivateKey, msg: bytes) -> bytes:
    signature = private_key.sign(msg)
    keep(_SIGNED, (public_bytes(private_key), signature), msg, _MEMO_SIZE)
    return signature


def _challenge(public: bytes, signature: bytes, msg: bytes) -> int:  # RFC 8032's k, pure Ed25519
    return int.from_bytes(hashlib.sha512(signature[:32] + public + msg).digest(), "little") % _L


@_MEMO
def _holds(public: bytes, signature: bytes, msg: bytes) -> bool:
    # Exact, not probable: a pair signed here verified its message, [S]B = R + [k0]A, and verifies
    # M iff [k]A = [k0]A. A = [a]B has order L, as a clamped a (8 | a, 2^254 <= a < 2^255) = jL
    # would need 4 <= j <= 7 with 8 | j; so M verifies iff k = k0 mod L, cofactored or not.
    if (signed := _SIGNED.get((public, signature))) is not None:
        return signed == msg or _challenge(public, signature, msg) == _challenge(
            public, signature, signed)
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, msg)
    except (InvalidSignature, ValueError):  # ValueError: a public key that is not 32 bytes
        return False
    return True


@_MEMO
def generate_signing_key(seed32: bytes) -> Ed25519PrivateKey:
    if len(seed32) != 32:
        raise CryptoError("signing key seed must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(seed32)


@_MEMO
def public_bytes(private_key: Ed25519PrivateKey) -> bytes:
    return private_key.public_key().public_bytes_raw()


def _sign(private_key: Ed25519PrivateKey, method: str,
          elements: DataElementMap, coverage: frozenset[TagInfo]) -> bytes:
    """Method header byte + signature over the header and the covered elements."""
    header = METHOD_HEADERS[method]
    try:
        msg = bytes([header]) + elements.encode(coverage)
    except CodecError as missing:
        raise CryptoError(f"coverage {missing}") from None
    return bytes([header]) + _signature(private_key, msg)


def _verify(public: bytes, method: str, elements: DataElementMap,
            coverage: frozenset[TagInfo], signature: bytes) -> bool:
    """True iff the signature names ``method`` and holds over the coverage."""
    header = METHOD_HEADERS[method]
    if len(signature) != 65 or signature[0] != header:
        return False
    try:
        msg = bytes([header]) + elements.encode(coverage)
    except CodecError:
        return False
    return _holds(bytes(public), bytes(signature[1:]), msg)


def sign_sdad(private_key: Ed25519PrivateKey, method: str,
              elements: DataElementMap) -> bytes:
    """Signed Dynamic Application Data: method header byte + signature."""
    return _sign(private_key, method, elements, SDAD_COVERAGE[method])


def verify_sdad(card_public: bytes, method: str, elements: DataElementMap,
                sdad: bytes) -> bool:
    """True iff the SDAD names the expected method and the signature holds."""
    return _verify(card_public, method, elements, SDAD_COVERAGE[method], sdad)


# --- static signature and the certificate chain -------------------------------

def sign_static_records(issuer_private: Ed25519PrivateKey,
                        records: DataElementMap) -> bytes:
    """Issuer signature over the card's static records (SDA-style)."""
    return _sign(issuer_private, "sda", records, STATIC_SIGNED_TAGS)


def verify_static_records(issuer_public: bytes, records: DataElementMap,
                          signature: bytes) -> bool:
    return _verify(issuer_public, "sda", records, STATIC_SIGNED_TAGS, signature)


@_MEMO
def issue_certificate(parent_private: Ed25519PrivateKey, subject: str,
                      subject_public: bytes) -> bytes:
    """A certificate's wire bytes: its payload (subject and public key, each length-prefixed),
    then the parent's signature over the payload."""
    subj = subject.encode("utf-8")
    payload = (b"cert" + len(subj).to_bytes(2, "big") + subj
               + len(subject_public).to_bytes(2, "big") + subject_public)
    return payload + _signature(parent_private, payload)


@_MEMO
def _parse_certificate(raw: bytes) -> tuple[str, bytes, bytes, bytes]:
    """(subject, public key, signature, signed payload) of a certificate's bytes; malformed
    input is a certificate that does not verify."""
    off = 6 + int.from_bytes(raw[4:6], "big")
    end = off + 2 + int.from_bytes(raw[off:off + 2], "big")  # end of the public key
    if raw[:4] != b"cert" or len(raw) < end:
        raise BadSignature("malformed certificate")
    try:
        subject = raw[6:off].decode("utf-8")
    except UnicodeDecodeError:
        raise BadSignature("certificate subject is not UTF-8") from None
    return subject, raw[off + 2:end], raw[end:], raw[:end]


class CAStore:
    """Terminal-side root keys, looked up by the card's one-byte CA index."""

    def __init__(self, roots: Mapping[int, bytes]) -> None:
        self._roots = roots

    def lookup(self, index: int) -> bytes:
        try:
            return self._roots[index]
        except KeyError:
            raise LookupFailure(f"no CA key under index {index}") from None

    def verify_chain(self, index: int, issuer_cert: bytes, card_cert: bytes,
                     pan: str) -> tuple[bytes, bytes]:
        """Walk CA -> issuer -> card over the certificates' bytes; return the issuer's and
        the card's public keys.

        Raises LookupFailure for an unknown index and BadSignature for any
        broken link, including a malformed certificate or a card certificate
        naming a different PAN.
        """
        keys = [self.lookup(index)]  # each link's key, from the root's on
        for raw in (issuer_cert, card_cert):
            subject, public, signature, payload = _parse_certificate(raw)
            if not _holds(bytes(keys[-1]), signature, payload):
                raise BadSignature(f"certificate for {subject!r} does not verify")
            keys.append(public)
        if subject != pan:
            raise BadSignature("card certificate bound to a different PAN")
        return keys[1], keys[2]


# --- online PIN ------------------------------------------------------------------

def encrypt_pin(shared_key: bytes, pin: str, nonce: bytes) -> bytes:
    """Terminal-side PIN encryption for the authorization leg."""
    if len(nonce) != 12:
        raise CryptoError("PIN nonce must be 12 bytes")
    return nonce + AESGCM(shared_key).encrypt(nonce, pin.encode("ascii"), b"pin")


def decrypt_pin(shared_key: bytes, blob: bytes) -> str | None:
    """Issuer-side decryption; None when the blob does not authenticate."""
    if len(blob) < 13:
        return None
    try:
        return AESGCM(shared_key).decrypt(blob[:12], blob[12:], b"pin").decode("ascii")
    except Exception:
        return None


# --- mag-stripe dynamic code --------------------------------------------------------

def compute_cvc3(cvc3_key: bytes, atc: int, un: int) -> bytes:
    """Dynamic card verification code: 3-byte truncated MAC over (ATC, UN)."""
    msg = b"cvc3" + atc.to_bytes(2, "big") + un.to_bytes(4, "big")
    return _hmac_sha256(cvc3_key, msg)[:3]
