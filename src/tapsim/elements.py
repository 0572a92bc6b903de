"""Typed data elements and the canonical wire codec.

Every value that crosses a channel lives in a DataElementMap: a mapping from
registered tags to typed values. The tag registry (names, codes, wire kinds,
flag bit positions) is loaded from fixtures/codec.json so traces stay
self-describing; this module refuses unknown tags and unknown flag bits.

The canonical encoding is deterministic and injective: entries are sorted by
tag code, every value is length-prefixed, and an empty map encodes to the
fixed two-byte zero header. MAC and signature inputs are always built from
``DataElementMap.encode()``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
import types
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import compress
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote
from operator import attrgetter, methodcaller
from typing import Any, Callable, Iterable


class CodecError(ValueError):
    """Malformed value, unknown tag or non-canonical wire data."""


class MissingDolEntry(CodecError):
    """A DOL asked for a tag the environment does not provide."""


def _load_codec() -> dict:
    with resources.files("tapsim.fixtures").joinpath("codec.json").open("rb") as fh:
        return json.load(fh)


_CODEC = _load_codec()

TRANSIT_MCCS = frozenset(_CODEC["transit_mccs"])


# ---------------------------------------------------------------------------
# tag registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TagInfo:
    """A registered tag. The registry rejects duplicates, so each tag is a
    singleton and compares and hashes by identity."""

    name: str
    code: int
    kind: str

    def __repr__(self) -> str:  # keep traces and asserts readable
        return f"Tag.{self.name}"

    def __reduce__(self) -> tuple:
        return _tag_by_name, (self.name,)  # copies and unpickles are the singleton


TAGS_BY_NAME: dict[str, TagInfo] = {}
TAGS_BY_CODE: dict[int, TagInfo] = {}

for _entry in _CODEC["tags"]:
    _info = TagInfo(_entry["name"], _entry["code"], _entry["kind"])
    if _info.name in TAGS_BY_NAME or _info.code in TAGS_BY_CODE:
        raise CodecError(f"codec table duplicates tag {_info.name}/{_info.code}")
    TAGS_BY_NAME[_info.name] = _info
    TAGS_BY_CODE[_info.code] = _info
del _entry, _info


def _tag_by_name(name: str) -> TagInfo:
    try:
        return TAGS_BY_NAME[name]
    except KeyError:
        raise CodecError(f"unknown tag name {name!r}") from None


def _unknown_tag(name: str) -> TagInfo:
    raise AttributeError(f"unknown tag name {name!r}")


# Attribute access to the registry: ``Tag.AMOUNT`` is a plain attribute and
# ``Tag.by_name`` looks a name up. A module object, not a class instance: its
# ``__getattr__`` (PEP 562) runs only for names it lacks, where one defined
# on a class would slow every ``Tag.X`` read.
Tag = types.ModuleType("Tag")
vars(Tag).update(TAGS_BY_NAME, by_name=_tag_by_name, __getattr__=_unknown_tag)


# ---------------------------------------------------------------------------
# enums
# ---------------------------------------------------------------------------

class CID(enum.IntEnum):
    """Cryptogram type returned by the card."""

    AAC = 0   # refuse
    ARQC = 1  # ask the issuer
    TC = 2    # approve offline


class CVMMethod(enum.IntEnum):
    NoCVM = 0
    OnlinePIN = 1
    EncryptedOfflinePIN = 2
    PaperSignature = 3
    CDCVM = 4


class CVMCondition(enum.IntEnum):
    Always = 0
    IfAboveCvmLimit = 1
    IfBelowCvmLimit = 2


class CVMResult(enum.IntEnum):
    NotPerformed = 0
    Performed = 1
    Failed = 2


class DeviceType(enum.IntEnum):
    plastic = 0
    phone = 1


# ---------------------------------------------------------------------------
# flag maps (bit positions pinned in codec.json)
# ---------------------------------------------------------------------------

def _bit_positions(flag_set: str) -> dict[str, int]:
    names = _CODEC["flag_fields"][flag_set]
    return {name: i for i, name in enumerate(names)}


class _Flags:
    """Base for one-byte flag maps; subclasses declare boolean fields only."""

    _positions: dict[str, int] = {}
    wire: bytes  # the flag byte: bit ``_positions[name]`` set for each true field

    def __post_init__(self) -> None:
        positions = self._positions
        object.__setattr__(self, "wire", bytes([sum(compress(
            map((1).__lshift__, positions.values()), map(self.__getattribute__, positions)))]))

    replace = dataclasses.replace


@dataclass(frozen=True)
class AIP(_Flags):
    """Application Interchange Profile: what the card claims to support."""

    sda_supported: bool = False
    dda_supported: bool = False
    cda_supported: bool = False
    cardholder_verification_supported: bool = False
    on_device_cvm_supported: bool = False
    emv_mode_supported: bool = True

    _positions = _bit_positions("aip")


@dataclass(frozen=True)
class TTQ(_Flags):
    """Terminal Transaction Qualifiers: terminal capabilities/requirements."""

    online_pin_supported: bool = False
    signature_supported: bool = False
    cvm_required: bool = False
    oda_for_online_supported: bool = False
    emv_mode_supported: bool = True

    _positions = _bit_positions("ttq")


@dataclass(frozen=True)
class CTQ(_Flags):
    """Card Transaction Qualifiers: the card's CVM demands/claims."""

    online_pin_required: bool = False
    signature_required: bool = False
    cdcvm_performed: bool = False

    _positions = _bit_positions("ctq")


@dataclass(frozen=True)
class TVR(_Flags):
    """Terminal Verification Results. Only the auth-failure bit is modeled;
    the remaining bits are reserved and always zero."""

    cda_failed: bool = False

    _positions = _bit_positions("tvr")


for _cls in (AIP, TTQ, CTQ, TVR):
    if {f.name for f in fields(_cls)} != set(_cls._positions):
        raise CodecError(f"{_cls.__name__} fields disagree with codec.json")
del _cls


# ---------------------------------------------------------------------------
# structured values
# ---------------------------------------------------------------------------

# matches exactly the strings that encode to UTF-8: those with no lone surrogate
_UTF8 = re.compile("[^\ud800-\udfff]*").fullmatch
_CURRENCY = re.compile("[A-Z]{3}").fullmatch


@dataclass(frozen=True, order=False)
class Amount:
    """Transaction amount in minor units plus ISO-ish currency code."""

    value: int
    currency: str

    def __post_init__(self) -> None:
        if not (0 <= self.value <= 10**12):
            raise CodecError(f"amount out of range: {self.value}")
        if not _CURRENCY(self.currency):
            raise CodecError(f"bad currency code: {self.currency!r}")

    def __str__(self) -> str:
        return f"{self.value / 100:.2f} {self.currency}"


@dataclass(frozen=True)
class IAD:
    """Issuer Application Data (modeled subset): the card's own statement of
    whether on-device CVM happened and what kind of device it is."""

    cdcvm_performed: bool = False
    device_type: str = "plastic"
    filler: bytes = b""

    def __post_init__(self) -> None:
        if self.device_type not in DeviceType.__members__:
            raise CodecError(f"bad device type {self.device_type!r}")
        if not isinstance(self.filler, (bytes, bytearray)) or len(self.filler) > 0xFFFF:
            raise CodecError("IAD filler must be at most 65535 bytes")


@dataclass(frozen=True)
class AFL:
    """Application File Locator: which records the terminal should read."""

    records: tuple[int, ...] = ()

    def __post_init__(self) -> None:  # the count and each record number are one byte
        if len(self.records) > 0xFF or not all(map(range(0x100).__contains__, self.records)):
            raise CodecError(f"bad record numbers: {self.records}")


@dataclass(frozen=True)
class DOL:
    """Data Object List: an ordered tag wish-list (PDOL / CDOL)."""

    tags: tuple[TagInfo, ...] = ()

    def __post_init__(self) -> None:
        if len(self.tags) > 0xFF:  # the count is one byte
            raise CodecError(f"a DOL lists at most 255 tags, not {len(self.tags)}")


@dataclass(frozen=True)
class CVMEntry:
    method: CVMMethod
    condition: CVMCondition


@dataclass(frozen=True)
class CVMList:
    """Card CVM preferences, in priority order. An empty list is meaningful
    (no method available) and encodes distinctly from an absent one."""

    entries: tuple[CVMEntry, ...] = ()

    def __post_init__(self) -> None:
        if len(self.entries) > 0xFF:  # the count is one byte
            raise CodecError(f"a CVM list holds at most 255 entries, not {len(self.entries)}")


@dataclass(frozen=True)
class CVMResults:
    method: CVMMethod = CVMMethod.NoCVM
    condition: CVMCondition = CVMCondition.Always
    result: CVMResult = CVMResult.NotPerformed


@dataclass(frozen=True)
class ActionCodes:
    """Denial / online / default masks matched against the TVR."""

    denial: TVR = field(default_factory=TVR)
    online: TVR = field(default_factory=TVR)
    default: TVR = field(default_factory=TVR)


@dataclass(frozen=True)
class Track2EquivalentData:
    """The mag-stripe image carried by EMV-mode cards (and mag-stripe mode)."""

    pan: str
    expiry: str
    service_code: str
    discretionary: str

    def __post_init__(self) -> None:
        validate_pan(self.pan)
        if len(self.expiry) != 4 or not self.expiry.isdigit():
            raise CodecError(f"expiry must be YYMM digits: {self.expiry!r}")
        if not all(_UTF8(part) and len(part.encode()) <= 0xFFFF
                   for part in (self.service_code, self.discretionary)):
            raise CodecError("track 2 parts must be UTF-8 text of at most 65535 bytes")


# ---------------------------------------------------------------------------
# PAN / brand / MCC helpers
# ---------------------------------------------------------------------------

def luhn_valid(pan: str) -> bool:
    """Standard mod-10 check over a digit string."""
    if not pan.isdigit():
        return False
    total = 0
    for i, ch in enumerate(reversed(pan)):
        d = ord(ch) - 48
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def validate_pan(pan: str) -> str:
    if not pan.isdigit() or not (12 <= len(pan) <= 19):
        raise CodecError(f"PAN must be 12-19 digits: {pan!r}")
    if not luhn_valid(pan):
        raise CodecError(f"PAN fails Luhn check: {pan!r}")
    return pan


def brand_of(pan: str) -> str:
    """Scheme brand from the leading digit: 4=visa, 5=mastercard, 6=maestro."""
    lead = pan[:1]
    if lead == "4":
        return "visa"
    if lead == "5":
        return "mastercard"
    if lead == "6":
        return "maestro"
    raise CodecError(f"no brand for PAN prefix {lead!r}")


BRAND_FAMILIES = {
    "visa": "visa",
    "mastercard": "mastercard",
    "maestro": "mastercard",  # same network family as mastercard
}


def is_transit_mcc(mcc: str) -> bool:
    return mcc in TRANSIT_MCCS


# Above this amount (minor units) a transaction needs cardholder verification.
CVM_LIMIT = 5000


# Application identifiers (public protocol constants).
AID_VISA = bytes.fromhex("A0000000031010")
AID_MASTERCARD = bytes.fromhex("A0000000041010")
AID_MAESTRO = bytes.fromhex("A0000000043060")

AID_BRANDS = {
    AID_VISA: "visa",
    AID_MASTERCARD: "mastercard",
    AID_MAESTRO: "maestro",
}


# ---------------------------------------------------------------------------
# wire codec per kind
# ---------------------------------------------------------------------------

def _enc_lp(raw: bytes) -> bytes:
    """Length-prefix a chunk (2-byte length); the value types keep chunks within it."""
    return len(raw).to_bytes(2, "big") + raw


_enc_flags = attrgetter("wire")

# codec.json kind -> (the exact types of its values, the check a value of them must pass or
# None, the encoder of an admitted value). A composite type's constructor enforces what its
# encoder relies on. The uint and text checks and encoders are C callables, as are cid's and flags'.
KINDS: dict[str, tuple[tuple[type, ...], Callable[[Any], Any] | None, Callable[[Any], bytes]]] = {
    "uint1": ((int,), range(1 << 8).__contains__, methodcaller("to_bytes", 1, "big")),
    "uint2": ((int,), range(1 << 16).__contains__, methodcaller("to_bytes", 2, "big")),
    "uint4": ((int,), range(1 << 32).__contains__, methodcaller("to_bytes", 4, "big")),
    "text": ((str,), _UTF8, str.encode),
    "bytes": ((bytes, bytearray), None, bytes),
    "bytes_list": ((tuple,), lambda v: len(v) <= 0xFF and all(
        type(b) is bytes and len(b) <= 0xFFFF for b in v),
        lambda v: bytes([len(v)]) + b"".join(map(_enc_lp, v))),
    "amount": ((Amount,), None, lambda v: v.value.to_bytes(8, "big") + v.currency.encode()),
    "flags:aip": ((AIP,), None, _enc_flags),
    "flags:ctq": ((CTQ,), None, _enc_flags),
    "flags:ttq": ((TTQ,), None, _enc_flags),
    "iad": ((IAD,), None, lambda v: bytes([int(v.cdcvm_performed), DeviceType[v.device_type]])
            + _enc_lp(v.filler)),
    "cid": ((CID,), None, methodcaller("to_bytes", 1, "big")),
    "afl": ((AFL,), None, lambda v: bytes([len(v.records)]) + bytes(v.records)),
    "dol": ((DOL,), None, lambda v: bytes([len(v.tags)])
            + b"".join(t.code.to_bytes(2, "big") for t in v.tags)),
    "cvm_list": ((CVMList,), None, lambda v: bytes([len(v.entries)])
                 + b"".join(bytes([e.method, e.condition]) for e in v.entries)),
    "cvm_results": ((CVMResults,), None, lambda v: bytes([v.method, v.condition, v.result])),
    "action_codes": ((ActionCodes,), None,
                     lambda v: v.denial.wire + v.online.wire + v.default.wire),
    "track2": ((Track2EquivalentData,), None, lambda v: b"".join(
        _enc_lp(part.encode())
        for part in (v.pan, v.expiry, v.service_code, v.discretionary))),
}

_unknown_kinds = sorted({tag.kind for tag in TAGS_BY_NAME.values()} - KINDS.keys())
if _unknown_kinds:
    raise CodecError(f"codec table uses kinds with no encoder: {_unknown_kinds}")


_CODEC_OF = {tag: KINDS[tag.kind] for tag in TAGS_BY_NAME.values()}  # registered tags only
_UNREGISTERED = ((), None, None)  # admits no value


def encode_value(tag: TagInfo, value: Any) -> bytes:
    """Canonical byte encoding for a single element value; refuses what a map refuses."""
    types, admits, encode = _CODEC_OF.get(tag, _UNREGISTERED)
    if type(value) not in types or admits is not None and not admits(value):
        raise CodecError(f"{tag!r} is no registered tag or does not admit {value!r}")
    return encode(value)


# json's spelling of each plain type, by exact type: bool and IntEnum are not int
PLAIN_JSON = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
              type(None): {None: "null"}.__getitem__}
# json.dumps(value, sort_keys=True)'s C encoder, built once; "".join(json_chunks(v, 0)) is its
# text. It keeps no markers for json's circular check: a shared dict keeps stale ids after an error.
json_chunks = c_make_encoder(None, json.JSONEncoder().default, _quote, None, ": ", ", ",
                             True, False, True)


def _fields(names: Iterable[str]) -> Callable[[Any], dict[str, Any]]:
    """Renderer of a value as ``{name: getattr(value, name)}``, in the order of ``names``."""
    names = tuple(names)
    return lambda v: dict(zip(names, map(v.__getattribute__, names)))


# exact type -> the JSON-friendly rendering of an element value of it (bytes as hex, an enum
# member as its name). An enum's ``.name`` is a Python-level property; ``_name_`` is not.
RENDER: dict[type, Callable[[Any], Any]] = {
    bytes: bytes.hex, bytearray: bytearray.hex,
    **{cls: {m: m._name_ for m in cls}.__getitem__
       for cls in (CID, CVMMethod, CVMCondition, CVMResult, DeviceType)},
    **{cls: _fields(cls._positions) for cls in (AIP, TTQ, CTQ, TVR)},
    Amount: _fields(("value", "currency")),
    Track2EquivalentData: _fields(("pan", "expiry", "service_code", "discretionary")),
    IAD: lambda v: {"cdcvm_performed": v.cdcvm_performed, "device_type": v.device_type,
                    "filler": v.filler.hex()},
    AFL: lambda v: list(v.records),
    DOL: lambda v: [t.name for t in v.tags],
    CVMList: lambda v: [[e.method._name_, e.condition._name_] for e in v.entries],
    CVMResults: lambda v: [v.method._name_, v.condition._name_, v.result._name_],
    ActionCodes: lambda v: {"denial": v.denial.wire[0], "online": v.online.wire[0],
                            "default": v.default.wire[0]},
}


def render_value(value: Any) -> Any:
    """JSON-friendly rendering for traces and reports: an element value by its
    type's ``RENDER`` entry. Dicts and sequences recurse, sets come out sorted,
    and objects with a ``render()`` method render themselves."""
    if type(value) in PLAIN_JSON or type(value) is float:
        return value
    render = RENDER.get(type(value))
    if render is not None:
        return render(value)
    if type(value) is dict:
        return {k: render_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((render_value(v) for v in value), key=repr)
    render = getattr(value, "render", None)
    return render() if callable(render) else value


def to_json(value: Any) -> str:
    """``json.dumps(render_value(value), sort_keys=True)``."""
    return "".join(json_chunks(render_value(value), 0))


# ---------------------------------------------------------------------------
# the element map
# ---------------------------------------------------------------------------

def _read_only(self: "DataElementMap", *args: Any, **kwargs: Any) -> None:
    raise TypeError("a DataElementMap is written only through its constructor and put()")


class DataElementMap(dict):
    """Tag -> typed value map with a canonical, injective byte encoding.

    A ``dict``, so reads (``[]``, ``get``, ``in``, iteration) run in C; a missing tag raises
    ``CodecError``. The validating constructor and ``put`` are its only writers: every other
    dict mutator raises. ``copy`` and crypto's coverage projections copy entries a map has
    validated already; copies by the ``copy`` module and unpickling validate again."""

    __slots__ = ()

    def __init__(self, items: dict[TagInfo, Any] | None = None):
        if items:
            dict.__init__(self, items)
            for tag, value in self.items():  # put's admission, with no call to put per item
                types, admits, _encode = _CODEC_OF.get(tag, _UNREGISTERED)
                if type(value) not in types or admits is not None and not admits(value):
                    raise CodecError(f"{tag!r} is no registered tag or does not admit {value!r}")

    def put(self, tag: TagInfo, value: Any) -> "DataElementMap":
        # by exact type, a uint's range and a text's UTF-8: a composite value checked itself
        types, admits, _encode = _CODEC_OF.get(tag, _UNREGISTERED)
        if type(value) not in types or admits is not None and not admits(value):
            raise CodecError(f"{tag!r} is no registered tag or does not admit {value!r}")
        dict.__setitem__(self, tag, value)
        return self

    def __missing__(self, tag: TagInfo) -> Any:
        raise CodecError(f"missing element {tag.name}")

    __setitem__ = __delitem__ = __ior__ = update = setdefault = pop = popitem = clear = _read_only

    def __repr__(self) -> str:
        inner = ", ".join(f"{t.name}={render_value(v)!r}" for t, v in self.items())
        return f"DataElementMap({inner})"

    def __reduce__(self) -> tuple:
        return DataElementMap, (dict(self),)  # copies and unpickles validate again

    def tags(self) -> frozenset[TagInfo]:
        return frozenset(self)

    def copy(self) -> "DataElementMap":
        clone = dict.__new__(DataElementMap)
        dict.update(clone, self)  # entries validated here already
        return clone

    def encode(self) -> bytes:
        """Canonical encoding: u16 count, entries ascending by tag code,
        each as (u16 code, u32 length, value bytes)."""
        out = [len(self).to_bytes(2, "big")]
        for tag in sorted(self, key=attrgetter("code")):
            raw = encode_value(tag, self[tag])
            out.append(tag.code.to_bytes(2, "big"))
            out.append(len(raw).to_bytes(4, "big"))
            out.append(raw)
        return b"".join(out)

    def render(self) -> dict[str, Any]:
        """Name-keyed JSON-friendly view (insertion order preserved)."""
        return {tag.name: render_value(value) for tag, value in self.items()}


def build_dol_data(dol: DOL, env: DataElementMap) -> DataElementMap:
    """Project the environment onto a DOL's tags, in DOL order."""
    out = DataElementMap()
    for tag in dol.tags:
        if tag not in env:
            raise MissingDolEntry(f"environment lacks {tag.name} requested by DOL")
        out.put(tag, env[tag])
    return out
