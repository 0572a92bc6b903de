"""Typed data elements and the canonical wire codec.

Every value that crosses a channel lives in a DataElementMap: a mapping from
registered tags to typed values. fixtures/codec.json is the one source of the
wire vocabulary: the tag registry (names, codes, wire kinds) is loaded from it,
and the enums and flag maps are built from its member names and bits, so traces
stay self-describing; this module refuses unknown tags and unknown flag bits.

The canonical encoding is deterministic and injective: entries are sorted by
tag code, every value is length-prefixed, and an empty map encodes to the
fixed two-byte zero header. MAC and signature inputs are always built by
``DataElementMap.encode(coverage)``, in a code order kept per coverage set.

The immutable value types are interned: a construction whose exact arguments the
process met before returns the instance built then, with no validation. The table
gives a value it builds its JSON text (``json``) and, for an element kind, its wire
bytes (``wire``) as its own attributes, so emission and encoding read them off the
value, which keeps them after the table evicts it; any other value is encoded, and
so admitted, each time.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
import types
from dataclasses import dataclass, field
from importlib import resources
from itertools import compress
from json.encoder import c_make_encoder, encode_basestring_ascii as _quote
from operator import attrgetter, methodcaller
from typing import Any, Callable, Iterable


class CodecError(ValueError):
    """Malformed value, unknown tag or non-canonical wire data. ``tag`` is the element a map
    lacked or refused, or a DOL asked for; None for any other error."""

    def __init__(self, message: str, tag: TagInfo | None = None) -> None:
        super().__init__(message)
        self.tag = tag


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
# tags are singletons that live as long as the process, so their ids are stable; an id
# can be looked up for any object, hashable or not
_REGISTERED_IDS = frozenset(map(id, TAGS_BY_NAME.values()))


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
# each tag's field name, its lower-case name: a request or view field, a profile attribute
FIELD_NAMES: dict[TagInfo, str] = {tag: tag.name.lower() for tag in TAGS_BY_NAME.values()}


# ---------------------------------------------------------------------------
# enums: codec.json's names, each member's value its index in the list
# ---------------------------------------------------------------------------

# CID is the cryptogram type the card returns: AAC refuses, ARQC asks the issuer and TC
# approves offline. A CVM list entry pairs a CVMMethod with a CVMCondition, CVM results add a
# CVMResult, and an IAD names the DeviceType it comes from.
_ENUMS = CID, CVMMethod, CVMCondition, CVMResult, DeviceType = tuple(
    enum.IntEnum(name, _CODEC["enums"][key], start=0, module=__name__)
    for name, key in (("CID", "cid"), ("CVMMethod", "cvm_method"),
                      ("CVMCondition", "cvm_condition"), ("CVMResult", "cvm_result"),
                      ("DeviceType", "device_type")))


# The intern table: (class, positional arguments, keyword items, each argument's exact type) ->
# the instance, the latest _INTERN_SIZE built. Equal arguments may render apart (1 and True).
_INTERN_SIZE = 1024  # the catalogue, genuine matrix and sweep at seeds 0-2 meet 62 keys
_INTERNED: dict[tuple, Any] = {}


class _Interned(type):
    """Metaclass of the interned value types. A value the table builds carries its JSON text as
    ``json`` (a type ``RENDER`` renders) and its wire bytes as ``wire`` (an element kind's);
    copies and unpickles are equal and carry both, but are not interned."""

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        key = (cls, args, *kwargs.items(), *map(type, args), *map(type, kwargs.values()))
        try:
            value = _INTERNED.get(key)
        except TypeError:  # an unhashable argument, which the constructor refuses
            return type.__call__(cls, *args, **kwargs)
        if value is None:  # a construction that raises keeps nothing
            value = type.__call__(cls, *args, **kwargs)
            if (render := RENDER.get(cls)) is not None:
                object.__setattr__(value, "json", "".join(json_chunks(render(value), 0)))
            if (encode := _ENCODERS.get(cls)) is not None:
                object.__setattr__(value, "wire", encode(value))
            if len(_INTERNED) >= _INTERN_SIZE:
                del _INTERNED[next(iter(_INTERNED))]
            _INTERNED[key] = value
        return value


# ---------------------------------------------------------------------------
# flag maps: codec.json's bits, in wire order
# ---------------------------------------------------------------------------

class _Flags(metaclass=_Interned):
    """Base for one-byte flag maps, built by ``_flag_map``: a bool field per bit, each
    exactly a bool."""

    _positions: dict[str, int]  # each bit's name -> its position, in codec.json's order
    wire: bytes  # the flag byte: bit ``_positions[name]`` set for each true field

    def __post_init__(self) -> None:
        bits = tuple(map(self.__getattribute__, self._positions))
        if set(map(type, bits)) != {bool}:
            raise CodecError(f"{type(self).__name__} bits must be bools, not {bits!r}")
        object.__setattr__(self, "wire", bytes([sum(compress(
            map((1).__lshift__, self._positions.values()), bits))]))

    def replace(self, **changes: Any) -> Any:
        """A copy with ``changes``, built with every bit named in field order: two equal flag
        maps built by ``replace`` are one interned object."""
        bits = dict(zip(self._positions, map(self.__getattribute__, self._positions)))
        return type(self)(**(bits | changes))


def _flag_map(name: str, key: str, doc: str) -> type:
    """The frozen flag map ``name`` over codec.json's ``key`` bits. A card and a terminal
    claim EMV mode unless told not to, so ``emv_mode_supported`` defaults to True and every
    other bit to False. ``__module__`` is set so pickle and copy find the class."""
    bits = _CODEC["flag_fields"][key]
    return dataclasses.make_dataclass(
        name, [(bit, bool, bit == "emv_mode_supported") for bit in bits], bases=(_Flags,),
        frozen=True, namespace={"__doc__": doc, "__module__": __name__,
                                "_positions": {bit: i for i, bit in enumerate(bits)}})


_FLAG_MAPS = AIP, TTQ, CTQ, TVR = (
    _flag_map("AIP", "aip", "Application Interchange Profile: what the card claims to support."),
    _flag_map("TTQ", "ttq", "Terminal Transaction Qualifiers: terminal capabilities/requirements."),
    _flag_map("CTQ", "ctq", "Card Transaction Qualifiers: the card's CVM demands/claims."),
    _flag_map("TVR", "tvr", "Terminal Verification Results. Only the auth-failure bit is "
              "modeled; the remaining bits are reserved and always zero."))


# ---------------------------------------------------------------------------
# structured values
# ---------------------------------------------------------------------------

# matches exactly the strings that encode to UTF-8: those with no lone surrogate
_UTF8 = re.compile("[^\ud800-\udfff]*").fullmatch
_CURRENCY = re.compile("[A-Z]{3}").fullmatch


@dataclass(frozen=True, order=False)
class Amount(metaclass=_Interned):
    """Transaction amount in minor units plus ISO-ish currency code."""

    value: int
    currency: str

    def __post_init__(self) -> None:
        if type(self.value) is not int or not 0 <= self.value <= 10**12:
            raise CodecError(f"amount out of range: {self.value}")
        if not _CURRENCY(self.currency):
            raise CodecError(f"bad currency code: {self.currency!r}")


@dataclass(frozen=True)
class IAD(metaclass=_Interned):
    """Issuer Application Data (modeled subset): the card's own statement of
    whether on-device CVM happened and what kind of device it is."""

    cdcvm_performed: bool = False
    device_type: str = "plastic"
    filler: bytes = b""

    def __post_init__(self) -> None:
        if (self.device_type not in DeviceType.__members__
                or not isinstance(self.cdcvm_performed, int)  # the wire's byte is int(...)
                or not 0 <= self.cdcvm_performed <= 0xFF):
            raise CodecError(f"bad IAD {self.cdcvm_performed!r}, {self.device_type!r}")
        if type(self.filler) is not bytes or len(self.filler) > 0xFFFF:
            raise CodecError("IAD filler must be bytes, at most 65535 of them")


@dataclass(frozen=True)
class AFL:
    """Application File Locator: which records the terminal should read."""

    records: tuple[int, ...] = ()

    def __post_init__(self) -> None:  # a tuple; the count and each record number are one byte
        if (type(self.records) is not tuple or len(self.records) > 0xFF
                or not set(map(type, self.records)) <= {int}
                or not all(map(range(0x100).__contains__, self.records))):
            raise CodecError(f"bad record numbers: {self.records}")


@dataclass(frozen=True)
class DOL:
    """Data Object List: an ordered tag wish-list (PDOL / CDOL)."""

    tags: tuple[TagInfo, ...] = ()

    def __post_init__(self) -> None:  # a tuple; the count is one byte, each tag registered
        if (type(self.tags) is not tuple or len(self.tags) > 0xFF
                or not all(map(_REGISTERED_IDS.__contains__, map(id, self.tags)))):
            raise CodecError(f"a DOL lists at most 255 registered tags, not {self.tags!r}")


@dataclass(frozen=True)
class CVMEntry(metaclass=_Interned):
    method: CVMMethod
    condition: CVMCondition

    def __post_init__(self) -> None:  # each member is written as its enum's byte
        if type(self.method) is not CVMMethod or type(self.condition) is not CVMCondition:
            raise CodecError(f"bad CVM entry: {self.method!r}, {self.condition!r}")


@dataclass(frozen=True)
class CVMList(metaclass=_Interned):
    """Card CVM preferences, in priority order. An empty list is meaningful
    (no method available) and encodes distinctly from an absent one."""

    entries: tuple[CVMEntry, ...] = ()

    def __post_init__(self) -> None:  # a tuple of exactly CVMEntry, so an equal key hides no type
        if (type(self.entries) is not tuple or len(self.entries) > 0xFF  # the count is a byte
                or not set(map(type, self.entries)) <= {CVMEntry}):
            raise CodecError(f"a CVM list is a tuple of at most 255 entries, not {self.entries!r}")


@dataclass(frozen=True)
class CVMResults(metaclass=_Interned):
    method: CVMMethod = CVMMethod.NoCVM
    condition: CVMCondition = CVMCondition.Always
    result: CVMResult = CVMResult.NotPerformed

    def __post_init__(self) -> None:  # each member is written as its enum's byte
        if (type(self.method) is not CVMMethod or type(self.condition) is not CVMCondition
                or type(self.result) is not CVMResult):
            raise CodecError(f"bad CVM results: {self.method!r}, {self.condition!r}, "
                             f"{self.result!r}")


@dataclass(frozen=True)
class ActionCodes(metaclass=_Interned):
    """Denial / online / default masks matched against the TVR."""

    denial: TVR = field(default_factory=TVR)
    online: TVR = field(default_factory=TVR)
    default: TVR = field(default_factory=TVR)

    def __post_init__(self) -> None:
        if not all(type(mask) is TVR for mask in (self.denial, self.online, self.default)):
            raise CodecError(f"action code masks must be TVRs: {self!r}")


@dataclass(frozen=True)
class Track2EquivalentData(metaclass=_Interned):
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
    """The brand whose ``BRANDS`` entry has the PAN's leading digit."""
    for name, brand in BRANDS.items():
        if pan[:1] == brand.lead:
            return name
    raise CodecError(f"no brand for PAN prefix {pan[:1]!r}")


def is_transit_mcc(mcc: str) -> bool:
    return mcc in TRANSIT_MCCS


# Above this amount (minor units) a transaction needs cardholder verification.
CVM_LIMIT = 5000


@dataclass(frozen=True)
class Brand:
    """A card scheme: its PANs' leading digit, its application identifier (a public
    protocol constant), the kernel that runs it and the network that authorizes it."""

    lead: str
    aid: bytes
    kernel: int
    family: str


# Every brand fact, declared once, in the order a terminal SELECTs the applications.
BRANDS = {
    "visa": Brand("4", bytes.fromhex("A0000000031010"), 3, "visa"),
    "mastercard": Brand("5", bytes.fromhex("A0000000041010"), 2, "mastercard"),
    "maestro": Brand("6", bytes.fromhex("A0000000043060"), 2, "mastercard"),
}
AID_VISA, AID_MASTERCARD, AID_MAESTRO = (brand.aid for brand in BRANDS.values())
AID_BRANDS = {brand.aid: name for name, brand in BRANDS.items()}


# ---------------------------------------------------------------------------
# wire codec per kind
# ---------------------------------------------------------------------------

def _enc_lp(raw: bytes) -> bytes:
    """Length-prefix a chunk (2-byte length); the value types keep chunks within it."""
    return len(raw).to_bytes(2, "big") + raw


_enc_flags = attrgetter("wire")

# codec.json kind -> (the exact types of its values, the check a value of them must pass or
# None, the encoder of an admitted value). Every admitted value is one that cannot change, so
# a map encodes what it was given: bytes, not a bytearray, and composites over tuples and
# bytes. A composite type's constructor enforces that and what its encoder relies on. The
# uint and text checks and encoders are C callables, as are cid's and flags'.
KINDS: dict[str, tuple[tuple[type, ...], Callable[[Any], Any] | None, Callable[[Any], bytes]]] = {
    "uint1": ((int,), range(1 << 8).__contains__, methodcaller("to_bytes", 1, "big")),
    "uint2": ((int,), range(1 << 16).__contains__, methodcaller("to_bytes", 2, "big")),
    "uint4": ((int,), range(1 << 32).__contains__, methodcaller("to_bytes", 4, "big")),
    "text": ((str,), _UTF8, str.encode),
    "bytes": ((bytes,), None, bytes),
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
    "track2": ((Track2EquivalentData,), None, lambda v: b"".join(map(_enc_lp, map(
        str.encode, (v.pan, v.expiry, v.service_code, v.discretionary))))),
}

_unknown_kinds = sorted({tag.kind for tag in TAGS_BY_NAME.values()} - KINDS.keys())
if _unknown_kinds:
    raise CodecError(f"codec table uses kinds with no encoder: {_unknown_kinds}")


_CODEC_OF = {tag: KINDS[tag.kind] for tag in TAGS_BY_NAME.values()}  # registered tags only
# each interned type of an element kind -> its kind's encoder; a flag map makes its wire itself
_ENCODERS = {types[0]: encode for types, _admits, encode in KINDS.values()
             if type(types[0]) is _Interned and encode is not _enc_flags}
_UNREGISTERED = ((), None, None)  # admits no value
# A coverage set -> its tags ascending by code, each beside its code's wire bytes; the latest
# _ORDERS_SIZE asked for. Its domain: crypto's AC sets for kernel 2, kernel 3 and kernel 3 with
# the TTQ, its two SDAD sets and its static-record set, and any coverage a card is given.
_ORDERS_SIZE = 64
_ORDERS: dict[frozenset[TagInfo], tuple[tuple[TagInfo, bytes], ...]] = {}


def encode_value(tag: TagInfo, value: Any) -> bytes:
    """Canonical byte encoding for a single element value; refuses what a map refuses."""
    types, admits, encode = _CODEC_OF.get(tag, _UNREGISTERED)
    if type(value) not in types or admits is not None and not admits(value):
        raise CodecError(f"{tag!r} is no registered tag or does not admit {value!r}", tag)
    return encode(value)


# json's spelling of each plain type, by exact type: bool and IntEnum are not int (``repr``
# spells an exact int as ``int.__repr__`` does, and is the cheaper call)
PLAIN_JSON = {str: _quote, int: repr, bool: {True: "true", False: "false"}.__getitem__,
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
    bytes: bytes.hex,
    **{cls: {m: m._name_ for m in cls}.__getitem__ for cls in _ENUMS},
    **{cls: _fields(cls._positions) for cls in _FLAG_MAPS},
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


def _shared(self: "DataElementMap", *args: Any, **kwargs: Any) -> None:
    raise TypeError("a shared DataElementMap is never written; put() to its copy()")


class DataElementMap(dict):
    """Tag -> typed value map with a canonical, injective byte encoding.

    A ``dict``, so reads (``[]``, ``get``, ``in``, iteration) run in C; a missing tag raises
    ``CodecError``. The validating constructor and ``put`` are its only writers: every other
    dict mutator raises. ``copy`` copies entries the map validated already; copies by the
    ``copy`` module and unpickling validate again."""

    __slots__ = ()
    message_json: str | None = None  # kept by a shared map only

    def __init__(self, items: dict[TagInfo, Any] | Iterable[tuple[TagInfo, Any]] | None = None):
        if items:
            dict.__init__(self, items)
            for tag, value in self.items():  # put's admission, with no call to put per item
                types, admits, _encode = _CODEC_OF.get(tag, _UNREGISTERED)
                if type(value) not in types or admits is not None and not admits(value):
                    raise CodecError(
                        f"{tag!r} is no registered tag or does not admit {value!r}", tag)

    def put(self, tag: TagInfo, value: Any) -> "DataElementMap":
        # by exact type, a uint's range and a text's UTF-8: a composite value checked itself
        types, admits, _encode = _CODEC_OF.get(tag, _UNREGISTERED)
        if type(value) not in types or admits is not None and not admits(value):
            raise CodecError(f"{tag!r} is no registered tag or does not admit {value!r}", tag)
        dict.__setitem__(self, tag, value)
        return self

    def __missing__(self, tag: TagInfo) -> Any:
        raise CodecError(f"missing element {tag.name}", tag)

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

    def encode(self, tags: frozenset[TagInfo] | None = None) -> bytes:
        """Canonical encoding of the entries of ``tags``, which the map must hold, or of every
        entry: u16 count, entries ascending by tag code, each as (u16 code, u32 length, value
        bytes). An interned value's bytes are its ``wire``: it is not encoded again."""
        if (order := _ORDERS.get(tags)) is None:
            order = tuple((tag, tag.code.to_bytes(2, "big")) for tag in sorted(
                self if tags is None else tags, key=attrgetter("code")))
            if tags is not None:
                if len(_ORDERS) >= _ORDERS_SIZE:
                    del _ORDERS[next(iter(_ORDERS))]
                _ORDERS[tags] = order
        out = [len(order).to_bytes(2, "big")]
        for tag, code in order:
            if (raw := getattr(value := self[tag], "wire", None)) is None:
                raw = encode_value(tag, value)
            out += code, len(raw).to_bytes(4, "big"), raw
        return b"".join(out)

    def render(self) -> dict[str, Any]:
        """Name-keyed JSON-friendly view (insertion order preserved)."""
        return {tag.name: render_value(value) for tag, value in self.items()}


class SharedElementMap(DataElementMap):
    """The payload of a message built once per process and sent in many runs: ``put``
    raises like every other mutator, and like every map it admits no value that can
    change, so nothing a run does leaks into the next. ``message_json`` is the JSON text
    of the one message that carries the map, kept once that message is emitted; the
    builder, ``channel.shared``, sets it to None. Its encoding of each tag set is kept once
    made. ``copy()`` is a writable ``DataElementMap``."""

    __slots__ = ("message_json", "_wire")
    put = _shared

    def encode(self, tags: frozenset[TagInfo] | None = None) -> bytes:
        try:
            wire = self._wire
        except AttributeError:  # set on the first encode, so building a shared map pays nothing
            wire = self._wire = {}
        if (raw := wire.get(tags)) is None:
            raw = wire[tags] = DataElementMap.encode(self, tags)
        return raw


def build_dol_data(dol: DOL, env: DataElementMap) -> DataElementMap:
    """Project the environment onto a DOL's tags, in DOL order; as ``copy``, no re-validation."""
    out = dict.__new__(DataElementMap)
    for tag in dol.tags:
        if tag not in env:
            raise MissingDolEntry(f"environment lacks {tag.name} requested by DOL", tag)
        dict.__setitem__(out, tag, env[tag])
    return out
