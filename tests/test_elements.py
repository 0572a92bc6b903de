from __future__ import annotations

import ast
import copy
import dataclasses
import enum
import itertools
import json
import pickle
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tapsim import elements
from tapsim.elements import (
    AFL,
    AID_BRANDS,
    AID_MAESTRO,
    AID_MASTERCARD,
    AID_VISA,
    AIP,
    CID,
    CTQ,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    CVMResult,
    CVMResults,
    ActionCodes,
    Amount,
    CodecError,
    DataElementMap,
    DeviceType,
    DOL,
    IAD,
    KINDS,
    MissingDolEntry,
    PLAIN_JSON,
    RENDER,
    TAGS_BY_CODE,
    TAGS_BY_NAME,
    Tag,
    TagInfo,
    TRANSIT_MCCS,
    TTQ,
    TVR,
    Track2EquivalentData,
    brand_of,
    build_dol_data,
    encode_value,
    luhn_valid,
    render_value,
    to_json,
    validate_pan,
)


# --- registry ---------------------------------------------------------------

def test_every_kind_is_used_by_a_registered_tag():
    assert set(KINDS) == {info.kind for info in TAGS_BY_NAME.values()}


def test_registry_is_a_bijection():
    assert len(TAGS_BY_NAME) == len(TAGS_BY_CODE)
    for name, info in TAGS_BY_NAME.items():
        assert TAGS_BY_CODE[info.code] is info
        assert info.name == name


def test_unknown_tags_rejected():
    with pytest.raises(AttributeError):
        Tag.NOT_A_TAG
    with pytest.raises(AttributeError, match="unknown tag name 'NOPE'"):
        Tag.NOPE
    with pytest.raises(CodecError):
        Tag.by_name("nope")
    with pytest.raises(CodecError):
        Tag.by_name("NOPE")


def test_every_registered_tag_is_an_attribute_of_the_namespace():
    for name, info in TAGS_BY_NAME.items():
        assert getattr(Tag, name) is info
        assert vars(Tag)[name] is info  # a plain attribute, not a __getattr__ hit
        assert Tag.by_name(name) is info


def test_copied_and_unpickled_tags_are_the_registered_ones():
    # tags hash by identity, so a copy that made a new tag would be a new key
    dol = DOL((Tag.UN, Tag.AMOUNT))
    env = DataElementMap({Tag.UN: 7, Tag.AMOUNT: Amount(1, "EUR")})
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert clone(Tag.UN) is Tag.UN
        assert build_dol_data(clone(dol), clone(env)) == env


def test_every_class_is_bound_only_under_its_own_name():
    # an import-time loop variable left bound would name its last class twice
    own = [(name, value) for name, value in vars(elements).items()
           if isinstance(value, type) and value.__module__ == elements.__name__]
    assert own and all(name == value.__name__ for name, value in own)


# --- luhn / pan / brand -----------------------------------------------------

def test_luhn_frozen_vectors():
    # digit sum with doubling: 4111111111111111 -> 30, ...112 -> 31
    assert luhn_valid("4111111111111111")
    assert not luhn_valid("4111111111111112")
    assert luhn_valid("0000000000000000")
    assert luhn_valid("5555555555554444")
    assert luhn_valid("6761000000000006")
    assert not luhn_valid("411111111111111x")


def test_validate_pan_bounds():
    with pytest.raises(CodecError):
        validate_pan("41111111111")  # 11 digits
    with pytest.raises(CodecError):
        validate_pan("4111111111111112")
    assert validate_pan("4111111111111111") == "4111111111111111"


def test_brands():
    assert brand_of("4111111111111111") == "visa"
    assert brand_of("5555555555554444") == "mastercard"
    assert brand_of("6761000000000006") == "maestro"
    with pytest.raises(CodecError):
        brand_of("371449635398431")  # amex not modeled


def test_aid_tables_line_up():
    assert AID_BRANDS[AID_VISA] == "visa"
    assert AID_BRANDS[AID_MASTERCARD] == "mastercard"
    assert AID_BRANDS[AID_MAESTRO] == "maestro"
    assert len(AID_VISA) == len(AID_MASTERCARD) == len(AID_MAESTRO) == 7


def test_transit_mccs():
    assert "4111" in TRANSIT_MCCS
    assert "5999" not in TRANSIT_MCCS


# --- flags ------------------------------------------------------------------

def _bit_loop(flags) -> int:
    """A flag map's byte, bit by bit from its ``_positions``."""
    value = 0
    for name, pos in flags._positions.items():
        if getattr(flags, name):
            value |= 1 << pos
    return value


def test_flag_roundtrip_all_values():
    # every assignment of every flag map: its cached byte is the bit loop's, at the
    # positions codec.json pins
    with resources.files("tapsim.fixtures").joinpath("codec.json").open("rb") as fh:
        pinned = json.load(fh)["flag_fields"]
    for cls, flag_set in ((AIP, "aip"), (TTQ, "ttq"), (CTQ, "ctq"), (TVR, "tvr")):
        names = pinned[flag_set]
        for n in range(len(names) + 1):
            for subset in itertools.combinations(names, n):
                obj = cls(**{name: name in subset for name in names})
                assert obj.wire == bytes([_bit_loop(obj)])
                assert obj.wire[0] == sum(1 << names.index(name)
                                          for name in subset)
                assert obj.wire is obj.wire  # computed once per instance


def test_flag_replace():
    t = TTQ(cvm_required=True)
    t.wire  # a cached byte does not follow a replace
    t2 = t.replace(cvm_required=False, online_pin_supported=True)
    assert not t2.cvm_required and t2.online_pin_supported
    assert t.cvm_required  # original untouched
    assert t2.wire == bytes([_bit_loop(t2)]) != t.wire


# --- the enums and flag maps are built from codec.json --------------------------

with resources.files("tapsim.fixtures").joinpath("codec.json").open("rb") as _fh:
    CODEC_JSON = json.load(_fh)
ENUM_KEYS = {CID: "cid", CVMMethod: "cvm_method", CVMCondition: "cvm_condition",
             CVMResult: "cvm_result", DeviceType: "device_type"}
FLAG_KEYS = {AIP: "aip", TTQ: "ttq", CTQ: "ctq", TVR: "tvr"}


def test_codec_json_is_read_in_full():
    # a section elements.py never reads is a second copy of the vocabulary that nothing checks
    tree = ast.parse(Path(elements.__file__).read_text(encoding="utf-8"))
    read = {node.slice.value for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "_CODEC"
            and isinstance(node.slice, ast.Constant)}
    assert read == CODEC_JSON.keys() - {"comment"}


@pytest.mark.parametrize("cls", ENUM_KEYS, ids=lambda cls: cls.__name__)
def test_enum_members_are_codec_json_names_numbered_from_zero(cls):
    assert [(m._name_, m.value) for m in cls] == [
        (name, i) for i, name in enumerate(CODEC_JSON["enums"][ENUM_KEYS[cls]])]


@pytest.mark.parametrize("cls", FLAG_KEYS, ids=lambda cls: cls.__name__)
def test_flag_map_fields_are_codec_json_bits_in_order(cls):
    bits = CODEC_JSON["flag_fields"][FLAG_KEYS[cls]]
    assert [f.name for f in dataclasses.fields(cls)] == list(cls._positions) == bits
    assert list(cls._positions.values()) == list(range(len(bits)))


def test_only_emv_mode_is_set_by_default():
    # every production construction names emv_mode_supported, so no digest pins the defaults
    set_bits = {cls: [f.name for f in dataclasses.fields(cls) if getattr(cls(), f.name)]
                for cls in FLAG_KEYS}
    assert set_bits == {AIP: ["emv_mode_supported"], TTQ: ["emv_mode_supported"],
                        CTQ: [], TVR: []}


@pytest.mark.parametrize("cls", [*ENUM_KEYS, *FLAG_KEYS], ids=lambda cls: cls.__name__)
def test_built_classes_live_in_elements_and_survive_pickle_and_deepcopy(cls):
    assert cls.__module__ == "tapsim.elements" and getattr(elements, cls.__qualname__) is cls
    value = cls(1) if cls in ENUM_KEYS else cls()
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == repr(value)
        assert to_json(clone) == to_json(value)


# --- value validation -------------------------------------------------------

def test_amount_validation():
    a = Amount(12000, "EUR")
    assert to_json(a) == '{"currency": "EUR", "value": 12000}'
    with pytest.raises(CodecError):
        Amount(-1, "EUR")
    with pytest.raises(CodecError):
        Amount(100, "eur")
    with pytest.raises(CodecError):
        Amount(100, "EURO")


def test_iad_validation():
    IAD(True, "phone")
    with pytest.raises(CodecError):
        IAD(False, "toaster")


def test_track2_validation():
    Track2EquivalentData("4111111111111111", "2812", "201", "00000123")
    with pytest.raises(CodecError):
        Track2EquivalentData("4111111111111112", "2812", "201", "x")
    with pytest.raises(CodecError):
        Track2EquivalentData("4111111111111111", "12/28", "201", "x")


# Values the wire cannot carry: each is refused with a CodecError where it is built (a
# composite value's constructor, a map's admission of a plain one), not later by an encoder
# with a UnicodeEncodeError, ValueError or TypeError.
MALFORMED = {
    "lone_surrogate_text": lambda: DataElementMap({Tag.CARDHOLDER_NAME: "\ud800"}),
    "lone_surrogate_text_put": lambda: DataElementMap().put(Tag.CARDHOLDER_NAME, "J \udfff"),
    "non_ascii_currency": lambda: Amount(5, "ÉUR"),
    "afl_300_records": lambda: AFL((1,) * 300),
    "dol_300_tags": lambda: DOL((Tag.UN,) * 300),
    "cvm_list_300_entries": lambda: CVMList(
        (CVMEntry(CVMMethod.NoCVM, CVMCondition.Always),) * 300),
    "bytes_list_300_items": lambda: DataElementMap({Tag.AID_LIST: (AID_VISA,) * 300}),
    "iad_str_filler": lambda: IAD(False, "plastic", "filler"),
    "iad_filler_too_long": lambda: IAD(False, "plastic", bytes(0x10000)),
    "track2_lone_surrogate": lambda: Track2EquivalentData(
        "4111111111111111", "2812", "201", "\ud800"),
    "cvm_results_out_of_range": lambda: DataElementMap(
        {Tag.CVM_RESULTS: CVMResults(300)}).encode(),
    "cvm_results_plain_ints": lambda: CVMResults(1, 0, 1),
    "cvm_entry_negative": lambda: CVMList((CVMEntry(-1, 0),)),
    "cvm_list_of_pairs": lambda: CVMList(((CVMMethod.NoCVM, CVMCondition.Always),)),
    "cvm_entry_plain_ints": lambda: CVMEntry(0, 0),
    "dol_unregistered_name": lambda: DOL(("x",)),
    "dol_unhashable_item": lambda: DOL(([],)),
    "dol_lookalike_tag": lambda: DOL((TagInfo("UN", Tag.UN.code, Tag.UN.kind),)),
    # a flag bit is one bit on the wire: 1, CID.TC and "yes" would sign as True
    "aip_int_bit": lambda: AIP(sda_supported=1),
    "aip_enum_bit": lambda: AIP(dda_supported=CID.TC),
    "aip_text_bit": lambda: AIP(dda_supported="yes"),
    "tvr_in_action_codes_int_bit": lambda: ActionCodes(denial=TVR(2)),
    # an action code mask is written as a TVR's byte, and the IAD's CDCVM field as one byte
    "action_codes_int_mask": lambda: ActionCodes(denial=1),
    "action_codes_aip_mask": lambda: ActionCodes(online=AIP()),
    "iad_cdcvm_300": lambda: IAD(300),
    "iad_cdcvm_negative": lambda: IAD(-1),
    # a number the wire writes as an int: 0.5 would encode as 0, and -0.0 equals 0.0
    "amount_float": lambda: Amount(0.5, "EUR"),
    # and an exact int: True would be sent as 1 yet logged as true
    "amount_true": lambda: Amount(True, "EUR"),
    "amount_false": lambda: Amount(False, "EUR"),
    "amount_enum": lambda: Amount(CID.ARQC, "EUR"),
    "afl_true_record": lambda: AFL((True,)),
    "afl_false_record": lambda: AFL((1, False)),
    "iad_float_cdcvm": lambda: IAD(-0.0),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED)
def test_malformed_values_are_refused_where_built(build):
    with pytest.raises(CodecError):
        build()


# --- per-kind encoding ------------------------------------------------------

SAMPLE_VALUES = {
    "AMOUNT": Amount(12000, "EUR"),
    "UN": 0xDEADBEEF,
    "TTQ": TTQ(online_pin_supported=True, cvm_required=True),
    "CTQ": CTQ(online_pin_required=True),
    "AIP": AIP(cda_supported=True, cardholder_verification_supported=True),
    "ATC": 42,
    "IAD": IAD(True, "phone", b"\x01\x02"),
    "CID": CID.ARQC,
    "AC": b"\x00" * 16,
    "SDAD": b"\xff" * 64,
    "AFL": AFL((1, 2, 3)),
    "PDOL": DOL((Tag.TTQ, Tag.AMOUNT, Tag.UN)),
    "CDOL1": DOL((Tag.AMOUNT, Tag.UN, Tag.CVM_RESULTS)),
    "CVM_LIST": CVMList((CVMEntry(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit),
                         CVMEntry(CVMMethod.NoCVM, CVMCondition.Always))),
    "CVM_RESULTS": CVMResults(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit, CVMResult.Performed),
    "IAC": ActionCodes(denial=TVR(cda_failed=True)),
    "CA_PK_INDEX": 7,
    "ISSUER_CERT": b"issuer-cert-bytes",
    "CARD_CERT": b"card-cert-bytes",
    "STATIC_SIGNATURE": b"\x05" + b"\x11" * 64,
    "PAN": "4111111111111111",
    "EXPIRY": "2812",
    "TRACK1": "B4111111111111111^DOE/J^2812",
    "TRACK2": Track2EquivalentData("4111111111111111", "2812", "201", "0000123"),
    "MCC": "5999",
    "MERCHANT_ID": "M-000001",
    "TERMINAL_ID": "T-000001",
    "ENC_PIN": b"\x99" * 32,
    "PIN_GUESS": "1234",
    "PIN_TRIES_REMAINING": 3,
    "MAGIC": b"\x6a\x6f\x75\x72",
    "CVC3": b"\x12\x34\x56",
    "N_UN_DIGITS": 3,
    "AID": AID_VISA,
    "AID_LIST": (AID_VISA, AID_MASTERCARD),
    "UN_CARD": 12345,
    "TX_TYPE": "purchase",
    "CDA_REQUESTED": 1,
    "RECORD_NUMBER": 1,
    "DECISION": "approve_online",
    "REASON": "ok",
    "KERNEL_ID": 3,
    "SERVICE_CODE": "201",
    "CSC": "123",
    "CARDHOLDER_NAME": "J DOE",
}


def test_sample_covers_every_tag():
    assert set(SAMPLE_VALUES) == set(TAGS_BY_NAME)


@pytest.mark.parametrize("name", sorted(SAMPLE_VALUES))
def test_value_roundtrip(name):
    # a value comes back out of a map unchanged, the map's frame carries
    # exactly its canonical bytes, and an equal copy encodes the same
    tag = Tag.by_name(name)
    value = SAMPLE_VALUES[name]
    raw = encode_value(tag, value)
    m = DataElementMap({tag: value})
    assert m[tag] == value and m.copy()[tag] == value
    assert m.encode() == (b"\x00\x01" + tag.code.to_bytes(2, "big")
                          + len(raw).to_bytes(4, "big") + raw)
    assert encode_value(tag, copy.deepcopy(value)) == raw


def _declared_length(kind: str, raw: bytes) -> int:
    """The length an encoding announces through its own leading bytes."""
    fixed = {"cid": 1, "amount": 11, "cvm_results": 3, "action_codes": 3}
    if kind.startswith("uint"):
        return int(kind[4:])
    if kind.startswith("flags:") or kind in fixed:
        return fixed.get(kind, 1)
    if kind == "afl":
        return 1 + raw[0]
    if kind in ("dol", "cvm_list"):
        return 1 + 2 * raw[0]
    # runs of length-prefixed chunks after a fixed header
    off, chunks = {"bytes_list": (1, raw[0]), "iad": (2, 1), "track2": (0, 4)}[kind]
    for _ in range(chunks):
        off += 2 + int.from_bytes(raw[off:off + 2], "big")
    return off


@pytest.mark.parametrize("name", sorted(SAMPLE_VALUES))
def test_trailing_bytes_rejected(name):
    # every kind but free-length bytes and text announces its own length,
    # so a trailing byte never passes for part of the value
    tag = Tag.by_name(name)
    if tag.kind in ("bytes", "text"):
        return
    raw = encode_value(tag, SAMPLE_VALUES[name])
    assert _declared_length(tag.kind, raw) == len(raw)
    assert _declared_length(tag.kind, raw + b"\x00") != len(raw) + 1


def test_type_confusion_rejected():
    with pytest.raises(CodecError):
        encode_value(Tag.AMOUNT, 12000)
    with pytest.raises(CodecError):
        encode_value(Tag.TTQ, CTQ())
    with pytest.raises(CodecError):
        encode_value(Tag.ATC, True)
    with pytest.raises(CodecError):
        encode_value(Tag.ATC, -1)
    with pytest.raises(CodecError):
        encode_value(Tag.ATC, 1 << 16)


@pytest.mark.parametrize("name", sorted(SAMPLE_VALUES))
def test_every_tag_refuses_the_values_of_other_kinds(name):
    tag = Tag.by_name(name)
    integer = tag.kind.startswith("uint")
    samples: dict[str, object] = {}   # one value per kind
    for other in sorted(SAMPLE_VALUES):
        samples.setdefault(Tag.by_name(other).kind, SAMPLE_VALUES[other])
    # every uint kind takes an int; an IntEnum such as a CID is not one
    foreign = [value for kind, value in samples.items() if kind != tag.kind
               and not (integer and kind.startswith("uint"))]
    if integer:
        foreign.append(True)
    for value in foreign:
        with pytest.raises(CodecError):
            encode_value(tag, value)


# --- map canonical encoding -------------------------------------------------

def test_empty_map_encoding():
    assert DataElementMap().encode() == b"\x00\x00"


def test_map_roundtrip_full():
    items = {Tag.by_name(n): v for n, v in SAMPLE_VALUES.items()}
    m = DataElementMap(items)
    assert {tag: m[tag] for tag in m} == items
    backwards = DataElementMap(dict(reversed(list(items.items()))))
    assert backwards.encode() == m.encode() == m.copy().encode()


def test_map_order_independent():
    m1 = DataElementMap()
    m1.put(Tag.AMOUNT, Amount(100, "EUR"))
    m1.put(Tag.UN, 5)
    m2 = DataElementMap()
    m2.put(Tag.UN, 5)
    m2.put(Tag.AMOUNT, Amount(100, "EUR"))
    assert m1.encode() == m2.encode()


def test_map_frame_is_canonical():
    # count, then (code, length, value) entries in ascending code order,
    # each value exactly its canonical bytes, and nothing after the last
    m = DataElementMap({Tag.by_name(n): v for n, v in SAMPLE_VALUES.items()})
    raw = m.encode()
    assert int.from_bytes(raw[:2], "big") == len(m)
    off, codes = 2, []
    while off < len(raw):
        code = int.from_bytes(raw[off:off + 2], "big")
        length = int.from_bytes(raw[off + 2:off + 6], "big")
        tag = TAGS_BY_CODE[code]
        assert raw[off + 6:off + 6 + length] == encode_value(tag, m[tag])
        codes.append(code)
        off += 6 + length
    assert off == len(raw)
    assert codes == sorted(TAGS_BY_CODE)


def test_a_map_reprs_each_element_by_name_and_rendered_value():
    m = DataElementMap({Tag.UN: 7, Tag.AID: AID_VISA, Tag.AMOUNT: Amount(1500, "EUR")})
    assert repr(m) == ("DataElementMap(UN=7, AID='a0000000031010', "
                       "AMOUNT={'value': 1500, 'currency': 'EUR'})")


def test_map_missing_key_raises():
    for m in (DataElementMap(), DataElementMap({Tag.UN: 5})):
        with pytest.raises(CodecError, match="missing element AMOUNT"):
            m[Tag.AMOUNT]
        assert m.get(Tag.AMOUNT) is None and Tag.AMOUNT not in m


_MUTATORS = {
    "update": lambda m: m.update({Tag.ATC: 1}),
    "update_kwargs": lambda m: m.update(x=1),
    "setdefault": lambda m: m.setdefault(Tag.ATC, 1),
    "pop": lambda m: m.pop(Tag.UN),
    "popitem": lambda m: m.popitem(),
    "clear": lambda m: m.clear(),
    "fromkeys": lambda m: type(m).fromkeys([Tag.UN], 1),
}


def _ior(m):
    m |= {Tag.ATC: 1}


def _del(m):
    del m[Tag.UN]


def _store(m):
    m[Tag.UN] = "not an int"


@pytest.mark.parametrize("mutate", [*_MUTATORS.values(), _ior, _del, _store],
                         ids=[*_MUTATORS, "__ior__", "__delitem__", "__setitem__"])
def test_every_inherited_mutator_raises(mutate):
    m = DataElementMap({Tag.UN: 5})
    with pytest.raises(TypeError):
        mutate(m)
    assert m == DataElementMap({Tag.UN: 5}) and m.encode() == DataElementMap({Tag.UN: 5}).encode()


def test_map_copies_and_pickles_round_trip():
    m = DataElementMap({Tag.by_name(n): v for n, v in SAMPLE_VALUES.items()})
    for clone in (m.copy(), copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(clone) is DataElementMap and clone is not m
        assert clone == m and clone.encode() == m.encode() and list(clone) == list(m)
        clone.put(Tag.UN, 1)
        assert m[Tag.UN] == SAMPLE_VALUES["UN"]  # the original does not follow


class _Smuggled:
    """Pickles as a DataElementMap holding a value no map accepts."""

    def __reduce__(self):
        return DataElementMap, ({Tag.UN: "not an int"},)


def test_unpickling_validates():
    with pytest.raises(CodecError):
        pickle.loads(pickle.dumps(_Smuggled()))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**32 - 1))
def test_map_equality_agrees_with_its_encoding(seed_a, seed_b):
    a, b = _random_map(random.Random(seed_a)), _random_map(random.Random(seed_b))
    for x, y in ((a, b), (a, a.copy()), (b, a)):
        assert (x == y) == (x.encode() == y.encode()) != (x != y)


def test_map_merge_and_copy_isolate():
    m = DataElementMap({Tag.UN: 5})
    n = m.copy().put(Tag.ATC, 9)
    assert Tag.ATC in n and Tag.ATC not in m
    c = m.copy()
    c.put(Tag.UN, 6)
    assert m[Tag.UN] == 5


def _random_map(rng: random.Random) -> DataElementMap:
    m = DataElementMap()
    picks = rng.sample(sorted(SAMPLE_VALUES), rng.randint(0, 12))
    for name in picks:
        tag = Tag.by_name(name)
        if tag.kind == "uint4":
            m.put(tag, rng.randrange(1 << 32))
        elif tag.kind == "uint2":
            m.put(tag, rng.randrange(1 << 16))
        elif tag.kind == "uint1":
            m.put(tag, rng.randrange(1 << 8))
        elif tag.kind == "bytes":
            m.put(tag, rng.randbytes(rng.randint(0, 24)))
        elif tag.kind == "text":
            m.put(tag, "".join(rng.choice("abc123 ") for _ in range(rng.randint(0, 10))))
        elif tag.kind == "amount":
            m.put(tag, Amount(rng.randrange(10**8), rng.choice(["EUR", "USD", "GBP"])))
        else:
            m.put(tag, SAMPLE_VALUES[name])
    return m


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_encoding_a_tag_subset_equals_encoding_a_map_of_it(seed, data):
    # encode(tags) writes the held entries of tags alone, in code order; a tag the map
    # lacks raises as a read of it does
    m = _random_map(random.Random(seed))
    tags = frozenset(data.draw(st.lists(st.sampled_from(sorted(m, key=repr)), unique=True))
                     if m else ())
    for _ in range(2):  # the second time from the kept order and bytes
        assert m.encode(tags) == DataElementMap({t: m[t] for t in tags}).encode()
    assert m.encode(frozenset(m)) == m.encode()
    absent = data.draw(st.sampled_from(sorted(TAGS_BY_NAME.values(), key=repr)))
    if absent not in m:
        with pytest.raises(CodecError, match=f"missing element {absent.name}$"):
            m.encode(tags | {absent})


def test_encoding_injective_randomized():
    rng = random.Random(20260816)
    seen: dict[bytes, dict] = {}
    for _ in range(10_000):
        m = _random_map(rng)
        raw = m.encode()
        # equal bytes only ever come from equal contents
        assert seen.setdefault(raw, m.render()) == m.render()
    # plenty of distinct maps were generated, so injectivity was exercised
    assert len(seen) > 8000


@settings(max_examples=200)
@given(st.dictionaries(
    st.sampled_from(["UN", "ATC", "PIN_TRIES_REMAINING"]),
    st.integers(min_value=0, max_value=255),
    max_size=3,
))
def test_small_int_maps_roundtrip(d):
    items = {Tag.by_name(k): v for k, v in d.items()}
    m = DataElementMap(items)
    assert {tag: m[tag] for tag in m} == items
    assert DataElementMap(dict(reversed(list(items.items())))).encode() == m.encode()


def test_distinct_values_distinct_bytes():
    # flipping any single AIP flag must change the canonical bytes
    base = AIP()
    base_raw = encode_value(Tag.AIP, base)
    for f in ("sda_supported", "dda_supported", "cda_supported",
              "cardholder_verification_supported", "on_device_cvm_supported",
              "emv_mode_supported"):
        flipped = base.replace(**{f: not getattr(base, f)})
        assert encode_value(Tag.AIP, flipped) != base_raw


def test_empty_cvm_list_distinct_from_absent():
    with_empty = DataElementMap({Tag.CVM_LIST: CVMList(())})
    without = DataElementMap()
    assert with_empty.encode() != without.encode()


# --- DOL projection ----------------------------------------------------------

def test_build_dol_data_projects_in_order():
    env = DataElementMap({Tag.AMOUNT: Amount(12000, "EUR"), Tag.UN: 7, Tag.TTQ: TTQ()})
    out = build_dol_data(DOL((Tag.TTQ, Tag.AMOUNT)), env)
    assert out.tags() == frozenset({Tag.TTQ, Tag.AMOUNT})
    assert Tag.UN not in out


def test_build_dol_data_missing_entry():
    env = DataElementMap({Tag.AMOUNT: Amount(12000, "EUR")})
    with pytest.raises(MissingDolEntry):
        build_dol_data(DOL((Tag.UN,)), env)


def test_render_is_json_friendly():
    import json
    m = DataElementMap({Tag.by_name(n): v for n, v in SAMPLE_VALUES.items()})
    json.dumps(m.render())  # must not raise


# --- JSON writers ------------------------------------------------------------

# what IAD's CDCVM field may hold: a bool, or an int of another kind, which render_value
# passes on and json writes as a number; a flag map's bits are bools only
_CDCVM_FIELD = st.booleans() | st.integers(0, 2) | st.sampled_from(CID)
_TVRS = st.builds(TVR, st.booleans())
_CVM_ENTRIES = st.builds(CVMEntry, st.sampled_from(CVMMethod), st.sampled_from(CVMCondition))
# every type with a writer -> values of it, edge cases included
WRITER_VALUES = {
    str: st.text(), int: st.integers(), bool: st.booleans(), type(None): st.none(),
    bytes: st.binary(max_size=8),
    **{cls: st.sampled_from(cls) for cls in (CID, CVMMethod, CVMCondition, CVMResult, DeviceType)},
    **{cls: st.builds(cls, **{name: st.booleans() for name in cls._positions})
       for cls in (AIP, TTQ, CTQ, TVR)},
    Amount: st.builds(Amount, st.integers(0, 10**12), st.sampled_from(["EUR", "USD"])),
    IAD: st.builds(IAD, _CDCVM_FIELD, st.sampled_from(sorted(DeviceType.__members__)),
                   st.binary(max_size=4)),
    AFL: st.builds(AFL, st.lists(st.integers(0, 255), max_size=4).map(tuple)),
    DOL: st.builds(DOL, st.lists(st.sampled_from(sorted(TAGS_BY_CODE.values(), key=repr)),
                                 max_size=4).map(tuple)),
    CVMEntry: _CVM_ENTRIES,
    CVMList: st.builds(CVMList, st.lists(_CVM_ENTRIES, max_size=3).map(tuple)),
    CVMResults: st.builds(CVMResults, st.sampled_from(CVMMethod), st.sampled_from(CVMCondition),
                          st.sampled_from(CVMResult)),
    ActionCodes: st.builds(ActionCodes, _TVRS, _TVRS, _TVRS),
    Track2EquivalentData: st.builds(
        Track2EquivalentData, st.sampled_from(["4111111111111111", "5555555555554444"]),
        st.from_regex(r"\A[0-9]{4}\Z"), st.text(max_size=4), st.text(max_size=8)),
}
ELEMENT_VALUES = st.one_of(*WRITER_VALUES.values())


def test_every_writer_has_values():
    assert set(WRITER_VALUES) == set(RENDER) | set(PLAIN_JSON)


def test_a_cvm_lists_text_is_the_list_of_its_entries_texts():
    entries = (CVMEntry(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit),
               CVMEntry(CVMMethod.NoCVM, CVMCondition.Always))
    assert to_json(entries[1]) == entries[1].json == '["NoCVM", "Always"]'
    assert CVMList(entries).json == f"[{entries[0].json}, {entries[1].json}]"


def test_every_enum_and_flag_map_has_a_render_entry():
    # an IntEnum missing from RENDER would be written as a bare int, and a flag map
    # would reach the encoder unrendered
    defined = {cls for cls in vars(elements).values() if isinstance(cls, type)
               and cls.__module__ == elements.__name__
               and issubclass(cls, (enum.IntEnum, elements._Flags)) and cls is not elements._Flags}
    assert {CID, DeviceType, AIP, TVR} <= defined
    assert not [cls.__name__ for cls in defined if cls not in RENDER]


@settings(max_examples=500, deadline=None)
@given(ELEMENT_VALUES)
@example(IAD(cdcvm_performed=0, filler=b"\x01\xab"))
@example(CID.ARQC)
def test_writers_agree_with_json_dumps_of_render_value(value):
    assert to_json(value) == json.dumps(render_value(value), sort_keys=True)


# --- interning: each distinct value is built once per process ---------------------

INTERNED_TYPES = (AIP, TTQ, CTQ, TVR, Amount, IAD, CVMEntry, CVMList, CVMResults, ActionCodes,
                  Track2EquivalentData)
# arguments of each interned type, exact types mixed: equal arguments of different types
# (1, True and CID.ARQC; 0, False and CVMMethod.NoCVM) must not share an instance
_NUMBERS = st.sampled_from([0, 1, 2, True, False, CID.ARQC, CVMMethod.NoCVM])
_CONSTRUCTIONS = st.one_of(
    st.tuples(st.just(Amount), st.tuples(st.sampled_from([0, 1, 2]),
                                         st.sampled_from(["EUR", "USD"])), st.just({})),
    st.tuples(st.just(IAD), st.tuples(_NUMBERS), st.fixed_dictionaries(
        {}, optional={"device_type": st.sampled_from(["plastic", "phone"]),
                      "filler": st.binary(max_size=2)})),
    st.tuples(st.just(TVR), st.just(()), st.fixed_dictionaries({"cda_failed": st.booleans()})),
    st.tuples(st.just(CVMResults), st.tuples(st.sampled_from(CVMMethod),
                                             st.sampled_from(CVMCondition)), st.just({})),
    st.tuples(st.just(ActionCodes), st.tuples(*[st.builds(TVR, st.booleans())] * 2),
              st.just({})),
)


def test_the_interned_types_are_the_immutable_value_types():
    # AFL and DOL hold tuples, whose items' types an equal key would hide; a CVMList's items
    # are exactly CVMEntry
    assert {cls for cls in vars(elements).values()
            if isinstance(cls, elements._Interned) and cls is not elements._Flags} == set(
        INTERNED_TYPES)


def test_two_worlds_share_their_values():
    from tapsim.runner import build_env
    first, second = build_env(seed=0), build_env(seed=1)
    assert first.cards["mastercard_cda"].profile.aip is second.cards["mastercard_cda"].profile.aip
    assert (first.terminals["standard_pos"].config.tac
            is second.terminals["standard_pos"].config.tac)


@pytest.mark.parametrize("build_a, build_b", [
    (lambda: IAD(1), lambda: IAD(True)),
    (lambda: IAD(0), lambda: IAD(False)),
], ids=["iad_1_true", "iad_0_false"])
def test_equal_arguments_of_other_types_are_two_values_with_two_texts(build_a, build_b):
    a, b = build_a(), build_b()
    assert a == b and hash(a) == hash(b)
    assert a is build_a() and b is build_b() and a is not b
    assert to_json(a) != to_json(b)


def test_interning_refuses_what_the_constructor_refuses():
    entry = CVMEntry(CVMMethod.NoCVM, CVMCondition.Always)
    assert entry is CVMEntry(CVMMethod.NoCVM, CVMCondition.Always) == CVMEntry(
        CVMMethod.NoCVM, condition=CVMCondition.Always)
    kept = dict(elements._INTERNED)
    for build in (lambda: CVMEntry(0, 0), lambda: CVMEntry(CVMMethod.NoCVM, 0),
                  lambda: Amount([5], "EUR"), lambda: IAD(False, "plastic", bytearray(2)),
                  lambda: TTQ(cvm_required=[True]), lambda: AIP(sda_supported=1)):
        with pytest.raises(CodecError):
            build()
    assert elements._INTERNED == kept  # a construction that raises keeps nothing


def test_copies_and_unpickles_are_equal_and_not_interned():
    value = IAD(True, "phone", b"\x01")
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and clone is not value
        assert all(kept is not clone for kept in elements._INTERNED.values())
        assert clone.json == value.json == to_json(clone)


def test_interned_values_keep_their_wire_bytes_within_the_bound(monkeypatch):
    # an interned value carries its bytes, beside its text, from the table that built it: past
    # the bound the oldest value leaves the table and keeps its bytes, so a map that still holds
    # it does not encode it again; a plain value is encoded, and so admitted, every time
    one, true, held = IAD(1), IAD(True), Amount(0, "XWB")  # a currency no other test uses
    plain = DataElementMap({Tag.UN: 7, Tag.MERCHANT_ID: "M-1", Tag.AC: b"\x01"})
    m = DataElementMap({Tag.IAD: one, Tag.AMOUNT: held})
    encoded = m.encode()
    assert one.wire == encode_value(Tag.IAD, one) and held.wire == encode_value(Tag.AMOUNT, held)
    assert plain.encode() == plain.encode()
    assert not any(hasattr(value, "wire") for value in plain.values())
    # equal values encode alike, each carrying its own bytes, and so does a copy
    assert DataElementMap({Tag.IAD: true}).encode() == DataElementMap({Tag.IAD: one}).encode()
    assert true.wire == one.wire and true is not one
    for clone in (copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert clone is not one and clone.wire == one.wire
        assert DataElementMap({Tag.IAD: clone, Tag.AMOUNT: held}).encode() == encoded
    for value in range(1, elements._INTERN_SIZE + 100):
        DataElementMap({Tag.AMOUNT: Amount(value, "XWB"), Tag.IAD: one}).encode()
    assert len(elements._INTERNED) == elements._INTERN_SIZE
    assert all(kept is not held and kept is not one for kept in elements._INTERNED.values())
    again = []
    monkeypatch.setattr(elements, "encode_value", lambda tag, value: again.append(value))
    for _ in range(2):  # evicted, and still not encoded again
        assert m.encode() == encoded
    assert again == []
    assert all(value.wire == encode_value(Tag.AMOUNT, value)
               for value in elements._INTERNED.values() if type(value) is Amount)


@settings(max_examples=300, deadline=None)
@given(_CONSTRUCTIONS)
def test_an_interned_construction_is_what_its_constructor_builds(construction):
    cls, args, kwargs = construction
    value = cls(*args, **kwargs)
    built = type.__call__(cls, *args, **kwargs)  # past the table
    assert value is cls(*args, **kwargs) and built is not value
    assert type(value) is cls and value == built
    assert [type(getattr(value, f.name)) for f in dataclasses.fields(cls)] == [
        type(getattr(built, f.name)) for f in dataclasses.fields(cls)]
    assert to_json(value) == to_json(built)
    assert len(elements._INTERNED) <= elements._INTERN_SIZE
