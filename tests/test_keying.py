"""Worlds built on demand: a card, a terminal and the world's CA -> issuer
keys are made on first lookup, and a card derives its Ed25519 key,
certificate and static signature the first time it needs them. The bytes
are those an eager personalization would have produced."""

import dataclasses
import gc
import itertools
import random

import pytest

from tapsim import attacks, channel, crypto, elements, runner
from tapsim import card as card_module
from tapsim.attacks import CATALOG, render_report_md, run_attack
from tapsim.channel import Message, NfcChannel, TransactionTrace
from tapsim.crypto import (
    generate_signing_key,
    issue_certificate,
    public_bytes,
    sign_static_records,
)
from tapsim.elements import (CTQ, Amount, CVMCondition, CVMEntry, CVMList, CVMMethod,
                             DataElementMap, Tag)
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import (
    AMOUNT_HIGH,
    AMOUNT_LOW,
    CA_INDEX,
    CARD_FIXTURES,
    TERMINAL_FIXTURES,
    build_env,
    run_genuine,
    run_genuine_matrix,
)

ODA_CARDS = [name for name, fx in CARD_FIXTURES.items() if fx.get("oda")]


def _read_record(card, number: int) -> DataElementMap:
    return card.exchange(Message("READ_RECORD", DataElementMap({
        Tag.RECORD_NUMBER: number}))).payload


def _eager_record3(seed: int, name: str, profile) -> DataElementMap:
    """Record 3 as an eager personalization builds it: replay build_env's
    draws up to the card's key seed, then key and sign at once."""
    rng = random.Random(seed)
    ca_key = generate_signing_key(rng.randbytes(32))
    issuer_key = generate_signing_key(rng.randbytes(32))
    issuer_cert = issue_certificate(ca_key, "issuer-1", public_bytes(issuer_key))
    for fixture in CARD_FIXTURES:
        rng.randbytes(32)  # master key
        rng.randbytes(32)  # CVC3 key
        signing_seed = rng.randbytes(32)
        if fixture == name:
            break
    signing_key = generate_signing_key(signing_seed)
    card_cert = issue_certificate(issuer_key, profile.pan, public_bytes(signing_key))
    static = DataElementMap({
        Tag.PAN: profile.pan, Tag.EXPIRY: profile.expiry, Tag.AIP: profile.aip,
        Tag.CVM_LIST: profile.cvm_list, Tag.IAC: profile.iac,
        Tag.CA_PK_INDEX: CA_INDEX,
    })
    return DataElementMap({
        Tag.ISSUER_CERT: issuer_cert,
        Tag.CARD_CERT: card_cert,
        Tag.STATIC_SIGNATURE: sign_static_records(issuer_key, static),
        Tag.RECORD_NUMBER: 3,
    })


def test_every_oda_fixture_is_covered():
    assert ODA_CARDS == ["visa_plastic_fdda", "mastercard_cda",
                         "google_like_phone", "samsung_like_phone"]


@pytest.mark.parametrize("name", ODA_CARDS)
@pytest.mark.parametrize("seed", range(5))
def test_record3_matches_eager_personalization(seed, name):
    card = build_env(seed).cards[name]
    got = _read_record(card, 3)
    assert got.encode() == _eager_record3(seed, name, card.profile).encode()


@pytest.fixture
def crypto_counts(monkeypatch):
    """Count key derivations, certificates and signatures through the names
    the runner and the card bind."""
    counts = {"keys": 0, "certs": 0, "static": 0, "sdad": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (runner, card_module):
        monkeypatch.setattr(module, "generate_signing_key",
                            counting("keys", module.generate_signing_key))
        monkeypatch.setattr(module, "issue_certificate",
                            counting("certs", module.issue_certificate))
    monkeypatch.setattr(card_module, "sign_static_records",
                        counting("static", card_module.sign_static_records))
    monkeypatch.setattr(card_module, "sign_sdad",
                        counting("sdad", card_module.sign_sdad))
    return counts


def test_unread_oda_cards_cost_no_signature(crypto_counts):
    env = build_env(0)
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_LOW)
    assert result["outcome"] == "approve_online"
    # a kernel-3 card without ODA never reaches the CA or issuer keys
    assert crypto_counts == {"keys": 0, "certs": 0, "static": 0, "sdad": 0}


# seeds no other test builds a world at, so every key, certificate and signature of theirs is new
UNUSED_SEED = 8_000_000


@pytest.fixture
def ed25519_work():
    """Real Ed25519 work since the fixture began: misses of crypto's memos of key derivation,
    certificate issue and signing (a certificate's signature is a signing too). A hit is no
    work, however often a card or the world reads a member through the bound names."""
    memos = {"keys": crypto.generate_signing_key, "certs": crypto.issue_certificate,
             "signatures": crypto._signature}
    start = {name: memo.cache_info().misses for name, memo in memos.items()}
    return lambda: {name: memo.cache_info().misses - start[name] for name, memo in memos.items()}


def test_oda_material_is_derived_once_per_card(ed25519_work):
    env = build_env(UNUSED_SEED)
    card = env.cards["mastercard_cda"]
    first = _read_record(card, 3)
    again = _read_record(card, 3)
    assert first.encode() == again.encode()
    # the CA's, the issuer's and the card's keys; the issuer's and the card's certificates,
    # each signed, and the static signature
    assert ed25519_work() == {"keys": 3, "certs": 2, "signatures": 3}
    result = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    assert result["outcome"] == "approve_online"
    assert ed25519_work() == {"keys": 3, "certs": 2, "signatures": 4}  # and the SDAD


def test_the_pki_is_derived_once_per_world(ed25519_work):
    env = build_env(UNUSED_SEED + 1)
    env.terminals["standard_pos"].ca_store.lookup(CA_INDEX)
    assert ed25519_work() == {"keys": 1, "certs": 0, "signatures": 0}
    # the card brings its own key and the issuer's; the CA key is reused
    _read_record(env.cards["mastercard_cda"], 3)
    _read_record(env.cards["visa_plastic_fdda"], 3)
    assert ed25519_work() == {"keys": 4, "certs": 3, "signatures": 5}
    env.terminals["standard_pos"].ca_store.lookup(CA_INDEX)
    _read_record(env.cards["visa_plastic_fdda"], 3)
    assert ed25519_work() == {"keys": 4, "certs": 3, "signatures": 5}


def test_profile_edit_after_build_meets_the_personalized_signature():
    # a template is never written: a card given another after build keeps the ODA material
    # personalized with the first, whose static signature its new CVM list no longer meets
    env = build_env(0)
    card = env.cards["mastercard_cda"]
    card.profile = dataclasses.replace(card.profile, cvm_list=CVMList())
    result = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_LOW)
    assert (result["outcome"], result["reason"]) == ("decline", "action_code_denial")


# --- one record per READ RECORD --------------------------------------------------

def test_kernel3_record2_carries_the_current_ctq():
    env = build_env(0)
    run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH)
    card = env.cards["visa_plastic_no_fdda"]
    assert card._current_ctq != CTQ()
    assert _read_record(card, 2)[Tag.CTQ] == card._current_ctq


def test_records_follow_the_afl():
    # a record the AFL does not list gets an empty reply
    env = build_env(0)
    for name, card in env.cards.items():
        afl = card.profile.afl.records
        for number in (0, 1, 2, 3, 4, 255):
            reply = _read_record(card, number)
            assert (len(reply.tags()) > 0) == (number in afl), (name, number)
            if number in afl:
                assert reply[Tag.RECORD_NUMBER] == number


# --- the world's on-demand mappings ---------------------------------------------

def test_cards_iterate_in_fixture_order():
    env = build_env(0)
    env.cards["magstripe_only"]  # touched first, still iterated in its place
    assert list(env.cards) == list(CARD_FIXTURES)
    assert len(env.cards) == len(CARD_FIXTURES)
    assert [c.profile.name for c in env.cards.values()] == list(CARD_FIXTURES)


def test_terminals_iterate_in_fixture_order():
    env = build_env(0)
    env.terminals["swipe_pos"]
    assert list(env.terminals) == list(TERMINAL_FIXTURES)
    assert len(env.terminals) == len(TERMINAL_FIXTURES)
    assert [t.config.name for t in env.terminals.values()] == list(TERMINAL_FIXTURES)


def test_asking_whether_a_world_has_a_device_builds_nothing(monkeypatch):
    def unexpected(*args):
        raise AssertionError("built on a membership test")
    monkeypatch.setattr(runner, "_build_card", unexpected)
    monkeypatch.setattr(runner, "_build_terminal", unexpected)
    env = build_env(0)
    assert "mastercard_cda" in env.cards and "amex_gold" not in env.cards
    assert "swipe_pos" in env.terminals and "atm" not in env.terminals


@pytest.mark.parametrize("name", CARD_FIXTURES)
def test_a_card_and_the_issuer_share_one_profile(name):
    # the issuer finds the world's card by its PAN: its keys and its profile
    pan = CARD_FIXTURES[name]["pan"]
    card_first = build_env(0)
    assert card_first.cards[name] is card_first.issuer.cards[pan]
    issuer_first = build_env(0)
    card = issuer_first.issuer.cards[pan]
    assert issuer_first.cards[name] is card and card.profile.pan == pan


@pytest.mark.parametrize("overrides", [
    {"card_overrides": {"visa_plastic_no_fdda": {"aid": b"\xa0"}}},
    {"card_overrides": {"mastercard_cda": {"master_key": bytes(32)}}},
    {"terminal_overrides": {"standard_pos": {"tac": None}}},
])
def test_override_of_a_field_the_runner_sets_is_rejected_at_build(overrides):
    with pytest.raises(TypeError):
        build_env(**overrides)


def test_auth_for_an_untouched_card_reaches_its_profile():
    # the stripe comes from a twin world; in env nothing has touched the card
    stripe = build_env(0).cards["magstripe_only"].profile.track2
    env = build_env(0)
    reply = env.issuer.handle_auth(Message("AUTH_REQUEST", DataElementMap({
        Tag.PAN: stripe.pan, Tag.TRACK2: stripe})))
    assert (reply.payload[Tag.DECISION], reply.payload[Tag.REASON]) == \
        ("approve", "swipe_ok")
    unknown = env.issuer.handle_auth(Message("AUTH_REQUEST", DataElementMap({
        Tag.PAN: "4000000000000002", Tag.TRACK2: stripe})))
    assert unknown.payload[Tag.REASON] == "unknown_card"


def test_worlds_are_freed_by_reference_counting():
    # a reference cycle through a world would keep every world alive until
    # the cyclic collector ran, and a long search would grow its memory
    gc.collect()
    gc.disable()
    try:
        env = build_env(0)
        for name in env.cards:
            _read_record(env.cards[name], 3)
        env.terminals["standard_pos"].ca_store.lookup(CA_INDEX)
        list(env.terminals.values())
        del env
        for policy in (PERMISSIVE_2019, HARDENED):
            for _pairing, env, _result in run_genuine_matrix(policy):
                env.trace.to_jsonl()
        results = [run_attack(attack_id) for attack_id in CATALOG]
        for result in results:
            result.trace.to_jsonl()
        render_report_md(results)
        del results, result, env
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- what a fixture decides is made once per process ---------------------------------

@pytest.mark.parametrize("other_seed", [0, 1])
def test_worlds_from_one_template_keep_their_edits(other_seed):
    # a world's cards share their template, which no one writes; a wallet, the keys and the
    # PKI are the world's own
    first, second = build_env(0), build_env(other_seed)
    name = "google_like_phone"  # a wallet and ODA material
    mine, theirs = first.cards[name], second.cards[name]
    assert mine is not theirs and mine.profile is theirs.profile
    with pytest.raises(dataclasses.FrozenInstanceError):
        mine.profile.cvm_list = CVMList((CVMEntry(CVMMethod.NoCVM, CVMCondition.Always),))
    mine.wallet.unlocked = True
    mine.pki = None
    assert theirs.wallet.unlocked is False and theirs.pki is not None
    again = build_env(0).cards[name]
    assert (again.profile, again.wallet.unlocked, again.pki is None) == (
        theirs.profile, False, False)
    config = first.terminals["standard_pos"].config
    assert config is second.terminals["standard_pos"].config
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.offline_capable = True


def test_no_field_of_a_worlds_profile_can_be_written():
    env = build_env(0)
    for card in env.cards.values():
        for f in dataclasses.fields(card.profile):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(card.profile, f.name, getattr(card.profile, f.name))


def test_an_unhashable_override_builds_its_card_and_keeps_no_template(monkeypatch):
    monkeypatch.setattr(runner, "_TEMPLATES", {})
    no_cvm = CVMList((CVMEntry(CVMMethod.NoCVM, CVMCondition.Always),))
    for entries, kept in (([["NoCVM", "Always"]], 0), ([("NoCVM", "Always")], 1)):
        env = build_env(card_overrides={"maestro_debit": {"cvm_list": entries}})
        assert env.cards["maestro_debit"].profile.cvm_list == no_cvm
        assert len(runner._TEMPLATES) == kept  # a list of lists cannot key a template


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_one_draw_is_the_seeds_one_draw_each_would_give(seed):
    rng, each = random.Random(seed), random.Random(seed)
    seeds = rng.randbytes(runner._SEED_BYTES)
    count = 2 + 3 * len(CARD_FIXTURES) + len(TERMINAL_FIXTURES)
    assert seeds == b"".join(each.randbytes(32) for _ in range(count))
    assert rng.getstate() == each.getstate()
    env = build_env(seed)
    card = env.cards["mastercard_cda"]
    assert card.rng.getstate() == each.getstate()  # the world's RNG after its draw
    at = runner._SEED_AT["mastercard_cda"]
    assert (card.master_key, card.cvc3_key, card.signing_seed) == (
        seeds[at:at + 32], seeds[at + 32:at + 64], seeds[at + 64:at + 96])
    assert env.terminals["swipe_pos"].pin_key == seeds[-32:]
    assert env.issuer.pin_keys["T-SWIPE-1"] == seeds[-32:]


def _purchase_draws(env) -> tuple[int, bytes, int]:
    """The draws a mastercard_cda purchase at standard_pos makes after the world's: the
    terminal's UN, its online-PIN nonce and the card's CDA nonce, in that order."""
    card = env.cards["mastercard_cda"]
    view = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card), Amount(AMOUNT_HIGH, "EUR"), pin=card.profile.pin)["view"]
    return view["un"], view["enc_pin"][:12], view["un_card"]


@pytest.mark.parametrize("a, b", [(0, 1), (-1, 1), (2**70, 0), (True, 1)])
@pytest.mark.parametrize("order", ["a", "aa", "aaa", "aabaa", "aba", "aaabaaa"])
def test_a_kept_draw_is_the_draw_a_fresh_rng_makes(a, b, order, monkeypatch):
    # the second world in a row at an int seed keeps the RNG state after the draw, and each
    # later one restores it; the bytes and every later draw are a fresh RNG's, -1 is not 1, and
    # True (which seeds as 1) is not kept
    monkeypatch.setattr(runner, "_DRAW", [None, b"", None])
    restored = 0
    for name in order:
        seed = {"a": a, "b": b}[name]
        kept_state = runner._DRAW[2]
        env = build_env(seed)
        restored += kept_state is not None and runner._DRAW[2] is kept_state
        fresh = random.Random(seed)
        assert env.cards["mastercard_cda"].pki.seeds == fresh.randbytes(1120)
        assert _purchase_draws(env) == (fresh.randrange(1 << 32), fresh.randbytes(12),
                                        fresh.randrange(1 << 32))
        kept_seed, seeds, state = runner._DRAW  # bytes and a tuple of ints: it holds no world
        assert type(seeds) is bytes and (state is None or type(state) is tuple)
    assert restored == (order.count("aaa") if type(a) is int else 0)
    if type(a) is int:
        assert kept_seed == a and (state is not None) == order.endswith("aa")
    else:  # True is not kept: the latest int seed is b, once the order has met it
        assert (kept_seed, type(kept_seed), state) == (
            (b, int, None) if "b" in order else (None, type(None), None))


def test_a_seed_equal_to_the_kept_one_draws_its_own_unless_an_int(monkeypatch):
    # 2.0**70 == 2**70 but seeds another RNG, and None seeds from the OS: neither is kept,
    # and neither gets the draw kept for an equal int
    monkeypatch.setattr(runner, "_DRAW", [None, b"", None])
    for _ in range(2):
        build_env(2**70)
    pki = build_env(2.0**70).cards["mastercard_cda"].pki
    assert pki.seeds == random.Random(2.0**70).randbytes(1120)
    keys = {build_env(None).cards["mastercard_cda"].master_key for _ in range(3)}
    assert len(keys) == 3 and runner._DRAW[0] == 2**70 and runner._DRAW[2] is not None


# plain values of seven tags, and the distinct orders of up to four of them
_PLAIN = {Tag.UN: 1, Tag.ATC: 1, Tag.UN_CARD: 1, Tag.CDA_REQUESTED: 1, Tag.AC: b"1",
          Tag.SDAD: b"1", Tag.CVC3: b"1"}
_ORDERED = [order for k in range(1, 5) for order in itertools.permutations(_PLAIN, k)]
_SUBSETS = [frozenset(c) for k in range(1, 8) for c in itertools.combinations(_PLAIN, k)]


def _emit(msg: Message | None = None, data: dict | None = None) -> str:
    """The JSONL of a trace of one event: ``msg`` sent and echoed, or a marker of ``data``."""
    trace = TransactionTrace()
    if msg is None:
        trace.mark("knowledge", None, data)
    else:
        trace.log_msg("nfc", 1, "to_card", msg, msg)
    return trace.to_jsonl()


@pytest.mark.parametrize("table, size, fill", [
    ("runner._TEMPLATES", "runner._TEMPLATES_SIZE", lambda i: build_env(
        card_overrides={"magstripe_only": {"cardholder_name": f"HOLDER {i}"}}
    ).cards["magstripe_only"]),
    ("attacks._WORLDS", "attacks._WORLDS_SIZE", lambda i: attacks._world_for(
        {f: bool(i >> bit & 1) for bit, f in enumerate(sorted(attacks.KNOWN_FLAWS))})),
    ("elements._INTERNED", "elements._INTERN_SIZE", lambda i: Amount(i, "XWB")),
    ("elements._ORDERS", "elements._ORDERS_SIZE",
     lambda i: DataElementMap(_PLAIN).encode(_SUBSETS[i])),
    ("channel._MESSAGE_SHAPES", "channel._SHAPES_SIZE", lambda i: _emit(Message(
        "GENERATE_AC", DataElementMap({tag: _PLAIN[tag] for tag in _ORDERED[i]})))),
    ("channel._MARKER_SHAPES", "channel._SHAPES_SIZE", lambda i: _emit(data={f"k{i}": i})),
    ("crypto._SIGNED", "crypto._MEMO_SIZE", lambda i: crypto._signature(
        generate_signing_key(bytes(32)), b"FIFO %d" % i)),
])
def test_each_table_keeps_its_latest_entries_within_its_bound(table, size, fill, monkeypatch):
    # each fill adds one entry; a full table drops its oldest first
    module, name = table.split(".")
    owner = {"runner": runner, "attacks": attacks, "elements": elements, "channel": channel,
             "crypto": crypto}[module]
    monkeypatch.setattr(owner, name, {})
    bound = getattr(owner, size.split(".")[1])
    added = []
    for i in range(bound + 5):
        fill(i)
        entries = getattr(owner, name)
        added.append(next(reversed(entries)))
        assert len(entries) == min(i + 1, bound)
    assert len(set(added)) == len(added) and list(getattr(owner, name)) == added[-bound:]


@pytest.mark.parametrize("overrides", [
    {"card_overrides": {"visa_plastc_no_fdda": {"fdda": True}}},
    {"terminal_overrides": {"standard_p0s": {"offline_capable": True}}},
])
def test_an_override_of_a_device_no_fixture_has_is_rejected(overrides):
    (device,) = next(iter(overrides.values()))
    with pytest.raises(TypeError, match=device):
        build_env(**overrides)
