"""Worlds built on demand: a card, a terminal and the world's CA -> issuer
keys are made on first lookup, and a card derives its Ed25519 key,
certificate and static signature the first time it needs them. The bytes
are those an eager personalization would have produced."""

import dataclasses
import gc
import random

import pytest

from tapsim import attacks
from tapsim import card as card_module
from tapsim import runner
from tapsim.attacks import CATALOG, render_report_md, run_attack
from tapsim.channel import Message
from tapsim.crypto import (
    generate_signing_key,
    issue_certificate,
    public_bytes,
    sign_static_records,
)
from tapsim.elements import (CTQ, CVMCondition, CVMEntry, CVMList, CVMMethod, DataElementMap,
                             Tag)
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
        Tag.ISSUER_CERT: issuer_cert.to_bytes(),
        Tag.CARD_CERT: card_cert.to_bytes(),
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


def test_oda_material_is_derived_once_per_card(crypto_counts):
    env = build_env(0)
    card = env.cards["mastercard_cda"]
    first = _read_record(card, 3)
    again = _read_record(card, 3)
    assert first.encode() == again.encode()
    assert crypto_counts == {"keys": 3, "certs": 2, "static": 1, "sdad": 0}
    result = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    assert result["outcome"] == "approve_online"
    assert crypto_counts == {"keys": 3, "certs": 2, "static": 1, "sdad": 1}


def test_the_pki_is_derived_once_per_world(crypto_counts):
    env = build_env(0)
    env.ca_store.lookup(CA_INDEX)
    assert crypto_counts == {"keys": 1, "certs": 0, "static": 0, "sdad": 0}
    # the card brings its own key and the issuer's; the CA key is reused
    _read_record(env.cards["mastercard_cda"], 3)
    _read_record(env.cards["visa_plastic_fdda"], 3)
    assert crypto_counts == {"keys": 4, "certs": 3, "static": 2, "sdad": 0}


def test_profile_edit_after_build_meets_the_personalized_signature():
    env = build_env(0)
    env.cards["mastercard_cda"].profile.cvm_list = CVMList()
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
        afl = card._afl().records
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


@pytest.mark.parametrize("name", CARD_FIXTURES)
def test_a_card_and_the_issuer_share_one_profile(name):
    pan = CARD_FIXTURES[name]["pan"]
    card_first = build_env(0)
    assert card_first.cards[name].profile is card_first.issuer.cards[pan]
    issuer_first = build_env(0)
    profile = issuer_first.issuer.cards[pan]
    assert issuer_first.cards[name].profile is profile


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
        env.ca_store.lookup(CA_INDEX)
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
    first, second = build_env(0), build_env(other_seed)
    name = "google_like_phone"  # a wallet and ODA material
    mine, theirs = first.cards[name].profile, second.cards[name].profile
    assert mine is not theirs and mine.aip is theirs.aip  # one template's values
    fixture_list = theirs.cvm_list
    mine.cvm_list = CVMList((CVMEntry(CVMMethod.NoCVM, CVMCondition.Always),))
    mine.wallet.unlocked = True
    mine.oda = None
    assert theirs.cvm_list is fixture_list
    assert theirs.wallet.unlocked is False and theirs.oda is not None
    again = build_env(0).cards[name].profile
    assert (again.cvm_list, again.wallet.unlocked, again.oda is None) == (
        theirs.cvm_list, False, False)
    config = first.terminals["standard_pos"].config
    assert config is second.terminals["standard_pos"].config
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.offline_capable = True


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
    assert (card.profile.master_key, card.profile.cvc3_key, card.profile.oda.signing_seed) == (
        seeds[at:at + 32], seeds[at + 32:at + 64], seeds[at + 64:at + 96])
    assert env.terminals["swipe_pos"].pin_key == seeds[-32:]
    assert env.issuer.pin_keys["T-SWIPE-1"] == seeds[-32:]


@pytest.mark.parametrize("table, size, fill", [
    ("runner._TEMPLATES", "runner._TEMPLATES_SIZE", lambda i: build_env(
        card_overrides={"magstripe_only": {"cardholder_name": f"HOLDER {i}"}}
    ).cards["magstripe_only"]),
    ("attacks._WORLDS", "attacks._WORLDS_SIZE", lambda i: attacks._world_for(
        {f: bool(i >> bit & 1) for bit, f in enumerate(sorted(attacks.KNOWN_FLAWS))})),
])
def test_each_table_keeps_its_latest_entries_within_its_bound(table, size, fill, monkeypatch):
    module, name = table.split(".")
    owner = {"runner": runner, "attacks": attacks}[module]
    monkeypatch.setattr(owner, name, {})
    bound = getattr(owner, size.split(".")[1])
    for i in range(bound + 5):
        fill(i)
        assert len(getattr(owner, name)) == min(i + 1, bound)


@pytest.mark.parametrize("overrides", [
    {"card_overrides": {"visa_plastc_no_fdda": {"fdda": True}}},
    {"terminal_overrides": {"standard_p0s": {"offline_capable": True}}},
])
def test_an_override_of_a_device_no_fixture_has_is_rejected(overrides):
    (device,) = next(iter(overrides.values()))
    with pytest.raises(TypeError, match=device):
        build_env(**overrides)
