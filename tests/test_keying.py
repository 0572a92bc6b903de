"""Lazy ODA keying: a card derives its Ed25519 key, certificate and static
signature the first time it needs them, and the bytes are those an eager
personalization would have produced."""

import random

import pytest

from tapsim import card as card_module
from tapsim import runner
from tapsim.channel import Message
from tapsim.crypto import (
    generate_signing_key,
    issue_certificate,
    public_bytes,
    sign_static_records,
)
from tapsim.elements import CTQ, CVMList, DataElementMap, Tag
from tapsim.runner import (
    AMOUNT_HIGH,
    AMOUNT_LOW,
    CA_INDEX,
    CARD_FIXTURES,
    build_env,
    run_genuine,
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
    # the CA and issuer keys, and the issuer certificate
    assert crypto_counts == {"keys": 2, "certs": 1, "static": 0, "sdad": 0}


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
