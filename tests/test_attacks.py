"""The attack catalogue: every scenario lands, every documented fix kills it."""

import dataclasses
import random

import pytest

from tapsim import attacks
from tapsim.attacks import (
    CATALOG,
    KNOWN_FLAWS,
    Tap,
    pin_guess_campaign,
    render_report_md,
    run_attack,
)
from tapsim.card import Cvc3MagstripeClone
from tapsim.channel import Adversary, ChannelError, Edit, Message, NfcChannel
from tapsim.elements import AID_MASTERCARD, Amount, DataElementMap, Tag
from tapsim.runner import AMOUNT_LOW, build_env
from test_acceptance import simulate_partial_clone, simulate_pin_search
from test_channel import msgs

ALL_FIXED = {name: "on" if name.startswith(("check", "fdda", "cda")) else "off"
             for name in KNOWN_FLAWS}
# "fixed" means: every issuer check on, fDDA/CDA on, every permissive
# card/terminal behavior off
ALL_FIXED.update(fdda="on", cda="on", tac_denial_cda_failed="on",
                 foreign_cvm_limit_enforced="on")


def test_catalog_has_sixteen_entries():
    assert len(CATALOG) == 16


def test_every_required_flaw_is_known():
    required = {f for spec in CATALOG.values() for f in spec.required_flaws}
    assert required <= KNOWN_FLAWS


@pytest.mark.parametrize("attack_id", list(CATALOG))
def test_attack_succeeds_with_expected_violations(attack_id):
    result = run_attack(attack_id, seed=0)
    assert result.success, result.detail
    assert result.diffs == [], result.diffs


@pytest.mark.parametrize("attack_id,flaw", [
    (a, f) for a, spec in CATALOG.items() for f in spec.required_flaws
])
def test_single_fix_kills_the_attack(attack_id, flaw):
    broken = CATALOG[attack_id].required_flaws[flaw]
    result = run_attack(attack_id, seed=0,
                        flaw_overrides={flaw: not broken})
    assert not result.success, (
        f"{attack_id} still works with {flaw} fixed: {result.detail}")


def test_catalogue_edits_are_data_and_each_one_fires(monkeypatch):
    """Every hook of every Tap is an Edit, and every Edit a seed-42 run calls changes some
    message in it: an Edit whose guard never matches would pass unseen whenever the attack
    lands anyway."""
    apply = Edit.__call__
    called, changed = set(), set()  # ids of the edits that ran, and of those that changed

    def spy(edit, msg, adversary):
        out = apply(edit, msg, adversary)
        called.add(id(edit))
        if out != msg:
            changed.add(id(edit))
        return out

    monkeypatch.setattr(Edit, "__call__", spy)
    for attack_id, spec in CATALOG.items():
        called.clear()
        changed.clear()
        run_attack(attack_id, seed=42)
        if isinstance(spec.stage, Tap):
            edits = spec.stage.to_card + spec.stage.from_card
            assert edits and all(type(edit) is Edit for edit in edits), attack_id
            assert {id(edit) for edit in edits} <= called, attack_id
        assert changed == called, attack_id


INHERENT = ("magstripe_cloning", "maestro_downgrade", "eavesdrop_card_data",
            "emv_to_magstripe")


@pytest.mark.parametrize("attack_id,fixes", [
    pytest.param(a, ALL_FIXED, id=a) for a in INHERENT
] + [
    pytest.param(a, {flaw: value}, id=f"{a}-{flaw}")
    for a in INHERENT for flaw, value in sorted(ALL_FIXED.items())
])
def test_inherent_attacks_survive_every_fix(attack_id, fixes):
    # these four need no flaw at all: they work against the fully
    # hardened configuration and against each single fix of it
    assert CATALOG[attack_id].required_flaws == {}
    result = run_attack(attack_id, seed=0, flaw_overrides=fixes)
    assert result.success, result.detail


def test_attacks_are_deterministic():
    a = run_attack("ttq_ctq_bypass", seed=3)
    b = run_attack("ttq_ctq_bypass", seed=3)
    assert a.trace.to_jsonl() == b.trace.to_jsonl()
    assert a.render() == b.render()


def test_different_seeds_change_the_trace():
    a = run_attack("eavesdrop_card_data", seed=0)
    b = run_attack("eavesdrop_card_data", seed=1)
    assert a.trace.to_jsonl() != b.trace.to_jsonl()


def test_unknown_flaw_name_is_rejected():
    with pytest.raises(ValueError):
        run_attack("ttq_ctq_bypass", flaw_overrides={"no_such_toggle": "on"})
    with pytest.raises(ValueError):
        run_attack("ttq_ctq_bypass", flaw_overrides={"fdda": "maybe"})


def test_result_render_shape():
    r = run_attack("merchant_bag", seed=0)
    rendered = r.render()
    assert rendered["attack"] == "merchant_bag"
    assert rendered["success"] is True
    assert rendered["flaws"] == {"cda": "off"}
    assert rendered["expected"]["P1"] == ["AC"]
    assert rendered["observed"]["violations"]["P2"] == []
    assert rendered["diffs"] == []


def test_report_md_covers_the_catalogue():
    results = [run_attack(a, seed=0) for a in CATALOG]
    text = render_report_md(results)
    for attack_id in CATALOG:
        assert attack_id in text
    assert "DIVERGES" not in text


def test_capabilities_match_what_the_staging_needs():
    # remote submission requires rails access, eavesdropping the face
    # requires physical sight; everything else is pure MITM (a replay goes
    # through the rogue terminal's own purchase, not the rails)
    assert CATALOG["foreign_currency_replay"].capabilities == ("A1", "A5")
    assert CATALOG["replay_nonce_reuse"].capabilities == ("A1",)
    assert CATALOG["eavesdrop_card_data"].capabilities == ("A1", "A8")
    for attack_id, spec in CATALOG.items():
        if attack_id not in ("foreign_currency_replay", "eavesdrop_card_data"):
            assert spec.capabilities == ("A1",), attack_id


@pytest.mark.parametrize("attack_id,capability", [
    (a, cap) for a, spec in CATALOG.items() for cap in spec.capabilities])
def test_every_declared_capability_is_needed(attack_id, capability, monkeypatch):
    # an adversary without any one of them is stopped by a declared ChannelError
    spec = CATALOG[attack_id]
    fewer = tuple(c for c in spec.capabilities if c != capability)
    monkeypatch.setitem(CATALOG, attack_id, dataclasses.replace(spec, capabilities=fewer))
    with pytest.raises(ChannelError):
        run_attack(attack_id, seed=0)


# --- the statistics helpers --------------------------------------------------------

def test_pin_search_counts():
    guesses, resets, blocked = simulate_pin_search("1234")
    assert guesses == 1235
    assert not blocked
    assert resets > 0


def test_pin_search_worst_case_never_blocks():
    guesses, _resets, blocked = simulate_pin_search("9999")
    assert guesses == 10000
    assert not blocked


def test_pin_search_without_the_stop_rule_blocks_fast():
    guesses, resets, blocked = simulate_pin_search("9999", stop_at_remaining=0)
    assert blocked
    assert guesses == 3
    assert resets == 0


def _pin_search_loop(true_pin, try_limit, stop_at_remaining):
    """Reference: the guessing loop that simulate_pin_search computes in
    closed form."""
    remaining = try_limit
    guesses = resets = 0
    for i in range(10000):
        if remaining <= stop_at_remaining:
            remaining = try_limit
            resets += 1
        guesses += 1
        if f"{i:04d}" == true_pin:
            return guesses, resets, False
        remaining -= 1
        if remaining <= 0:
            return guesses, resets, True
    return guesses, resets, False


def test_pin_search_closed_form_matches_the_loop():
    rng = random.Random(11)
    pins = ["0000", "0001", "0002", "0003", "0004", "0005", "9999", "123", "abcd"]
    pins += [f"{rng.randrange(10000):04d}" for _ in range(6)]
    for try_limit in range(1, 6):
        for stop in range(try_limit + 1):
            for pin in pins:
                got = simulate_pin_search(pin, try_limit=try_limit,
                                          stop_at_remaining=stop)
                assert got == _pin_search_loop(pin, try_limit, stop), \
                    (pin, try_limit, stop)


@pytest.mark.parametrize("pin,stop", [("0000", 1), ("0001", 1), ("0007", 1),
                                      ("0042", 1), ("0001", 0), ("0042", 0)])
def test_pin_search_agrees_with_the_campaign(pin, stop):
    env = build_env(seed=1, card_overrides={"visa_plastic_no_fdda": {
        "offline_pin_enabled": True, "pin": pin}})
    card = env.cards["visa_plastic_no_fdda"]
    owner = NfcChannel(env.trace, card)
    resets = []

    def owner_reset():
        resets.append(owner.exchange(Message("VERIFY", DataElementMap({
            Tag.PIN_GUESS: pin}))))

    adversary = Adversary(trace=env.trace)
    channel = NfcChannel(env.trace, card, adversary=adversary)
    found = pin_guess_campaign(channel, adversary, owner_reset=owner_reset,
                               stop_at_remaining=stop)
    guesses = sum(1 for ev in msgs(env.trace, name="VERIFY", session=channel.session)
                  if ev.direction == "to_card" and Tag.PIN_GUESS in ev.sent.payload)
    assert (guesses, len(resets), found is None) == simulate_pin_search(
        pin, stop_at_remaining=stop)


def test_partial_clone_full_table_always_wins():
    rng = random.Random(5)
    assert all(simulate_partial_clone(1000, 1, rng) for _ in range(500))


def test_partial_clone_empty_table_never_wins():
    rng = random.Random(5)
    assert not any(simulate_partial_clone(0, 10, rng) for _ in range(500))


# --- device details ------------------------------------------------------------------

def test_cvc3_clone_with_a_miss_table_is_declined():
    env = build_env(seed=2)
    card = env.cards["mastercard_cda"]
    channel = NfcChannel(env.trace, card)
    r1, table = attacks.harvest_cvc3_table(channel, AID_MASTERCARD, range(4))
    assert len(table) == 4

    # a table with codes filed under the wrong nonces never matches
    shuffled = {un + 500: entry for un, entry in table.items()}
    clone = Cvc3MagstripeClone(AID_MASTERCARD, r1, shuffled)
    result = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, clone), Amount(AMOUNT_LOW, "EUR"))
    assert result["outcome"] == "decline"
    assert result["reason"] == "issuer_declined:bad_dynamic_code"


def test_translator_card_fabricates_the_kernel3_shape():
    from tapsim.channel import Message
    from tapsim.elements import AID_VISA, DataElementMap

    env = build_env(seed=4)
    session = env.trace.new_session()
    far = NfcChannel(env.trace, env.cards["mastercard_cda"], session=session)
    translator = attacks.TranslatorCard(far, face_aid=AID_VISA,
                                        real_aid=AID_MASTERCARD)
    sel = translator.exchange(
        Message("SELECT", DataElementMap({Tag.AID: AID_VISA})))
    assert sel.payload[Tag.AID] == AID_VISA
    assert sel.payload[Tag.KERNEL_ID] == 3
    # and it keeps quiet about applications it is not wearing
    other = translator.exchange(
        Message("SELECT", DataElementMap({Tag.AID: AID_MASTERCARD})))
    assert other.payload.get(Tag.AID) is None
