"""What each cryptogram and signature binds is declared once, in ``crypto``.

The card signs what it holds and the terminal verifies what it received, each
through crypto's coverage projection, so widening a coverage set is a one-line
edit there. The kernel-2 static-records check is the exception: it verifies
exactly the values the terminal acts on, wherever else they appear.
"""

import pytest

from tapsim import crypto
from tapsim.channel import Adversary, Message, NfcChannel
from tapsim.elements import CID, Amount, DataElementMap, Tag
from tapsim.runner import AMOUNT_HIGH, AMOUNT_LOW, build_env

_K3_REQUIRES_ODA = {"standard_pos": {"require_oda_kernel3": True}}

# (card, the reply that carries its SDAD, the terminal's decline when the SDAD fails)
SDAD_CARDS = {
    "fdda": ("visa_plastic_fdda", "GET_PROCESSING_OPTIONS", "fdda_failed"),
    "cda": ("mastercard_cda", "GENERATE_AC", "cda_invalid"),
}


def _purchase(card_name: str, *hooks, amount: int = AMOUNT_HIGH):
    env = build_env(seed=7, terminal_overrides=_K3_REQUIRES_ODA)
    adv = Adversary(trace=env.trace)
    for hook in hooks:
        adv.on_from_card(hook)
    card = env.cards[card_name]
    return env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card, adversary=adv), Amount(amount, "EUR"),
        pin=card.profile.pin)


def _set_cid_tc(message: str):
    def hook(msg, _adv):
        if msg.name == message and Tag.SDAD in msg.payload:
            return msg.with_payload(CID=CID.TC)
        return msg
    return hook


@pytest.mark.parametrize("method", SDAD_CARDS)
def test_widening_an_sdad_coverage_is_one_edit_in_crypto(monkeypatch, method):
    card, message, reason = SDAD_CARDS[method]
    # the genuine purchase signs and verifies over the coverage as it stands
    assert _purchase(card)["outcome"] == "approve_online"
    # an unsigned CID is the adversary's to change
    assert _purchase(card, _set_cid_tc(message))["outcome"] == "approve_online"

    for widened in SDAD_CARDS:
        monkeypatch.setitem(crypto.SDAD_COVERAGE, widened,
                            crypto.SDAD_COVERAGE[widened] | {Tag.CID})
    assert _purchase(card)["outcome"] == "approve_online"
    result = _purchase(card, _set_cid_tc(message))
    assert (result["outcome"], result["reason"]) == ("decline", reason)


@pytest.mark.parametrize("method", SDAD_CARDS)
def test_an_sdad_reply_without_the_card_nonce_fails_verification(method):
    card, message, reason = SDAD_CARDS[method]

    def drop_un_card(msg, _adv):
        if msg.name == message and Tag.SDAD in msg.payload:
            return Message(message, DataElementMap(
                {tag: value for tag, value in msg.payload.items() if tag is not Tag.UN_CARD}))
        return msg

    result = _purchase(card, drop_un_card, amount=AMOUNT_LOW)
    assert (result["outcome"], result["reason"]) == ("decline", reason)


def test_static_check_verifies_the_expiry_the_terminal_acts_on():
    """Record 1's EXPIRY is edited and the genuine one rides in record 2: a
    check over both records merged would pass, the acted-on value fails."""
    expiry = build_env(seed=7).cards["mastercard_cda"].profile.expiry

    def move_expiry(msg, _adv):
        number = msg.payload.get(Tag.RECORD_NUMBER)
        if msg.name == "READ_RECORD" and number == 1:
            return msg.with_payload(EXPIRY="3112")
        if msg.name == "READ_RECORD" and number == 2:
            return msg.with_payload(EXPIRY=expiry)
        return msg

    result = _purchase("mastercard_cda", move_expiry, amount=AMOUNT_LOW)
    assert (result["outcome"], result["reason"]) == ("decline", "action_code_denial")
    assert result["view"]["expiry"] == "3112"
    assert result["view"]["tvr"].cda_failed
