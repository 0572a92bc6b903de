"""A witness for every reason the issuer gives.

Each case captures the first request a genuine run sends the rails, makes one
edit to it, switches on at most one issuer check, and submits it again: the
issuer must answer with the case's reason. Every request kind runs the same
check sequence, so each shared check has one case per kind that reaches it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import tapsim.issuer
from tapsim.channel import Message
from tapsim.crypto import compute_ac, kdf
from tapsim.elements import AID_VISA, CTQ, IAD, Amount, DataElementMap, Tag
from tapsim.issuer import PERMISSIVE_2019
from tapsim.runner import AMOUNT_HIGH, AMOUNT_LOW, build_env, run_genuine

# a genuine run whose first rails request is captured: (card, terminal, amount)
RUNS = {
    "swipe": ("magstripe_only", "swipe_pos", AMOUNT_LOW),
    "magstripe": ("magstripe_only", "standard_pos", AMOUNT_LOW),
    "emv": ("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH),  # with online PIN
    "kernel2": ("mastercard_cda", "standard_pos", AMOUNT_LOW),
    "phone": ("apple_like_phone", "standard_pos", AMOUNT_HIGH),  # unlocked: CDCVM
    "offline": ("mastercard_cda", "offline_capable_pos", AMOUNT_LOW),  # a clearing submit
}
APPROVALS = ("swipe_ok", "magstripe_ok", "authorized", "cleared")


def _same(p, card):
    return p


def _put(tag, value):
    return lambda p, card: p.copy().put(tag, value)


def _drop(tag):
    return lambda p, card: DataElementMap({t: v for t, v in p.items() if t != tag})


def _flip(tag):
    """Flip the first byte of a bytes element."""
    return lambda p, card: p.copy().put(tag, bytes([p[tag][0] ^ 0xFF]) + p[tag][1:])


def _other_track2(p, card):
    return p.copy().put(Tag.TRACK2, dataclasses.replace(p[Tag.TRACK2], discretionary="99900000"))


def _phone_without_cdcvm(p, card):
    """The phone's own cryptogram over an IAD saying nobody verified the holder:
    no genuine tap above the CVM limit makes one, so the edit is signed here."""
    p = p.copy().put(Tag.IAD, IAD(False, "phone"))
    return p.put(Tag.AC, compute_ac(kdf(card.master_key, p[Tag.ATC]), p,
                                    card.profile.ac_coverage))


# reason -> its cases: (run, the one issuer check switched on, the edit)
WITNESSES = {
    "unknown_card": (("emv", None, _put(Tag.PAN, "4999999999999999")),),
    "malformed_request": (("emv", None, _drop(Tag.AC)),),
    "bad_track_data": (("swipe", None, _other_track2),),
    "swipe_ok": (("swipe", None, _same),),
    "malformed_atc": (("magstripe", None, _drop(Tag.ATC)), ("emv", None, _drop(Tag.ATC))),
    "malformed_un": (("magstripe", None, _drop(Tag.UN)),),
    "malformed_amount": (("magstripe", None, _drop(Tag.AMOUNT)),
                         ("emv", None, _drop(Tag.AMOUNT))),
    "bad_dynamic_code": (("magstripe", None, _flip(Tag.CVC3)),),
    "bad_ac": (("emv", None, _flip(Tag.AC)),),
    "atc_replay": (("magstripe", "check_atc_order", _same), ("emv", "check_atc_order", _same)),
    "un_reuse": (("magstripe", "check_un_reuse", _same), ("emv", "check_un_reuse", _same)),
    # the dynamic code does not cover the amount; the online PIN is the EMV sale's CVM
    "cvm_limit": (("magstripe", None, _put(Tag.AMOUNT, Amount(AMOUNT_HIGH, "EUR"))),
                  ("emv", None, _drop(Tag.ENC_PIN))),
    "magstripe_ok": (("magstripe", None, _same),),
    "aid_pan_mismatch": (("kernel2", "check_aid_pan_match", _put(Tag.AID, AID_VISA)),),
    "plastic_cdcvm": (("emv", "check_plastic_cdcvm", _put(Tag.CTQ, CTQ(cdcvm_performed=True))),),
    "wallet_no_cdcvm": (("phone", "check_mcc_for_wallet_no_cdcvm", _phone_without_cdcvm),),
    "bad_pin": (("emv", None, _flip(Tag.ENC_PIN)),),
    "authorized": (("emv", None, _same),),
    "cleared": (("offline", None, _same),),
}


@pytest.mark.parametrize("reason,run,check,edit", [
    pytest.param(reason, *case, id=f"{reason}-{case[0]}")
    for reason, cases in WITNESSES.items() for case in cases])
def test_issuer_reason_has_a_witness(reason, run, check, edit):
    card, terminal, amount = RUNS[run]
    policy = PERMISSIVE_2019.with_fixes(**{check: True}) if check else PERMISSIVE_2019
    env = build_env(seed=5, policy=policy)
    captured = []
    for name in ("authorize", "clear"):
        def spy(request, _submit=getattr(env.rails, name), **kw):
            captured.append(request)
            return _submit(request, **kw)
        setattr(env.rails, name, spy)
    result = run_genuine(env, card, terminal, amount)
    assert result["outcome"].startswith("approve") and "decline" not in result["cleared"]

    request = captured[0]
    handle = (env.issuer.handle_clearing if request.name == "CLEARING_SUBMIT"
              else env.issuer.handle_auth)
    response = handle(Message(request.name, edit(request.payload, env.cards[card])))
    assert (response.payload[Tag.DECISION], response.payload[Tag.REASON]) == (
        "approve" if reason in APPROVALS else "decline", reason)


def _issuer_reasons() -> set[str]:
    """The string literals in the reason of every (decision, reason) the issuer
    returns; a reason written as an f-string gives its constant prefix."""
    tree = ast.parse(Path(tapsim.issuer.__file__).read_text(encoding="utf-8"))
    return {sub.value for node in ast.walk(tree)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
            and len(node.value.elts) == 2
            and getattr(node.value.elts[0], "value", None) in ("approve", "decline")
            for sub in ast.walk(node.value.elts[1])
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def test_every_reason_the_issuer_gives_has_a_witness():
    reasons = _issuer_reasons()
    # the one reason written as an f-string names the element a request leaves out
    assert {r for r in reasons if r.endswith("_")} == {"malformed_"}
    literal = {r for r in reasons if not r.endswith("_")}
    assert literal <= WITNESSES.keys()
    assert WITNESSES.keys() - literal == {"malformed_atc", "malformed_un", "malformed_amount"}
