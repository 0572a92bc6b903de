"""End-to-end flows through card, terminal, rails and issuer — no adversary."""

import ast
from pathlib import Path

import pytest

import tapsim.terminal
from tapsim.attacks import harvest_cvc3_table
from tapsim.card import ATC_MAX, TRANSIT_MAGIC, WALLET_TX_LIMIT, Wallet
from tapsim.channel import Adversary, Edit, Message, NfcChannel
from tapsim.crypto import compute_cvc3
from tapsim.elements import (
    AID_MASTERCARD,
    AID_VISA,
    Amount,
    CID,
    CVMCondition,
    CVMMethod,
    CVMResult,
    CVMResults,
    DataElementMap,
    Tag,
    TTQ,
    render_value,
)
from tapsim.issuer import HARDENED, ISSUER_CHECKS, PERMISSIVE_2019
from tapsim.properties import evaluate
from tapsim.runner import (
    AMOUNT_HIGH,
    AMOUNT_LOW,
    GENUINE_MATRIX,
    build_env,
    run_genuine,
    run_genuine_matrix,
)
from tapsim.terminal import CEILING
from test_channel import markers, msgs


@pytest.fixture
def env():
    return build_env(seed=7)


# --- the genuine matrix ------------------------------------------------------------

@pytest.mark.parametrize("policy", [PERMISSIVE_2019, HARDENED],
                         ids=["permissive", "hardened"])
def test_matrix_outcomes(policy):
    for pairing, _env, result in run_genuine_matrix(policy):
        card, terminal, amount, unlocked, expect = pairing
        assert result["outcome"].startswith(expect), \
            (pairing, result["outcome"], result["reason"])


def test_matrix_is_not_tiny():
    assert len(GENUINE_MATRIX) >= 25


# --- kernel 3 ------------------------------------------------------------------------

def test_low_value_needs_no_cvm(env):
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_LOW)
    assert result["outcome"] == "approve_online"
    assert result["view"]["cvm_results"].method == CVMMethod.NoCVM
    assert not markers(env.trace, "cvm")


def test_high_value_collects_online_pin(env):
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH)
    assert result["outcome"] == "approve_online"
    assert result["view"]["cvm_results"].method == CVMMethod.OnlinePIN
    marks = markers(env.trace, "cvm", session=result["session"])
    assert len(marks) == 1 and marks[0].data["genuine"] is True


def test_high_value_without_pin_declines(env):
    terminal = env.terminals["standard_pos"]
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    result = terminal.run_purchase(channel, Amount(AMOUNT_HIGH, "EUR"))
    assert (result["outcome"], result["reason"]) == ("decline", "pin_unavailable")


def test_fdda_card_signs_and_verifies(env):
    result = run_genuine(env, "visa_plastic_fdda", "standard_pos", AMOUNT_HIGH)
    assert result["outcome"] == "approve_online"
    # the card drew a nonce of its own and the terminal kept it
    assert result["view"]["un_card"] is not None


def test_wrong_pin_is_caught_by_issuer(env):
    terminal = env.terminals["standard_pos"]
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    result = terminal.run_purchase(channel, Amount(AMOUNT_HIGH, "EUR"),
                                   pin="0000")
    assert result["outcome"] == "decline"
    assert result["reason"] == "issuer_declined:bad_pin"


def test_foreign_card_waives_cvm_abroad_low_only(env):
    low = run_genuine(env, "visa_credit_foreign_nocvm", "standard_pos",
                      AMOUNT_LOW)
    assert low["outcome"] == "approve_online"
    high = run_genuine(env, "visa_credit_foreign_nocvm", "standard_pos",
                       AMOUNT_HIGH)
    # card won't do CVM abroad, terminal insists on one: no agreement
    assert (high["outcome"], high["reason"]) == ("decline", "no_cvm_agreed")


def test_over_ceiling_never_reaches_the_card(env):
    terminal = env.terminals["standard_pos"]
    channel = NfcChannel(env.trace, env.cards["visa_plastic_fdda"])
    result = terminal.run_purchase(channel,
                                   Amount(CEILING + 1, "EUR"))
    assert (result["outcome"], result["reason"]) == ("decline", "over_ceiling")
    assert not msgs(env.trace, channel="nfc", session=result["session"])


def test_gpo_ctq_must_match_record_ctq(env):
    adv = Adversary(trace=env.trace)

    def tamper_gpo_only(msg, a):
        if msg.name == "GET_PROCESSING_OPTIONS" and Tag.CTQ in msg.payload:
            ctq = msg.payload[Tag.CTQ]
            return msg.with_payload(CTQ=ctq.replace(cdcvm_performed=True))
        return msg

    adv.on_from_card(tamper_gpo_only)
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"],
                         adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        channel, Amount(AMOUNT_HIGH, "EUR"))
    assert (result["outcome"], result["reason"]) == ("decline", "ctq_mismatch")


# --- kernel 2 ------------------------------------------------------------------------

def test_kernel2_cvm_list_drives_the_choice(env):
    low = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_LOW)
    assert low["view"]["cvm_results"].method == CVMMethod.NoCVM
    high = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    assert high["view"]["cvm_results"].method == CVMMethod.OnlinePIN
    assert high["outcome"] == "approve_online"


def test_kernel2_offline_floor_and_clearing(env):
    terminal = env.terminals["offline_capable_pos"]
    card = env.cards["mastercard_cda"]
    channel = NfcChannel(env.trace, card)
    result = terminal.run_purchase(channel, Amount(AMOUNT_LOW, "EUR"),
                                   pin=card.profile.pin)
    assert (result["outcome"], result["reason"]) == ("approve_offline",
                                                     "offline_floor")
    assert terminal.submit_clearing() == ["approve"]
    assert terminal.offline_batch == []


def test_kernel2_cda_signature_checked(env):
    # strict terminal, CDA-capable card, high value: the full treatment
    result = run_genuine(env, "mastercard_cda", "strict_tac_pos", AMOUNT_HIGH)
    assert result["outcome"] == "approve_online"
    assert result["view"]["tvr"].cda_failed is False


def _break_index_hook(msg, a):
    if msg.name == "READ_RECORD" and Tag.CA_PK_INDEX in msg.payload:
        return msg.with_payload(CA_PK_INDEX=9)
    return msg


def test_card_action_codes_deny_broken_oda(env):
    # the default terminal denies nothing, but this card's own action codes do
    adv = Adversary(trace=env.trace)
    adv.on_from_card(_break_index_hook)
    card = env.cards["mastercard_cda"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        channel, Amount(AMOUNT_LOW, "EUR"), pin=card.profile.pin)
    assert (result["outcome"], result["reason"]) == ("decline",
                                                     "action_code_denial")


def test_broken_oda_rides_through_when_nobody_denies_it():
    # silence the card's action codes: with the default terminal codes the
    # failed authentication is merely recorded, and the purchase goes through
    env = build_env(seed=7, card_overrides={
        "mastercard_cda": {"iac_denial_cda_failed": False}})
    adv = Adversary(trace=env.trace)
    adv.on_from_card(_break_index_hook)
    card = env.cards["mastercard_cda"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        channel, Amount(AMOUNT_LOW, "EUR"), pin=card.profile.pin)
    assert result["outcome"] == "approve_online"
    assert result["view"]["tvr"].cda_failed is True


def test_strict_tac_denies_broken_oda_even_for_a_silent_card():
    env = build_env(seed=7, card_overrides={
        "mastercard_cda": {"iac_denial_cda_failed": False}})
    adv = Adversary(trace=env.trace)
    adv.on_from_card(_break_index_hook)
    card = env.cards["mastercard_cda"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    result = env.terminals["strict_tac_pos"].run_purchase(
        channel, Amount(AMOUNT_LOW, "EUR"), pin=card.profile.pin)
    assert (result["outcome"], result["reason"]) == ("decline",
                                                     "action_code_denial")


@pytest.mark.parametrize("tag", [Tag.ISSUER_CERT, Tag.CARD_CERT])
@pytest.mark.parametrize("junk", [b"junk", b"cert\x00\x02\xff\xfe\x00\x00"])
@pytest.mark.parametrize("card, reason", [
    ("visa_plastic_fdda", "oda_chain_failed"),   # kernel 3
    ("mastercard_cda", "action_code_denial"),    # kernel 2: its action codes deny
])
def test_malformed_certificate_declines_once(env, tag, junk, card, reason):
    adv = Adversary(trace=env.trace)
    adv.on_from_card(lambda msg, a: msg.with_payload(**{tag.name: junk})
                     if tag in msg.payload else msg)
    channel = NfcChannel(env.trace, env.cards[card], adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        channel, Amount(AMOUNT_LOW, "EUR"), pin=env.cards[card].profile.pin)
    assert (result["outcome"], result["reason"]) == ("decline", reason)
    assert len(markers(env.trace, "decision")) == 1


# a seed per case that no other test builds a world at, so a case's first world is cold
FORGED_SEED = 9_100_000
# (card, terminal, amount, the record-3 element whose last byte is flipped, the decline)
FORGED_RECORD_3 = [
    *[("mastercard_cda", terminal, amount, tag, "action_code_denial")
      for terminal, amount in (("standard_pos", AMOUNT_LOW), ("strict_tac_pos", AMOUNT_HIGH))
      for tag in (Tag.ISSUER_CERT, Tag.CARD_CERT, Tag.STATIC_SIGNATURE)],
    # kernel 3 never checks its static signature (ROADMAP item 12), so only the chain is asked
    *[("visa_plastic_fdda", "transit_gate", 0, tag, "oda_chain_failed")
      for tag in (Tag.ISSUER_CERT, Tag.CARD_CERT)],
]


@pytest.mark.parametrize("case", range(len(FORGED_RECORD_3)),
                         ids=[f"{c[0]}@{c[1]}:{c[3].name}" for c in FORGED_RECORD_3])
def test_a_forged_record_3_ends_as_it_does_cold_with_every_memo_warm(case):
    # the certificates, their parses, the keys and the signatures of a world at a seed met
    # before are memo hits; a flipped byte must still meet a check that fails
    card, terminal, amount, tag, reason = FORGED_RECORD_3[case]

    def tap(forged):
        env = build_env(seed=FORGED_SEED + case)
        adversary = Adversary(trace=env.trace)
        if forged:
            adversary.on_from_card(Edit(tag, lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),
                                        message="READ_RECORD"))
        result = run_genuine(env, card, terminal, amount, adversary=adversary)
        assert len(markers(env.trace, "decision")) == 1
        return result["outcome"], result["reason"]

    cold = tap(forged=True)
    assert tap(forged=False)[0].startswith("approve")  # every memo of the genuine chain
    assert cold == tap(forged=True) == ("decline", reason)


# --- mag-stripe mode and swipe ----------------------------------------------------------

def test_magstripe_mode_purchase(env):
    result = run_genuine(env, "magstripe_only", "standard_pos", AMOUNT_LOW)
    assert result["outcome"] == "approve_online"
    assert result["view"]["mode"] == "ms"
    assert 0 <= result["view"]["un"] < 1000


def test_swipe_purchase(env):
    result = run_genuine(env, "magstripe_only", "swipe_pos", AMOUNT_LOW)
    assert result["outcome"] == "approve_online"
    assert result["view"]["mode"] == "swipe"


def test_swipe_with_wrong_track_data_declines(env):
    import dataclasses
    stripe = dataclasses.replace(env.cards["magstripe_only"].profile.track2,
                                 discretionary="000000")
    result = env.terminals["swipe_pos"].run_swipe(
        stripe, Amount(AMOUNT_LOW, "EUR"), env.trace.new_session())
    assert result["outcome"] == "decline"
    assert "bad_track_data" in result["reason"]


# --- wallets ----------------------------------------------------------------------------

def test_locked_google_wallet_has_a_tap_limit(env):
    low = run_genuine(env, "google_like_phone", "standard_pos", AMOUNT_LOW,
                      unlocked=False)
    assert low["outcome"] == "approve_online"
    high = run_genuine(env, "google_like_phone", "standard_pos", AMOUNT_HIGH,
                       unlocked=False)
    assert (high["outcome"], high["reason"]) == ("decline", "card_declined")


def test_locked_apple_wallet_needs_the_gate_greeting(env):
    shop = run_genuine(env, "apple_like_phone", "standard_pos", AMOUNT_LOW,
                       unlocked=False)
    assert (shop["outcome"], shop["reason"]) == ("decline", "card_declined")
    gate = run_genuine(env, "apple_like_phone", "transit_gate", 0,
                       unlocked=False)
    assert gate["outcome"].startswith("approve")


def test_locked_samsung_wallet_rides_transit_only(env):
    shop = run_genuine(env, "samsung_like_phone", "standard_pos", AMOUNT_LOW,
                       unlocked=False)
    assert (shop["outcome"], shop["reason"]) == ("decline", "card_declined")
    gate = run_genuine(env, "samsung_like_phone", "transit_gate", 0,
                       unlocked=False)
    assert gate["outcome"].startswith("approve")


def test_unlocked_wallet_pays_high_value_with_cdcvm(env):
    result = run_genuine(env, "apple_like_phone", "standard_pos", AMOUNT_HIGH,
                         unlocked=True)
    assert result["outcome"] == "approve_online"
    assert result["view"]["ctq"].cdcvm_performed is True
    assert result["view"]["cvm_results"].method == CVMMethod.CDCVM


def test_magic_bytes_are_consumed_per_tap(env):
    card = env.cards["apple_like_phone"]
    card.wallet.unlocked = False
    channel = NfcChannel(env.trace, card)
    channel.exchange(Message("MAGIC_BYTES",
                             DataElementMap({Tag.MAGIC: TRANSIT_MAGIC})))
    first = env.terminals["transit_gate"].run_transit_tap(channel)
    assert first["outcome"].startswith("approve")
    # the greeting does not linger: a shop tap right after is refused
    shop = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card), Amount(AMOUNT_LOW, "EUR"))
    assert shop["reason"] == "card_declined"


# what a wallet decides: (pays, CDCVM claimed in the CTQ, in the IAD, holder verified)
REFUSED = (False, False, False, False)
PAYS = (True, False, False, False)          # and claims no verification
CLAIMS = (True, True, True, False)          # claims CDCVM it never did, both ways
CTQ_ONLY = (True, True, False, False)       # claims CDCVM to the terminal alone
LIMIT = WALLET_TX_LIMIT

# a locked phone's decisions, by amount, the TTQ's cvm_required and
# oda_for_online_supported, and whether a gate's greeting primed it:
# google_like, google_like with cdcvm_always, apple_like, samsung_like
LOCKED_DECISIONS = [
    (0, False, False, False, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, False, False, True, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, False, True, False, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, False, True, True, PAYS, CLAIMS, PAYS, CTQ_ONLY),
    (0, True, False, False, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, True, False, True, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, True, True, False, PAYS, CLAIMS, REFUSED, CTQ_ONLY),
    (0, True, True, True, PAYS, CLAIMS, PAYS, CTQ_ONLY),
    (LIMIT, False, False, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, False, False, True, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, False, True, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, False, True, True, PAYS, CLAIMS, PAYS, REFUSED),
    (LIMIT, True, False, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, True, False, True, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, True, True, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT, True, True, True, PAYS, CLAIMS, PAYS, REFUSED),
    (LIMIT + 1, False, False, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT + 1, False, False, True, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT + 1, False, True, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (LIMIT + 1, False, True, True, PAYS, CLAIMS, PAYS, REFUSED),
    (LIMIT + 1, True, False, False, REFUSED, REFUSED, REFUSED, REFUSED),
    (LIMIT + 1, True, False, True, REFUSED, REFUSED, REFUSED, REFUSED),
    (LIMIT + 1, True, True, False, REFUSED, REFUSED, REFUSED, REFUSED),
    (LIMIT + 1, True, True, True, REFUSED, REFUSED, PAYS, REFUSED),
    (AMOUNT_HIGH, False, False, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (AMOUNT_HIGH, False, False, True, PAYS, CLAIMS, REFUSED, REFUSED),
    (AMOUNT_HIGH, False, True, False, PAYS, CLAIMS, REFUSED, REFUSED),
    (AMOUNT_HIGH, False, True, True, PAYS, CLAIMS, PAYS, REFUSED),
    (AMOUNT_HIGH, True, False, False, REFUSED, REFUSED, REFUSED, REFUSED),
    (AMOUNT_HIGH, True, False, True, REFUSED, REFUSED, REFUSED, REFUSED),
    (AMOUNT_HIGH, True, True, False, REFUSED, REFUSED, REFUSED, REFUSED),
    (AMOUNT_HIGH, True, True, True, REFUSED, REFUSED, PAYS, REFUSED),
]


@pytest.mark.parametrize("amount, cvm_required, oda, primed, google, google_always, apple, "
                         "samsung", LOCKED_DECISIONS)
def test_wallet_decisions(amount, cvm_required, oda, primed, google, google_always, apple,
                          samsung):
    ttq = TTQ(online_pin_supported=True, signature_supported=True, cvm_required=cvm_required,
              oda_for_online_supported=oda, emv_mode_supported=True)
    # only Google's wallet reads cdcvm_always
    for kind, always, want in [("google_like", False, google), ("google_like", True, google_always),
                               ("apple_like", False, apple), ("apple_like", True, apple),
                               ("samsung_like", False, samsung), ("samsung_like", True, samsung)]:
        for unlocked in (False, True):
            wallet = Wallet(kind, always)
            wallet.unlocked, wallet.magic_seen = unlocked, primed
            got = wallet.decide(Amount(amount, "EUR"), ttq)
            assert got == ((True, True, True, True) if unlocked else want), (kind, always, unlocked)
            # a locked apple_like decision consumes the greeting; nothing else touches it
            assert wallet.magic_seen == (primed and (unlocked or kind != "apple_like"))


# --- VERIFY and the try counter ---------------------------------------------------------

def test_verify_not_supported_by_default(env):
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    resp = channel.exchange(Message("VERIFY"))
    assert resp.payload[Tag.DECISION] == "not_supported"


def test_verify_counter_cycle():
    env = build_env(seed=7, card_overrides={
        "visa_plastic_no_fdda": {"offline_pin_enabled": True}})
    card = env.cards["visa_plastic_no_fdda"]
    channel = NfcChannel(env.trace, card)

    query = channel.exchange(Message("VERIFY"))
    assert query.payload[Tag.DECISION] == "query"
    assert query.payload[Tag.PIN_TRIES_REMAINING] == 3

    miss = channel.exchange(Message("VERIFY",
                                    DataElementMap({Tag.PIN_GUESS: "0000"})))
    assert miss.payload[Tag.DECISION] == "fail"
    assert miss.payload[Tag.PIN_TRIES_REMAINING] == 2

    hit = channel.exchange(Message("VERIFY", DataElementMap({
        Tag.PIN_GUESS: card.profile.pin})))
    assert hit.payload[Tag.DECISION] == "ok"
    assert hit.payload[Tag.PIN_TRIES_REMAINING] == 3


def test_blocked_card_refuses_transactions():
    env = build_env(seed=7, card_overrides={
        "visa_plastic_no_fdda": {"offline_pin_enabled": True}})
    card = env.cards["visa_plastic_no_fdda"]
    channel = NfcChannel(env.trace, card)
    for guess in ("0000", "0001", "0002"):
        resp = channel.exchange(Message("VERIFY",
                                        DataElementMap({Tag.PIN_GUESS: guess})))
    assert resp.payload[Tag.DECISION] == "blocked"
    assert card.blocked
    for guess in ("0003", card.profile.pin):  # the right PIN no longer unblocks it
        resp = channel.exchange(Message("VERIFY",
                                        DataElementMap({Tag.PIN_GUESS: guess})))
        assert (resp.payload[Tag.DECISION], resp.payload[Tag.PIN_TRIES_REMAINING]) == (
            "blocked", 0)
    assert card.blocked

    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos",
                         AMOUNT_LOW)
    assert (result["outcome"], result["reason"]) == ("decline", "card_declined")


@pytest.mark.parametrize("who, outcome, reason", [
    ("cardholder", "approve_online", "issuer_approved"),
    ("criminal", "decline", "signature_rejected"),
])
def test_kernel3_card_asked_for_a_cvm_below_the_limit_wants_a_signature(who, outcome, reason):
    # the TTQ edited on its way to the card demands a CVM; the card answers for a low
    # amount with a signature, which only the cardholder can give
    env = build_env(seed=7)
    adv = Adversary(trace=env.trace)
    adv.on_to_card(Edit(Tag.TTQ, {"cvm_required": True}))
    card = env.cards["visa_plastic_no_fdda"]
    result = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card, adversary=adv), Amount(AMOUNT_LOW, "EUR"),
        pin=card.profile.pin if who == "cardholder" else None, performed_by=who)
    assert (result["outcome"], result["reason"]) == (outcome, reason)
    if who == "cardholder":
        assert result["view"]["cvm_results"] == CVMResults(
            CVMMethod.PaperSignature, CVMCondition.IfBelowCvmLimit, CVMResult.Performed)
        assert evaluate(env.trace).violations == {"P1": ("TTQ",), "P3.2": ()}


@pytest.mark.parametrize("card, reason", [
    ("visa_plastic_fdda", "card_declined"),      # kernel 3: AAC at GPO
    ("google_like_phone", "card_declined"),
    ("mastercard_cda", "card_declined"),         # kernel 2: AAC at GENERATE AC
    ("magstripe_only", "no_dynamic_code"),       # mag-stripe mode: no code
])
def test_exhausted_atc_declines_once(env, card, reason):
    env.cards[card].atc = ATC_MAX
    result = run_genuine(env, card, "standard_pos", AMOUNT_LOW)
    assert (result["outcome"], result["reason"]) == ("decline", reason)
    assert len(markers(env.trace, "decision")) == 1
    assert env.cards[card].atc == ATC_MAX
    assert not markers(env.trace, "card_tx")


def test_exhausted_atc_refuses_dynamic_codes(env):
    # a harvest that runs the counter out gets refusals, not a crash
    card = env.cards["mastercard_cda"]
    card.atc = ATC_MAX - 2
    channel = NfcChannel(env.trace, card)
    query = Message("GENERATE_AC", DataElementMap({Tag.UN: 7}))
    replies = [channel.exchange(query) for _ in range(4)]
    assert [Tag.CVC3 in r.payload for r in replies] == [True, True, False, False]
    assert replies[-1].payload == DataElementMap()
    assert card.atc == ATC_MAX
    with pytest.raises(ValueError, match="dynamic-code"):
        harvest_cvc3_table(channel, AID_MASTERCARD, range(3))


# --- issuer ordering ---------------------------------------------------------------------

def test_hardened_issuer_catches_resubmitted_authorization():
    env = build_env(seed=11, policy=HARDENED)
    captured = []
    original = env.rails.authorize

    def spy(request, **kw):
        captured.append(request)
        return original(request, **kw)

    env.rails.authorize = spy
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos",
                         AMOUNT_LOW)
    assert result["outcome"] == "approve_online"

    again = env.issuer.handle_auth(captured[0])
    assert again.payload[Tag.DECISION] == "decline"
    assert again.payload[Tag.REASON] == "atc_replay"


@pytest.mark.parametrize("policy, second", [
    (PERMISSIVE_2019, "issuer_approved"), (HARDENED, "issuer_declined:un_reuse"),
], ids=["permissive", "hardened"])
def test_un_reuse_is_remembered_per_terminal_across_cards(policy, second):
    # the issuer remembers UNs per terminal across cards, so the second card's
    # tap repeats the first card's UN at the same terminal
    env = build_env(seed=0, policy=policy)
    reasons = [run_genuine(env, card, "rogue_fixed_un_pos", AMOUNT_LOW)["reason"]
               for card in ("visa_plastic_no_fdda", "mastercard_cda")]
    assert reasons == ["issuer_approved", second]


def test_issuer_atc_order_admits_only_higher_counters():
    env = build_env(policy=PERMISSIVE_2019.with_fixes(check_atc_order=True))
    card = env.cards["magstripe_only"]

    def submit(atc, un):
        return env.issuer.handle_auth(Message("AUTH_REQUEST", DataElementMap({
            Tag.PAN: card.profile.pan, Tag.AMOUNT: Amount(AMOUNT_LOW, "EUR"),
            Tag.ATC: atc, Tag.UN: un, Tag.CVC3: compute_cvc3(card.cvc3_key, atc, un),
        }))).payload[Tag.REASON]

    assert submit(5, 1) == "magstripe_ok"
    assert submit(5, 2) == "atc_replay"
    assert submit(4, 3) == "atc_replay"
    assert submit(6, 4) == "magstripe_ok"
    assert submit(6, 5) == "atc_replay"


@pytest.mark.parametrize("card, missing", [
    ("visa_plastic_no_fdda", "ATC"), ("visa_plastic_no_fdda", "AMOUNT"),
    ("magstripe_only", "UN"), ("magstripe_only", "ATC"),
    ("magstripe_only", "AMOUNT"),
])
def test_issuer_declines_a_submission_missing_an_element(card, missing):
    tag = Tag.by_name(missing)
    env = build_env(seed=11)
    run_genuine(env, card, "standard_pos", AMOUNT_LOW)
    genuine = markers(env.trace, "auth")[0].data["request"].payload
    request = Message("AUTH_REQUEST", DataElementMap(
        {t: genuine[t] for t in genuine if t != tag}))
    response = env.rails.authorize(request, session=env.trace.new_session(),
                                   submitted_by="adversary",
                                   adversary=Adversary(("A5",), trace=env.trace))
    reason = f"malformed_{missing.lower()}"
    assert response.payload[Tag.REASON] == reason
    auth = markers(env.trace, "auth")[-1]
    assert (auth.data["submitted_by"], auth.data["decision"],
            auth.data["reason"]) == ("adversary", "decline", reason)


def test_issuer_rejects_unknown_account(env):
    request = Message("AUTH_REQUEST", DataElementMap({
        Tag.AMOUNT: Amount(AMOUNT_LOW, "EUR"), Tag.PAN: "4999999999999999",
        Tag.MCC: "5999", Tag.MERCHANT_ID: "M-X", Tag.TERMINAL_ID: "T-STD-1",
        Tag.KERNEL_ID: 3, Tag.TX_TYPE: "purchase",
    }))
    resp = env.issuer.handle_auth(request)
    assert resp.payload[Tag.DECISION] == "decline"


def test_cross_brand_select_answers_nothing(env):
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    resp = channel.exchange(Message("SELECT",
                                    DataElementMap({Tag.AID: AID_MASTERCARD})))
    assert resp.payload.get(Tag.AID) is None
    resp = channel.exchange(Message("SELECT",
                                    DataElementMap({Tag.AID: AID_VISA})))
    assert resp.payload[Tag.AID] == AID_VISA
    assert resp.payload[Tag.KERNEL_ID] == 3


def test_transit_gate_tap_is_offline_and_clears(env):
    card = env.cards["samsung_like_phone"]
    card.wallet.unlocked = False
    terminal = env.terminals["transit_gate"]
    result = terminal.run_transit_tap(NfcChannel(env.trace, card))
    assert (result["outcome"], result["reason"]) == ("approve_offline",
                                                     "offline_floor")
    assert terminal.submit_clearing() == ["approve"]


def test_issuer_fix_fixtures_repair_one_check_each():
    import dataclasses
    assert len(ISSUER_CHECKS) == 7
    assert all(getattr(HARDENED, check) for check in ISSUER_CHECKS)
    for check in ISSUER_CHECKS:
        policy = PERMISSIVE_2019.with_fixes(**{check: True})
        flipped = [f.name for f in dataclasses.fields(policy)
                   if getattr(policy, f.name) != getattr(PERMISSIVE_2019, f.name)]
        assert flipped == [check]
        # an honest transaction still clears under every repaired issuer
        world = build_env(policy=policy)
        result = run_genuine(world, "mastercard_cda", "standard_pos", AMOUNT_HIGH)
        assert result["outcome"] == "approve_online"


# --- every decline reason logs one decision ----------------------------------------------

def _blank(message):
    """Hook: the card answers ``message`` with an empty reply."""
    return lambda msg, a: Message(message) if msg.name == message else msg


def _drop(message, tag):
    """Hook: remove ``tag`` from the card's ``message`` reply."""
    def hook(msg, a):
        if msg.name == message and tag in msg.payload:
            return Message(message, DataElementMap(
                {t: msg.payload[t] for t in msg.payload if t != tag}))
        return msg
    return hook


def _edit(message, tag, change):
    """Hook: replace ``tag``'s value in the card's ``message`` reply."""
    def hook(msg, a):
        if msg.name == message and tag in msg.payload:
            return msg.with_payload(**{tag.name: change(msg.payload[tag])})
        return msg
    return hook


_K3_REQUIRES_ODA = {"standard_pos": {"require_oda_kernel3": True}}

# reason -> (card, amount, who taps, card-side hooks, terminal overrides,
# PIN entered; None: the card's own when the cardholder taps)
DECLINES = {
    "over_ceiling": ("visa_plastic_fdda", CEILING + 1, "cardholder", (), {}, None),
    "no_application": ("visa_plastic_no_fdda", AMOUNT_LOW, "cardholder",
                       (_blank("SELECT"),), {}, None),
    "gpo_failed": ("visa_plastic_no_fdda", AMOUNT_LOW, "cardholder",
                   (_blank("GET_PROCESSING_OPTIONS"),), {}, None),
    "card_declined": ("google_like_phone", AMOUNT_HIGH, "criminal", (), {}, None),
    "ctq_mismatch": ("visa_plastic_no_fdda", AMOUNT_HIGH, "criminal",
                     (_edit("GET_PROCESSING_OPTIONS", Tag.CTQ,
                            lambda ctq: ctq.replace(cdcvm_performed=True)),), {}, None),
    "oda_chain_failed": ("visa_plastic_fdda", AMOUNT_LOW, "cardholder",
                         (_edit("READ_RECORD", Tag.CA_PK_INDEX, lambda _: 9),), {}, None),
    "fdda_failed": ("visa_plastic_fdda", AMOUNT_LOW, "cardholder",
                    (_edit("GET_PROCESSING_OPTIONS", Tag.UN_CARD, lambda un: un + 1),),
                    _K3_REQUIRES_ODA, None),
    "fdda_missing": ("visa_plastic_no_fdda", AMOUNT_LOW, "cardholder", (),
                     _K3_REQUIRES_ODA, None),
    "pin_unavailable": ("visa_plastic_no_fdda", AMOUNT_HIGH, "criminal", (), {}, None),
    "signature_rejected": ("magstripe_only", AMOUNT_HIGH, "criminal", (), {}, None),
    "no_cvm_agreed": ("visa_credit_foreign_nocvm", AMOUNT_HIGH, "cardholder", (), {},
                      None),
    "no_cryptogram": ("mastercard_cda", AMOUNT_LOW, "cardholder",
                      (_drop("GENERATE_AC", Tag.AC),), {}, None),
    "cda_missing": ("mastercard_cda", AMOUNT_LOW, "cardholder",
                    (_drop("GENERATE_AC", Tag.SDAD),), {}, None),
    "cda_invalid": ("mastercard_cda", AMOUNT_LOW, "cardholder",
                    (_edit("GENERATE_AC", Tag.ATC, lambda atc: atc + 1),), {}, None),
    "action_code_denial": ("mastercard_cda", AMOUNT_LOW, "cardholder",
                           (_edit("READ_RECORD", Tag.CA_PK_INDEX, lambda _: 9),), {}, None),
    "no_track_data": ("magstripe_only", AMOUNT_LOW, "cardholder",
                      (_drop("READ_RECORD", Tag.TRACK2),), {}, None),
    "no_dynamic_code": ("magstripe_only", AMOUNT_LOW, "cardholder",
                        (_drop("GENERATE_AC", Tag.CVC3),), {}, None),
    "issuer_declined:bad_pin": ("visa_plastic_no_fdda", AMOUNT_HIGH, "cardholder", (),
                                {}, "0000"),
}


def test_every_decline_the_terminal_raises_has_a_case():
    tree = ast.parse(Path(tapsim.terminal.__file__).read_text(encoding="utf-8"))
    raised = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Declined"}
    assert raised == {reason for reason in DECLINES if ":" not in reason}


def test_every_decline_site_is_a_step():
    # a decline's stage is the step that raised it: each function that raises is a
    # member of the opening or of a flow, and every member is a terminal function
    terminal = tapsim.terminal.Terminal
    steps = {*terminal._OPENING, *terminal._KERNEL2, *terminal._KERNEL3, *terminal._MAGSTRIPE}
    tree = ast.parse(Path(tapsim.terminal.__file__).read_text(encoding="utf-8"))
    raising = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_Declined"
                       for call in ast.walk(node))}
    assert raising and raising <= {step.__name__ for step in steps}
    assert {step.__code__.co_filename for step in steps} == {tapsim.terminal.__file__}


@pytest.mark.parametrize("reason", DECLINES)
def test_each_decline_reason_logs_one_decision(reason):
    card_name, amount, who, hooks, terminal_overrides, pin = DECLINES[reason]
    env = build_env(seed=7, terminal_overrides=terminal_overrides)
    adv = Adversary(trace=env.trace)
    for hook in hooks:
        adv.on_from_card(hook)
    card = env.cards[card_name]
    if pin is None and who == "cardholder":
        pin = card.profile.pin
    result = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card, adversary=adv), Amount(amount, "EUR"),
        pin=pin, performed_by=who)
    assert (result["outcome"], result["reason"]) == ("decline", reason)
    decisions = markers(env.trace, "decision")
    assert len(decisions) == 1
    assert decisions[0].data["reason"] == reason
    assert decisions[0].session == result["session"]


# --- each flow's defaults for a tag missing from the records -------------------------------

_ITS_PAN, _ITS_LIST, _ITS_TRACK2_PAN = "its PAN", "its CVM list", "its Track 2 PAN"
_NO_DENIAL = {"cda_failed": False}

# (card, tags dropped from every READ RECORD reply) -> (outcome, reason,
# the decision's rendered pan, cvm_list and iac_denial)
RECORD_DEFAULTS = {
    ("visa_plastic_no_fdda", ("PAN",)): (
        "decline", "issuer_declined:unknown_card", None, [], _NO_DENIAL),
    ("visa_plastic_no_fdda", ("CVM_LIST", "IAC")): (
        "approve_online", "issuer_approved", _ITS_PAN, None, None),
    ("visa_plastic_fdda", ("PAN",)): (
        "decline", "oda_chain_failed", None, [], _NO_DENIAL),
    ("mastercard_cda", ("PAN",)): (
        "decline", "action_code_denial", "", _ITS_LIST, {"cda_failed": True}),
    ("mastercard_cda", ("CVM_LIST", "IAC")): (
        "approve_online", "issuer_approved", _ITS_PAN, [], _NO_DENIAL),
    ("maestro_debit", ("CVM_LIST", "IAC")): (
        "approve_online", "issuer_approved", _ITS_PAN, [], _NO_DENIAL),
    ("magstripe_only", ("PAN",)): (
        "approve_online", "issuer_approved", _ITS_TRACK2_PAN, None, None),
}


@pytest.mark.parametrize("card, dropped", RECORD_DEFAULTS,
                         ids=[f"{card}-{'-'.join(dropped)}" for card, dropped in RECORD_DEFAULTS])
def test_each_flow_keeps_its_defaults_for_a_missing_record_tag(card, dropped):
    # kernel 3 logs a missing tag as null, kernel 2 as its empty value (an IAC
    # that denies nothing), and mag-stripe mode takes the PAN from Track 2
    outcome, reason, pan, cvm_list, iac_denial = RECORD_DEFAULTS[card, dropped]
    env = build_env(seed=3)
    profile = env.cards[card].profile
    ours = {_ITS_PAN: profile.pan, _ITS_LIST: render_value(profile.cvm_list),
            _ITS_TRACK2_PAN: profile.track2.pan}
    tags = {Tag.by_name(name) for name in dropped}
    adv = Adversary(trace=env.trace)
    adv.on_from_card(lambda msg, a: Message(msg.name, DataElementMap(
        {t: v for t, v in msg.payload.items() if t not in tags}))
        if msg.name == "READ_RECORD" else msg)
    result = run_genuine(env, card, "standard_pos", AMOUNT_LOW, adversary=adv)
    assert (result["outcome"], result["reason"]) == (outcome, reason)
    data = markers(env.trace, "decision")[0].data
    assert [render_value(data.get(key)) for key in ("pan", "cvm_list", "iac_denial")] == [
        ours.get(want, want) if type(want) is str else want
        for want in (pan, cvm_list, iac_denial)]
