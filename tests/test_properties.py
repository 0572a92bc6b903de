"""Checker behavior: clean runs stay clean, planted defects show up."""

import pytest

from tapsim.attacks import CATALOG, run_attack
from tapsim.channel import (Adversary, DataElementMap, Message, NfcChannel,
                            PaymentRails, Tag, TransactionTrace)
from tapsim.elements import CVM_LIMIT, Amount
from tapsim.properties import (CORE_SECRETS, PropertyReport, compare_expected,
                               evaluate)
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import (AMOUNT_HIGH, AMOUNT_LOW, GENUINE_MATRIX, build_env,
                           run_genuine, run_genuine_matrix)


# --- report mechanics ---------------------------------------------------------

def test_empty_report_summary():
    r = PropertyReport()
    assert r.summary() == "none"
    assert not r.p3
    assert r.render()["not_evaluated"] == ["P4"]


def test_summary_orders_and_labels():
    r = PropertyReport(violations={"P3.2": (), "P1": ("TTQ", "CTQ")})
    assert r.summary() == "P1(TTQ,CTQ), P3.2"
    assert r.p3
    assert "P3.1" not in r.violations


def test_compare_expected_flags_both_directions():
    r = PropertyReport(violations={"P1": ("TTQ",)})
    assert compare_expected(r, {"P1": {"TTQ"}}) == []
    diffs = compare_expected(r, {"P1": {"TTQ"}, "P2": ()})
    assert any(d.startswith("P2") for d in diffs)
    diffs = compare_expected(r, {})
    assert any(d.startswith("P1") for d in diffs)
    diffs = compare_expected(r, {"P1": {"CTQ"}})
    assert "labels" in diffs[0]


def test_compare_expected_ignores_p4_and_derived_p3():
    r = PropertyReport(violations={"P3.1": ()})
    assert compare_expected(r, {"P3.1": ()}) == []


# --- genuine runs are violation-free ------------------------------------------

@pytest.mark.parametrize("policy", [PERMISSIVE_2019, HARDENED],
                         ids=lambda p: p.name)
def test_genuine_matrix_no_violations(policy):
    bad = []
    for pairing, env, result in run_genuine_matrix(policy):
        report = evaluate(env.trace)
        if report.violations:
            bad.append((pairing, report.summary()))
    assert bad == []


def test_evaluate_only_reads_the_trace():
    # decision data and rails requests are judged in place: a clause that wrote to
    # them would change the trace it judged
    traces = [(run_attack(attack_id, seed=42).trace, spec.expected.get("P5", ()))
              for attack_id, spec in CATALOG.items()]
    traces += [(env.trace, ()) for policy in (PERMISSIVE_2019, HARDENED)
               for _pairing, env, _result in run_genuine_matrix(policy, seed=0)]
    for trace, scope in traces:
        before = trace.to_jsonl()
        evaluate(trace, secret_scope=scope)
        assert trace.to_jsonl() == before


def test_genuine_matrix_covers_enough_pairings():
    assert len(GENUINE_MATRIX) >= 25


# --- single properties on handcrafted runs ------------------------------------

def test_p5_core_secret_always_in_scope():
    trace = TransactionTrace()
    adv = Adversary(trace=trace)
    adv.learn("PIN", "1234")
    report = evaluate(trace)
    assert report.violations["P5"] == ("PIN",)
    assert "PIN" in CORE_SECRETS


def test_p5_scope_limits_what_counts():
    trace = TransactionTrace()
    adv = Adversary(trace=trace)
    adv.learn("PAN", "4111111111111111")
    adv.learn("TRACK2", "whatever")
    assert evaluate(trace).violations == {}
    report = evaluate(trace, secret_scope={"PAN"})
    assert report.violations["P5"] == ("PAN",)


def test_p6_failed_probe():
    trace = TransactionTrace()
    trace.mark("genuine_probe", 1, dict(ok=False, what="purchase"))
    assert "P6" in evaluate(trace).violations
    trace2 = TransactionTrace()
    trace2.mark("genuine_probe", 1, dict(ok=True, what="purchase"))
    assert "P6" not in evaluate(trace2).violations


def test_p31_high_value_without_genuine_cvm():
    trace = TransactionTrace()
    trace.mark("decision", 1, dict(outcome="approve_online", mode="emv",
                                   amount=Amount(12000, "EUR"), pan="4111", atc=3))
    assert "P3.1" in evaluate(trace).violations
    trace.mark("cvm", 1, dict(method="OnlinePIN", genuine=True, by="cardholder"))
    assert "P3.1" not in evaluate(trace).violations


def test_p31_boundary_at_cvm_limit():
    def judged(amount):
        trace = TransactionTrace()
        trace.mark("decision", 1, dict(outcome="approve_online", mode="emv",
                                       amount=Amount(amount, "EUR"), pan="4111", atc=3))
        return evaluate(trace).violations

    assert "P3.1" not in judged(CVM_LIMIT)
    assert "P3.1" in judged(CVM_LIMIT + 1)


def test_p2_offline_approval_bounced_at_clearing():
    trace = TransactionTrace()
    trace.mark("decision", 1, dict(outcome="approve_offline", mode="emv",
                                   amount=Amount(1500, "EUR"), pan="5555", atc=7))
    submit = Message("CLEARING_SUBMIT", DataElementMap({
        Tag.PAN: "5555", Tag.ATC: 7, Tag.AMOUNT: Amount(1500, "EUR"),
        Tag.DECISION: "offline_approved",
    }))
    trace.log_msg("payment", 1, "out", submit, submit)
    trace.mark("clearing", 1, dict(decision="decline", reason="bad_ac", submitted_by="terminal",
                                   request=submit))
    assert "P2" in evaluate(trace).violations


def test_p1_field_disagreement_and_replay_label():
    # same session, terminal saw a different amount than the card committed to
    trace = TransactionTrace()
    trace.mark("card_tx", 1, dict(pan="4111", atc=5, amount=Amount(100, "EUR"), un=42))
    trace.mark("decision", 1, dict(outcome="approve_online", mode="emv", amount=Amount(9, "EUR"),
                                   pan="4111", atc=5, un=42))
    assert evaluate(trace).violations["P1"] == ("AMOUNT",)

    # commitment exists only in another session: replayed transcript
    trace2 = TransactionTrace()
    trace2.mark("card_tx", 1, dict(pan="4111", atc=5, amount=Amount(9, "EUR"), un=42))
    trace2.mark("decision", 2, dict(outcome="approve_online", mode="emv", amount=Amount(9, "EUR"),
                                    pan="4111", atc=5, un=42))
    assert evaluate(trace2).violations["P1"] == ("replay",)


def test_p1_no_card_commitment_no_p1():
    # pure clone: nothing the card ever said, so no disagreement to report
    trace = TransactionTrace()
    trace.mark("decision", 1, dict(outcome="approve_online", mode="ms", amount=Amount(9, "EUR"),
                                   pan="5200", atc=33))
    assert "P1" not in evaluate(trace).violations


def test_p1_ms_mode_cross_session_is_not_replay():
    # harvested dynamic codes get spent in a later session; the card never
    # re-committed, so mag-stripe acceptances must not count as replays
    trace = TransactionTrace()
    trace.mark("card_tx", 1, dict(pan="5200", atc=33, mode="ms", un=7))
    trace.mark("decision", 2, dict(outcome="approve_online", mode="ms", amount=Amount(9, "EUR"),
                                   pan="5200", atc=33, un=7))
    assert "P1" not in evaluate(trace).violations


def test_p1_ctq_presence_asymmetry():
    # terminal accepted a kernel-3 CVM claim from a card that never made one
    trace = TransactionTrace()
    trace.mark("card_tx", 1, dict(pan="5555", atc=5, amount=Amount(9, "EUR")))
    trace.mark("decision", 1, dict(outcome="approve_online", mode="emv", amount=Amount(9, "EUR"),
                                   pan="5555", atc=5, ctq=object()))
    assert evaluate(trace).violations["P1"] == ("CTQ",)


def test_p32_relay_breaks_proximity():
    env = build_env(seed=11)
    card = env.cards["visa_plastic_fdda"]
    adv = Adversary(trace=env.trace)
    bridge = NfcChannel(env.trace, card, adversary=adv, relay_active=True)
    terminal = env.terminals["standard_pos"]
    result = terminal.run_purchase(bridge, Amount(AMOUNT_LOW, "EUR"),
                                   performed_by="cardholder",
                                   pin=card.profile.pin)
    assert result["outcome"].startswith("approve")
    report = evaluate(env.trace)
    assert "P3.2" in report.violations
    # an untouched relay changes nothing the two sides agreed on
    assert "P1" not in report.violations


def test_p32_skips_plain_swipes():
    env = build_env(seed=12)
    result = run_genuine(env, "magstripe_only", "swipe_pos", AMOUNT_LOW)
    assert result["outcome"].startswith("approve")
    assert "P3.2" not in evaluate(env.trace).violations


def test_p32_adversary_submitted_authorization():
    trace = TransactionTrace()
    # rails wired to a stub issuer that approves anything
    class Yes:
        def handle_auth(self, request):
            return Message("AUTH_RESPONSE", DataElementMap({
                Tag.DECISION: "approve", Tag.REASON: "authorized"}))
    rails = PaymentRails(trace, Yes())
    adv = Adversary(trace=trace, capabilities={"A5"})
    session = trace.new_session()
    # give the session an NFC leg so proximity is in scope
    ping = Message("SELECT", DataElementMap({Tag.AID: b"\xa0\x00"}))
    trace.log_msg("nfc", session, "to_card", ping, ping)
    request = Message("AUTH_REQUEST", DataElementMap({
        Tag.AMOUNT: Amount(100, "EUR"), Tag.PAN: "4556", Tag.ATC: 2,
        Tag.AC: b"\x00" * 32,
    }))
    rails.authorize(request, session=session, submitted_by="adversary",
                    adversary=adv)
    assert "P3.2" in evaluate(trace).violations


def test_genuine_single_run_report_is_clean():
    env = build_env(seed=3)
    run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_HIGH)
    report = evaluate(env.trace)
    assert report.violations == {}
    assert report.summary() == "none"


@pytest.mark.parametrize("relay_in, cvm_in, broken", [(1, 2, True), (2, 1, False)],
                         ids=["relay-here-cvm-elsewhere", "cvm-here-relay-elsewhere"])
def test_p31_p32_judge_an_acceptance_by_its_own_session(relay_in, cvm_in, broken):
    # the acceptance is in session 1; session 2 holds the other half of the story
    high = Amount(CVM_LIMIT + 1, "EUR")
    ping = Message("SELECT", DataElementMap({Tag.AID: b"\xa0\x00"}))
    trace = TransactionTrace()
    for session in (1, 2):
        trace.log_msg("nfc", session, "to_card", ping, ping,
                      relay_active=session == relay_in)
        trace.mark("card_tx", session, dict(pan="4111", atc=session, amount=high))
    trace.mark("cvm", cvm_in, dict(method="OnlinePIN", genuine=True, by="cardholder"))
    trace.mark("decision", 1, dict(outcome="approve_online", mode="emv", amount=high, pan="4111",
                                   atc=1))
    violations = evaluate(trace).violations
    assert ("P3.1" in violations, "P3.2" in violations) == (broken, broken)
    assert "P1" not in violations
