from __future__ import annotations

import json

import pytest

from tapsim.channel import (
    Adversary,
    ChannelError,
    Message,
    NfcChannel,
    PaymentRails,
    Recorder,
    Replayer,
    TransactionTrace,
    make_relay,
    visual_read,
)
from tapsim.elements import Amount, DataElementMap, Tag


class EchoCard:
    """Answers GPO with a fixed ATC; anything else echoes an empty payload."""

    def __init__(self):
        self.seen = []

    def exchange(self, msg: Message) -> Message:
        self.seen.append(msg)
        if msg.name == "GET_PROCESSING_OPTIONS":
            return Message("GET_PROCESSING_OPTIONS", DataElementMap({Tag.ATC: 7}))
        return Message(msg.name)


def gpo(amount=12000, un=5):
    return Message("GET_PROCESSING_OPTIONS",
                   DataElementMap({Tag.AMOUNT: Amount(amount, "EUR"), Tag.UN: un}))


# --- messages ----------------------------------------------------------------

def test_message_name_validation():
    with pytest.raises(ChannelError):
        Message("PING")


def test_message_payload_allowlist():
    with pytest.raises(ChannelError):
        Message("SELECT", DataElementMap({Tag.AMOUNT: Amount(1, "EUR")}))
    Message("SELECT", DataElementMap({Tag.AID: b"\xa0\x00\x00\x00\x03\x10\x10"}))


def test_with_payload_and_without():
    m = gpo()
    m2 = m.with_payload(UN=9, ATC=3)
    assert m2.payload[Tag.UN] == 9 and m2.payload[Tag.ATC] == 3
    # the original is left without either change
    assert m.payload[Tag.UN] == 5 and Tag.ATC not in m.payload


# --- plain channel ----------------------------------------------------------------

def test_channel_logs_both_views():
    trace = TransactionTrace()
    chan = NfcChannel(trace, EchoCard())
    reply = chan.exchange(gpo())
    assert reply.payload[Tag.ATC] == 7
    msgs = list(trace.msgs(channel="nfc"))
    assert len(msgs) == 2
    assert msgs[0].direction == "to_card" and not msgs[0].tampered
    assert msgs[1].direction == "from_card" and not msgs[1].tampered


def test_adversary_modification_shows_as_tamper():
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    adv.on_to_card(lambda m, a: m.with_payload(AMOUNT=Amount(100, "EUR"))
                   if m.name == "GET_PROCESSING_OPTIONS" else m)
    card = EchoCard()
    chan = NfcChannel(trace, card, adversary=adv)
    chan.exchange(gpo(amount=12000))
    assert card.seen[0].payload[Tag.AMOUNT] == Amount(100, "EUR")
    ev = next(trace.msgs(name="GET_PROCESSING_OPTIONS"))
    assert ev.tampered
    assert ev.sent.payload[Tag.AMOUNT] == Amount(12000, "EUR")
    assert ev.received.payload[Tag.AMOUNT] == Amount(100, "EUR")


def test_capability_gate_on_nfc():
    trace = TransactionTrace()
    adv = Adversary(("A5",), trace=trace)
    with pytest.raises(ChannelError):
        NfcChannel(trace, EchoCard(), adversary=adv)
    with pytest.raises(ChannelError):
        Adversary(("A2",))


def test_observer_sees_wire_and_learns():
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)

    def spy(direction, msg, a):
        if msg.name == "GET_PROCESSING_OPTIONS" and direction == "to_card":
            a.learn("UN", str(msg.payload[Tag.UN]))

    adv.observe_with(spy)
    chan = NfcChannel(trace, EchoCard(), adversary=adv)
    chan.exchange(gpo(un=42))
    assert adv.knows("UN") == {"42"}
    assert len(trace.markers("knowledge")) == 1
    # learning the same fact twice does not duplicate the marker
    chan.exchange(gpo(un=42))
    assert len(trace.markers("knowledge")) == 1


# --- relay / record / replay ----------------------------------------------------

def test_relay_shares_one_session():
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    bridge, session = make_relay(trace, EchoCard(), adv)
    near = NfcChannel(trace, bridge, session=session, relay_active=True)
    near.exchange(gpo())
    sessions = {ev.session for ev in trace.msgs(channel="nfc")}
    assert sessions == {session}
    assert trace.session_saw_relay(session)
    assert len(list(trace.msgs(channel="nfc"))) == 4  # near + far legs


def test_recorder_and_replayer():
    rec = Recorder(EchoCard())
    trace = TransactionTrace()
    chan = NfcChannel(trace, rec)
    chan.exchange(gpo())
    chan.exchange(Message("READ_RECORD", DataElementMap({Tag.RECORD_NUMBER: 1})))

    ghost = Replayer(rec.transcript)
    trace2 = TransactionTrace()
    chan2 = NfcChannel(trace2, ghost)
    r = chan2.exchange(gpo(amount=1))  # different question, same recorded answer
    assert r.payload[Tag.ATC] == 7
    chan2.exchange(Message("READ_RECORD", DataElementMap({Tag.RECORD_NUMBER: 1})))
    with pytest.raises(ChannelError):
        chan2.exchange(gpo())  # transcript exhausted
    assert not trace2.session_saw_relay(chan2.session)


# --- rails ----------------------------------------------------------------------

class StubIssuer:
    def handle_auth(self, req):
        return Message("AUTH_RESPONSE", DataElementMap({Tag.DECISION: "approve",
                                                        Tag.REASON: "ok"}))

    def handle_clearing(self, req):
        return Message("CLEARING_RESPONSE", DataElementMap({Tag.DECISION: "decline",
                                                            Tag.REASON: "bad_ac"}))


def test_rails_log_and_mark():
    trace = TransactionTrace()
    rails = PaymentRails(trace, StubIssuer())
    s = trace.new_session()
    resp = rails.authorize(Message("AUTH_REQUEST"), session=s)
    assert resp.payload[Tag.DECISION] == "approve"
    auth = trace.markers("auth")[0]
    assert auth.data["decision"] == "approve"
    assert auth.data["submitted_by"] == "terminal"
    rails.clear(Message("CLEARING_SUBMIT"), session=s)
    assert trace.markers("clearing")[0].data["decision"] == "decline"
    assert len(list(trace.msgs(channel="acquirer"))) == 2
    assert len(list(trace.msgs(channel="payment"))) == 2


def test_rails_adversary_submission_needs_a5():
    trace = TransactionTrace()
    rails = PaymentRails(trace, StubIssuer())
    s = trace.new_session()
    a1_only = Adversary(("A1",), trace=trace)
    with pytest.raises(ChannelError):
        rails.authorize(Message("AUTH_REQUEST"), session=s,
                        submitted_by="adversary", adversary=a1_only)
    a5 = Adversary(("A1", "A5"), trace=trace)
    rails.authorize(Message("AUTH_REQUEST"), session=s,
                    submitted_by="adversary", adversary=a5)
    assert trace.markers("auth")[0].data["submitted_by"] == "adversary"


def test_visual_read_requires_a8():
    trace = TransactionTrace()
    face = {"PAN": "4111111111111111", "EXPIRY": "2812",
            "CARDHOLDER_NAME": "J DOE", "CSC": "123"}
    with pytest.raises(ChannelError):
        visual_read(Adversary(("A1",), trace=trace), face)
    adv = Adversary(("A1", "A8"), trace=trace)
    visual_read(adv, face)
    assert adv.knows("PAN") == {"4111111111111111"}
    assert adv.knows("CSC") == {"123"}


# --- trace export ------------------------------------------------------------------

def test_jsonl_roundtrips_through_json():
    trace = TransactionTrace(meta={"scenario": "demo", "seed": 1})
    adv = Adversary(("A1",), trace=trace)
    adv.on_to_card(lambda m, a: m.with_payload(UN=0) if Tag.UN in m.payload else m)
    chan = NfcChannel(trace, EchoCard(), adversary=adv)
    chan.exchange(gpo())
    trace.mark("decision", session=chan.session, outcome="approve_online",
               amount=Amount(12000, "EUR"))
    lines = trace.to_jsonl().strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["kind"] == "meta" and parsed[0]["scenario"] == "demo"
    kinds = [p["kind"] for p in parsed[1:]]
    assert kinds == ["msg", "msg", "decision"]
    assert parsed[1]["sent"]["payload"]["UN"] == 5
    assert parsed[1]["received"]["payload"]["UN"] == 0
    assert parsed[3]["data"]["amount"] == {"value": 12000, "currency": "EUR"}


def test_jsonl_deterministic():
    def build():
        t = TransactionTrace(meta={"seed": 3})
        c = NfcChannel(t, EchoCard())
        c.exchange(gpo())
        t.mark("note", text="x", stuff={"b": 2, "a": 1})
        return t.to_jsonl()

    assert build() == build()
