from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_elements import ELEMENT_VALUES, SAMPLE_VALUES
from test_golden import CATALOGUE, GENUINE

from tapsim import channel, elements
from tapsim.attacks import CATALOG, run_attack
from tapsim.channel import (
    EMPTY,
    MARKER_KINDS,
    MESSAGES,
    SELECT,
    Adversary,
    ChannelError,
    Edit,
    Message,
    NfcChannel,
    PaymentRails,
    Replayer,
    TransactionTrace,
    visual_read,
)
from tapsim.elements import (AID_VISA, CID, CTQ, IAD, TTQ, Amount, CVMMethod, DataElementMap,
                             Tag, render_value, to_json)
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import AMOUNT_HIGH, build_env, run_genuine, run_genuine_matrix


class EchoCard:
    """Answers GPO with a fixed ATC; anything else echoes an empty payload."""

    def __init__(self):
        self.seen = []

    def exchange(self, msg: Message) -> Message:
        self.seen.append(msg)
        if msg.name == "GET_PROCESSING_OPTIONS":
            return Message("GET_PROCESSING_OPTIONS", DataElementMap({Tag.ATC: 7}))
        return Message(msg.name)


def msgs(trace, channel=None, name=None, session=None):
    """The trace's ``msg`` events on the given channel, with the given sent
    message name, in the given session; ``None`` matches any."""
    return [ev for ev in trace.events if ev.kind == "msg"
            and (channel is None or ev.channel == channel)
            and (name is None or (ev.sent is not None and ev.sent.name == name))
            and (session is None or ev.session == session)]


def markers(trace, kind, session=None):
    """The trace's ``kind`` markers, in the given session if one is given."""
    return [ev for ev in trace.events
            if ev.kind == kind and (session is None or ev.session == session)]


def tampered(ev):
    """Whether a ``msg`` hop delivered something other than what was sent: a
    different name or payload encoding; never when either view is missing."""
    sent, received = ev.sent, ev.received
    if sent is None or received is None or received is sent:
        return False
    return sent.name != received.name or sent.payload != received.payload


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


def test_a_message_holds_its_map_read_only():
    built = DataElementMap({Tag.AID: AID_VISA})
    msg = Message("SELECT", built)
    assert msg.payload is built and msg.json is None
    with pytest.raises(TypeError):
        built.put(Tag.KERNEL_ID, 3)
    with pytest.raises(TypeError):  # a plain dict is no map: its values were never admitted
        Message("SELECT", {Tag.AID: AID_VISA})


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
    hops = msgs(trace, channel="nfc")
    assert len(hops) == 2
    assert hops[0].direction == "to_card" and not tampered(hops[0])
    assert hops[1].direction == "from_card" and not tampered(hops[1])


def test_adversary_modification_shows_as_tamper():
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    adv.on_to_card(lambda m, a: m.with_payload(AMOUNT=Amount(100, "EUR"))
                   if m.name == "GET_PROCESSING_OPTIONS" else m)
    card = EchoCard()
    chan = NfcChannel(trace, card, adversary=adv)
    chan.exchange(gpo(amount=12000))
    assert card.seen[0].payload[Tag.AMOUNT] == Amount(100, "EUR")
    ev = msgs(trace, name="GET_PROCESSING_OPTIONS")[0]
    assert tampered(ev)
    assert ev.sent.payload[Tag.AMOUNT] == Amount(12000, "EUR")
    assert ev.received.payload[Tag.AMOUNT] == Amount(100, "EUR")


def test_capability_gate_on_nfc():
    trace = TransactionTrace()
    adv = Adversary(("A5",), trace=trace)
    with pytest.raises(ChannelError):
        NfcChannel(trace, EchoCard(), adversary=adv)
    with pytest.raises(ChannelError):
        Adversary(("A2",), trace=trace)


def test_observer_sees_wire_and_learns():
    # a hook that returns the message it was given only observes the hop
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)

    def spy(msg, a):
        if msg.name == "GET_PROCESSING_OPTIONS":
            a.learn("UN", str(msg.payload[Tag.UN]))
        return msg

    adv.on_to_card(spy)
    chan = NfcChannel(trace, EchoCard(), adversary=adv)
    chan.exchange(gpo(un=42))
    assert adv.knows("UN") == {"42"}
    hop = msgs(trace, name="GET_PROCESSING_OPTIONS")[0]
    assert hop.direction == "to_card"
    assert hop.received is hop.sent and not tampered(hop)
    assert len(markers(trace, "knowledge")) == 1
    # learning the same fact twice does not duplicate the marker
    chan.exchange(gpo(un=42))
    assert len(markers(trace, "knowledge")) == 1


# --- relay / record / replay ----------------------------------------------------

def test_relay_shares_one_session():
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    bridge = NfcChannel(trace, EchoCard(), adversary=adv, relay_active=True)
    session = bridge.session
    near = NfcChannel(trace, bridge, session=session, relay_active=True)
    near.exchange(gpo())
    sessions = {ev.session for ev in msgs(trace, channel="nfc")}
    assert sessions == {session}
    assert any(ev.relay_active for ev in msgs(trace, session=session))
    assert len(msgs(trace, channel="nfc")) == 4  # near + far legs


def test_replayer_answers_from_a_transcript():
    card = EchoCard()
    read = Message("READ_RECORD", DataElementMap({Tag.RECORD_NUMBER: 1}))
    ghost = Replayer([(q, card.exchange(q)) for q in (gpo(), read)])
    trace2 = TransactionTrace()
    chan2 = NfcChannel(trace2, ghost)
    r = chan2.exchange(gpo(amount=1))  # different question, same recorded answer
    assert r.payload[Tag.ATC] == 7
    chan2.exchange(read)
    assert chan2.exchange(gpo()) is EMPTY["GET_PROCESSING_OPTIONS"]  # transcript exhausted
    assert not any(ev.relay_active for ev in msgs(trace2, session=chan2.session))


def test_a_purchase_from_a_short_transcript_declines_once():
    # a replayer with no GPO answer gives the empty reply, as a card does, so the purchase
    # ends in its one decision instead of raising out of the terminal
    env = build_env(seed=0)
    select = SELECT[AID_VISA]
    ghost = Replayer([(select, env.cards["visa_plastic_no_fdda"].exchange(select))])
    trace = env.trace
    result = env.terminals["standard_pos"].run_purchase(NfcChannel(trace, ghost),
                                                        Amount(1500, "EUR"))
    assert (result["outcome"], result["reason"]) == ("decline", "gpo_failed")
    assert [ev.data["reason"] for ev in markers(trace, "decision")] == ["gpo_failed"]


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
    auth = markers(trace, "auth")[0]
    assert auth.data["decision"] == "approve"
    assert auth.data["submitted_by"] == "terminal"
    rails.clear(Message("CLEARING_SUBMIT"), session=s)
    assert markers(trace, "clearing")[0].data["decision"] == "decline"
    assert len(msgs(trace, channel="acquirer")) == 2
    assert len(msgs(trace, channel="payment")) == 2


def test_rails_adversary_submission_needs_a5():
    trace = TransactionTrace()
    rails = PaymentRails(trace, StubIssuer())
    s = trace.new_session()
    for adversary in (None, Adversary(("A1",), trace=trace)):  # no adversary, or one without A5
        with pytest.raises(ChannelError):
            rails.authorize(Message("AUTH_REQUEST"), session=s,
                            submitted_by="adversary", adversary=adversary)
    assert not trace.events
    a5 = Adversary(("A1", "A5"), trace=trace)
    rails.authorize(Message("AUTH_REQUEST"), session=s,
                    submitted_by="adversary", adversary=a5)
    assert markers(trace, "auth")[0].data["submitted_by"] == "adversary"


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
    trace.mark("decision", chan.session, dict(outcome="approve_online",
                                              amount=Amount(12000, "EUR")))
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
        t.mark("knowledge", None, dict(text="x", stuff={"b": 2, "a": 1}))
        return t.to_jsonl()

    assert build() == build()


@pytest.mark.parametrize("kind", ["note", "meta"])
def test_only_the_kinds_the_sandbox_logs_can_be_marked(kind):
    # a marked "meta" would read back as a second header line
    trace = TransactionTrace(meta={"seed": 3})
    with pytest.raises(ChannelError):
        trace.mark(kind, None, {})
    assert trace.events == [] and trace.to_jsonl().count('"kind": "meta"') == 1


def _reference_lines(trace):
    """Every JSONL line as json.dumps of a dict of the event's fields."""
    yield json.dumps({"kind": "meta", **render_value(trace.meta)}, sort_keys=True)
    for ev in trace.events:
        out = {"idx": ev.idx, "kind": ev.kind}
        if ev.session is not None:
            out["session"] = ev.session
        if ev.kind == "msg":
            out.update(channel=ev.channel, direction=ev.direction,
                       relay=ev.relay_active, status="ok",
                       sent=ev.sent.render() if ev.sent else None,
                       received=ev.received.render() if ev.received else None)
        if ev.data:
            out["data"] = render_value(ev.data)
        yield json.dumps(out, sort_keys=True)


def _hand_built_trace():
    trace = TransactionTrace(meta={"scenario": "edge", "seed": 7})
    sent = gpo()
    trace.log_msg("nfc", 1, "to_card", sent=sent, received=sent.with_payload(UN=0))
    record = Message("READ_RECORD", DataElementMap({Tag.CARDHOLDER_NAME: "Zoë Ørsted"}))
    trace.log_msg("nfc", None, "from_card", sent=record, received=record,
                  relay_active=True)
    trace.mark("auth", 1, dict(submitted_by="adversary", decision="decline", reason=None,
                               request=Message("AUTH_REQUEST", DataElementMap({Tag.UN: 3}))))
    return trace


def _seed_traces():
    yield from (run_attack(a, seed=42).trace for a in CATALOG)
    for policy in (PERMISSIVE_2019, HARDENED):
        yield from (env.trace for _p, env, _r in run_genuine_matrix(policy, seed=0))


def test_jsonl_lines_match_reference_dumps():
    hand = _hand_built_trace()
    lines = hand.to_jsonl().splitlines()
    assert '"received": {"name": "GET_PROCESSING_OPTIONS", "payload": {"AMOUNT"' in lines[1]
    assert "\\u00eb" in lines[2] and '"relay": true' in lines[2] and '"session"' not in lines[2]
    assert '"request": {"name": "AUTH_REQUEST", "payload": {"UN": 3}}' in lines[3]
    for trace in (hand, *_seed_traces()):
        assert trace.to_jsonl().splitlines() == list(_reference_lines(trace))


# 1, True, 1.0 and CID.ARQC compare and hash alike, as do 0, False, 0.0 and
# CVMMethod.NoCVM, and the two IADs; each renders differently
_ALIKE = [True, 1, 1.0, CID.ARQC, False, 0, 0.0, CVMMethod.NoCVM, None, IAD(1), IAD(True)]
_LEAVES = st.one_of(
    st.sampled_from(_ALIKE),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\x07\x1f\x7f", "Zoë Ørsted", "\u2028", "🂡"]),
    st.integers(),
    st.integers(min_value=2**64),
    st.floats(),  # nan and both infinities included
    st.binary(max_size=6),
    ELEMENT_VALUES,
)
_VALUES = _LEAVES | st.recursive(_LEAVES, lambda inner: st.one_of(
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
    st.lists(inner, max_size=3),
    st.lists(inner, max_size=3).map(tuple),
    st.sets(st.one_of(st.integers(), st.text(max_size=3)), max_size=4),
), max_leaves=8)
_DATA = st.dictionaries(st.text(max_size=6).filter(lambda k: k not in ("kind", "session")),
                        _VALUES, max_size=5)
_SENT = st.one_of(
    st.builds(gpo, st.integers(0, 10**12), st.integers(0, 2**32 - 1)),
    st.builds(lambda name: Message("READ_RECORD", DataElementMap(
        {Tag.RECORD_NUMBER: 1, Tag.CARDHOLDER_NAME: name})), st.text()),
    # a CID renders as its name, the int it equals as a number
    st.builds(lambda cid: Message("GENERATE_AC", DataElementMap({Tag.ATC: int(cid), Tag.CID: cid})),
              st.sampled_from(CID)),
    # each message carrying every tag it may carry
    st.sampled_from([Message(name, DataElementMap({t: SAMPLE_VALUES[t.name] for t in tags}))
                     for name, tags in MESSAGES.items()]),
)


@st.composite
def _traces(draw):
    trace = TransactionTrace(meta=draw(_DATA))
    shared = draw(st.lists(_LEAVES, max_size=3))  # one mutable list in many markers
    # plain objects reused in payloads and markers of many shapes: each use writes the one
    # text its object has, whatever object it equals
    aid = draw(st.binary(min_size=1, max_size=7))
    number = draw(st.integers(0, 0xFFFF))
    name = draw(st.text())
    reused = st.sampled_from([
        Message("SELECT", DataElementMap({Tag.AID: aid})),
        Message("SELECT", DataElementMap({Tag.AID: aid, Tag.AID_LIST: (aid,)})),
        Message("GENERATE_AC", DataElementMap({Tag.ATC: number, Tag.CID: CID(number % 3)})),
        Message("GET_PROCESSING_OPTIONS", DataElementMap({Tag.UN: number, Tag.AC: aid})),
        Message("READ_RECORD", DataElementMap({Tag.CARDHOLDER_NAME: name, Tag.PAN: name})),
    ])
    logged = [draw(_SENT)]  # messages marker data may hold: logged ones and one that is not
    for _ in range(draw(st.integers(0, 8))):
        session = draw(st.none() | st.integers(0, 9))
        if draw(st.booleans()):
            sent = draw(_SENT | reused)
            received = draw(st.sampled_from(
                [sent, Message(sent.name, sent.payload.copy()), Message(sent.name)]))
            trace.log_msg(draw(st.sampled_from(["nfc", "acquirer", "payment"])), session,
                          draw(st.sampled_from(["to_card", "from_card", "to_issuer"])),
                          sent, received, relay_active=draw(st.booleans()))
            logged += [sent, received]
        else:
            data = draw(_DATA)
            if draw(st.booleans()):
                data.update(zip("abcdefghijk", draw(st.permutations(_ALIKE))))
            if draw(st.booleans()):
                data["shared"] = shared
            if draw(st.booleans()):
                data.update(zip(draw(st.permutations("lmn")), (aid, number, name)))
            if draw(st.booleans()):
                request = draw(st.sampled_from(logged))
                data.update(request=request, nested={"in": [request, {"deeper": request}]})
            trace.mark(draw(st.sampled_from(sorted(MARKER_KINDS))), session, data)
    return trace


@settings(max_examples=100, deadline=None)
@given(_traces())
def test_jsonl_lines_match_reference_dumps_on_generated_traces(trace):
    assert trace.to_jsonl().splitlines() == list(_reference_lines(trace))


# --- line shapes: compiled once per process, so one shape must never serve another -------

def _matches_reference(trace):
    lines = trace.to_jsonl().splitlines()
    assert lines == list(_reference_lines(trace))
    return lines


def test_marker_shape_is_not_a_message_shape():
    # an empty GENERATE_AC and a marker whose only data key is "GENERATE_AC" have equal keys
    trace = TransactionTrace()
    empty = Message("GENERATE_AC")
    for _ in range(2):
        trace.log_msg("nfc", 1, "to_card", empty, empty)
        trace.mark("knowledge", 1, dict(GENERATE_AC=1))
    lines = _matches_reference(trace)
    assert '"sent": {"name": "GENERATE_AC", "payload": {}}' in lines[3]
    assert '"data": {"GENERATE_AC": 1}' in lines[4]


def test_insertion_order_of_keys_does_not_reach_the_line():
    trace = TransactionTrace()
    forward = Message("GET_PROCESSING_OPTIONS", DataElementMap({Tag.UN: 1, Tag.ATC: 2}))
    backward = Message("GET_PROCESSING_OPTIONS", DataElementMap({Tag.ATC: 2, Tag.UN: 1}))
    for _ in range(2):
        trace.log_msg("nfc", 1, "to_card", forward, backward)
        trace.log_msg("nfc", 1, "to_card", backward, forward)
        trace.mark("knowledge", None, dict(b=1, a=2))
        trace.mark("knowledge", None, dict(a=2, b=1))
    lines = _matches_reference(trace)
    # with the idx taken out, every msg line is one text and every marker line another
    assert len({line.replace(f'"idx": {i}, ', "") for i, line in enumerate(lines[1:])}) == 2


def test_percent_signs_in_keys_are_literal():
    trace = TransactionTrace()
    for value in (1, "%s", "%"):
        trace.mark("knowledge", None, {"%": value, "%s": value, "a%%b": value})
    lines = _matches_reference(trace)
    assert lines[3].startswith('{"data": {"%": "%", "%s": "%", "a%%b": "%"}')


def test_one_shape_writes_each_value_by_its_type():
    # 1, True, CID.ARQC and 1.0 compare and hash alike; the shape keeps no writer per key
    trace = TransactionTrace()
    for value in (1, True, CID.ARQC, 1.0, 1, CID.ARQC):
        trace.mark("knowledge", None, dict(value=value))
    lines = _matches_reference(trace)
    assert [line.split(", ")[0] for line in lines[1:]] == [
        '{"data": {"value": 1}', '{"data": {"value": true}', '{"data": {"value": "ARQC"}',
        '{"data": {"value": 1.0}', '{"data": {"value": 1}', '{"data": {"value": "ARQC"}']


def test_each_value_is_written_by_identity_not_by_equality():
    # True, 1 and CID.ARQC are equal, as are two distinct bytes objects: a text kept per
    # value would write the first one met for the others
    un = 70_000  # one int object, in a payload and in a marker
    first, second = bytes.fromhex("a0000000031010"), bytes.fromhex("a0000000031010")
    assert first == second and first is not second and CID.ARQC == 1 == True  # noqa: E712
    trace = TransactionTrace()
    for aid in (first, second):
        gac = Message("GENERATE_AC", DataElementMap({Tag.ATC: 1, Tag.CID: CID.ARQC, Tag.UN: un}))
        trace.log_msg("nfc", 1, "to_card", gac, gac.with_payload(CID=CID.TC))
        trace.log_msg("nfc", 1, "to_card", Message("SELECT", DataElementMap({Tag.AID: aid})),
                      Message("SELECT", DataElementMap({Tag.AID: second})))
        trace.mark("knowledge", 1, {"a": 1, "b": True, "c": CID.ARQC, "d": un, "e": aid, "f": True})
        trace.mark("knowledge", 1, {"a": True, "b": CID.ARQC, "c": 1, "d": aid, "e": un, "f": 1})
    lines = _matches_reference(trace)
    assert '"payload": {"ATC": 1, "CID": "ARQC", "UN": 70000}' in lines[1]
    assert lines[3].startswith('{"data": {"a": 1, "b": true, "c": "ARQC", "d": 70000, "e": '
                               '"a0000000031010", "f": true}')


def _shape_count():
    return len(channel._MESSAGE_SHAPES) + len(channel._MARKER_SHAPES)


def test_shapes_come_from_code_paths_not_data():
    def emit(catalogue_seed, genuine_seed):
        for attack_id in CATALOG:
            run_attack(attack_id, seed=catalogue_seed).trace.to_jsonl()
        for policy in (PERMISSIVE_2019, HARDENED):
            for _p, env, _r in run_genuine_matrix(policy, seed=genuine_seed):
                env.trace.to_jsonl()

    emit(42, 0)
    count = _shape_count()
    emit(1, 1)
    emit(7, 7)
    assert _shape_count() == count


def test_shape_caches_stay_within_their_bound():
    # an adversary can make any payload tag set: past the bound the oldest shape is dropped,
    # and a shape met again after it was dropped is built again
    tags = sorted(MESSAGES["GET_PROCESSING_OPTIONS"], key=lambda tag: tag.name)[:11]
    trace = TransactionTrace()
    for i in range(1, channel._SHAPES_SIZE + 100):
        chosen = [tag for bit, tag in enumerate(tags) if i >> bit & 1]
        gpo_msg = Message("GET_PROCESSING_OPTIONS",
                          DataElementMap({tag: SAMPLE_VALUES[tag.name] for tag in chosen}))
        trace.log_msg("nfc", 1, "to_card", gpo_msg, gpo_msg)
        trace.mark("knowledge", None, {tag.name: i for tag in chosen})
    for _ in range(2):
        _matches_reference(trace)
        assert len(channel._MESSAGE_SHAPES) == len(channel._MARKER_SHAPES) == channel._SHAPES_SIZE


def test_interned_values_keep_their_texts_within_the_bound():
    # an interned value carries its text from the table that built it: past the bound the oldest
    # value leaves the table and keeps its text, which a trace that still holds it writes
    one, true, held = IAD(1), IAD(True), Amount(0, "XTS")
    trace = TransactionTrace()
    trace.mark("knowledge", None, {"one": one, "true": true, "held": held})
    _matches_reference(trace)
    assert one.json == '{"cdcvm_performed": 1, "device_type": "plastic", "filler": ""}'
    assert true.json == '{"cdcvm_performed": true, "device_type": "plastic", "filler": ""}'
    assert held.json == '{"currency": "XTS", "value": 0}'
    for value in range(1, elements._INTERN_SIZE + 100):
        trace.mark("knowledge", None, {"amount": Amount(value, "XTS"), "again": held})
    assert len(elements._INTERNED) == elements._INTERN_SIZE
    assert all(kept is not held for kept in elements._INTERNED.values())
    assert Amount(0, "XTS") is not held and held.json == '{"currency": "XTS", "value": 0}'
    for _ in range(2):
        _matches_reference(trace)
    for value in elements._INTERNED.values():
        assert value.json == to_json(value) if type(value) in elements.RENDER else (
            not hasattr(value, "json"))


@pytest.mark.parametrize("edit", [
    Edit(Tag.TTQ, {"cvm_required": True}),
    Edit(Tag.UN, lambda un: un + 1, message="GET_PROCESSING_OPTIONS"),
    Edit(Tag.AMOUNT, Amount(100, "EUR"), where=(Tag.UN, 5)),
], ids=["flags", "callable", "value"])
def test_an_edit_leaves_the_message_it_is_handed_unchanged(edit):
    # the hop logs the handed message as sent: an edit that wrote into it would make the
    # logged sent and received agree on the forged value
    sent = gpo().with_payload(TTQ=TTQ(cvm_required=False))
    before = dict(sent.payload)
    edited = edit(sent, None)
    assert edited is not sent and dict(sent.payload) == before != dict(edited.payload)

    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    adv.on_to_card(edit)
    NfcChannel(trace, EchoCard(), adversary=adv).exchange(sent)
    ev = trace.events[0]
    assert ev.sent is sent and dict(sent.payload) == before and tampered(ev)


def _forged_ctq_purchase(forge):
    """A purchase of visa_plastic_no_fdda at standard_pos whose GPO reply ``forge`` rewrites on
    the hop: the trace's GPO reply event, and the outcome."""
    env = build_env(seed=0)
    adv = Adversary(("A1",), trace=env.trace)
    adv.on_from_card(lambda m, a: forge(m) if m.name == "GET_PROCESSING_OPTIONS" else m)
    card = env.cards["visa_plastic_no_fdda"]
    result = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card, adversary=adv), Amount(AMOUNT_HIGH, "EUR"),
        pin=card.profile.pin)
    [ev] = msgs(env.trace, name="GET_PROCESSING_OPTIONS")[1::2]
    return ev, (result["outcome"], result["reason"])


def test_a_hook_that_writes_into_the_message_it_is_handed_is_refused():
    # the payload the hop hands a hook is the one it logs as sent: a write into it would log
    # the forged CTQ as what the card sent
    forged = CTQ(cdcvm_performed=True)

    def in_place(msg):
        msg.payload.put(Tag.CTQ, forged)
        return msg

    with pytest.raises(TypeError):
        _forged_ctq_purchase(in_place)
    # the same forgery as a new message shows as a disagreement between the two views
    ev, outcome = _forged_ctq_purchase(lambda msg: msg.with_payload(CTQ=forged))
    assert outcome == ("decline", "ctq_mismatch") and tampered(ev)
    assert ev.received.payload[Tag.CTQ] is forged is not ev.sent.payload[Tag.CTQ]


@pytest.mark.parametrize("direction, edit, outcome", [
    ("from_card", Edit(Tag.CTQ, CTQ(cdcvm_performed=True)), ("approve_online", "issuer_approved")),
    ("to_card", Edit(Tag.TTQ, TTQ(cvm_required=False)), ("decline", "no_cvm_agreed")),
], ids=["ctq", "ttq"])
def test_a_put_naming_no_message_goes_only_where_its_tag_may_be_carried(direction, edit,
                                                                       outcome):
    # the SELECT exchange comes first and may carry neither tag: the edit passes it on
    # untouched, puts its value into each message that may carry the tag, and the run ends
    # in one decision
    env = build_env(seed=0)
    adv = Adversary(("A1",), trace=env.trace)
    (adv.on_to_card if direction == "to_card" else adv.on_from_card)(edit)
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, adversary=adv)
    assert (result["outcome"], result["reason"]) == outcome
    assert len(markers(env.trace, "decision")) == 1
    hop = [ev for ev in msgs(env.trace, channel="nfc") if ev.direction == direction]
    assert {ev.sent.name for ev in hop} >= {"SELECT", "GET_PROCESSING_OPTIONS"}
    for ev in hop:
        if edit.tag in MESSAGES[ev.sent.name]:
            assert ev.received.payload[edit.tag] is edit.op
        else:
            assert ev.received is ev.sent


@pytest.mark.parametrize("hook, expected", [
    (lambda m, a: Message(m.name, m.payload.copy()), False),
    (lambda m, a: m.with_payload(TTQ=m.payload[Tag.TTQ].replace(cvm_required=True)), True),
])
def test_tampered_compares_encodings(hook, expected):
    trace = TransactionTrace()
    adv = Adversary(("A1",), trace=trace)
    adv.on_to_card(hook)
    NfcChannel(trace, EchoCard(), adversary=adv).exchange(
        gpo().with_payload(TTQ=TTQ(cvm_required=False)))
    ev = trace.events[0]
    assert ev.received is not ev.sent
    assert tampered(ev) is expected


def test_catalogue_digest_ignores_the_hash_seed():
    # each child emits the catalogue with its shape cache cold, then warm, then the genuine matrix
    code = ("import hashlib; from tapsim.attacks import CATALOG, run_attack; "
            "from tapsim.issuer import HARDENED, PERMISSIVE_2019; "
            "from tapsim.runner import run_genuine_matrix; "
            "digest = lambda texts: hashlib.sha256(''.join(texts).encode('utf-8')).hexdigest(); "
            "catalogue = [run_attack(a, seed=42).trace for a in CATALOG]; "
            "print(digest(t.to_jsonl() for t in catalogue)); "
            "print(digest(t.to_jsonl() for t in catalogue)); "
            "print(digest(env.trace.to_jsonl() for p in (PERMISSIVE_2019, HARDENED) "
            "for _p, env, _r in run_genuine_matrix(p, seed=0)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
             for seed in ("0", "1")]
    digests = [proc.communicate(timeout=120)[0].split() for proc in procs]
    assert digests == [[CATALOGUE, CATALOGUE, GENUINE]] * 2
