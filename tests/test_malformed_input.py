"""Malformed protocol input fails closed: a command the card cannot read is
answered with an empty reply, and a reply the terminal cannot read declines
``malformed_<tag>``. Every run returns and logs exactly one decision. No
scripted scenario reaches either handler, so neither hides a programming
error."""

from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_elements import WRITER_VALUES

from tapsim import attacks
from tapsim.card import Card
from tapsim.channel import EMPTY, MESSAGES, Adversary, Message
from tapsim.elements import KINDS, Amount, CodecError, DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import (
    AMOUNT_LOW,
    GENUINE_MATRIX,
    TERMINAL_FIXTURES,
    build_env,
    run_genuine,
    run_genuine_matrix,
)

NFC_PAIRINGS = [(card, terminal, amount, unlocked)
                for card, terminal, amount, unlocked, _expect in GENUINE_MATRIX
                if TERMINAL_FIXTURES[terminal].get("interface") != "swipe"]


def _decisions(trace):
    return [ev for ev in trace.events if ev.kind == "decision"]


def _run(pairing, direction=None, hook=None, policy=PERMISSIVE_2019):
    """One genuine run of ``pairing`` under ``policy`` with ``hook`` on the hop in ``direction``."""
    card, terminal, amount, unlocked = pairing
    env = build_env(seed=0, policy=policy)
    adversary = Adversary(trace=env.trace)
    if hook is not None:
        (adversary.on_to_card if direction == "to" else adversary.on_from_card)(hook)
    result = run_genuine(env, card, terminal, amount, unlocked=unlocked, adversary=adversary)
    return env, result


def _carried(pairing):
    """(direction, message name, tag) of each tag the pairing's messages carry."""
    seen = set()

    def spy(direction):
        def hook(msg, adversary):
            seen.update((direction, msg.name, tag.name) for tag in msg.payload)
            return msg
        return hook

    card, terminal, amount, unlocked = pairing
    env = build_env(seed=0)
    adversary = Adversary(trace=env.trace)
    adversary.on_to_card(spy("to"))
    adversary.on_from_card(spy("from"))
    run_genuine(env, card, terminal, amount, unlocked=unlocked, adversary=adversary)
    return sorted(seen)


def _drop(name, tag):
    """Hook: ``tag`` removed from every ``name`` message."""
    def hook(msg, adversary):
        if msg.name != name or tag not in msg.payload:
            return msg
        return Message(name, DataElementMap(
            {t: v for t, v in msg.payload.items() if t is not tag}))
    return hook


@pytest.mark.parametrize("pairing", NFC_PAIRINGS, ids=["@".join(map(str, p)) for p in NFC_PAIRINGS])
def test_dropping_any_carried_tag_ends_in_one_decision(pairing):
    carried = _carried(pairing)
    assert carried
    for direction, name, tag_name in carried:
        env, result = _run(pairing, direction, _drop(name, Tag.by_name(tag_name)))
        decisions = _decisions(env.trace)
        assert len(decisions) == 1, (direction, name, tag_name)
        assert decisions[0].data["reason"] == result["reason"]


@pytest.mark.parametrize("policy", [PERMISSIVE_2019, HARDENED], ids=lambda policy: policy.name)
@pytest.mark.parametrize("name", sorted(Card._HANDLERS))  # every name the NFC hop carries
@pytest.mark.parametrize("direction", ["to", "from"])
@pytest.mark.parametrize("pairing", NFC_PAIRINGS, ids=["@".join(map(str, p)) for p in NFC_PAIRINGS])
def test_an_emptied_message_ends_in_one_decision(pairing, direction, name, policy):
    # a name the pairing's flow never sends leaves its run genuine
    env, result = _run(pairing, direction, lambda msg, adversary: EMPTY[name]
                       if msg.name == name else msg, policy)
    decisions = _decisions(env.trace)
    assert len(decisions) == 1 and decisions[0].data["reason"] == result["reason"]


def test_a_reply_lacking_a_read_element_declines_naming_it():
    # the GPO reply of a kernel-3 card without its ATC
    env, result = _run(("visa_plastic_no_fdda", "standard_pos", AMOUNT_LOW, True),
                       "from", _drop("GET_PROCESSING_OPTIONS", Tag.ATC))
    assert (result["outcome"], result["reason"]) == ("decline", "malformed_atc")
    assert [ev.data["reason"] for ev in _decisions(env.trace)] == ["malformed_atc"]


def test_a_reply_the_terminal_cannot_act_on_declines_naming_the_element():
    # twenty nonce digits make a mag-stripe UN no GENERATE AC can carry
    env, result = _run(("magstripe_only", "standard_pos", AMOUNT_LOW, True), "from",
                       lambda msg, adversary: msg.with_payload(N_UN_DIGITS=20)
                       if Tag.N_UN_DIGITS in msg.payload else msg)
    assert (result["outcome"], result["reason"]) == ("decline", "malformed_un")
    assert len(_decisions(env.trace)) == 1


def test_a_command_lacking_a_read_element_gets_an_empty_reply_and_leaves_the_card_alone():
    env = build_env(seed=0)
    card = env.cards["mastercard_cda"]
    # a kernel-2 GENERATE AC without its CVM results
    reply = card.exchange(Message("GENERATE_AC", DataElementMap({
        Tag.AMOUNT: Amount(AMOUNT_LOW, "EUR"), Tag.UN: 7})))
    assert reply.name == "GENERATE_AC" and not reply.payload
    assert card.atc == 0


@pytest.mark.parametrize("name", sorted(MESSAGES.keys() - Card._HANDLERS.keys()))
def test_a_message_the_card_has_no_handler_for_gets_the_empty_reply(name):
    card = build_env(seed=0).cards["mastercard_cda"]
    assert card.exchange(Message(name)) is EMPTY[name]
    assert card.atc == 0


def test_no_scripted_scenario_reaches_either_malformed_handler(monkeypatch):
    refused = []

    def watching(handler):
        def watched(card, msg):
            try:
                return handler(card, msg)
            except CodecError:
                refused.append((card.profile.name, msg.name))
                raise
        return watched

    monkeypatch.setattr(Card, "_HANDLERS", {name: watching(handler)
                                            for name, handler in Card._HANDLERS.items()})
    traces = [result.trace for result in map(attacks.run_attack, attacks.CATALOG)]
    traces += [env.trace for policy in (PERMISSIVE_2019, HARDENED)
               for _pairing, env, _result in run_genuine_matrix(policy)]
    traces += [attacks.run_attack(attack_id, flaw_overrides={flaw: not broken}).trace
               for attack_id, spec in attacks.CATALOG.items()
               for flaw, broken in spec.required_flaws.items()]
    assert refused == []
    reasons = [ev.data["reason"] for trace in traces for ev in _decisions(trace)]
    assert reasons and not [r for r in reasons if r.startswith("malformed_")]


def _legal_values(tag):
    """Values ``tag`` admits: a uint kind's range, any other kind's values of its types."""
    types, admits, _encode = KINDS[tag.kind]
    if tag.kind.startswith("uint"):
        return st.integers(0, (1 << 8 * int(tag.kind[4:])) - 1)
    if types == (tuple,):  # a list of byte strings
        return st.lists(st.binary(max_size=8), max_size=3).map(tuple)
    values = st.one_of(*map(WRITER_VALUES.__getitem__, types))
    # through a lambda: hypothesis would rewrite a regex's fullmatch into a strategy of its own
    return values if admits is None else values.filter(lambda v: admits(v))


@st.composite
def _edits(draw):
    """(NFC pairing, direction, message name, op, tag, value): drop ``tag`` from each message of
    the name, empty it, or substitute ``value``, a legal value of the tag's kind."""
    name = draw(st.sampled_from(sorted(Card._HANDLERS)))
    op = draw(st.sampled_from(["drop", "empty", "substitute"]))
    tag = draw(st.sampled_from(sorted(MESSAGES[name], key=attrgetter("code"))))
    value = draw(_legal_values(tag)) if op == "substitute" else None
    return (draw(st.sampled_from(NFC_PAIRINGS)), draw(st.sampled_from(["to", "from"])), name, op,
            tag, value)


def _edit(name, op, tag, value):
    """Hook: each ``name`` message edited as ``op`` says, into a new message."""
    def hook(msg, adversary):
        if msg.name != name:
            return msg
        if op == "empty":
            return EMPTY[name]
        if op == "drop":
            return EMPTY[name].with_payload(**{t.name: v for t, v in msg.payload.items()
                                               if t is not tag})
        return msg.with_payload(**{tag.name: value})
    return hook


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_edits())
def test_any_drop_empty_or_substitution_ends_in_one_decision(case):
    pairing, direction, *edit = case
    env, result = _run(pairing, direction, _edit(*edit))
    decisions = _decisions(env.trace)
    assert len(decisions) == 1 and decisions[0].data["reason"] == result["reason"]
