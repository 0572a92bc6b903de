"""Many sessions in one world: genuine taps, offline taps cleared at the end of the day and
VERIFYs in any order keep the trace clean, one decision per session, the issuer's counters
monotone and each tap's and each clearing's outcome what the world's history says."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tapsim.channel import Message, NfcChannel
from tapsim.elements import Amount, DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.properties import evaluate
from tapsim.runner import AMOUNT_LOW, GENUINE_MATRIX, build_env, run_genuine

PLASTICS = ("visa_plastic_no_fdda", "visa_plastic_fdda", "mastercard_cda", "maestro_debit")
FIXED_UN_TERMINAL = "rogue_fixed_un_pos"
OFFLINE_TERMINALS = ("offline_capable_pos", "transit_gate")
OFFLINE_PAIRINGS = [pairing for pairing in GENUINE_MATRIX if pairing[1] in OFFLINE_TERMINALS]


def expected(pairing, policy, fixed_un_approved: bool) -> tuple[str, str | None]:
    """The (outcome prefix, reason or None) a genuine tap of ``pairing`` must give. The
    matrix's expectation, except that the hardened issuer remembers a terminal's UNs
    across cards (check 3), so a fixed-UN terminal that approved once in a world is
    declined ever after."""
    if policy is HARDENED and pairing[1] == FIXED_UN_TERMINAL and fixed_un_approved:
        return "decline", "issuer_declined:un_reuse"
    return pairing[4], None


def expected_clearing(batch) -> list[str]:
    """The decision of each offline approval in ``batch``, cleared in order: each one clears
    under either policy. The hardened issuer keeps its counters strictly forward only at
    authorization (check 2); at clearing it refuses only a (PAN, ATC) it has already
    accepted, so an approval that a later online tap of the same card overtook still clears."""
    return ["approve"] * len(batch)


@pytest.mark.parametrize("policy", [PERMISSIVE_2019, HARDENED])
def test_an_overtaken_offline_approval_clears_once(policy):
    env = build_env(policy=policy)
    card, terminal = env.cards["mastercard_cda"], env.terminals["offline_capable_pos"]
    offline = terminal.run_purchase(NfcChannel(env.trace, card), Amount(AMOUNT_LOW, "EUR"))
    assert offline["outcome"] == "approve_offline", offline
    batch = list(terminal.offline_batch)
    online = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_LOW)  # a later ATC
    assert online["outcome"] == "approve_online", online
    assert terminal.submit_clearing() == ["approve"]
    assert evaluate(env.trace).violations == {}
    # the same approval submitted again is a replay, which the hardened issuer refuses
    terminal.offline_batch = batch
    assert terminal.submit_clearing() == ["decline" if policy is HARDENED else "approve"]


class OneWorld(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), policy=st.sampled_from([PERMISSIVE_2019, HARDENED]))
    def build(self, seed, policy):
        self.policy = policy
        self.env = build_env(seed=seed, policy=policy)
        self.atcs: dict[str, int] = {}
        self.fixed_un_approved = False

    @rule(pairing=st.sampled_from(GENUINE_MATRIX))
    def tap(self, pairing):
        card, terminal, amount, unlocked, _expect = pairing
        prefix, reason = expected(pairing, self.policy, self.fixed_un_approved)
        # cleared before this tap's own approval
        pending = expected_clearing(self.env.terminals[terminal].offline_batch)
        result = run_genuine(self.env, card, terminal, amount, unlocked=unlocked)
        assert result["outcome"].startswith(prefix), (pairing, result)
        assert reason is None or result["reason"] == reason, (pairing, result)
        assert result["cleared"][:len(pending)] == pending, (pairing, result)
        assert set(result["cleared"][len(pending):]) <= {"approve"}, (pairing, result)
        if terminal == FIXED_UN_TERMINAL and result["outcome"].startswith("approve"):
            self.fixed_un_approved = True

    @rule(pairing=st.sampled_from(OFFLINE_PAIRINGS))
    def tap_offline(self, pairing):
        # run_genuine's tap, its clearing left to the end of the day
        card_name, terminal_name, amount, unlocked, _expect = pairing
        card, terminal = self.env.cards[card_name], self.env.terminals[terminal_name]
        if card.wallet is not None:
            card.wallet.unlocked = unlocked
            card.wallet.magic_seen = False
        channel = NfcChannel(self.env.trace, card)
        result = (terminal.run_transit_tap(channel) if terminal.transit else terminal.run_purchase(
            channel, Amount(amount, "EUR"), pin=card.profile.pin))
        prefix, _reason = expected(pairing, self.policy, self.fixed_un_approved)
        assert result["outcome"].startswith(prefix), (pairing, result)
        decisions = [ev for ev in self.env.trace.events
                     if ev.kind == "decision" and ev.session == channel.session]
        assert len(decisions) == 1, decisions

    @rule(terminal=st.sampled_from(OFFLINE_TERMINALS))
    def end_of_day(self, terminal):
        expected_decisions = expected_clearing(self.env.terminals[terminal].offline_batch)
        assert self.env.terminals[terminal].submit_clearing() == expected_decisions

    @rule(card=st.sampled_from(PLASTICS), right=st.booleans())
    def verify(self, card, right):
        plastic = self.env.cards[card]
        pin = plastic.profile.pin
        guess = pin if right else str((int(pin) + 1) % 10**len(pin)).zfill(len(pin))
        NfcChannel(self.env.trace, plastic).exchange(
            Message("VERIFY", DataElementMap({Tag.PIN_GUESS: guess})))

    @invariant()
    def trace_is_clean(self):
        # nothing is violated, and no clearing bounces a genuine approval
        declined = {ev.session: ev.data["reason"] for ev in self.env.trace.events
                    if ev.kind == "clearing" and ev.data["decision"] == "decline"}
        assert declined == {}
        assert evaluate(self.env.trace).violations == {}

    @invariant()
    def one_decision_per_session(self):
        decisions = Counter(ev.session for ev in self.env.trace.events if ev.kind == "decision")
        assert set(decisions.values()) <= {1}, decisions

    @invariant()
    def issuer_counters_never_fall(self):
        now = dict(self.env.issuer.last_atcs)
        assert all(now.get(pan, -1) >= atc for pan, atc in self.atcs.items()), (self.atcs, now)
        self.atcs = now


TestOneWorld = OneWorld.TestCase
TestOneWorld.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)


def test_one_world_declines_a_fixed_un_terminal_after_its_first_approval():
    # the machine's order-dependent rule in one fixed history, not left to the random draw:
    # the hardened issuer remembers a terminal's UNs, so its second fixed-UN tap is declined
    machine = OneWorld()
    machine.build(seed=0, policy=HARDENED)
    pairing = next(p for p in GENUINE_MATRIX if p[1] == FIXED_UN_TERMINAL)
    for approved in (False, True):
        assert machine.fixed_un_approved is approved
        machine.tap(pairing=pairing)  # asserts the outcome expected() gives
    decisions = [ev.data for ev in machine.env.trace.events if ev.kind == "decision"]
    assert [d["reason"] for d in decisions] == ["issuer_approved", "issuer_declined:un_reuse"]
    for terminal in OFFLINE_TERMINALS:
        machine.end_of_day(terminal=terminal)
    machine.trace_is_clean()
    machine.one_decision_per_session()
    machine.issuer_counters_never_fall()
