"""Many sessions in one world: genuine taps, offline taps cleared at the end of the day and
VERIFYs in any order keep the trace clean, one decision per session, the issuer's counters
monotone and each tap's and each clearing's outcome what the world's history says."""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tapsim.channel import Message, NfcChannel
from tapsim.elements import Amount, DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.properties import evaluate
from tapsim.runner import GENUINE_MATRIX, build_env, run_genuine

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


def expected_clearing(batch, policy, last_atcs) -> list[tuple[str, int]]:
    """The (decision, session) of each offline approval in ``batch``, cleared in order. The
    hardened issuer's counters only move forward (check 2), so it declines as a replay an
    approval whose ATC a later online tap of the same card has already passed: a genuine
    offline approval that bounces, a P2 violation the fix itself causes."""
    last = dict(last_atcs)
    out = []
    for submit, session in batch:
        pan, atc = submit.payload[Tag.PAN], submit.payload[Tag.ATC]
        overtaken = policy is HARDENED and atc <= last.get(pan, 0)
        if not overtaken:
            last[pan] = max(last.get(pan, 0), atc)
        out.append(("decline" if overtaken else "approve", session))
    return out


class OneWorld(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), policy=st.sampled_from([PERMISSIVE_2019, HARDENED]))
    def build(self, seed, policy):
        self.policy = policy
        self.env = build_env(seed=seed, policy=policy)
        self.atcs: dict[str, int] = {}
        self.fixed_un_approved = False
        self.bounced: set[int] = set()  # sessions whose offline approval clearing declined

    def _clearing(self, terminal: str) -> list[str]:
        """The decisions clearing ``terminal``'s batch must give; notes those that bounce."""
        cleared = expected_clearing(self.env.terminals[terminal].offline_batch, self.policy,
                                    self.env.issuer.last_atcs)
        self.bounced |= {session for decision, session in cleared if decision == "decline"}
        return [decision for decision, _session in cleared]

    @rule(pairing=st.sampled_from(GENUINE_MATRIX))
    def tap(self, pairing):
        card, terminal, amount, unlocked, _expect = pairing
        prefix, reason = expected(pairing, self.policy, self.fixed_un_approved)
        pending = self._clearing(terminal)  # cleared before this tap's own approval
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
        if card.profile.wallet is not None:
            card.profile.wallet.unlocked = unlocked
            card.profile.wallet.magic_seen = False
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
        expected_decisions = self._clearing(terminal)
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
        # nothing is violated but P2, exactly where an offline approval bounced as stated
        declined = {ev.session: ev.data["reason"] for ev in self.env.trace.events
                    if ev.kind == "clearing" and ev.data["decision"] == "decline"}
        assert declined == dict.fromkeys(self.bounced, "atc_replay")
        assert evaluate(self.env.trace).violations == ({"P2": ()} if self.bounced else {})

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
