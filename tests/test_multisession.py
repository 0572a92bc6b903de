"""Many sessions in one world: genuine taps and VERIFYs in any order keep the trace
clean, one decision per session, the issuer's counters monotone and each tap's outcome
what the genuine matrix expects, given the world's history."""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tapsim.channel import Message, NfcChannel
from tapsim.elements import DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.properties import evaluate
from tapsim.runner import GENUINE_MATRIX, build_env, run_genuine

PLASTICS = ("visa_plastic_no_fdda", "visa_plastic_fdda", "mastercard_cda", "maestro_debit")
FIXED_UN_TERMINAL = "rogue_fixed_un_pos"


def expected(pairing, policy, fixed_un_approved: bool) -> tuple[str, str | None]:
    """The (outcome prefix, reason or None) a genuine tap of ``pairing`` must give. The
    matrix's expectation, except that the hardened issuer remembers a terminal's UNs
    across cards (check 3), so a fixed-UN terminal that approved once in a world is
    declined ever after."""
    if policy is HARDENED and pairing[1] == FIXED_UN_TERMINAL and fixed_un_approved:
        return "decline", "issuer_declined:un_reuse"
    return pairing[4], None


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
        result = run_genuine(self.env, card, terminal, amount, unlocked=unlocked)
        assert result["outcome"].startswith(prefix), (pairing, result)
        assert reason is None or result["reason"] == reason, (pairing, result)
        if terminal == FIXED_UN_TERMINAL and result["outcome"].startswith("approve"):
            self.fixed_un_approved = True

    @rule(card=st.sampled_from(PLASTICS), right=st.booleans())
    def verify(self, card, right):
        plastic = self.env.cards[card]
        pin = plastic.profile.pin
        guess = pin if right else str((int(pin) + 1) % 10**len(pin)).zfill(len(pin))
        NfcChannel(self.env.trace, plastic).exchange(
            Message("VERIFY", DataElementMap({Tag.PIN_GUESS: guess})))

    @invariant()
    def trace_is_clean(self):
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
