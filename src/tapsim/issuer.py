"""Issuer back end: authorization, clearing and the policy toggles.

The 2019-era baseline policy trusts the cryptogram and nothing else; every
additional back-end check that would have stopped an attack in the catalogue
is an explicit boolean on ``IssuerPolicy``, so runs can demonstrate both the
weak and the hardened configurations.

Checks run in a fixed order and the first failure wins, which keeps decline
reasons deterministic for the tests.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

from .card import Card
from .channel import Message, shared
from .crypto import compute_cvc3, decrypt_pin, kdf, verify_ac
from .elements import (
    AID_BRANDS,
    BRANDS,
    CVM_LIMIT,
    Amount,
    CVMMethod,
    CVMResult,
    DataElementMap,
    FIELD_NAMES,
    TRANSIT_MCCS,
    Tag,
    brand_of,
)


@dataclass(frozen=True)
class IssuerPolicy:
    name: str
    check_atc_order: bool = False
    check_un_reuse: bool = False
    check_aid_pan_match: bool = False
    check_plastic_cdcvm: bool = False
    check_mcc_for_wallet_no_cdcvm: bool = False
    check_ttq_in_ac: bool = False
    foreign_cvm_limit_enforced: bool = False

    def with_fixes(self, **changes) -> "IssuerPolicy":
        return replace(self, **changes)


# Every back-end check a policy can switch on, in field order.
ISSUER_CHECKS = tuple(f.name for f in fields(IssuerPolicy) if isinstance(f.default, bool))

PERMISSIVE_2019 = IssuerPolicy(name="permissive_2019")
HARDENED = IssuerPolicy(name="hardened", **dict.fromkeys(ISSUER_CHECKS, True))


class Issuer:
    """Authorizes and clears transactions against the cards it personalized."""

    def __init__(self, policy: IssuerPolicy, cards: Mapping[str, Card],
                 pin_keys: Mapping[str, bytes]):
        self.policy = policy
        self.cards = cards  # PAN -> the card personalized under it: its keys and its profile
        self.last_atcs: defaultdict[str, int] = defaultdict(int)
        self.accepted_atcs: set[tuple[str, int]] = set()  # (PAN, ATC) of each approval
        self.pin_keys = pin_keys  # terminal id -> online-PIN key
        self.seen_uns: set[tuple[str, int]] = set()

    # --- message entry points ------------------------------------------------

    def handle_auth(self, request: Message) -> Message:
        decision, reason = self._evaluate(request.payload, clearing=False)
        return shared("AUTH_RESPONSE", Tag.DECISION, decision, Tag.REASON, reason)

    def handle_clearing(self, request: Message) -> Message:
        decision, reason = self._evaluate(request.payload, clearing=True)
        return shared("CLEARING_RESPONSE", Tag.DECISION, decision, Tag.REASON, reason)

    # --- evaluation pipeline ----------------------------------------------------

    def _evaluate(self, p: DataElementMap, clearing: bool) -> tuple[str, str]:
        """One check sequence for every request kind: a swipe carries Track 2 and
        no cryptogram, a mag-stripe-mode request a CVC3 and an EMV one an AC."""
        card = self.cards.get(p.get(Tag.PAN) or "")
        if card is None:
            return "decline", "unknown_card"
        record = card.profile
        ms = Tag.CVC3 in p
        if not ms and Tag.AC not in p:
            if Tag.TRACK2 not in p:
                return "decline", "malformed_request"
            # legacy static stripe: whoever holds the track data *is* the card
            if p[Tag.TRACK2] != record.track2:
                return "decline", "bad_track_data"
            return "approve", "swipe_ok"
        # A5 submissions need not come from a terminal that fills these in
        for tag in (Tag.ATC, Tag.UN, Tag.AMOUNT) if ms else (Tag.ATC, Tag.AMOUNT):
            if tag not in p:
                return "decline", f"malformed_{FIELD_NAMES[tag]}"
        pol = self.policy
        atc, un = p[Tag.ATC], p.get(Tag.UN)
        amount: Amount = p[Tag.AMOUNT]
        terminal_id = p.get(Tag.TERMINAL_ID, "")
        cvm = p.get(Tag.CVM_RESULTS)

        # 1. the card's proof: its dynamic code, or a cryptogram over the coverage the
        # card was personalized with, not whatever kernel the terminal claims to speak
        if ms:
            if compute_cvc3(card.cvc3_key, atc, un) != p[Tag.CVC3]:
                return "decline", "bad_dynamic_code"
        elif not verify_ac(kdf(card.master_key, atc), p, record.ac_coverage, p[Tag.AC]):
            return "decline", "bad_ac"

        # 2. counters move strictly forward at authorization; clearing, where an offline
        # approval may arrive after a later online one, refuses only a counter already used
        if pol.check_atc_order and ((record.pan, atc) in self.accepted_atcs if clearing
                                    else atc <= self.last_atcs[record.pan]):
            return "decline", "atc_replay"

        # 3. a terminal never reuses its nonce. UNs are remembered per terminal, across
        # cards, so under check_un_reuse a fixed-UN terminal approves once per world.
        if pol.check_un_reuse and un is not None and (terminal_id, un) in self.seen_uns:
            return "decline", "un_reuse"

        if ms:  # any CVM the terminal performed will do
            verified = (cvm is not None and cvm.result == CVMResult.Performed
                        and cvm.method != CVMMethod.NoCVM)
        else:
            # 4. the application must belong to the card's brand family
            if pol.check_aid_pan_match and Tag.AID in p:
                aid_brand = AID_BRANDS.get(p[Tag.AID])
                if aid_brand is None or (BRANDS[aid_brand].family
                                         != BRANDS[brand_of(record.pan)].family):
                    return "decline", "aid_pan_mismatch"

            ctq = p.get(Tag.CTQ)
            claimed_cdcvm = bool(ctq and ctq.cdcvm_performed) or bool(
                cvm and cvm.method == CVMMethod.CDCVM and cvm.result == CVMResult.Performed)

            # 5. plastic cannot perform on-device verification
            if pol.check_plastic_cdcvm and claimed_cdcvm \
                    and record.device_type == "plastic":
                return "decline", "plastic_cdcvm"

            # 6. a phone that did not verify its holder only belongs in transit
            iad = p.get(Tag.IAD)
            if pol.check_mcc_for_wallet_no_cdcvm and record.device_type == "phone" \
                    and iad is not None and not iad.cdcvm_performed \
                    and p.get(Tag.MCC) not in TRANSIT_MCCS \
                    and amount.value > CVM_LIMIT:
                return "decline", "wallet_no_cdcvm"

            # 7. an enclosed online PIN must be the right one
            pin_verified = Tag.ENC_PIN in p
            if pin_verified:
                key = self.pin_keys.get(terminal_id)
                pin = decrypt_pin(key, p[Tag.ENC_PIN]) if key else None
                if pin is None or pin != record.pin:
                    return "decline", "bad_pin"
            waived = (amount.currency != record.home_currency and record.foreign_no_cvm
                      and not pol.foreign_cvm_limit_enforced)
            claimed_signature = bool(cvm and cvm.method == CVMMethod.PaperSignature
                                     and cvm.result == CVMResult.Performed)
            verified = pin_verified or claimed_cdcvm or claimed_signature or waived

        # 8. high value requires some accepted verification story
        if amount.value > CVM_LIMIT and not verified:
            return "decline", "cvm_limit"

        self.last_atcs[record.pan] = max(self.last_atcs[record.pan], atc)
        self.accepted_atcs.add((record.pan, atc))
        if un is not None:
            self.seen_uns.add((terminal_id, un))
        return "approve", "magstripe_ok" if ms else "cleared" if clearing else "authorized"
