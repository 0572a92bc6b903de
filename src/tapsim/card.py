"""Cards, phones and clones: everything that answers on the contactless hop.

A ``Card`` holds a ``CardProfile`` (personalization: CVM rules, weak spots and the
replies they fix, one template shared by every world) plus the world's keys for it
and per-card state (ATC, PIN try counter); the PAN's brand fixes its application
and kernel. A phone is a card with a ``Wallet`` of one of three kinds, which
decides whether a locked device will transact and what it claims about on-device
cardholder verification.

Clone classes at the bottom imitate cards from harvested data and are what
the cloning attacks actually present to terminals. They never produce
``card_tx`` markers — only a real card can do that — which is exactly how
the property checker tells a clone-fed acceptance from a genuine one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .channel import EMPTY, Message, TraceEvent, TransactionTrace, shared
from .crypto import (
    Certificate,
    compute_ac,
    compute_cvc3,
    generate_signing_key,
    issue_certificate,
    kdf,
    public_bytes,
    sign_sdad,
    sign_static_records,
)
from .elements import (
    AFL,
    AID_BRANDS,
    AIP,
    BRANDS,
    CVM_LIMIT,
    ActionCodes,
    Amount,
    CID,
    CTQ,
    CVMList,
    CVMResults,
    CodecError,
    DataElementMap,
    DOL,
    IAD,
    Tag,
    TagInfo,
    TTQ,
    Track2EquivalentData,
    brand_of,
)

# What a transit gate blurts out before the protocol starts. A phone that has
# seen these bytes may open its express-transit path for the following tap.
TRANSIT_MAGIC = bytes.fromhex("47415445")
GREETING = shared("MAGIC_BYTES", Tag.MAGIC, TRANSIT_MAGIC)  # the gate's greeting, built once

PIN_TRY_LIMIT = 3       # wrong offline PINs before the card blocks
N_UN_DIGITS = 3         # digits of the terminal nonce in mag-stripe mode
WALLET_TX_LIMIT = 3000  # a locked Google-like phone pays up to this
ATC_MAX = 0xFFFF        # the ATC is two bytes: a card that reaches this refuses to transact

KERNEL3_PDOL = DOL((Tag.TTQ, Tag.AMOUNT, Tag.UN))
KERNEL2_CDOL1 = DOL((Tag.AMOUNT, Tag.UN, Tag.CVM_RESULTS))
NO_DOL = DOL(())

# Every VERIFY reply, by (decision, tries left): the counter stays within 0..PIN_TRY_LIMIT
_VERIFY_REPLIES = {(decision, tries): shared(
    "VERIFY", Tag.DECISION, decision, Tag.PIN_TRIES_REMAINING, tries)
    for decision in ("query", "ok", "fail", "blocked") for tries in range(PIN_TRY_LIMIT + 1)}
_VERIFY_NOT_SUPPORTED = shared("VERIFY", Tag.DECISION, "not_supported")


# Each application's answer to its SELECT: kernel 3 asks for transaction data in its PDOL.
SELECT_REPLIES = {brand.aid: shared("SELECT", Tag.AID, brand.aid, Tag.KERNEL_ID, brand.kernel,
                                    Tag.PDOL, KERNEL3_PDOL if brand.kernel == 3 else NO_DOL)
                  for brand in BRANDS.values()}
_AFL_MS, _AFL_EMV, _AFL_ODA = AFL((1,)), AFL((1, 2)), AFL((1, 2, 3))  # each built once
_NO_CTQ = CTQ()  # a card's CTQ before its first kernel-3 tap, and in a refusal

@dataclass
class Wallet:
    """A phone's wallet: ``kind`` says what a locked device lets through, ``unlocked`` that
    the cardholder authenticated to it for this tap, ``magic_seen`` that a gate greeted it."""

    kind: str  # "google_like", "apple_like" or "samsung_like"
    cdcvm_always: bool = False
    unlocked: bool = field(default=False, init=False)
    magic_seen: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("google_like", "apple_like", "samsung_like"):
            raise ValueError(f"unknown wallet kind {self.kind!r}")

    def decide(self, amount: Amount, ttq: TTQ) -> tuple[bool, bool, bool, bool]:
        """(pays, CDCVM claimed in the CTQ, in the IAD, the holder really verified)."""
        if self.unlocked:
            return True, True, True, True
        if self.kind == "google_like":
            # small amounts, or whenever the TTQ says no CVM is required; with
            # ``cdcvm_always`` it claims on-device verification even then
            pays = amount.value <= WALLET_TX_LIMIT or not ttq.cvm_required
            claims = self.cdcvm_always, self.cdcvm_always
        elif self.kind == "apple_like":
            # express transit only: the greeting primes one decision, and a TTQ that
            # looks like a transit reader (ODA for online) must follow; it claims nothing
            primed, self.magic_seen = self.magic_seen, False
            pays = primed and ttq.oda_for_online_supported and ttq.emv_mode_supported
            claims = False, False
        else:  # samsung_like: only ever answers zero-amount taps (gate entry)
            pays, claims = amount.value == 0, (True, False)
        return (True, *claims, False) if pays else (False, False, False, False)


@dataclass
class OdaMaterial:
    """One card's ODA personalization: seed and signed records are fixed at
    build time, the (deterministic) Ed25519 work waits for the card's first
    READ RECORD of record 3 or SDAD. Each member is a lookup in crypto's memo
    of its result, so it is made once while the memo holds it."""

    signing_seed: bytes
    pki: Any  # the world's runner.Pki: the personalizing issuer's key and certificate
    pan: str
    static_records: DataElementMap

    @property
    def signing_key(self) -> Any:
        return generate_signing_key(self.signing_seed)

    @property
    def card_cert(self) -> Certificate:
        return issue_certificate(self.pki.issuer_key, self.pan,
                                 public_bytes(self.signing_key))

    @property
    def static_signature(self) -> bytes:
        return sign_static_records(self.pki.issuer_key, self.static_records)


@dataclass(frozen=True, eq=False)
class CardProfile:
    """Personalization data plus the configuration toggles under study: a template, made
    once per process and shared by every world's card of it, so it is never written. What
    it decides is worked out here once, the replies that carry nothing else included."""

    name: str
    pan: str
    expiry: str
    cardholder_name: str
    csc: str
    ac_coverage: frozenset[TagInfo]  # what the AC binds; the issuer verifies against it
    home_currency: str = "EUR"

    cda: bool = False
    fdda: bool = False
    emv_mode: bool = True
    magstripe_capable: bool = False  # answers dynamic-code queries

    cvm_list: CVMList = field(default_factory=CVMList)
    foreign_no_cvm: bool = False

    offline_pin_enabled: bool = False
    pin: str = "1234"

    iac: ActionCodes = field(default_factory=ActionCodes)
    ca_pk_index: int | None = None

    service_code: str = "201"
    wallet: str | None = None  # a phone's wallet kind (each world's card gets a Wallet of it)
    wallet_cdcvm_always: bool = False

    # worked out once from the fields above: the PAN's brand, the wallet, one AIP object, the
    # AFL, a card_tx marker's card-constant facts, the static GPO reply (kernel 2, mag-stripe
    # mode) and record 1; and each record 2 made (``records2``, no option: a cache). CPython
    # reads an instance's attributes fast up to 29 of them.
    aid: bytes = field(init=False)
    kernel: int = field(init=False)
    device_type: str = field(init=False)
    aip: AIP = field(init=False)
    afl: AFL = field(init=False)
    facts: dict[str, Any] = field(init=False)
    gpo: Message | None = field(init=False)
    record1: Message = field(init=False)

    def __post_init__(self) -> None:
        derive = partial(object.__setattr__, self)  # set once, here, on a frozen instance
        brand = BRANDS[brand_of(self.pan)]
        derive("aid", brand.aid)
        derive("kernel", brand.kernel)
        derive("device_type", "plastic" if self.wallet is None else "phone")
        # built as an edit builds one, so an equal AIP from either is one object
        derive("aip", AIP().replace(
            dda_supported=self.fdda,
            cda_supported=self.cda,
            cardholder_verification_supported=bool(self.cvm_list.entries)
            or self.offline_pin_enabled or self.wallet is not None,
            on_device_cvm_supported=self.device_type == "phone",
            emv_mode_supported=self.emv_mode,
        ))
        derive("afl", _AFL_MS if not self.emv_mode
               else _AFL_EMV if self.ca_pk_index is None else _AFL_ODA)
        derive("facts", {"pan": self.pan, "aid": self.aid, "aip": self.aip,
                         "cvm_list": self.cvm_list, "iac_denial": self.iac.denial,
                         "ca_pk_index": self.ca_pk_index, "brand": AID_BRANDS[self.aid],
                         "device_type": self.device_type})
        derive("gpo", None if self.emv_mode and self.kernel != 2 else shared(
            "GET_PROCESSING_OPTIONS", Tag.AIP, self.aip, Tag.AFL, self.afl,
            *(() if self.emv_mode else (Tag.N_UN_DIGITS, N_UN_DIGITS))))
        derive("record1", shared(
            "READ_RECORD", Tag.PAN, self.pan, Tag.EXPIRY, self.expiry, Tag.CARDHOLDER_NAME,
            self.cardholder_name, Tag.TRACK2, self.track2, Tag.SERVICE_CODE, self.service_code,
            *(() if self.emv_mode else (Tag.TRACK1, "B{}^{}^{}{}".format(  # the track-1 image
                self.pan, self.cardholder_name.replace(" ", "/"), self.expiry, self.service_code))),
            Tag.RECORD_NUMBER, 1))
        derive("records2", {})

    def record2(self, ctq: CTQ) -> Message:
        """Record 2 with ``ctq``, kept under its wire bytes (kernel 2's carries no CTQ, and
        is kept under the empty one's): a card makes a few, and finding one hashes no value."""
        self.records2[ctq.wire] = reply = shared(
            "READ_RECORD", Tag.CVM_LIST, self.cvm_list, Tag.IAC, self.iac,
            *((Tag.CDOL1, KERNEL2_CDOL1) if self.kernel == 2 else (Tag.CTQ, ctq)),
            *(() if self.ca_pk_index is None else (Tag.CA_PK_INDEX, self.ca_pk_index)),
            Tag.RECORD_NUMBER, 2)
        return reply

    @property
    def track2(self) -> Track2EquivalentData:
        return Track2EquivalentData(self.pan, self.expiry, self.service_code,
                                    self.csc + "00000")

    def face(self) -> dict[str, str]:
        """What is printed on the physical card."""
        return {"PAN": self.pan, "EXPIRY": self.expiry,
                "CARDHOLDER_NAME": self.cardholder_name, "CSC": self.csc}


class Card:
    """Contactless card/phone state machine: answers SELECT, GPO,
    READ RECORD, GENERATE AC, VERIFY and the transit magic broadcast. It holds its
    template, the world's keys for it, its own wallet and its counters."""

    def __init__(self, profile: CardProfile, rng: random.Random, master_key: bytes,
                 cvc3_key: bytes, oda: OdaMaterial | None):
        self.profile = profile
        self.rng = rng
        self.master_key, self.cvc3_key, self.oda = master_key, cvc3_key, oda
        self.wallet = (None if profile.wallet is None
                       else Wallet(profile.wallet, profile.wallet_cdcvm_always))
        self.atc = 0
        self.pin_tries_remaining = PIN_TRY_LIMIT
        self._trace: TransactionTrace | None = None
        self._session: int | None = None
        self._current_ctq = _NO_CTQ

    # channels call this when the card is placed on a hop
    def bind(self, trace: TransactionTrace, session: int) -> None:
        self._trace = trace
        self._session = session

    @property
    def blocked(self) -> bool:
        return self.pin_tries_remaining <= 0

    def exchange(self, msg: Message) -> Message:
        handler = self._HANDLERS.get(msg.name)  # the table follows the handlers
        if handler is None:
            return EMPTY[msg.name]
        try:
            return handler(self, msg)
        except CodecError:  # a command lacking an element it needs is refused, state untouched
            return EMPTY[msg.name]

    # --- handlers -------------------------------------------------------

    def _on_select(self, msg: Message) -> Message:
        aid = msg.payload.get(Tag.AID)  # an AID not on this card gets the empty reply
        return SELECT_REPLIES[aid] if aid == self.profile.aid else EMPTY["SELECT"]

    def _on_magic(self, msg: Message) -> Message:
        if self.wallet is not None and msg.payload.get(Tag.MAGIC) == TRANSIT_MAGIC:
            self.wallet.magic_seen = True
        return EMPTY["MAGIC_BYTES"]

    def _on_gpo(self, msg: Message) -> Message:
        p = self.profile
        if p.emv_mode and p.kernel != 2:
            return self._kernel3_transact(msg)
        return p.gpo  # the static reply; mag-stripe mode gives its dynamic code at GENERATE AC

    def _kernel3_transact(self, msg: Message) -> Message:
        """Kernel-3 cards do the whole cryptographic transaction at GPO."""
        p = self.profile
        ttq: TTQ = msg.payload[Tag.TTQ]
        amount: Amount = msg.payload[Tag.AMOUNT]
        un: int = msg.payload[Tag.UN]

        # an exhausted PIN counter or ATC takes the whole card out of service;
        # a wallet may refuse the tap
        blocked = p.offline_pin_enabled and self.blocked or self.atc >= ATC_MAX
        if self.wallet is not None and not blocked:
            pays, ctq_cdcvm, iad_cdcvm, genuine_cvm = self.wallet.decide(amount, ttq)
            ctq = CTQ(cdcvm_performed=ctq_cdcvm)
        else:
            pays, iad_cdcvm, genuine_cvm = not blocked, False, False
            waived = p.foreign_no_cvm and amount.currency != p.home_currency
            need_cvm = ttq.cvm_required and not waived
            ctq = CTQ(
                online_pin_required=need_cvm and amount.value > CVM_LIMIT,
                signature_required=need_cvm and amount.value <= CVM_LIMIT,
            )
        if not pays:
            self.atc = min(self.atc + 1, ATC_MAX)
            return Message("GET_PROCESSING_OPTIONS", DataElementMap({
                Tag.AIP: p.aip, Tag.AFL: p.afl,
                Tag.ATC: self.atc, Tag.CID: CID.AAC, Tag.CTQ: _NO_CTQ,
            }))

        self.atc += 1
        self._current_ctq = ctq
        iad = IAD(cdcvm_performed=iad_cdcvm, device_type=p.device_type)
        un_card = self.rng.randrange(1 << 32)

        # the card's own values go last, over anything added to the command
        ac = compute_ac(kdf(self.master_key, self.atc), msg.payload.copy().put(Tag.AIP, p.aip)
                        .put(Tag.ATC, self.atc).put(Tag.IAD, iad), p.ac_coverage)

        payload = DataElementMap({
            Tag.AIP: p.aip, Tag.AFL: p.afl, Tag.ATC: self.atc,
            Tag.CID: CID.TC if amount.value == 0 else CID.ARQC,
            Tag.AC: ac, Tag.IAD: iad, Tag.CTQ: ctq, Tag.UN_CARD: un_card,
        })
        if p.fdda and self.oda is not None and ttq.oda_for_online_supported:
            payload.put(Tag.SDAD, sign_sdad(self.oda.signing_key, "fdda",
                                            payload.copy().put(Tag.UN, un)))

        if genuine_cvm and self._trace is not None:
            self._trace.mark("cvm", self._session, {
                "genuine": True, "method": "CDCVM", "by": "cardholder"})
        self._mark_tx(mode="emv", kernel=3, amount=amount, un=un, ttq=ttq,
                      ctq=ctq, iad=iad, ac=ac, un_card=un_card,
                      cid=payload[Tag.CID])
        return Message("GET_PROCESSING_OPTIONS", payload)

    def _on_read_record(self, msg: Message) -> Message:
        """Records 1 and 2 are shared replies; record 3, with the world's certificates, is not."""
        p = self.profile
        number = msg.payload.get(Tag.RECORD_NUMBER, 0)
        if number == 1:
            return p.record1
        if number == 2 and p.emv_mode:
            return p.records2.get((ctq := self._current_ctq).wire) or p.record2(ctq)
        if number == 3 and p.emv_mode and p.ca_pk_index is not None:
            return Message("READ_RECORD", DataElementMap({
                Tag.ISSUER_CERT: self.oda.pki.issuer_cert.to_bytes(),
                Tag.CARD_CERT: self.oda.card_cert.to_bytes(),
                Tag.STATIC_SIGNATURE: self.oda.static_signature, Tag.RECORD_NUMBER: 3,
            }))
        return EMPTY["READ_RECORD"]

    def _on_generate_ac(self, msg: Message) -> Message:
        p = self.profile
        if Tag.AMOUNT not in msg.payload and Tag.UN in msg.payload:
            return self._dynamic_code(msg)
        if p.kernel != 2 or not p.emv_mode:
            return EMPTY["GENERATE_AC"]

        amount: Amount = msg.payload[Tag.AMOUNT]
        un: int = msg.payload[Tag.UN]
        cvm_results: CVMResults = msg.payload[Tag.CVM_RESULTS]
        requested: CID = msg.payload.get(Tag.CID, CID.ARQC)
        want_cda = bool(msg.payload.get(Tag.CDA_REQUESTED, 0))

        if p.offline_pin_enabled and self.blocked or self.atc >= ATC_MAX:
            self.atc = min(self.atc + 1, ATC_MAX)
            return Message("GENERATE_AC", DataElementMap({
                Tag.ATC: self.atc, Tag.CID: CID.AAC,
            }))

        self.atc += 1
        iad = IAD(cdcvm_performed=False, device_type=p.device_type)
        ac = compute_ac(kdf(self.master_key, self.atc), msg.payload.copy().put(Tag.AIP, p.aip)
                        .put(Tag.ATC, self.atc).put(Tag.IAD, iad), p.ac_coverage)

        payload = DataElementMap({
            Tag.ATC: self.atc, Tag.CID: requested, Tag.AC: ac, Tag.IAD: iad,
        })
        un_card = None
        if want_cda and p.cda and self.oda is not None:
            un_card = self.rng.randrange(1 << 32)
            payload.put(Tag.UN_CARD, un_card)
            payload.put(Tag.SDAD, sign_sdad(self.oda.signing_key, "cda",
                                            payload.copy().put(Tag.UN, un)))

        self._mark_tx(mode="emv", kernel=2, amount=amount, un=un,
                      cvm_results=cvm_results, iad=iad, ac=ac,
                      un_card=un_card, cid=requested)
        return Message("GENERATE_AC", payload)

    def _dynamic_code(self, msg: Message) -> Message:
        p = self.profile
        if not (p.magstripe_capable or not p.emv_mode) or self.atc >= ATC_MAX:
            return EMPTY["GENERATE_AC"]
        un: int = msg.payload[Tag.UN]
        self.atc += 1
        code = compute_cvc3(self.cvc3_key, self.atc, un)
        self._mark_tx(mode="ms", kernel=p.kernel, un=un, cvc3=code)
        return Message("GENERATE_AC", DataElementMap({
            Tag.ATC: self.atc, Tag.CVC3: code,
        }))

    def _on_verify(self, msg: Message) -> Message:
        p = self.profile
        if not p.offline_pin_enabled:
            return _VERIFY_NOT_SUPPORTED
        guess = msg.payload.get(Tag.PIN_GUESS)
        if guess is None:
            decision = "query"
        elif self.blocked:
            decision = "blocked"  # with no tries left
        elif guess == p.pin:
            self.pin_tries_remaining = PIN_TRY_LIMIT
            decision = "ok"
        else:
            self.pin_tries_remaining -= 1
            decision = "blocked" if self.blocked else "fail"
        return _VERIFY_REPLIES[decision, self.pin_tries_remaining]

    _HANDLERS = {"SELECT": _on_select, "GET_PROCESSING_OPTIONS": _on_gpo,
                 "READ_RECORD": _on_read_record, "GENERATE_AC": _on_generate_ac,
                 "VERIFY": _on_verify, "MAGIC_BYTES": _on_magic}

    # --- bookkeeping -------------------------------------------------------

    def _mark_tx(self, **data: Any) -> None:
        # logs the marker as ``TransactionTrace.mark`` does, with no call for it
        if self._trace is None:
            return
        events = self._trace.events
        events.append(tuple.__new__(TraceEvent, (
            len(events), "card_tx", self._session, None, None, False, None, None,
            {**self.profile.facts, "atc": self.atc, **data})))


# ---------------------------------------------------------------------------
# clones
# ---------------------------------------------------------------------------

class Cvc3MagstripeClone:
    """Pre-played mag-stripe-mode clone: a harvested (UN -> ATC, code) table
    plus copied static records. Answers the terminal like the real card as
    long as the terminal happens to pick a UN that is in the table."""

    def __init__(self, aid: bytes, record1: DataElementMap,
                 table: dict[int, tuple[int, bytes]]):
        self.aid = aid
        self.record1 = record1
        self.table = table

    def exchange(self, msg: Message) -> Message:
        if msg.name == "SELECT":
            asked = msg.payload.get(Tag.AID)
            return SELECT_REPLIES[asked] if asked == self.aid else EMPTY["SELECT"]
        if msg.name == "GET_PROCESSING_OPTIONS":
            return shared("GET_PROCESSING_OPTIONS",
                          Tag.AIP, AIP().replace(emv_mode_supported=False),
                          Tag.AFL, _AFL_MS, Tag.N_UN_DIGITS, N_UN_DIGITS)
        if msg.name == "READ_RECORD":
            if msg.payload.get(Tag.RECORD_NUMBER) == 1:
                return Message("READ_RECORD", self.record1)
            return EMPTY["READ_RECORD"]
        if msg.name == "GENERATE_AC" and Tag.UN in msg.payload:
            un = msg.payload[Tag.UN]
            hit = self.table.get(un)
            if hit is None:
                # must answer something; a wrong code gets declined upstream
                last_atc = max((atc for atc, _ in self.table.values()), default=1)
                return Message("GENERATE_AC", DataElementMap({
                    Tag.ATC: last_atc, Tag.CVC3: b"\x00\x00\x00",
                }))
            atc, code = hit
            return Message("GENERATE_AC", DataElementMap({
                Tag.ATC: atc, Tag.CVC3: code,
            }))
        return EMPTY[msg.name]
