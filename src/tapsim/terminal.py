"""Point-of-sale behavior: kernel selection, ODA, CVM and the accept path.

One ``Terminal`` instance drives complete purchases against whatever sits on
the other side of an ``NfcChannel`` (card, phone, clone, relay leg or
replayer). A purchase runs tuples of steps over one ``_Purchase`` record:
``_OPENING``, then the flow GPO picks (``_KERNEL3``, ``_KERNEL2`` or
``_MAGSTRIPE``, which share the steps that read records and carry out the
CVM), then ``_settle``. Every purchase ends in exactly one ``decision`` marker
carrying the *terminal's view* of the transaction, which the property checker
later holds against the card's own ``card_tx`` marker. It is logged in one
place: a step that refuses raises ``_Declined``, and ``run_purchase`` logs it.

Two details deliberately mirror 2019-era deployments and are central to the
attack catalogue:

* A dynamic-signature failure on data the terminal *could* verify is a hard
  decline, but an ODA that cannot even be attempted (unknown CA index,
  broken certificate, bad static signature) only sets a TVR bit that flows
  through terminal/issuer action-code analysis — and the default TAC denies
  nothing.
* Kernel-3 dynamic signatures are verified whenever present, but their
  absence is tolerated unless ``require_oda_kernel3`` is switched on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .channel import (MESSAGES, READ_RECORD, SELECT, Message, NfcChannel, PaymentRails,
                      TransactionTrace)
from .crypto import BadSignature, CAStore, Certificate, LookupFailure, encrypt_pin, verify_sdad, verify_static_records
from .elements import (
    CVM_LIMIT,
    ActionCodes,
    Amount,
    CID,
    CVMCondition,
    CVMList,
    CVMMethod,
    CVMResult,
    CVMResults,
    CodecError,
    DataElementMap,
    DOL,
    FIELD_NAMES,
    TRANSIT_MCCS,
    Tag,
    TTQ,
    TVR,
    Track2EquivalentData,
    build_dol_data,
)

from .card import GREETING, N_UN_DIGITS, NO_DOL

FLOOR_LIMIT = 2500   # at or below this an offline approval is allowed
CEILING = 100000     # terminals refuse larger amounts outright

# tags hash by identity, so a fixed order keeps requests alike across processes
_AUTH_TAGS = sorted(MESSAGES["AUTH_REQUEST"], key=lambda tag: tag.code)
_NO_RECORD = DataElementMap()  # how a record the card did not send reads; never written


class _Declined(Exception):
    """A purchase step refused; ``args[0]`` is the decline reason."""


@dataclass(frozen=True)
class TerminalConfig:
    name: str
    terminal_id: str
    merchant_id: str
    mcc: str = "5999"
    offline_capable: bool = False

    tac: ActionCodes = field(default_factory=ActionCodes)
    request_cda: bool = True
    require_oda_kernel3: bool = False
    lenient_cashier: bool = False
    fixed_un: int | None = None  # a broken terminal that never varies its nonce
    interface: str = "nfc"       # or "swipe"


@dataclass
class _Purchase:
    """One purchase in progress: its inputs, the ``view`` its decision logs,
    and what earlier steps found, which the decision does not log."""
    channel: NfcChannel
    amount: Amount
    pin: str | None
    performed_by: str
    view: dict[str, Any]
    pdol: DOL = NO_DOL
    gpo: DataElementMap | None = None  # the GPO reply's payload
    flow: tuple[Callable[[Terminal, _Purchase], None], ...] = ()  # the steps GPO picked
    records: dict[int, DataElementMap] = field(default_factory=dict)
    iac: ActionCodes = ActionCodes()  # kernel 2's, defaulted when its record lacks one
    card_public: bytes | None = None  # the card's key, once its certificate chain verified
    cvm: tuple[CVMMethod, CVMCondition] | None = None  # None: no CVM at all
    offline: bool = False

    def record(self, number: int) -> DataElementMap:
        return self.records.get(number, _NO_RECORD)


class Terminal:
    """Drives purchases and remembers offline approvals for end-of-day clearing."""

    def __init__(self, config: TerminalConfig, rng: random.Random,
                 rails: PaymentRails, ca_store: CAStore, pin_key: bytes):
        self.config = config
        self.transit = config.mcc in TRANSIT_MCCS  # a transit gate is a reader with a transit MCC
        self.rng = rng
        self.rails = rails
        self.ca_store = ca_store
        self.pin_key = pin_key
        self.offline_batch: list[tuple[Message, int]] = []

    # --- entry points -----------------------------------------------------

    def run_purchase(self, channel: NfcChannel, amount: Amount, *,
                     pin: str | None = None,
                     performed_by: str = "cardholder") -> dict[str, Any]:
        """One purchase, ending in exactly one logged decision: every step
        that refuses raises ``_Declined``, a reply lacking an element a step
        reads declines ``malformed_<tag>``, and only this handler logs it."""
        tx = _Purchase(channel, amount, pin, performed_by, {"amount": amount, "mode": "emv"})
        try:
            for step in self._OPENING:
                step(self, tx)
            for step in tx.flow:
                step(self, tx)
            outcome, reason = self._settle(tx)
        except _Declined as declined:
            outcome, reason = "decline", declined.args[0]
        except CodecError as malformed:  # the card's data lacks an element a step reads
            outcome, reason = "decline", f"malformed_{FIELD_NAMES.get(malformed.tag, 'data')}"
        return self._decide(channel.trace, channel.session, tx.view, outcome, reason)

    def run_transit_tap(self, channel: NfcChannel) -> dict[str, Any]:
        return self.run_purchase(channel, Amount(0, "EUR"))

    def run_swipe(self, stripe: Track2EquivalentData, amount: Amount,
                  trace_session: int) -> dict[str, Any]:
        """Legacy swipe: no chip dialogue, the track data is all there is."""
        view = {"amount": amount, "mode": "swipe", "pan": stripe.pan,
                "track2": stripe}
        request = Message("AUTH_REQUEST", self._auth_payload(
            {**view, "expiry": stripe.expiry, "tx_type": "swipe"}, None))
        return self._decide(self.rails.trace, trace_session, view,
                            *self._authorize(request, trace_session))

    # --- the opening, and the steps the flows share -----------------------------

    def _open(self, tx: _Purchase) -> None:
        if tx.amount.value > CEILING:
            raise _Declined("over_ceiling")
        if self.transit:
            tx.channel.exchange(GREETING)

    def _select(self, tx: _Purchase) -> None:
        for command in SELECT.values():
            reply = tx.channel.exchange(command).payload
            aid = reply.get(Tag.AID)
            if aid is not None:
                tx.view.update(aid=aid, kernel=reply.get(Tag.KERNEL_ID, 2))
                tx.pdol = reply.get(Tag.PDOL, NO_DOL)
                return
        raise _Declined("no_application")

    def _gpo(self, tx: _Purchase) -> None:
        """Send GET PROCESSING OPTIONS; the card's AIP and kernel pick the flow."""
        cfg, view = self.config, tx.view
        # plain shops authorize online and skip offline data authentication;
        # transit readers (and hardened terminals) ask for it
        ttq = TTQ(online_pin_supported=True, signature_supported=True,
                  cvm_required=tx.amount.value > CVM_LIMIT,
                  oda_for_online_supported=self.transit or cfg.require_oda_kernel3,
                  emv_mode_supported=True)
        un = cfg.fixed_un if cfg.fixed_un is not None else self.rng.randrange(1 << 32)
        view.update(ttq=ttq, un=un)
        env = DataElementMap({
            Tag.TTQ: ttq, Tag.AMOUNT: tx.amount, Tag.UN: un,
            Tag.MCC: cfg.mcc, Tag.MERCHANT_ID: cfg.merchant_id,
            Tag.TERMINAL_ID: cfg.terminal_id,
        })
        tx.gpo = tx.channel.exchange(Message("GET_PROCESSING_OPTIONS",
                                             build_dol_data(tx.pdol, env))).payload
        aip = tx.gpo.get(Tag.AIP)
        if aip is None:
            raise _Declined("gpo_failed")
        view["aip"] = aip
        tx.flow = (self._MAGSTRIPE if not aip.emv_mode_supported
                   else self._KERNEL3 if view["kernel"] == 3 else self._KERNEL2)

    _OPENING = (_open, _select, _gpo)

    def _read_records(self, tx: _Purchase) -> None:
        tx.records = {number: tx.channel.exchange(READ_RECORD[number]).payload
                      for number in tx.gpo[Tag.AFL].records}

    def _verify_chain(self, tx: _Purchase) -> Certificate | None:
        """Walk CA -> issuer -> card over records 2 and 3, keeping the card's
        public key. Returns the issuer certificate, None when the card offers
        no chain; raises LookupFailure or BadSignature when it breaks."""
        index = tx.record(2).get(Tag.CA_PK_INDEX)
        if index is None or 3 not in tx.records:
            return None
        issuer_cert = Certificate.from_bytes(tx.records[3][Tag.ISSUER_CERT])
        card_cert = Certificate.from_bytes(tx.records[3][Tag.CARD_CERT])
        tx.card_public = self.ca_store.verify_chain(index, issuer_cert, card_cert,
                                                    tx.record(1).get(Tag.PAN, ""))
        return issuer_cert

    def _collect_cvm(self, tx: _Purchase) -> None:
        """Carry out the CVM the flow chose at the terminal."""
        method, condition = tx.cvm or (None, None)
        if method == CVMMethod.OnlinePIN:
            if tx.pin is None:
                raise _Declined("pin_unavailable")
            tx.view["enc_pin"] = encrypt_pin(self.pin_key, tx.pin, self.rng.randbytes(12))
        elif method == CVMMethod.PaperSignature:
            if tx.performed_by != "cardholder" and not self.config.lenient_cashier:
                raise _Declined("signature_rejected")
        if method in (CVMMethod.OnlinePIN, CVMMethod.PaperSignature):
            tx.channel.trace.mark("cvm", tx.channel.session, {
                "method": method.name, "genuine": tx.performed_by == "cardholder",
                "by": tx.performed_by})
        tx.view["cvm_results"] = (CVMResults() if method is None
                                  else CVMResults(method, condition, CVMResult.Performed))

    # --- kernel 3 ------------------------------------------------------------

    def _k3_cryptogram(self, tx: _Purchase) -> None:
        p, cfg = tx.gpo, self.config
        cid = p.get(Tag.CID)
        if cid == CID.AAC or cid is None or Tag.AC not in p:
            raise _Declined("card_declined")
        tx.view.update(ctq=p[Tag.CTQ], atc=p[Tag.ATC], ac=p[Tag.AC], iad=p[Tag.IAD],
                       cid=cid, un_card=p.get(Tag.UN_CARD))
        tx.offline = (cid == CID.TC and tx.amount.value <= FLOOR_LIMIT
                      and (cfg.offline_capable or self.transit))

    def _k3_records(self, tx: _Purchase) -> None:
        r1, r2 = tx.record(1), tx.record(2)
        tx.view.update(pan=r1.get(Tag.PAN), expiry=r1.get(Tag.EXPIRY),
                       ca_pk_index=r2.get(Tag.CA_PK_INDEX),
                       cvm_list=r2.get(Tag.CVM_LIST),
                       iac_denial=(r2.get(Tag.IAC).denial
                                   if Tag.IAC in r2 else None))
        # the card's CVM statement must be consistent between GPO and records
        if r2.get(Tag.CTQ, tx.view["ctq"]).wire != tx.view["ctq"].wire:
            raise _Declined("ctq_mismatch")

    def _k3_oda(self, tx: _Purchase) -> None:
        try:
            self._verify_chain(tx)
        except (LookupFailure, BadSignature):
            raise _Declined("oda_chain_failed")
        sdad = tx.gpo.get(Tag.SDAD)
        if sdad is not None:
            if tx.card_public is None:
                raise _Declined("oda_chain_failed")
            if not verify_sdad(tx.card_public, "fdda",
                               tx.gpo.copy().put(Tag.UN, tx.view["un"]), sdad):
                raise _Declined("fdda_failed")
        elif self.config.require_oda_kernel3:
            raise _Declined("fdda_missing")

    def _k3_choose_cvm(self, tx: _Purchase) -> None:
        # the cascade: what the card did or demands, then what the terminal requires
        ctq = tx.view["ctq"]
        if ctq.cdcvm_performed:
            tx.cvm = CVMMethod.CDCVM, CVMCondition.Always
        elif ctq.online_pin_required:
            tx.cvm = CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit
        elif ctq.signature_required:
            tx.cvm = CVMMethod.PaperSignature, CVMCondition.IfBelowCvmLimit
        elif tx.view["ttq"].cvm_required:
            raise _Declined("no_cvm_agreed")

    _KERNEL3 = (_k3_cryptogram, _read_records, _k3_records, _k3_oda, _k3_choose_cvm,
                _collect_cvm)

    # --- kernel 2 -------------------------------------------------------------

    def _k2_records(self, tx: _Purchase) -> None:
        r1, r2 = tx.record(1), tx.record(2)
        tx.iac = r2.get(Tag.IAC, ActionCodes())
        tx.view.update(pan=r1.get(Tag.PAN, ""), expiry=r1.get(Tag.EXPIRY),
                       cvm_list=r2.get(Tag.CVM_LIST, CVMList()), iac_denial=tx.iac.denial,
                       ca_pk_index=r2.get(Tag.CA_PK_INDEX))

    def _k2_oda(self, tx: _Purchase) -> None:
        view, tvr = tx.view, TVR()
        try:
            issuer_cert = self._verify_chain(tx)
        except (LookupFailure, BadSignature):
            # ODA could not be completed; record it and let the action
            # codes decide, as fielded terminals do
            issuer_cert, tvr = None, tvr.replace(cda_failed=True)
        if issuer_cert is not None:
            # exactly the values acted on: over both records merged, an edited
            # record-1 EXPIRY would pass beside a genuine copy in record 2
            static = DataElementMap({
                Tag.PAN: view["pan"], Tag.EXPIRY: tx.record(1).get(Tag.EXPIRY, ""),
                Tag.AIP: view["aip"], Tag.CVM_LIST: view["cvm_list"], Tag.IAC: tx.iac,
                Tag.CA_PK_INDEX: view["ca_pk_index"],
            })
            if not verify_static_records(issuer_cert.public_key, static,
                                         tx.records[3].get(Tag.STATIC_SIGNATURE, b"")):
                tvr = tvr.replace(cda_failed=True)
        view["tvr"] = tvr

    def _k2_choose_cvm(self, tx: _Purchase) -> None:
        above = tx.amount.value > CVM_LIMIT
        for entry in tx.view["cvm_list"].entries:
            if entry.condition == CVMCondition.IfAboveCvmLimit and not above:
                continue
            if entry.condition == CVMCondition.IfBelowCvmLimit and above:
                continue
            feasible = {
                CVMMethod.OnlinePIN: True,
                CVMMethod.PaperSignature: True,
                CVMMethod.NoCVM: not above,
                CVMMethod.CDCVM: tx.view["aip"].on_device_cvm_supported,
                CVMMethod.EncryptedOfflinePIN: False,  # not on this interface
            }[entry.method]
            if feasible:
                tx.cvm = entry.method, entry.condition
                return
        if above:
            raise _Declined("no_cvm_agreed")
        tx.cvm = CVMMethod.NoCVM, CVMCondition.IfBelowCvmLimit

    def _k2_generate_ac(self, tx: _Purchase) -> None:
        """Ask the card for its cryptogram, and check the CDA signature on it."""
        cfg, view = self.config, tx.view
        want_offline = cfg.offline_capable and tx.amount.value <= FLOOR_LIMIT
        want_cda = cfg.request_cda and view["aip"].cda_supported
        cdol_env = DataElementMap({
            Tag.AMOUNT: tx.amount, Tag.UN: view["un"], Tag.CVM_RESULTS: view["cvm_results"],
        })
        payload = build_dol_data(tx.record(2).get(Tag.CDOL1, NO_DOL), cdol_env)
        payload.put(Tag.CID, CID.TC if want_offline else CID.ARQC)
        payload.put(Tag.CDA_REQUESTED, 1 if want_cda else 0)
        rp = tx.channel.exchange(Message("GENERATE_AC", payload)).payload
        if rp.get(Tag.CID) == CID.AAC:
            raise _Declined("card_declined")
        if Tag.AC not in rp:
            raise _Declined("no_cryptogram")
        cid: CID = rp[Tag.CID]
        view.update(atc=rp[Tag.ATC], ac=rp[Tag.AC], iad=rp[Tag.IAD], cid=cid,
                    un_card=rp.get(Tag.UN_CARD))
        tx.offline = cid == CID.TC and want_offline
        if want_cda:
            sdad = rp.get(Tag.SDAD)
            if sdad is None:
                raise _Declined("cda_missing")
            if tx.card_public is None:
                # asked for CDA but cannot check it: same bucket as broken ODA
                view["tvr"] = view["tvr"].replace(cda_failed=True)
            elif not verify_sdad(tx.card_public, "cda", rp.copy().put(Tag.UN, view["un"]), sdad):
                # a checkable-but-wrong dynamic signature is never survivable
                raise _Declined("cda_invalid")

    def _k2_action_analysis(self, tx: _Purchase) -> None:
        # card (IAC) and terminal (TAC) both get a say
        denial_mask = tx.iac.denial.wire[0] | self.config.tac.denial.wire[0]
        if tx.view["tvr"].wire[0] & denial_mask:
            raise _Declined("action_code_denial")

    _KERNEL2 = (_read_records, _k2_records, _k2_oda, _k2_choose_cvm, _collect_cvm,
                _k2_generate_ac, _k2_action_analysis)

    # --- mag-stripe mode ----------------------------------------------------------

    def _ms_un(self, tx: _Purchase) -> None:
        fixed_un = self.config.fixed_un
        space = 10 ** tx.gpo.get(Tag.N_UN_DIGITS, N_UN_DIGITS)
        tx.view.update(mode="ms", un=fixed_un % space if fixed_un is not None
                       else self.rng.randrange(space))

    def _ms_track(self, tx: _Purchase) -> None:
        r1 = tx.record(1)
        track2: Track2EquivalentData | None = r1.get(Tag.TRACK2)
        if track2 is None:
            raise _Declined("no_track_data")
        tx.view.update(pan=r1.get(Tag.PAN, track2.pan), expiry=track2.expiry,
                       track2=track2)
        if tx.amount.value > CVM_LIMIT:
            tx.cvm = CVMMethod.PaperSignature, CVMCondition.IfAboveCvmLimit

    def _ms_dynamic_code(self, tx: _Purchase) -> None:
        resp = tx.channel.exchange(Message("GENERATE_AC",
                                           DataElementMap({Tag.UN: tx.view["un"]})))
        if Tag.CVC3 not in resp.payload:
            raise _Declined("no_dynamic_code")
        tx.view.update(cvc3=resp.payload[Tag.CVC3], atc=resp.payload[Tag.ATC],
                       n_un_digits=tx.gpo.get(Tag.N_UN_DIGITS, N_UN_DIGITS))

    _MAGSTRIPE = (_ms_un, _read_records, _ms_track, _collect_cvm, _ms_dynamic_code)

    # --- authorization / clearing ---------------------------------------------------

    def _auth_payload(self, view: dict[str, Any], kernel: int | None) -> DataElementMap:
        """Every request element the view or the configuration holds, each
        under its tag's lower-case name (the rule the property checker reads
        requests back by). The view's entries win: a swipe names its own
        ``tx_type``."""
        cfg = self.config
        fields = {"mcc": cfg.mcc, "merchant_id": cfg.merchant_id,
                  "terminal_id": cfg.terminal_id, "kernel_id": kernel,
                  "tx_type": "purchase", **view}
        return DataElementMap({tag: value for tag in _AUTH_TAGS
                               if (value := fields.get(FIELD_NAMES[tag])) is not None})

    def _settle(self, tx: _Purchase) -> tuple[str, str]:
        """Keep an offline approval for end-of-day clearing, or authorize online."""
        request = self._auth_payload(tx.view, 3 if tx.flow is self._KERNEL3 else 2)
        if tx.offline:
            keep = MESSAGES["CLEARING_SUBMIT"]
            submit = DataElementMap({tag: value for tag, value in request.items() if tag in keep})
            self.offline_batch.append((Message("CLEARING_SUBMIT", submit.put(
                Tag.DECISION, "offline_approved")), tx.channel.session))
            return "approve_offline", "offline_floor"
        return self._authorize(Message("AUTH_REQUEST", request), tx.channel.session)

    def _authorize(self, request: Message, session: int) -> tuple[str, str]:
        response = self.rails.authorize(request, session=session)
        if response.payload[Tag.DECISION] == "approve":
            return "approve_online", "issuer_approved"
        return "decline", "issuer_declined:" + response.payload.get(Tag.REASON, "")

    def submit_clearing(self) -> list[str]:
        """End-of-day: push every offline approval to the payment rails."""
        outcomes = []
        for submit, session in self.offline_batch:
            response = self.rails.clear(submit, session=session)
            outcomes.append(response.payload[Tag.DECISION])
        self.offline_batch = []
        return outcomes

    # --- decisions ---------------------------------------------------------------

    def _decide(self, trace: TransactionTrace, session: int, view: dict[str, Any],
                outcome: str, reason: str) -> dict[str, Any]:
        data = dict(view)
        data.pop("enc_pin", None)
        data.update(outcome=outcome, reason=reason,
                    terminal=self.config.name, mcc=self.config.mcc)
        trace.mark("decision", session, data)
        return {"outcome": outcome, "reason": reason, "session": session,
                "view": view}
