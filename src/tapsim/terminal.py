"""Point-of-sale behavior: kernel selection, ODA, CVM and the accept path.

One ``Terminal`` instance drives complete purchases against whatever sits on
the other side of an ``NfcChannel`` (card, phone, clone, relay leg or
replayer). Every purchase ends in exactly one ``decision`` marker carrying
the *terminal's view* of the transaction, which the property checker later
holds against the card's own ``card_tx`` marker. It is logged in one place: a
step that refuses raises ``_Declined``, and ``run_purchase`` logs the decline.

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
from typing import Any

from .channel import (MESSAGES, READ_RECORD, SELECT, Message, NfcChannel, PaymentRails,
                      TransactionTrace)
from .crypto import BadSignature, CAStore, Certificate, LookupFailure, encrypt_pin, verify_sdad, verify_static_records
from .elements import (
    AIP,
    CVM_LIMIT,
    ActionCodes,
    Amount,
    CID,
    CTQ,
    CVMCondition,
    CVMList,
    CVMMethod,
    CVMResult,
    CVMResults,
    DataElementMap,
    DOL,
    FIELD_NAMES,
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


class _Declined(Exception):
    """A purchase step refused; ``args[0]`` is the decline reason."""


@dataclass
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
    transit: bool = False
    interface: str = "nfc"       # or "swipe"

    def ttq(self, amount: Amount) -> TTQ:
        # plain shops authorize online and skip offline data authentication;
        # transit readers (and hardened terminals) ask for it
        return TTQ(
            online_pin_supported=True,
            signature_supported=True,
            cvm_required=amount.value > CVM_LIMIT,
            oda_for_online_supported=self.transit or self.require_oda_kernel3,
            emv_mode_supported=True,
        )


class Terminal:
    """Drives purchases and remembers offline approvals for end-of-day clearing."""

    def __init__(self, config: TerminalConfig, rng: random.Random,
                 rails: PaymentRails, ca_store: CAStore, pin_key: bytes):
        self.config = config
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
        that refuses raises ``_Declined``, and only this handler logs it."""
        view: dict[str, Any] = {"amount": amount, "mode": "emv"}
        try:
            outcome, reason = self._purchase(channel, amount, view, pin=pin,
                                             performed_by=performed_by)
        except _Declined as declined:
            outcome, reason = "decline", declined.args[0]
        return self._decide(channel.trace, channel.session, view, outcome, reason)

    def _purchase(self, channel: NfcChannel, amount: Amount,
                  view: dict[str, Any], *, pin: str | None,
                  performed_by: str) -> tuple[str, str]:
        cfg = self.config
        if amount.value > CEILING:
            raise _Declined("over_ceiling")

        if cfg.transit:
            channel.exchange(GREETING)

        aid, kernel, pdol = self._select(channel)
        view.update(aid=aid, kernel=kernel)

        ttq = cfg.ttq(amount)
        un = cfg.fixed_un if cfg.fixed_un is not None else self.rng.randrange(1 << 32)
        view.update(ttq=ttq, un=un)

        env = DataElementMap({
            Tag.TTQ: ttq, Tag.AMOUNT: amount, Tag.UN: un,
            Tag.MCC: cfg.mcc, Tag.MERCHANT_ID: cfg.merchant_id,
            Tag.TERMINAL_ID: cfg.terminal_id,
        })
        gpo = channel.exchange(Message("GET_PROCESSING_OPTIONS",
                                       build_dol_data(pdol, env)))
        aip: AIP | None = gpo.payload.get(Tag.AIP)
        if aip is None:
            raise _Declined("gpo_failed")
        view["aip"] = aip

        flow = (self._magstripe_flow if not aip.emv_mode_supported
                else self._kernel3_flow if kernel == 3 else self._kernel2_flow)
        return flow(channel, amount, gpo, view, pin=pin, performed_by=performed_by)

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

    # --- shared pieces ------------------------------------------------------

    def _select(self, channel: NfcChannel) -> tuple[bytes, int, DOL]:
        for command in SELECT.values():
            resp = channel.exchange(command)
            got = resp.payload.get(Tag.AID)
            if got is not None:
                return got, resp.payload.get(Tag.KERNEL_ID, 2), resp.payload.get(Tag.PDOL, NO_DOL)
        raise _Declined("no_application")

    def _read_records(self, channel: NfcChannel, afl) -> dict[int, DataElementMap]:
        records = {}
        for number in afl.records:
            records[number] = channel.exchange(READ_RECORD[number]).payload
        return records

    def _verify_chain(self, records: dict[int, DataElementMap],
                      pan: str) -> tuple[Certificate | None, bytes | None]:
        """Walk CA -> issuer -> card over records 2 and 3. Returns the issuer
        certificate and the card's public key, both None when the card
        offers no chain; raises LookupFailure or BadSignature when it breaks."""
        index = records.get(2, DataElementMap()).get(Tag.CA_PK_INDEX)
        if index is None or 3 not in records:
            return None, None
        issuer_cert = Certificate.from_bytes(records[3][Tag.ISSUER_CERT])
        card_cert = Certificate.from_bytes(records[3][Tag.CARD_CERT])
        return issuer_cert, self.ca_store.verify_chain(index, issuer_cert,
                                                       card_cert, pan)

    def _collect_cvm(self, channel: NfcChannel,
                     cvm: tuple[CVMMethod, CVMCondition] | None, *,
                     pin: str | None, performed_by: str,
                     view: dict[str, Any]) -> CVMResults:
        """Carry out the chosen CVM at the terminal; ``None`` is no CVM at all."""
        if cvm is None:
            return CVMResults()
        method, condition = cvm
        if method == CVMMethod.OnlinePIN:
            if pin is None:
                raise _Declined("pin_unavailable")
            view["enc_pin"] = encrypt_pin(self.pin_key, pin,
                                          self.rng.randbytes(12))
        elif method == CVMMethod.PaperSignature:
            if performed_by != "cardholder" and not self.config.lenient_cashier:
                raise _Declined("signature_rejected")
        if method in (CVMMethod.OnlinePIN, CVMMethod.PaperSignature):
            channel.trace.mark("cvm", channel.session, {
                "method": method.name, "genuine": performed_by == "cardholder",
                "by": performed_by})
        return CVMResults(method, condition, CVMResult.Performed)

    # --- kernel 3 ------------------------------------------------------------

    def _kernel3_flow(self, channel: NfcChannel, amount: Amount, gpo: Message,
                      view: dict[str, Any], *, pin: str | None,
                      performed_by: str) -> tuple[str, str]:
        ttq: TTQ = view["ttq"]
        p = gpo.payload
        cid = p.get(Tag.CID)
        if cid == CID.AAC or cid is None or Tag.AC not in p:
            raise _Declined("card_declined")
        ctq: CTQ = p[Tag.CTQ]
        view.update(ctq=ctq, atc=p[Tag.ATC], ac=p[Tag.AC], iad=p[Tag.IAD],
                    cid=cid, un_card=p.get(Tag.UN_CARD))

        records = self._read_records(channel, p[Tag.AFL])
        r1 = records.get(1, DataElementMap())
        r2 = records.get(2, DataElementMap())
        view.update(pan=r1.get(Tag.PAN), expiry=r1.get(Tag.EXPIRY),
                    ca_pk_index=r2.get(Tag.CA_PK_INDEX),
                    cvm_list=r2.get(Tag.CVM_LIST),
                    iac_denial=(r2.get(Tag.IAC).denial
                                if Tag.IAC in r2 else None))

        # the card's CVM statement must be consistent between GPO and records
        if Tag.CTQ in r2 and r2[Tag.CTQ] != ctq:
            raise _Declined("ctq_mismatch")

        try:
            _, card_public = self._verify_chain(records, r1.get(Tag.PAN, ""))
        except (LookupFailure, BadSignature):
            raise _Declined("oda_chain_failed")

        sdad = p.get(Tag.SDAD)
        if sdad is not None:
            if card_public is None:
                raise _Declined("oda_chain_failed")
            if not verify_sdad(card_public, "fdda", p.copy().put(Tag.UN, view["un"]), sdad):
                raise _Declined("fdda_failed")
        elif self.config.require_oda_kernel3:
            raise _Declined("fdda_missing")

        # CVM cascade
        if ctq.cdcvm_performed:
            cvm = CVMMethod.CDCVM, CVMCondition.Always
        elif ctq.online_pin_required:
            cvm = CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit
        elif ctq.signature_required:
            cvm = CVMMethod.PaperSignature, CVMCondition.IfBelowCvmLimit
        elif ttq.cvm_required:
            raise _Declined("no_cvm_agreed")
        else:
            cvm = None
        view["cvm_results"] = self._collect_cvm(channel, cvm, pin=pin,
                                                performed_by=performed_by, view=view)

        return self._settle(channel, view, 3, offline=(
            cid == CID.TC and amount.value <= FLOOR_LIMIT
            and (self.config.offline_capable or self.config.transit)))

    # --- kernel 2 -------------------------------------------------------------

    def _kernel2_flow(self, channel: NfcChannel, amount: Amount, gpo: Message,
                      view: dict[str, Any], *, pin: str | None,
                      performed_by: str) -> tuple[str, str]:
        cfg = self.config
        un: int = view["un"]
        aip: AIP = gpo.payload[Tag.AIP]
        records = self._read_records(channel, gpo.payload[Tag.AFL])
        r1 = records.get(1, DataElementMap())
        r2 = records.get(2, DataElementMap())
        pan = r1.get(Tag.PAN, "")
        cvm_list: CVMList = r2.get(Tag.CVM_LIST, CVMList())
        iac: ActionCodes = r2.get(Tag.IAC, ActionCodes())
        view.update(pan=pan, expiry=r1.get(Tag.EXPIRY),
                    cvm_list=cvm_list, iac_denial=iac.denial,
                    ca_pk_index=r2.get(Tag.CA_PK_INDEX))

        tvr = TVR()
        try:
            issuer_cert, card_public = self._verify_chain(records, pan)
        except (LookupFailure, BadSignature):
            # ODA could not be completed; record it and let the action
            # codes decide, as fielded terminals do
            issuer_cert = card_public = None
            tvr = tvr.replace(cda_failed=True)
        if issuer_cert is not None:
            # exactly the values acted on: over both records merged, an edited
            # record-1 EXPIRY would pass beside a genuine copy in record 2
            static = DataElementMap({
                Tag.PAN: pan, Tag.EXPIRY: r1.get(Tag.EXPIRY, ""),
                Tag.AIP: aip, Tag.CVM_LIST: cvm_list, Tag.IAC: iac,
                Tag.CA_PK_INDEX: r2[Tag.CA_PK_INDEX],
            })
            if not verify_static_records(issuer_cert.public_key, static,
                                         records[3].get(Tag.STATIC_SIGNATURE, b"")):
                tvr = tvr.replace(cda_failed=True)
        view["tvr"] = tvr

        cvm_results = self._collect_cvm(channel,
                                        self._choose_cvm_kernel2(cvm_list, amount, aip),
                                        pin=pin, performed_by=performed_by, view=view)
        view["cvm_results"] = cvm_results

        want_offline = cfg.offline_capable and amount.value <= FLOOR_LIMIT
        requested_cid = CID.TC if want_offline else CID.ARQC
        want_cda = cfg.request_cda and aip.cda_supported

        cdol_env = DataElementMap({
            Tag.AMOUNT: amount, Tag.UN: un, Tag.CVM_RESULTS: cvm_results,
        })
        payload = build_dol_data(r2.get(Tag.CDOL1, NO_DOL), cdol_env)
        payload.put(Tag.CID, requested_cid)
        payload.put(Tag.CDA_REQUESTED, 1 if want_cda else 0)
        resp = channel.exchange(Message("GENERATE_AC", payload))
        rp = resp.payload
        if rp.get(Tag.CID) == CID.AAC:
            raise _Declined("card_declined")
        if Tag.AC not in rp:
            raise _Declined("no_cryptogram")
        cid: CID = rp[Tag.CID]
        view.update(atc=rp[Tag.ATC], ac=rp[Tag.AC], iad=rp[Tag.IAD], cid=cid,
                    un_card=rp.get(Tag.UN_CARD))

        if want_cda:
            sdad = rp.get(Tag.SDAD)
            if sdad is None:
                raise _Declined("cda_missing")
            if card_public is None:
                # asked for CDA but cannot check it: same bucket as broken ODA
                tvr = tvr.replace(cda_failed=True)
                view["tvr"] = tvr
            else:
                if not verify_sdad(card_public, "cda", rp.copy().put(Tag.UN, un), sdad):
                    # a checkable-but-wrong dynamic signature is never survivable
                    raise _Declined("cda_invalid")

        # action analysis: card (IAC) and terminal (TAC) both get a say
        denial_mask = iac.denial.wire[0] | cfg.tac.denial.wire[0]
        if tvr.wire[0] & denial_mask:
            raise _Declined("action_code_denial")

        return self._settle(channel, view, 2, offline=cid == CID.TC and want_offline)

    def _choose_cvm_kernel2(self, cvm_list: CVMList, amount: Amount,
                            aip: AIP) -> tuple[CVMMethod, CVMCondition]:
        above = amount.value > CVM_LIMIT
        for entry in cvm_list.entries:
            if entry.condition == CVMCondition.IfAboveCvmLimit and not above:
                continue
            if entry.condition == CVMCondition.IfBelowCvmLimit and above:
                continue
            feasible = {
                CVMMethod.OnlinePIN: True,
                CVMMethod.PaperSignature: True,
                CVMMethod.NoCVM: not above,
                CVMMethod.CDCVM: aip.on_device_cvm_supported,
                CVMMethod.EncryptedOfflinePIN: False,  # not on this interface
            }[entry.method]
            if feasible:
                return entry.method, entry.condition
        if not above:
            return CVMMethod.NoCVM, CVMCondition.IfBelowCvmLimit
        raise _Declined("no_cvm_agreed")

    # --- mag-stripe mode ----------------------------------------------------------

    def _magstripe_flow(self, channel: NfcChannel, amount: Amount, gpo: Message,
                        view: dict[str, Any], *, pin: str | None,
                        performed_by: str) -> tuple[str, str]:
        cfg = self.config
        view["mode"] = "ms"
        n_digits = gpo.payload.get(Tag.N_UN_DIGITS, N_UN_DIGITS)
        space = 10 ** n_digits
        un = (cfg.fixed_un % space if cfg.fixed_un is not None
              else self.rng.randrange(space))
        view["un"] = un

        records = self._read_records(channel, gpo.payload[Tag.AFL])
        r1 = records.get(1, DataElementMap())
        track2: Track2EquivalentData | None = r1.get(Tag.TRACK2)
        if track2 is None:
            raise _Declined("no_track_data")
        view.update(pan=r1.get(Tag.PAN, track2.pan), expiry=track2.expiry,
                    track2=track2)

        cvm = ((CVMMethod.PaperSignature, CVMCondition.IfAboveCvmLimit)
               if amount.value > CVM_LIMIT else None)
        view["cvm_results"] = self._collect_cvm(channel, cvm, pin=pin,
                                                performed_by=performed_by, view=view)

        resp = channel.exchange(Message("GENERATE_AC",
                                        DataElementMap({Tag.UN: un})))
        if Tag.CVC3 not in resp.payload:
            raise _Declined("no_dynamic_code")
        view.update(cvc3=resp.payload[Tag.CVC3], atc=resp.payload[Tag.ATC],
                    n_un_digits=n_digits)
        return self._settle(channel, view, 2, offline=False)

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

    def _clearing_payload(self, view: dict[str, Any], kernel: int) -> Message:
        keep = MESSAGES["CLEARING_SUBMIT"]
        return Message("CLEARING_SUBMIT", DataElementMap({
            **{tag: value for tag, value in self._auth_payload(view, kernel).items()
               if tag in keep}, Tag.DECISION: "offline_approved"}))

    def _settle(self, channel: NfcChannel, view: dict[str, Any], kernel: int, *,
                offline: bool) -> tuple[str, str]:
        """Keep an offline approval for end-of-day clearing, or authorize online."""
        if offline:
            self.offline_batch.append((self._clearing_payload(view, kernel),
                                       channel.session))
            return "approve_offline", "offline_floor"
        request = Message("AUTH_REQUEST", self._auth_payload(view, kernel))
        return self._authorize(request, channel.session)

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
