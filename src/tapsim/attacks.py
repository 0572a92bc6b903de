"""The adversary playbook: sixteen scripted scenarios against the sandbox.

Each catalogue entry names the configuration toggles ("flaws") the scenario
needs. ``run_attack`` builds a world with exactly those toggles applied, runs
the staging, evaluates the trace with the property checker and diffs the
outcome against the violations this scenario is documented to cause. Flipping
any single required flaw to its fixed setting must kill the attack — that
duality is what the catalogue exists to demonstrate.

Stagings only use the public machinery: adversary edits and hooks on the NFC hop (A1),
direct submissions to the payment rails (A5), looking at the card (A8), plus
the clone/replay/translator devices defined here and in ``card``/``channel``.
A staging that is a single purchase is a ``Tap`` record rather than code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .card import GREETING, N_UN_DIGITS, NO_DOL, SELECT_REPLIES, Cvc3MagstripeClone
from .channel import (
    EMPTY,
    READ_RECORD,
    SELECT,
    Adversary,
    Edit,
    Message,
    NfcChannel,
    Replayer,
    shared,
    visual_read,
)
from .elements import (
    AID_MAESTRO,
    AID_MASTERCARD,
    AID_VISA,
    ActionCodes,
    Amount,
    CID,
    CTQ,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    CVMResult,
    CVMResults,
    DataElementMap,
    DOL,
    Tag,
    TTQ,
    build_dol_data,
)
from .issuer import ISSUER_CHECKS, PERMISSIVE_2019
from .properties import PropertyReport, compare_expected, evaluate
from .runner import (AMOUNT_HIGH, AMOUNT_LOW, CARD_FIXTURES, TERMINAL_FIXTURES, Env,
                     build_env, run_genuine)

# --- flaw wiring -----------------------------------------------------------------

# Every flaw that is not an issuer check, with the card and the terminal
# fixture keys it sets to its own value.
FIXTURE_FLAWS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "offline_pin_enabled": (("offline_pin_enabled",), ()),
    "foreign_no_cvm": (("foreign_no_cvm",), ()),
    "wallet_cdcvm_always": (("wallet_cdcvm_always",), ()),
    "tac_denial_cda_failed": ((), ("tac_denial_cda_failed",)),
    "lenient_cashier": ((), ("lenient_cashier",)),
    # fixing an ODA gap takes both sides: the card gets signing material
    # and the terminal starts demanding the signature
    "fdda": (("fdda",), ("require_oda_kernel3",)),
    "cda": (("cda",), ("request_cda",)),
}
KNOWN_FLAWS = frozenset(ISSUER_CHECKS).union(FIXTURE_FLAWS)


def flaw_settings(overrides: dict[str, Any]) -> dict[str, bool]:
    """Each toggle's setting as a bool, from True/"on" or False/"off". Which side is the
    flaw depends on the toggle: on is the fix for ``fdda``, ``cda``,
    ``tac_denial_cda_failed`` and every issuer check."""
    out = {}
    for name, value in overrides.items():
        if name not in KNOWN_FLAWS:
            raise ValueError(f"unknown flaw {name!r}")
        if not isinstance(value, bool) and value not in ("on", "off"):
            raise ValueError(f"flaw {name!r} is on or off, got {value!r}")
        out[name] = value in (True, "on")
    return out


# A flaw assignment -> its world: the latest _WORLDS_SIZE translated. Its domain: each
# attack's own flaws and each with one flaw flipped or overridden; the three benchmark
# workloads at seeds 0-2 meet 33.
_WORLDS_SIZE = 256
_WORLDS: dict[frozenset[tuple[str, bool]], tuple[Any, dict, dict]] = {}


def _world_for(flaws: dict[str, bool]):
    """Translate a flaw assignment into issuer policy plus the overrides it
    makes to every card and every terminal fixture: a flaw is a property of
    the world, and a staging meets it in whichever devices it touches. Each
    assignment is translated once; every world built from it shares the
    result, which must never be written to."""
    key = frozenset(flaws.items())
    world = _WORLDS.get(key)
    if world is not None:
        return world
    policy_changes: dict[str, bool] = {}
    card_over: dict[str, Any] = {}
    term_over: dict[str, Any] = {}
    for name, value in flaws.items():
        if name in ISSUER_CHECKS:
            policy_changes[name] = value
            continue
        card_keys, terminal_keys = FIXTURE_FLAWS[name]
        card_over.update(dict.fromkeys(card_keys, value))
        term_over.update(dict.fromkeys(terminal_keys, value))
        if name in ("fdda", "cda") and value:
            card_over["oda"] = True  # signing material to go with fDDA/CDA
    if len(_WORLDS) >= _WORLDS_SIZE:
        del _WORLDS[next(iter(_WORLDS))]
    world = _WORLDS[key] = (PERMISSIVE_2019.with_fixes(**policy_changes),
                            dict.fromkeys(CARD_FIXTURES, card_over),
                            dict.fromkeys(TERMINAL_FIXTURES, term_over))
    return world


# --- catalogue types ----------------------------------------------------------------

Staging = Callable[[Env, Adversary], tuple[bool, str]]


@dataclass(frozen=True)
class AttackSpec:
    attack_id: str
    title: str
    required_flaws: dict[str, bool]
    expected: dict[str, tuple[str, ...]]
    # whether the scenario makes the victim's card pay for something they
    # never meant to authorize (vs. merely breaking agreement/proximity)
    intent_defeated: bool
    stage: Staging
    capabilities: tuple[str, ...] = ("A1",)


@dataclass
class AttackResult:
    spec: AttackSpec
    success: bool
    detail: str
    flaws: dict[str, bool]
    report: PropertyReport
    diffs: list[str]
    trace: Any

    def render(self) -> dict[str, Any]:
        spec = self.spec
        return {
            "attack": spec.attack_id,
            "title": spec.title,
            "success": self.success,
            "detail": self.detail,
            "victim_pays": spec.intent_defeated,
            "flaws": {k: "on" if v else "off"
                      for k, v in sorted(self.flaws.items())},
            "expected": {k: sorted(v) for k, v in sorted(spec.expected.items())},
            "observed": self.report.render(),
            "diffs": list(self.diffs),
        }


# --- shared staging helpers ---------------------------------------------------------

def _eur(minor: int) -> Amount:
    return Amount(minor, "EUR")


def _approved(result: dict[str, Any]) -> bool:
    return result["outcome"].startswith("approve")


def _said(result: dict[str, Any]) -> str:
    return f"terminal said {result['outcome']} ({result['reason']})"


def _genuine_probe(env: Env, card_name: str, terminal_name: str) -> bool:
    """Post-attack check that the genuine cardholder can still pay a small amount."""
    result = run_genuine(env, card_name, terminal_name, AMOUNT_LOW)
    ok = _approved(result)
    env.trace.mark("genuine_probe", result["session"], {
        "ok": ok, "what": f"{card_name}@{terminal_name}", "reason": result["reason"]})
    return ok


# --- PIN-probing machinery ------------------------------------------------------------

def pin_guess_campaign(channel: NfcChannel, adversary: Adversary, *,
                       owner_reset: Callable[[], None],
                       stop_at_remaining: int = 1) -> str | None:
    """Counter-aware exhaustive sweep over VERIFY: guess 0000..9999 in order,
    and whenever the try counter is down to ``stop_at_remaining`` let the
    owner use the card (``owner_reset``), which refills it. Returns the
    recovered PIN or None."""
    probe = channel.exchange(EMPTY["VERIFY"])
    if probe.payload.get(Tag.DECISION) != "query":
        return None
    try_limit = probe.payload[Tag.PIN_TRIES_REMAINING]
    remaining = try_limit
    for guess in (f"{i:04d}" for i in range(10000)):
        if remaining <= stop_at_remaining:
            owner_reset()
            remaining = try_limit
        resp = channel.exchange(shared("VERIFY", Tag.PIN_GUESS, guess))
        remaining = resp.payload[Tag.PIN_TRIES_REMAINING]
        decision = resp.payload[Tag.DECISION]
        if decision == "ok":
            adversary.learn("PIN", guess, session=channel.session)
            return guess
        if decision == "blocked":
            return None
    return None


def pin_exhaust(channel: NfcChannel, *, wrong_pins: Iterable[str]) -> int:
    """Burn the try counter with deliberately wrong guesses. Returns how many
    guesses it took to block the card (0 if VERIFY is not supported)."""
    probe = channel.exchange(EMPTY["VERIFY"])
    if probe.payload.get(Tag.DECISION) != "query":
        return 0
    count = 0
    for guess in wrong_pins:
        resp = channel.exchange(shared("VERIFY", Tag.PIN_GUESS, guess))
        count += 1
        if resp.payload[Tag.DECISION] == "blocked":
            return count
    return count


# --- cloning machinery ---------------------------------------------------------------

def harvest_cvc3_table(channel: NfcChannel, aid: bytes,
                       uns: Iterable[int]) -> tuple[DataElementMap, dict]:
    """Pre-play harvest: query the card's dynamic code for every UN given.
    Returns (record 1, {un: (atc, code)})."""
    sel = channel.exchange(SELECT[aid])
    if sel.payload.get(Tag.AID) is None:
        raise ValueError("card does not carry that application")
    r1 = channel.exchange(READ_RECORD[1]).payload.copy()
    table: dict[int, tuple[int, bytes]] = {}
    for un in uns:
        resp = channel.exchange(shared("GENERATE_AC", Tag.UN, un))
        if Tag.CVC3 not in resp.payload:
            raise ValueError("card does not answer dynamic-code queries")
        table[un] = (resp.payload[Tag.ATC], resp.payload[Tag.CVC3])
    return r1, table


# --- the translator device ------------------------------------------------------------

class TranslatorCard:
    """Live protocol translator: shows the terminal one brand's kernel-3
    application while sourcing everything real from a different-brand
    kernel-2 card over a relay leg. The on-device-CVM claim is fabricated;
    everything cryptographic is the real card's own work."""

    def __init__(self, far: NfcChannel, face_aid: bytes, real_aid: bytes):
        self.far = far
        self.face_aid = face_aid
        self.real_aid = real_aid
        self.claimed_ctq = CTQ(cdcvm_performed=True)

    def exchange(self, msg: Message) -> Message:
        if msg.name == "SELECT":
            if msg.payload.get(Tag.AID) != self.face_aid:
                return EMPTY["SELECT"]
            real = self.far.exchange(SELECT[self.real_aid])
            if real.payload.get(Tag.AID) is None:
                return EMPTY["SELECT"]
            return SELECT_REPLIES[self.face_aid]
        if msg.name == "GET_PROCESSING_OPTIONS":
            return self._transact(msg)
        if msg.name == "READ_RECORD":
            resp = self.far.exchange(msg)
            if msg.payload.get(Tag.RECORD_NUMBER) == 2:
                return Message("READ_RECORD",
                               resp.payload.copy().put(Tag.CTQ, self.claimed_ctq))
            return resp
        return EMPTY[msg.name]

    def _transact(self, msg: Message) -> Message:
        amount: Amount = msg.payload[Tag.AMOUNT]
        un: int = msg.payload[Tag.UN]

        gpo = self.far.exchange(EMPTY["GET_PROCESSING_OPTIONS"])
        aip, afl = gpo.payload[Tag.AIP], gpo.payload[Tag.AFL]
        r2 = self.far.exchange(READ_RECORD[2]).payload
        cdol: DOL = r2.get(Tag.CDOL1, NO_DOL)

        # feed the real card a CVM result matching the claim it never made
        cvm_results = CVMResults(CVMMethod.CDCVM, CVMCondition.Always,
                                 CVMResult.Performed)
        payload = build_dol_data(cdol, DataElementMap({
            Tag.AMOUNT: amount, Tag.UN: un, Tag.CVM_RESULTS: cvm_results,
        }))
        payload.put(Tag.CID, CID.ARQC).put(Tag.CDA_REQUESTED, 0)
        rp = self.far.exchange(Message("GENERATE_AC", payload)).payload

        return Message("GET_PROCESSING_OPTIONS", DataElementMap({
            Tag.AIP: aip, Tag.AFL: afl, Tag.ATC: rp[Tag.ATC],
            Tag.CID: rp[Tag.CID], Tag.AC: rp[Tag.AC], Tag.IAD: rp[Tag.IAD],
            Tag.CTQ: self.claimed_ctq,
        }))


# --- stagings --------------------------------------------------------------------------

def _stage_magstripe_cloning(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["magstripe_only"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    channel.exchange(SELECT[AID_MASTERCARD])
    channel.exchange(EMPTY["GET_PROCESSING_OPTIONS"])
    r1 = channel.exchange(READ_RECORD[1]).payload
    adv.learn("TRACK1", r1[Tag.TRACK1], session=channel.session)
    adv.learn("TRACK2", r1[Tag.TRACK2], session=channel.session)

    # a blank written with the skimmed track is all a swipe reads
    result = env.terminals["swipe_pos"].run_swipe(r1[Tag.TRACK2], _eur(AMOUNT_LOW),
                                                  env.trace.new_session())
    return _approved(result), f"cloned stripe swiped; {_said(result)}"


def _stage_foreign_currency_replay(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_credit_foreign_nocvm"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    amount, un = _eur(AMOUNT_HIGH), 0x2A2A
    # drive the card exactly like a shop terminal would
    ttq = TTQ(online_pin_supported=True, signature_supported=True,
              cvm_required=True, emv_mode_supported=True)
    sel = channel.exchange(SELECT[AID_VISA])
    gpo = channel.exchange(Message("GET_PROCESSING_OPTIONS",
                                   build_dol_data(sel.payload[Tag.PDOL],
                                                  DataElementMap({
                                                      Tag.TTQ: ttq,
                                                      Tag.AMOUNT: amount,
                                                      Tag.UN: un,
                                                  }))))
    r1 = channel.exchange(READ_RECORD[1]).payload
    p = gpo.payload
    request = Message("AUTH_REQUEST", DataElementMap({
        Tag.AMOUNT: amount, Tag.MCC: "5999", Tag.MERCHANT_ID: "M-MULE-1",
        Tag.TERMINAL_ID: "T-MULE-1", Tag.KERNEL_ID: 3, Tag.TX_TYPE: "purchase",
        Tag.PAN: r1[Tag.PAN], Tag.EXPIRY: r1[Tag.EXPIRY],
        Tag.UN: un, Tag.ATC: p[Tag.ATC], Tag.AC: p[Tag.AC],
        Tag.CID: p[Tag.CID], Tag.IAD: p[Tag.IAD], Tag.CTQ: p[Tag.CTQ],
        Tag.TTQ: ttq, Tag.AIP: p[Tag.AIP], Tag.AID: AID_VISA,
    }))
    response = env.rails.authorize(request, session=channel.session,
                                   submitted_by="adversary", adversary=adv)
    decision = response.payload[Tag.DECISION]
    return decision == "approve", (f"issuer said {decision} "
                                   f"({response.payload.get(Tag.REASON)})")


def _stage_replay_nonce_reuse(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_plastic_no_fdda"]
    terminal = env.terminals["rogue_fixed_un_pos"]

    # the victim pays once; the skimmer on the hop hears each command and reply
    heard: list[Message] = []

    def hear(msg: Message, a: Adversary) -> Message:
        heard.append(msg)
        return msg

    adv.on_to_card(hear)
    adv.on_from_card(hear)
    first = terminal.run_purchase(NfcChannel(env.trace, card, adversary=adv),
                                  _eur(AMOUNT_LOW), pin=card.profile.pin,
                                  performed_by="cardholder")
    if not _approved(first):
        return False, f"victim purchase failed: {_said(first)}"

    # same terminal, same nonce, no card anywhere near: the replayer answers for it
    replayer = Replayer(list(zip(heard[::2], heard[1::2])))
    result = terminal.run_purchase(NfcChannel(env.trace, replayer), _eur(AMOUNT_LOW),
                                   performed_by="criminal")
    return _approved(result), f"replayed transcript; {_said(result)}"


def _stage_pin_guessing(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_plastic_no_fdda"]
    guess_channel = NfcChannel(env.trace, card, adversary=adv)
    owner_channel = NfcChannel(env.trace, card)
    refill = shared("VERIFY", Tag.PIN_GUESS, card.profile.pin)

    def owner_reset() -> None:
        # the owner uses the card normally; a correct PIN refills the counter
        owner_channel.exchange(refill)

    found = pin_guess_campaign(guess_channel, adv, owner_reset=owner_reset,
                               stop_at_remaining=1)
    usable = _genuine_probe(env, "visa_plastic_no_fdda", "standard_pos")
    ok = found == card.profile.pin and usable
    return ok, (f"recovered PIN {found!r}, card still usable: {usable}"
                if found else "no PIN recovered")


def _stage_pin_guess_dos(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_plastic_no_fdda"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    wrong = (p for p in (f"{i:04d}" for i in range(10000))
             if p != card.profile.pin)
    burned = pin_exhaust(channel, wrong_pins=wrong)
    usable = _genuine_probe(env, "visa_plastic_no_fdda", "standard_pos")
    return (burned > 0 and not usable), (
        f"{burned} wrong guesses, card usable afterwards: {usable}")


def _stage_card_brand_mixup(env: Env, adv: Adversary) -> tuple[bool, str]:
    far = NfcChannel(env.trace, env.cards["mastercard_cda"], adversary=adv,
                     relay_active=True)
    translator = TranslatorCard(far, face_aid=AID_VISA, real_aid=AID_MASTERCARD)
    near = NfcChannel(env.trace, translator, session=far.session)
    result = env.terminals["standard_pos"].run_purchase(
        near, _eur(AMOUNT_HIGH), performed_by="criminal")
    return _approved(result), f"kernel-2 card spent as kernel 3; {_said(result)}"


def _stage_magic_byte(env: Env, adv: Adversary) -> tuple[bool, str]:
    bridge = NfcChannel(env.trace, env.cards["apple_like_phone"], adversary=adv,
                        relay_active=True)
    # whisper the gate's greeting so the phone opens its express path
    bridge.exchange(GREETING)
    adv.on_to_card(Edit(Tag.TTQ, {"oda_for_online_supported": True}))
    adv.on_from_card(Edit(Tag.CTQ, {"cdcvm_performed": True}))
    result = env.terminals["standard_pos"].run_purchase(
        bridge, _eur(AMOUNT_HIGH), performed_by="criminal")
    return _approved(result), f"locked phone paid at a shop; {_said(result)}"


def _stage_eavesdrop_card_data(env: Env, adv: Adversary) -> tuple[bool, str]:
    def skim(msg: Message, a: Adversary) -> Message:
        if msg.name == "READ_RECORD":
            for tag in (Tag.PAN, Tag.EXPIRY, Tag.CARDHOLDER_NAME):
                if tag in msg.payload:
                    a.learn(tag.name, msg.payload[tag])
        return msg

    adv.on_from_card(skim)
    result = run_genuine(env, "visa_plastic_no_fdda", "standard_pos", AMOUNT_LOW,
                         adversary=adv)
    # shoulder-surf the printed face for the security code
    visual_read(adv, env.cards["visa_plastic_no_fdda"].profile.face(),
                session=result["session"])
    got = {c for c in ("PAN", "EXPIRY", "CSC") if adv.knows(c)}
    return (_approved(result) and got == {"PAN", "EXPIRY", "CSC"},
            f"skimmed {sorted(got)} during a genuine purchase")


def _stage_magstripe_mode_clone(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["mastercard_cda"]
    harvest_channel = NfcChannel(env.trace, card, adversary=adv)
    r1, table = harvest_cvc3_table(harvest_channel, AID_MASTERCARD, range(10 ** N_UN_DIGITS))
    adv.learn("TRACK2", r1[Tag.TRACK2], session=harvest_channel.session)
    adv.learn("CVC3_TABLE", f"{len(table)} codes", session=harvest_channel.session)

    # the owner keeps shopping before the clone is spent, so the issuer has
    # seen counters far beyond everything in the harvested table
    mid = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_LOW)
    if not _approved(mid):
        return False, "owner purchase between harvest and spend failed"

    clone = Cvc3MagstripeClone(AID_MASTERCARD, r1, table)
    clone_channel = NfcChannel(env.trace, clone, adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        clone_channel, _eur(AMOUNT_LOW), performed_by="criminal")
    return _approved(result), (f"{len(table)}-entry table; {_said(result)}")


@dataclass(frozen=True)
class Tap:
    """A staging that is one purchase over an adversary-owned NFC hop, as
    data: which card meets which terminal for how much, who taps (only the
    cardholder knows the PIN), the adversary's edits in each direction, and
    what the attack landing looks like."""

    card: str
    terminal: str
    amount: int
    performed_by: str
    to_card: tuple[Edit, ...] = ()
    from_card: tuple[Edit, ...] = ()
    outcome: str = "approve"                      # required outcome prefix
    view: dict[str, Any] = field(default_factory=dict)  # required view fields
    clearing: str | None = None                   # required clearing decision
    note: str = ""                                # leads the result's detail

    def __call__(self, env: Env, adv: Adversary) -> tuple[bool, str]:
        adv.to_card_hooks.extend(self.to_card)
        adv.from_card_hooks.extend(self.from_card)
        result = run_genuine(env, self.card, self.terminal, self.amount,
                             unlocked=False, adversary=adv,
                             performed_by=self.performed_by)
        ok = (result["outcome"].startswith(self.outcome)
              and all(result["view"].get(k) == v for k, v in self.view.items()))
        said = [self.note, _said(result)]
        if self.clearing is not None:
            ok = ok and self.clearing in result["cleared"]
            said.append(f"clearing said {result['cleared'] or ['nothing']}")
        return ok, "; ".join(filter(None, said))


# --- the catalogue ----------------------------------------------------------------------

CATALOG: dict[str, AttackSpec] = {s.attack_id: s for s in [
    AttackSpec("magstripe_cloning",
               "skim a static-stripe card over NFC, spend it as a swipe",
               {},
               {"P5": ("TRACK1", "TRACK2")},
               False, _stage_magstripe_cloning),
    AttackSpec("foreign_currency_replay",
               "harvest a no-CVM-abroad cryptogram, submit it as a rogue merchant",
               {"foreign_no_cvm": True, "foreign_cvm_limit_enforced": False},
               {"P3.1": (), "P3.2": ()},
               True, _stage_foreign_currency_replay,
               capabilities=("A1", "A5")),
    # the replay goes through the rogue terminal's own purchase: no rails access
    AttackSpec("replay_nonce_reuse",
               "replay a transcript at a terminal that never varies its nonce",
               {"check_atc_order": False, "check_un_reuse": False},
               {"P1": ("replay",), "P3.2": ()},
               True, _stage_replay_nonce_reuse),
    AttackSpec("pin_guessing",
               "sweep the offline PIN space, pausing so the owner resets the counter",
               {"offline_pin_enabled": True},
               {"P5": ("PIN",)},
               True, _stage_pin_guessing),
    AttackSpec("pin_guess_dos",
               "burn the offline PIN counter to brick the victim's card",
               {"offline_pin_enabled": True},
               {"P6": ()},
               False, _stage_pin_guess_dos),
    AttackSpec("ttq_ctq_bypass",
               "tell the card no CVM is needed, tell the terminal the phone did it",
               {"fdda": False, "check_ttq_in_ac": False,
                "check_plastic_cdcvm": False},
               {"P1": ("TTQ", "CTQ"), "P3.1": (), "P3.2": ()},
               True,
               Tap("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, "criminal",
                   to_card=(Edit(Tag.TTQ, {"cvm_required": False}),),
                   # wherever the CTQ travels, so the terminal's consistency check passes
                   from_card=(Edit(Tag.CTQ, {"cdcvm_performed": True}),))),
    AttackSpec("ctq_bypass",
               "rewrite only the card's CVM answer on its way to the terminal",
               {"fdda": False, "check_plastic_cdcvm": False},
               {"P1": ("CTQ",), "P3.1": (), "P3.2": ()},
               True,
               Tap("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, "criminal",
                   from_card=(Edit(Tag.CTQ, {"cdcvm_performed": True,
                                             "online_pin_required": False,
                                             "signature_required": False}),))),
    AttackSpec("card_brand_mixup",
               "spend a kernel-2 card through a fabricated kernel-3 application",
               {"fdda": False, "check_aid_pan_match": False,
                "check_plastic_cdcvm": False},
               {"P1": ("AID", "CTQ"), "P3.1": (), "P3.2": ()},
               True, _stage_card_brand_mixup),
    AttackSpec("inducing_auth_failure",
               "break offline authentication on purpose, then sign for the goods",
               {"tac_denial_cda_failed": False, "lenient_cashier": True},
               {"P1": ("CA_PK_INDEX", "CVM_LIST", "IAC_DENIAL"),
                "P3.1": (), "P3.2": ()},
               True,
               Tap("mastercard_cda", "standard_pos", AMOUNT_HIGH, "criminal",
                   # break offline authentication, leave a signature as the only CVM
                   from_card=tuple(Edit(tag, value, "READ_RECORD", (Tag.RECORD_NUMBER, 2))
                                   for tag, value in (
                       (Tag.CVM_LIST, CVMList((CVMEntry(CVMMethod.PaperSignature,
                                                        CVMCondition.Always),))),
                       (Tag.IAC, ActionCodes()),  # the card's denials, silenced
                       (Tag.CA_PK_INDEX, 9))),    # nobody can check any of this now
                   note="criminal scribbled a signature")),
    AttackSpec("googlepay_ttq",
               "high-value purchase on a locked phone that trusts the reader's TTQ",
               {"check_ttq_in_ac": False, "wallet_cdcvm_always": True},
               {"P1": ("TTQ",), "P3.1": (), "P3.2": ()},
               True,
               Tap("google_like_phone", "standard_pos", AMOUNT_HIGH, "criminal",
                   to_card=(Edit(Tag.TTQ, {"cvm_required": False}),),
                   note="locked phone paid high value")),
    AttackSpec("magic_byte",
               "gate greeting plus TTQ/CTQ rewrites turn express transit into a shop spree",
               {"check_ttq_in_ac": False, "check_mcc_for_wallet_no_cdcvm": False},
               {"P1": ("TTQ", "CTQ"), "P3.1": (), "P3.2": ()},
               True, _stage_magic_byte),
    AttackSpec("merchant_bag",
               "corrupt the cryptogram so the offline-approved sale never clears",
               {"cda": False},
               {"P1": ("AC",), "P2": (), "P3.2": ()},
               False,
               Tap("mastercard_cda", "offline_capable_pos", AMOUNT_LOW, "cardholder",
                   # flip the first byte of the card's cryptogram
                   from_card=(Edit(Tag.AC, lambda ac: bytes([ac[0] ^ 0xFF]) + ac[1:],
                                   "GENERATE_AC"),),
                   outcome="approve_offline",
                   clearing="decline")),
    AttackSpec("maestro_downgrade",
               "answer a credit-brand selection with a debit card",
               {},
               {"P1": ("AID",), "P3.2": ()},
               False,
               Tap("maestro_debit", "standard_pos", AMOUNT_LOW, "cardholder",
                   to_card=(Edit(Tag.AID, AID_MAESTRO, "SELECT", (Tag.AID, AID_MASTERCARD)),),
                   from_card=(Edit(Tag.AID, AID_MASTERCARD, "SELECT", (Tag.AID, AID_MAESTRO)),),
                   view={"aid": AID_MASTERCARD},
                   note="debit card spent under the credit brand")),
    AttackSpec("eavesdrop_card_data",
               "skim account data off a genuine purchase, read the CSC off the card",
               {},
               {"P5": ("PAN", "EXPIRY", "CSC")},
               False, _stage_eavesdrop_card_data,
               capabilities=("A1", "A8")),
    AttackSpec("magstripe_mode_clone",
               "pre-play the whole 3-digit nonce space into a dynamic-code clone",
               {"check_atc_order": False},
               {"P5": ("TRACK2", "CVC3_TABLE"), "P3.2": ()},
               True, _stage_magstripe_mode_clone),
    AttackSpec("emv_to_magstripe",
               "hide the chip: force a capable card down the mag-stripe path",
               {},
               {"P1": ("AIP",), "P3.2": ()},
               False,
               Tap("mastercard_cda", "standard_pos", AMOUNT_LOW, "cardholder",
                   from_card=(Edit(Tag.AIP, {"emv_mode_supported": False},
                                   "GET_PROCESSING_OPTIONS"),),
                   view={"mode": "ms"},
                   note="chip card pushed into mag-stripe mode")),
]}


# --- running ---------------------------------------------------------------------------

def run_attack(attack_id: str, seed: int = 0,
               flaw_overrides: dict[str, Any] | None = None) -> AttackResult:
    spec = CATALOG[attack_id]
    flaws = {**spec.required_flaws, **flaw_settings(flaw_overrides or {})}

    policy, card_over, term_over = _world_for(flaws)
    env = build_env(seed=seed, policy=policy, card_overrides=card_over,
                    terminal_overrides=term_over,
                    meta={"attack": attack_id,
                          "flaws": {k: "on" if v else "off"
                                    for k, v in sorted(flaws.items())}})
    adversary = Adversary(capabilities=spec.capabilities, trace=env.trace)
    success, detail = spec.stage(env, adversary)
    # the secrets in scope are the ones the scenario is documented to leak
    report = evaluate(env.trace, secret_scope=spec.expected.get("P5", ()))
    diffs = compare_expected(report, spec.expected)
    return AttackResult(spec=spec, success=success, detail=detail, flaws=flaws,
                        report=report, diffs=diffs, trace=env.trace)


def render_report_md(results: list[AttackResult]) -> str:
    lines = [
        "| attack | outcome | violated | expected | victim pays | match |",
        "|---|---|---|---|---|---|",
    ]
    for r in results:
        expected = ", ".join(
            f"{p}({','.join(sorted(labels))})" if labels else p
            for p, labels in sorted(r.spec.expected.items())) or "none"
        lines.append(
            f"| {r.spec.attack_id} | {'success' if r.success else 'no effect'} "
            f"| {r.report.summary()} | {expected} "
            f"| {'yes' if r.spec.intent_defeated else 'no'} "
            f"| {'ok' if not r.diffs else 'DIVERGES'} |")
    return "\n".join(lines) + "\n"
