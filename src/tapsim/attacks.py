"""The adversary playbook: sixteen scripted scenarios against the sandbox.

Each catalogue entry names the configuration toggles ("flaws") the scenario
needs. ``run_attack`` builds a world with exactly those toggles applied, runs
the staging, evaluates the trace with the property checker and diffs the
outcome against the violations this scenario is documented to cause. Flipping
any single required flaw to its fixed setting must kill the attack — that
duality is what the catalogue exists to demonstrate.

Stagings only use the public machinery: adversary hooks on the NFC hop (A1),
direct submissions to the payment rails (A5), looking at the card (A8), plus
the clone/replay/translator devices defined here and in ``card``/``channel``.
A staging that is a single purchase is a ``Tap`` record rather than code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .card import (
    Cvc3MagstripeClone,
    KERNEL3_PDOL,
    N_UN_DIGITS,
    StaticMagstripeClone,
    TRANSIT_MAGIC,
)
from .channel import (
    Adversary,
    Hook,
    Message,
    NfcChannel,
    Recorder,
    Replayer,
    make_relay,
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
    TagInfo,
    TTQ,
    build_dol_data,
)
from .issuer import ISSUER_CHECKS, PERMISSIVE_2019
from .properties import PropertyReport, compare_expected, evaluate
from .runner import AMOUNT_HIGH, AMOUNT_LOW, Env, build_env, run_genuine

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


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("on", "off"):
        return value == "on"
    raise ValueError(f"flaw settings are on/off, got {value!r}")


def _world_for(spec: "AttackSpec", flaws: dict[str, bool]):
    """Translate a flaw assignment into issuer policy plus fixture overrides
    for the scenario's card and terminal."""
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
    return (PERMISSIVE_2019.with_fixes(**policy_changes),
            {spec.card: card_over}, {spec.terminal: term_over})


# --- catalogue types ----------------------------------------------------------------

Staging = Callable[[Env, Adversary], tuple[bool, str]]


@dataclass(frozen=True)
class AttackSpec:
    attack_id: str
    title: str
    capabilities: tuple[str, ...]
    card: str
    terminal: str | None
    required_flaws: dict[str, bool]
    expected: dict[str, tuple[str, ...]]
    # whether the scenario makes the victim's card pay for something they
    # never meant to authorize (vs. merely breaking agreement/proximity)
    intent_defeated: bool
    secret_scope: frozenset[str]
    stage: Staging


@dataclass
class AttackResult:
    attack_id: str
    title: str
    success: bool
    detail: str
    flaws: dict[str, bool]
    report: PropertyReport
    expected: dict[str, tuple[str, ...]]
    diffs: list[str]
    trace: Any
    intent_defeated: bool = False

    def render(self) -> dict[str, Any]:
        return {
            "attack": self.attack_id,
            "title": self.title,
            "success": self.success,
            "detail": self.detail,
            "victim_pays": self.intent_defeated,
            "flaws": {k: "on" if v else "off"
                      for k, v in sorted(self.flaws.items())},
            "expected": {k: sorted(v) for k, v in sorted(self.expected.items())},
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


def _genuine_probe(env: Env, card_name: str, terminal_name: str,
                   amount: int = AMOUNT_LOW) -> bool:
    """Post-attack check that the genuine cardholder can still pay."""
    result = run_genuine(env, card_name, terminal_name, amount)
    ok = _approved(result)
    env.trace.mark("genuine_probe", session=result["session"], ok=ok,
                   what=f"{card_name}@{terminal_name}", reason=result["reason"])
    return ok


def _flags(tag: TagInfo, message: str | None = None, **bits: bool) -> Hook:
    """Hook: set flag bits of ``tag`` wherever it travels, or only in
    ``message``. A CTQ edit thus covers both the processing options and
    record 2, so the terminal's consistency check passes."""
    def hook(msg: Message, adv: Adversary) -> Message:
        if message in (None, msg.name) and tag in msg.payload:
            return msg.with_payload(**{tag.name: msg.payload[tag].replace(**bits)})
        return msg
    return hook


def _swap(message: str, tag: TagInfo, old: Any, new: Any) -> Hook:
    """Hook: replace ``old`` with ``new`` as the value of ``tag`` in ``message``."""
    def hook(msg: Message, adv: Adversary) -> Message:
        if msg.name == message and msg.payload.get(tag) == old:
            return msg.with_payload(**{tag.name: new})
        return msg
    return hook


def _gut_record2(msg: Message, adv: Adversary) -> Message:
    """Hook: break offline authentication and leave a signature as the only CVM."""
    if msg.name == "READ_RECORD" and msg.payload.get(Tag.RECORD_NUMBER) == 2:
        return msg.with_payload(
            CVM_LIST=CVMList((CVMEntry(CVMMethod.PaperSignature,
                                       CVMCondition.Always),)),
            IAC=ActionCodes(),      # the card's denials, silenced
            CA_PK_INDEX=9,          # nobody can check any of this now
        )
    return msg


def _corrupt_ac(msg: Message, adv: Adversary) -> Message:
    """Hook: flip the first byte of the card's cryptogram."""
    if msg.name == "GENERATE_AC" and Tag.AC in msg.payload:
        ac = msg.payload[Tag.AC]
        return msg.with_payload(AC=bytes([ac[0] ^ 0xFF]) + ac[1:])
    return msg


# --- PIN-probing machinery ------------------------------------------------------------

def simulate_pin_search(true_pin: str, *, try_limit: int = 3,
                        stop_at_remaining: int = 1) -> tuple[int, int, bool]:
    """Counter-aware exhaustive sweep as a pure function.

    Models a criminal guessing 0000..9999 in order with brief repeated
    access: whenever the try counter is down to ``stop_at_remaining`` they
    stop and wait for the owner to use the card (which resets it). Returns
    (guesses, owner_resets, blocked), in closed form.
    """
    found = len(true_pin) == 4 and true_pin.isascii() and true_pin.isdigit()
    index = int(true_pin) if found else 10000   # wrong guesses before the PIN
    guesses = min(index + 1, 10000)
    # a counter already at the stop mark is reset before the first guess
    resets = 1 if stop_at_remaining >= try_limit else 0
    stop = min(stop_at_remaining, try_limit - 1)
    if stop <= 0:
        # nothing left to pause for: the wrong guesses run the counter out
        if index >= try_limit:
            return try_limit, resets, True
        return guesses, resets, False
    # one owner reset after every try_limit - stop guesses
    return guesses, resets + (guesses - 1) // (try_limit - stop), False


def pin_guess_campaign(channel: NfcChannel, adversary: Adversary, *,
                       owner_reset: Callable[[], None],
                       stop_at_remaining: int = 1) -> str | None:
    """The message-driven version of :func:`simulate_pin_search`: the same
    discipline, spoken over VERIFY. Returns the recovered PIN or None."""
    probe = channel.exchange(Message("VERIFY"))
    if probe.payload.get(Tag.DECISION) != "query":
        return None
    try_limit = probe.payload[Tag.PIN_TRIES_REMAINING]
    remaining = try_limit
    for guess in (f"{i:04d}" for i in range(10000)):
        if remaining <= stop_at_remaining:
            owner_reset()
            remaining = try_limit
        resp = channel.exchange(Message("VERIFY", DataElementMap({
            Tag.PIN_GUESS: guess})))
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
    probe = channel.exchange(Message("VERIFY"))
    if probe.payload.get(Tag.DECISION) != "query":
        return 0
    count = 0
    for guess in wrong_pins:
        resp = channel.exchange(Message("VERIFY", DataElementMap({
            Tag.PIN_GUESS: guess})))
        count += 1
        if resp.payload[Tag.DECISION] == "blocked":
            return count
    return count


# --- cloning machinery ---------------------------------------------------------------

def harvest_cvc3_table(channel: NfcChannel, aid: bytes,
                       uns: Iterable[int]) -> tuple[DataElementMap, int, dict]:
    """Pre-play harvest: query the card's dynamic code for every UN given.
    Returns (record 1, UN digit count, {un: (atc, code)})."""
    sel = channel.exchange(Message("SELECT", DataElementMap({Tag.AID: aid})))
    if sel.payload.get(Tag.AID) is None:
        raise ValueError("card does not carry that application")
    r1 = channel.exchange(Message("READ_RECORD", DataElementMap({
        Tag.RECORD_NUMBER: 1}))).payload.copy()
    table: dict[int, tuple[int, bytes]] = {}
    for un in uns:
        resp = channel.exchange(Message("GENERATE_AC",
                                        DataElementMap({Tag.UN: un})))
        if Tag.CVC3 not in resp.payload:
            raise ValueError("card does not answer dynamic-code queries")
        table[un] = (resp.payload[Tag.ATC], resp.payload[Tag.CVC3])
    return r1, N_UN_DIGITS, table


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
                return Message("SELECT")
            real = self.far.exchange(Message("SELECT", DataElementMap({
                Tag.AID: self.real_aid})))
            if real.payload.get(Tag.AID) is None:
                return Message("SELECT")
            return Message("SELECT", DataElementMap({
                Tag.AID: self.face_aid, Tag.KERNEL_ID: 3,
                Tag.PDOL: KERNEL3_PDOL,
            }))
        if msg.name == "GET_PROCESSING_OPTIONS":
            return self._transact(msg)
        if msg.name == "READ_RECORD":
            resp = self.far.exchange(msg)
            if msg.payload.get(Tag.RECORD_NUMBER) == 2:
                return Message("READ_RECORD",
                               resp.payload.copy().put(Tag.CTQ, self.claimed_ctq))
            return resp
        return Message(msg.name)

    def _transact(self, msg: Message) -> Message:
        amount: Amount = msg.payload[Tag.AMOUNT]
        un: int = msg.payload[Tag.UN]

        gpo = self.far.exchange(Message("GET_PROCESSING_OPTIONS"))
        aip, afl = gpo.payload[Tag.AIP], gpo.payload[Tag.AFL]
        r2 = self.far.exchange(Message("READ_RECORD", DataElementMap({
            Tag.RECORD_NUMBER: 2}))).payload
        cdol: DOL = r2.get(Tag.CDOL1, DOL(()))

        # feed the real card a CVM result matching the claim it never made
        cvm_results = CVMResults(CVMMethod.CDCVM, CVMCondition.Always,
                                 CVMResult.Performed)
        payload = build_dol_data(cdol, DataElementMap({
            Tag.AMOUNT: amount, Tag.UN: un, Tag.CVM_RESULTS: cvm_results,
        }))
        payload.put(Tag.CID, CID.ARQC).put(Tag.CDA_REQUESTED, 0)
        rp = self.far.exchange(Message("GENERATE_AC", payload)).payload

        out = DataElementMap({
            Tag.AIP: aip, Tag.AFL: afl, Tag.ATC: rp[Tag.ATC],
            Tag.CID: rp[Tag.CID], Tag.AC: rp[Tag.AC], Tag.IAD: rp[Tag.IAD],
            Tag.CTQ: self.claimed_ctq,
        })
        if Tag.UN_CARD in rp:
            out.put(Tag.UN_CARD, rp[Tag.UN_CARD])
        return Message("GET_PROCESSING_OPTIONS", out)


# --- stagings --------------------------------------------------------------------------

def _stage_magstripe_cloning(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["magstripe_only"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    channel.exchange(Message("SELECT", DataElementMap({Tag.AID: AID_MASTERCARD})))
    channel.exchange(Message("GET_PROCESSING_OPTIONS"))
    r1 = channel.exchange(Message("READ_RECORD", DataElementMap({
        Tag.RECORD_NUMBER: 1}))).payload
    adv.learn("TRACK1", r1[Tag.TRACK1], session=channel.session)
    adv.learn("TRACK2", r1[Tag.TRACK2], session=channel.session)

    clone = StaticMagstripeClone(track2=r1[Tag.TRACK2], track1=r1[Tag.TRACK1])
    swipe = env.terminals["swipe_pos"]
    result = swipe.run_swipe(clone.track2, _eur(AMOUNT_LOW),
                             env.trace.new_session())
    return _approved(result), f"cloned stripe swiped; {_said(result)}"


def _stage_foreign_currency_replay(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_credit_foreign_nocvm"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    amount, un = _eur(AMOUNT_HIGH), 0x2A2A
    # drive the card exactly like a shop terminal would
    ttq = TTQ(online_pin_supported=True, signature_supported=True,
              cvm_required=True, emv_mode_supported=True)
    sel = channel.exchange(Message("SELECT", DataElementMap({Tag.AID: AID_VISA})))
    gpo = channel.exchange(Message("GET_PROCESSING_OPTIONS",
                                   build_dol_data(sel.payload[Tag.PDOL],
                                                  DataElementMap({
                                                      Tag.TTQ: ttq,
                                                      Tag.AMOUNT: amount,
                                                      Tag.UN: un,
                                                  }))))
    r1 = channel.exchange(Message("READ_RECORD", DataElementMap({
        Tag.RECORD_NUMBER: 1}))).payload
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

    # the victim pays once; the skimmer transcribes the dialogue
    recorder = Recorder(card)
    first = terminal.run_purchase(NfcChannel(env.trace, recorder),
                                  _eur(AMOUNT_LOW), pin=card.profile.pin,
                                  performed_by="cardholder")
    if not _approved(first):
        return False, f"victim purchase failed: {_said(first)}"

    # same terminal, same nonce, no card anywhere near
    replayer = Replayer(recorder.transcript)
    replay_channel = NfcChannel(env.trace, replayer, adversary=adv)
    result = terminal.run_purchase(replay_channel, _eur(AMOUNT_LOW),
                                   performed_by="criminal")
    return _approved(result), f"replayed transcript; {_said(result)}"


def _stage_pin_guessing(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["visa_plastic_no_fdda"]
    guess_channel = NfcChannel(env.trace, card, adversary=adv)
    owner_channel = NfcChannel(env.trace, card)

    def owner_reset() -> None:
        # the owner uses the card normally; a correct PIN refills the counter
        owner_channel.exchange(Message("VERIFY", DataElementMap({
            Tag.PIN_GUESS: card.profile.pin})))

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
    far, session = make_relay(env.trace, env.cards["mastercard_cda"], adv)
    translator = TranslatorCard(far, face_aid=AID_VISA, real_aid=AID_MASTERCARD)
    near = NfcChannel(env.trace, translator, session=session)
    result = env.terminals["standard_pos"].run_purchase(
        near, _eur(AMOUNT_HIGH), performed_by="criminal")
    return _approved(result), f"kernel-2 card spent as kernel 3; {_said(result)}"


def _stage_magic_byte(env: Env, adv: Adversary) -> tuple[bool, str]:
    bridge, _session = make_relay(env.trace, env.cards["apple_like_phone"], adv)
    # whisper the gate's greeting so the phone opens its express path
    bridge.exchange(Message("MAGIC_BYTES",
                            DataElementMap({Tag.MAGIC: TRANSIT_MAGIC})))
    adv.on_to_card(_flags(Tag.TTQ, oda_for_online_supported=True))
    adv.on_from_card(_flags(Tag.CTQ, cdcvm_performed=True))
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
    card = env.cards["visa_plastic_no_fdda"]
    channel = NfcChannel(env.trace, card, adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        channel, _eur(AMOUNT_LOW), pin=card.profile.pin,
        performed_by="cardholder")
    # shoulder-surf the printed face for the security code
    visual_read(adv, card.profile.face(), session=channel.session)
    got = {c for c in ("PAN", "EXPIRY", "CSC") if adv.knows(c)}
    return (_approved(result) and got == {"PAN", "EXPIRY", "CSC"},
            f"skimmed {sorted(got)} during a genuine purchase")


def _stage_magstripe_mode_clone(env: Env, adv: Adversary) -> tuple[bool, str]:
    card = env.cards["mastercard_cda"]
    harvest_channel = NfcChannel(env.trace, card, adversary=adv)
    r1, n_digits, table = harvest_cvc3_table(harvest_channel, AID_MASTERCARD,
                                             range(10 ** N_UN_DIGITS))
    adv.learn("TRACK2", r1[Tag.TRACK2], session=harvest_channel.session)
    adv.learn("CVC3_TABLE", f"{len(table)} codes", session=harvest_channel.session)

    # the owner keeps shopping before the clone is spent, so the issuer has
    # seen counters far beyond everything in the harvested table
    mid = run_genuine(env, "mastercard_cda", "standard_pos", AMOUNT_LOW)
    if not _approved(mid):
        return False, "owner purchase between harvest and spend failed"

    clone = Cvc3MagstripeClone(AID_MASTERCARD, r1, n_digits, table)
    clone_channel = NfcChannel(env.trace, clone, adversary=adv)
    result = env.terminals["standard_pos"].run_purchase(
        clone_channel, _eur(AMOUNT_LOW), performed_by="criminal")
    return _approved(result), (f"{len(table)}-entry table; {_said(result)}")


@dataclass(frozen=True)
class Tap:
    """A staging that is one purchase over an adversary-owned NFC hop, as
    data: which card meets which terminal for how much, who taps (only the
    cardholder knows the PIN), how the adversary edits each direction, and
    what the attack landing looks like."""

    card: str
    terminal: str
    amount: int
    performed_by: str
    to_card: tuple[Hook, ...] = ()
    from_card: tuple[Hook, ...] = ()
    outcome: str = "approve"                      # required outcome prefix
    view: dict[str, Any] = field(default_factory=dict)  # required view fields
    clearing: str | None = None                   # required clearing decision
    note: str = ""                                # leads the result's detail

    def __call__(self, env: Env, adv: Adversary) -> tuple[bool, str]:
        for hook in self.to_card:
            adv.on_to_card(hook)
        for hook in self.from_card:
            adv.on_from_card(hook)
        card = env.cards[self.card]
        terminal = env.terminals[self.terminal]
        result = terminal.run_purchase(
            NfcChannel(env.trace, card, adversary=adv), _eur(self.amount),
            pin=card.profile.pin if self.performed_by == "cardholder" else None,
            performed_by=self.performed_by)
        ok = (result["outcome"].startswith(self.outcome)
              and all(result["view"].get(k) == v for k, v in self.view.items()))
        said = [self.note, _said(result)]
        if self.clearing is not None:
            cleared = terminal.submit_clearing()
            ok = ok and self.clearing in cleared
            said.append(f"clearing said {cleared or ['nothing']}")
        return ok, "; ".join(filter(None, said))


# --- the catalogue ----------------------------------------------------------------------

def _spec(attack_id: str, title: str, capabilities: tuple[str, ...],
          card: str, terminal: str | None, flaws: dict[str, bool],
          expected: dict[str, tuple[str, ...]], intent: bool,
          scope: Iterable[str], stage: Staging) -> AttackSpec:
    return AttackSpec(attack_id=attack_id, title=title,
                      capabilities=capabilities, card=card, terminal=terminal,
                      required_flaws=flaws, expected=expected,
                      intent_defeated=intent, secret_scope=frozenset(scope),
                      stage=stage)


def _tap_spec(attack_id: str, title: str, flaws: dict[str, bool],
              expected: dict[str, tuple[str, ...]], intent: bool,
              tap: Tap) -> AttackSpec:
    return _spec(attack_id, title, ("A1",), tap.card, tap.terminal, flaws,
                 expected, intent, (), tap)

CATALOG: dict[str, AttackSpec] = {s.attack_id: s for s in [
    _spec("magstripe_cloning",
          "skim a static-stripe card over NFC, spend it as a swipe",
          ("A1",), "magstripe_only", "swipe_pos",
          {},
          {"P5": ("TRACK1", "TRACK2")},
          False, ("TRACK1", "TRACK2"),
          _stage_magstripe_cloning),
    _spec("foreign_currency_replay",
          "harvest a no-CVM-abroad cryptogram, submit it as a rogue merchant",
          ("A1", "A5"), "visa_credit_foreign_nocvm", None,
          {"foreign_no_cvm": True, "foreign_cvm_limit_enforced": False},
          {"P3.1": (), "P3.2": ()},
          True, (),
          _stage_foreign_currency_replay),
    _spec("replay_nonce_reuse",
          "replay a transcript at a terminal that never varies its nonce",
          ("A1", "A5"), "visa_plastic_no_fdda", "rogue_fixed_un_pos",
          {"check_atc_order": False, "check_un_reuse": False},
          {"P1": ("replay",), "P3.2": ()},
          True, (),
          _stage_replay_nonce_reuse),
    _spec("pin_guessing",
          "sweep the offline PIN space, pausing so the owner resets the counter",
          ("A1",), "visa_plastic_no_fdda", "standard_pos",
          {"offline_pin_enabled": True},
          {"P5": ("PIN",)},
          True, (),
          _stage_pin_guessing),
    _spec("pin_guess_dos",
          "burn the offline PIN counter to brick the victim's card",
          ("A1",), "visa_plastic_no_fdda", "standard_pos",
          {"offline_pin_enabled": True},
          {"P6": ()},
          False, (),
          _stage_pin_guess_dos),
    _tap_spec("ttq_ctq_bypass",
              "tell the card no CVM is needed, tell the terminal the phone did it",
              {"fdda": False, "check_ttq_in_ac": False,
               "check_plastic_cdcvm": False},
              {"P1": ("TTQ", "CTQ"), "P3.1": (), "P3.2": ()},
              True,
              Tap("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, "criminal",
                  to_card=(_flags(Tag.TTQ, cvm_required=False),),
                  from_card=(_flags(Tag.CTQ, cdcvm_performed=True),))),
    _tap_spec("ctq_bypass",
              "rewrite only the card's CVM answer on its way to the terminal",
              {"fdda": False, "check_plastic_cdcvm": False},
              {"P1": ("CTQ",), "P3.1": (), "P3.2": ()},
              True,
              Tap("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, "criminal",
                  from_card=(_flags(Tag.CTQ, cdcvm_performed=True,
                                    online_pin_required=False,
                                    signature_required=False),))),
    _spec("card_brand_mixup",
          "spend a kernel-2 card through a fabricated kernel-3 application",
          ("A1",), "mastercard_cda", "standard_pos",
          {"fdda": False, "check_aid_pan_match": False,
           "check_plastic_cdcvm": False},
          {"P1": ("AID", "CTQ"), "P3.1": (), "P3.2": ()},
          True, (),
          _stage_card_brand_mixup),
    _tap_spec("inducing_auth_failure",
              "break offline authentication on purpose, then sign for the goods",
              {"tac_denial_cda_failed": False, "lenient_cashier": True},
              {"P1": ("CA_PK_INDEX", "CVM_LIST", "IAC_DENIAL"),
               "P3.1": (), "P3.2": ()},
              True,
              Tap("mastercard_cda", "standard_pos", AMOUNT_HIGH, "criminal",
                  from_card=(_gut_record2,),
                  note="criminal scribbled a signature")),
    _tap_spec("googlepay_ttq",
              "high-value purchase on a locked phone that trusts the reader's TTQ",
              {"check_ttq_in_ac": False, "wallet_cdcvm_always": True},
              {"P1": ("TTQ",), "P3.1": (), "P3.2": ()},
              True,
              Tap("google_like_phone", "standard_pos", AMOUNT_HIGH, "criminal",
                  to_card=(_flags(Tag.TTQ, cvm_required=False),),
                  note="locked phone paid high value")),
    _spec("magic_byte",
          "gate greeting plus TTQ/CTQ rewrites turn express transit into a shop spree",
          ("A1",), "apple_like_phone", "standard_pos",
          {"check_ttq_in_ac": False, "check_mcc_for_wallet_no_cdcvm": False},
          {"P1": ("TTQ", "CTQ"), "P3.1": (), "P3.2": ()},
          True, (),
          _stage_magic_byte),
    _tap_spec("merchant_bag",
              "corrupt the cryptogram so the offline-approved sale never clears",
              {"cda": False},
              {"P1": ("AC",), "P2": (), "P3.2": ()},
              False,
              Tap("mastercard_cda", "offline_capable_pos", AMOUNT_LOW, "cardholder",
                  from_card=(_corrupt_ac,), outcome="approve_offline",
                  clearing="decline")),
    _tap_spec("maestro_downgrade",
              "answer a credit-brand selection with a debit card",
              {},
              {"P1": ("AID",), "P3.2": ()},
              False,
              Tap("maestro_debit", "standard_pos", AMOUNT_LOW, "cardholder",
                  to_card=(_swap("SELECT", Tag.AID, AID_MASTERCARD, AID_MAESTRO),),
                  from_card=(_swap("SELECT", Tag.AID, AID_MAESTRO, AID_MASTERCARD),),
                  view={"aid": AID_MASTERCARD},
                  note="debit card spent under the credit brand")),
    _spec("eavesdrop_card_data",
          "skim account data off a genuine purchase, read the CSC off the card",
          ("A1", "A8"), "visa_plastic_no_fdda", "standard_pos",
          {},
          {"P5": ("PAN", "EXPIRY", "CSC")},
          False, ("PAN", "EXPIRY", "CSC"),
          _stage_eavesdrop_card_data),
    _spec("magstripe_mode_clone",
          "pre-play the whole 3-digit nonce space into a dynamic-code clone",
          ("A1",), "mastercard_cda", "standard_pos",
          {"check_atc_order": False},
          {"P5": ("TRACK2", "CVC3_TABLE"), "P3.2": ()},
          True, ("TRACK2", "CVC3_TABLE"),
          _stage_magstripe_mode_clone),
    _tap_spec("emv_to_magstripe",
              "hide the chip: force a capable card down the mag-stripe path",
              {},
              {"P1": ("AIP",), "P3.2": ()},
              False,
              Tap("mastercard_cda", "standard_pos", AMOUNT_LOW, "cardholder",
                  from_card=(_flags(Tag.AIP, "GET_PROCESSING_OPTIONS",
                                    emv_mode_supported=False),),
                  view={"mode": "ms"},
                  note="chip card pushed into mag-stripe mode")),
]}


# --- running ---------------------------------------------------------------------------

def run_attack(attack_id: str, seed: int = 0,
               flaw_overrides: dict[str, Any] | None = None) -> AttackResult:
    spec = CATALOG[attack_id]
    flaws = dict(spec.required_flaws)
    for name, value in (flaw_overrides or {}).items():
        if name not in KNOWN_FLAWS:
            raise ValueError(f"unknown flaw {name!r}")
        flaws[name] = _as_bool(value)

    policy, card_over, term_over = _world_for(spec, flaws)
    env = build_env(seed=seed, policy=policy, card_overrides=card_over,
                    terminal_overrides=term_over,
                    meta={"attack": attack_id,
                          "flaws": {k: "on" if v else "off"
                                    for k, v in sorted(flaws.items())}})
    adversary = Adversary(capabilities=spec.capabilities, trace=env.trace)
    success, detail = spec.stage(env, adversary)
    report = evaluate(env.trace, secret_scope=spec.secret_scope)
    diffs = compare_expected(report, spec.expected)
    return AttackResult(attack_id=attack_id, title=spec.title, success=success,
                        detail=detail, flaws=flaws, report=report,
                        expected=dict(spec.expected), diffs=diffs,
                        trace=env.trace, intent_defeated=spec.intent_defeated)


def render_report_md(results: list[AttackResult]) -> str:
    lines = [
        "| attack | outcome | violated | expected | victim pays | match |",
        "|---|---|---|---|---|---|",
    ]
    for r in results:
        expected = ", ".join(
            f"{p}({','.join(sorted(labels))})" if labels else p
            for p, labels in sorted(r.expected.items())) or "none"
        lines.append(
            f"| {r.attack_id} | {'success' if r.success else 'no effect'} "
            f"| {r.report.summary()} | {expected} "
            f"| {'yes' if r.intent_defeated else 'no'} "
            f"| {'ok' if not r.diffs else 'DIVERGES'} |")
    return "\n".join(lines) + "\n"
