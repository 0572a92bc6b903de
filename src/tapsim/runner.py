"""Scenario wiring and the command-line front end.

``build_env`` turns the fixture roster plus a seed into a world: one CA, one
issuer, nine cards/phones and six terminals, all sharing a trace. Every key
seed is drawn from a single seeded RNG in a fixed order, so the same (seed,
configuration) always produces byte-identical traces and reports. What the
seeds are for is built on first lookup: each card and terminal (``_OnDemand``),
the CA and issuer keys and the issuer certificate (``Pki``), and a card's
ODA key, certificate and static signature (``card.OdaMaterial``). A run pays
only for the parts of the world it reaches.

The genuine matrix at the bottom pairs every card with the terminals it
would plausibly meet, under both the permissive and hardened issuer
policies; it is the no-attack baseline that must come up clean.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Any, Callable, Iterator

from .card import Card, CardProfile, OdaMaterial, Wallet
from .channel import Adversary, NfcChannel, PaymentRails, TransactionTrace
from .crypto import (
    AC_COVERAGE_KERNEL2,
    STATIC_SIGNED_TAGS,
    CAStore,
    Certificate,
    ac_coverage_kernel3,
    generate_signing_key,
    issue_certificate,
    public_bytes,
)
from .elements import (
    ActionCodes,
    Amount,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    DataElementMap,
    FIELD_NAMES,
    TVR,
    brand_of,
)
from .issuer import PERMISSIVE_2019, Issuer, IssuerPolicy
from .terminal import Terminal, TerminalConfig

AMOUNT_HIGH = 12000   # well above the CVM limit
AMOUNT_LOW = 1500     # below the CVM and floor limits

CA_INDEX = 1

# One entry per personalized card/phone. Dicts, not classes: scenario code
# copies and patches these freely.
CARD_FIXTURES: dict[str, dict[str, Any]] = {
    "visa_plastic_no_fdda": dict(
        pan="4111111111111111", expiry="2812", cardholder_name="ALICE HOLDER",
        csc="123", fdda=False, oda=False,
    ),
    "visa_plastic_fdda": dict(
        pan="4012888888881881", expiry="2901", cardholder_name="BEA HOLDER",
        csc="456", fdda=True, oda=True,
    ),
    "visa_credit_foreign_nocvm": dict(
        pan="4556000000001008", expiry="2711", cardholder_name="CHUCK ABROAD",
        csc="789", fdda=False, oda=False,
        home_currency="USD", foreign_no_cvm=True,
    ),
    "mastercard_cda": dict(
        pan="5555555555554444", expiry="2806", cardholder_name="DANA HOLDER",
        csc="321", cda=True, oda=True,
        magstripe_capable=True, iac_denial_cda_failed=True,
        cvm_list=[("OnlinePIN", "IfAboveCvmLimit"), ("NoCVM", "IfBelowCvmLimit")],
        pin="4315",
    ),
    "maestro_debit": dict(
        pan="6761000000000006", expiry="2710", cardholder_name="EDDY HOLDER",
        csc="654", oda=False,
        cvm_list=[("OnlinePIN", "IfAboveCvmLimit"), ("NoCVM", "IfBelowCvmLimit")],
        pin="8022",
    ),
    "google_like_phone": dict(
        pan="4938000000003003", expiry="3005", cardholder_name="FAY PHONE",
        csc="987", fdda=True, oda=True,
        wallet="google_like", wallet_cdcvm_always=True,
    ),
    "apple_like_phone": dict(
        pan="4321000000004006", expiry="3007", cardholder_name="GIL PHONE",
        csc="135", fdda=False, oda=False, wallet="apple_like",
    ),
    "samsung_like_phone": dict(
        pan="4100000000005000", expiry="3009", cardholder_name="HUE PHONE",
        csc="246", fdda=True, oda=True, wallet="samsung_like",
    ),
    "magstripe_only": dict(
        pan="5200000000000114", expiry="2512", cardholder_name="IVY LEGACY",
        csc="111", emv_mode=False, oda=False,
        magstripe_capable=True, service_code="101",
    ),
}

TERMINAL_FIXTURES: dict[str, dict[str, Any]] = {
    "standard_pos": dict(terminal_id="T-STD-1", merchant_id="M-SHOP-1"),
    "offline_capable_pos": dict(terminal_id="T-OFF-1", merchant_id="M-SHOP-2",
                                offline_capable=True),
    "transit_gate": dict(terminal_id="T-GATE-1", merchant_id="M-TRANSIT-1",
                         mcc="4111", offline_capable=True),
    "rogue_fixed_un_pos": dict(terminal_id="T-FIX-1", merchant_id="M-SHOP-3",
                               fixed_un=322420958),
    "strict_tac_pos": dict(terminal_id="T-TAC-1", merchant_id="M-SHOP-4",
                           tac_denial_cda_failed=True),
    "swipe_pos": dict(terminal_id="T-SWIPE-1", merchant_id="M-SHOP-5",
                      interface="swipe"),
}

@dataclass
class Env:
    trace: TransactionTrace
    issuer: Issuer
    rails: PaymentRails
    ca_store: CAStore
    cards: Mapping[str, Card]
    terminals: Mapping[str, Terminal]


class _OnDemand(Mapping):
    """A read-only mapping whose names are fixed when it is made and whose
    values are each built by their own thunk on first lookup, then kept.
    Thunks are partials of module functions, never closures over the world,
    so a world holds no reference cycle and reference counting frees it."""

    def __init__(self, thunks: dict[Any, Callable[[], Any]]):
        self._thunks = thunks
        self._built: dict[Any, Any] = {}

    def __getitem__(self, key: Any) -> Any:
        built = self._built
        if key not in built:
            built[key] = self._thunks[key]()
        return built[key]

    def __contains__(self, key: object) -> bool:
        return key in self._thunks

    def __iter__(self) -> Iterator[Any]:
        return iter(self._thunks)

    def __len__(self) -> int:
        return len(self._thunks)


@dataclass
class Pki:
    """A world's CA -> issuer chain. The seeds are drawn in ``build_env``; the
    (deterministic) Ed25519 keys and the issuer certificate wait for the
    first ODA card or chain walk that needs them."""

    ca_seed: bytes
    issuer_seed: bytes

    @cached_property
    def ca_key(self) -> Any:
        return generate_signing_key(self.ca_seed)

    @cached_property
    def issuer_key(self) -> Any:
        return generate_signing_key(self.issuer_seed)

    @cached_property
    def issuer_cert(self) -> Certificate:
        return issue_certificate(self.ca_key, "issuer-1", public_bytes(self.issuer_key))

    def ca_root(self) -> bytes:
        return public_bytes(self.ca_key)


def _cvm_list(entries: list[tuple[str, str]]) -> CVMList:
    return CVMList(tuple(CVMEntry(CVMMethod[m], CVMCondition[c]) for m, c in entries))


def _build_card(name: str, fx: dict[str, Any], seeds: tuple[bytes, bytes, bytes],
                policy: IssuerPolicy, pki: Pki, rng: random.Random) -> Card:
    """Personalize one card; every key not translated here is a CardProfile field."""
    fx = dict(fx)
    master_key, cvc3_key, signing_seed = seeds
    cvm_list = _cvm_list(fx.pop("cvm_list", []))
    iac = ActionCodes(denial=TVR(cda_failed=fx.pop("iac_denial_cda_failed", False)))
    wallet_kind = fx.pop("wallet", None)
    cdcvm_always = fx.pop("wallet_cdcvm_always", False)
    oda = fx.pop("oda", False)
    profile = CardProfile(
        name=name, master_key=master_key, cvc3_key=cvc3_key,
        cvm_list=cvm_list, iac=iac,
        wallet=Wallet(wallet_kind, cdcvm_always) if wallet_kind else None,
        ac_coverage=(ac_coverage_kernel3(policy.check_ttq_in_ac)
                     if brand_of(fx["pan"]) == "visa" else AC_COVERAGE_KERNEL2),
        **fx,
    )

    if oda:
        profile.ca_pk_index = CA_INDEX
        # fixed now: a later profile edit meets a signature over these values
        static = DataElementMap({tag: getattr(profile, FIELD_NAMES[tag])
                                 for tag in STATIC_SIGNED_TAGS})
        profile.oda = OdaMaterial(signing_seed, pki, profile.pan, static)
    return Card(profile, rng)


def _build_terminal(name: str, fx: dict[str, Any], pin_key: bytes,
                    rng: random.Random, rails: PaymentRails,
                    ca_store: CAStore) -> Terminal:
    fx = dict(fx)
    tac = ActionCodes(denial=TVR(cda_failed=fx.pop("tac_denial_cda_failed", False)))
    return Terminal(TerminalConfig(name=name, tac=tac, **fx), rng, rails,
                    ca_store, pin_key)


def _profile_of(cards: Mapping[str, Card], name: str) -> CardProfile:
    return cards[name].profile


def _known_keys(fixtures: dict[str, dict[str, Any]], cls: type,
                owned: set[str]) -> frozenset[str]:
    """The keys an override may set: each key some fixture uses (which covers
    every key the builder translates) and each field of ``cls`` the builder
    does not set itself."""
    return frozenset(k for fx in fixtures.values() for k in fx).union(
        f.name for f in fields(cls) if f.name not in owned)


_CARD_KEYS = _known_keys(CARD_FIXTURES, CardProfile, {
    "name", "aid", "kernel", "device_type", "master_key", "cvc3_key", "iac", "aip",
    "ac_coverage"})
_TERMINAL_KEYS = _known_keys(TERMINAL_FIXTURES, TerminalConfig, {"name", "tac"})


def _patched(fixtures: dict[str, dict[str, Any]],
             overrides: dict[str, dict[str, Any]] | None,
             known: frozenset[str]) -> list[tuple[str, dict[str, Any]]]:
    """Each fixture with its overrides applied. An unknown key is rejected
    here, not when the card or terminal is first built."""
    overrides = overrides or {}
    out = []
    for name, fx in fixtures.items():
        over = overrides.get(name)
        if over:
            if not known.issuperset(over):
                raise TypeError(f"{name}: unknown fixture keys {sorted(over.keys() - known)}")
            fx = {**fx, **over}
        out.append((name, fx))
    return out


def build_env(seed: int = 0, policy: IssuerPolicy = PERMISSIVE_2019,
              card_overrides: dict[str, dict[str, Any]] | None = None,
              terminal_overrides: dict[str, dict[str, Any]] | None = None,
              meta: dict[str, Any] | None = None) -> Env:
    """Assemble a world. Every key seed is drawn here; each card, terminal
    and the PKI is built on first lookup. Overrides patch fixture dicts by
    name."""
    rng = random.Random(seed)
    trace = TransactionTrace(meta={"seed": seed, "policy": policy.name,
                                   **(meta or {})})
    pki = Pki(rng.randbytes(32), rng.randbytes(32))

    card_thunks: dict[str, Callable[[], Card]] = {}
    pan_names: dict[str, str] = {}
    for name, fx in _patched(CARD_FIXTURES, card_overrides, _CARD_KEYS):
        # master, CVC3 and signing seeds are drawn whatever the profile uses,
        # so profile toggles never shift the rng stream of later cards
        seeds = (rng.randbytes(32), rng.randbytes(32), rng.randbytes(32))
        card_thunks[name] = partial(_build_card, name, fx, seeds, policy, pki, rng)
        pan_names[fx["pan"]] = name
    cards = _OnDemand(card_thunks)

    terminal_fxs = [(name, fx, rng.randbytes(32)) for name, fx in
                    _patched(TERMINAL_FIXTURES, terminal_overrides, _TERMINAL_KEYS)]
    issuer = Issuer(policy,
                    cards=_OnDemand({pan: partial(_profile_of, cards, name)
                                     for pan, name in pan_names.items()}),
                    pin_keys={fx["terminal_id"]: pin_key
                              for _name, fx, pin_key in terminal_fxs})
    rails = PaymentRails(trace, issuer)
    ca_store = CAStore(_OnDemand({CA_INDEX: pki.ca_root}))
    terminals = _OnDemand({
        name: partial(_build_terminal, name, fx, pin_key, rng, rails, ca_store)
        for name, fx, pin_key in terminal_fxs})

    return Env(trace=trace, issuer=issuer, rails=rails, ca_store=ca_store,
               cards=cards, terminals=terminals)


# --- genuine runs ---------------------------------------------------------------

def run_genuine(env: Env, card_name: str, terminal_name: str,
                amount_minor: int, *, unlocked: bool = True,
                adversary: Adversary | None = None,
                performed_by: str = "cardholder") -> dict[str, Any]:
    """One purchase over a fresh hop, then end-of-day clearing, whose
    decisions come back as ``cleared``. By default the cardholder taps with
    no adversary anywhere; a staging passes its own adversary and tapper."""
    card = env.cards[card_name]
    terminal = env.terminals[terminal_name]
    if card.profile.wallet is not None:
        card.profile.wallet.unlocked = unlocked
        card.profile.wallet.magic_seen = False
    amount = Amount(amount_minor, "EUR")

    if terminal.config.interface == "swipe":
        session = env.trace.new_session()
        result = terminal.run_swipe(card.profile.track2, amount, session)
    else:
        channel = NfcChannel(env.trace, card, adversary=adversary)
        if terminal.transit:
            result = terminal.run_transit_tap(channel)
        else:
            result = terminal.run_purchase(
                channel, amount, performed_by=performed_by,
                pin=card.profile.pin if performed_by == "cardholder" else None)
    result["cleared"] = terminal.submit_clearing()
    return result


# (card, terminal, amount, wallet unlocked, expected outcome prefix)
GENUINE_MATRIX: list[tuple[str, str, int, bool, str]] = [
    ("visa_plastic_no_fdda", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("visa_plastic_no_fdda", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("visa_plastic_fdda", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("visa_plastic_fdda", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("visa_credit_foreign_nocvm", "standard_pos", AMOUNT_LOW, True, "approve"),
    # a foreign no-CVM card cannot satisfy a CVM-demanding terminal at high value
    ("visa_credit_foreign_nocvm", "standard_pos", AMOUNT_HIGH, True, "decline"),
    ("mastercard_cda", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("mastercard_cda", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("maestro_debit", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("maestro_debit", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("google_like_phone", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("google_like_phone", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("google_like_phone", "standard_pos", AMOUNT_LOW, False, "approve"),
    ("apple_like_phone", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("apple_like_phone", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("samsung_like_phone", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("samsung_like_phone", "standard_pos", AMOUNT_HIGH, True, "approve"),
    ("magstripe_only", "standard_pos", AMOUNT_LOW, True, "approve"),
    ("visa_plastic_no_fdda", "offline_capable_pos", AMOUNT_LOW, True, "approve"),
    ("mastercard_cda", "offline_capable_pos", AMOUNT_LOW, True, "approve"),
    ("maestro_debit", "offline_capable_pos", AMOUNT_LOW, True, "approve"),
    ("apple_like_phone", "transit_gate", 0, False, "approve"),
    ("samsung_like_phone", "transit_gate", 0, False, "approve"),
    ("google_like_phone", "transit_gate", 0, False, "approve"),
    ("visa_plastic_no_fdda", "rogue_fixed_un_pos", AMOUNT_LOW, True, "approve"),
    ("mastercard_cda", "rogue_fixed_un_pos", AMOUNT_LOW, True, "approve"),
    ("mastercard_cda", "strict_tac_pos", AMOUNT_HIGH, True, "approve"),
    ("visa_plastic_fdda", "strict_tac_pos", AMOUNT_LOW, True, "approve"),
    ("magstripe_only", "swipe_pos", AMOUNT_LOW, True, "approve"),
]


def run_genuine_matrix(policy: IssuerPolicy, seed: int = 0):
    """Yield (pairing, env, result) for every genuine pairing, each in a
    fresh world so pairings cannot contaminate each other."""
    for i, (card, terminal, amount, unlocked, expect) in enumerate(GENUINE_MATRIX):
        env = build_env(seed=seed + i, policy=policy,
                        meta={"genuine": f"{card}@{terminal}"})
        result = run_genuine(env, card, terminal, amount, unlocked=unlocked)
        yield (card, terminal, amount, unlocked, expect), env, result


# --- CLI -------------------------------------------------------------------------


def _fail_usage(msg: str) -> None:
    # config mistakes exit 2, reserving 1 for "ran, but diverged"
    print(msg, file=sys.stderr)
    raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line needs it: an import of tapsim does not pay for it
    parser = argparse.ArgumentParser(
        prog="tapsim",
        description="Contactless payment sandbox: run attack scenarios and "
                    "check which security properties they break.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the attack catalogue")

    run_p = sub.add_parser("run", help="run one or more attacks")
    run_p.add_argument("ids", nargs="*", help="attack ids (see: tapsim list)")
    run_p.add_argument("--all", action="store_true", help="run the whole catalogue")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--flaw", action="append", default=[],
                       metavar="NAME=on|off",
                       help="override a configuration toggle (repeatable)")
    run_p.add_argument("--trace", metavar="DIR",
                       help="write one JSONL trace per run into DIR")
    run_p.add_argument("--report", metavar="PATH", help="write a report file")
    run_p.add_argument("--format", choices=("json", "md"), default="json")

    rep_p = sub.add_parser("report", help="run everything and print the "
                           "attack/property matrix")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--format", choices=("json", "md"), default="md")

    args = parser.parse_args(argv)
    from . import attacks  # deferred: the catalogue pulls in every module

    if args.command == "list":
        for attack_id, spec in attacks.CATALOG.items():
            print(f"{attack_id:24} [{','.join(sorted(spec.capabilities))}] "
                  f"{spec.title}")
        return 0

    def render(results: list[Any]) -> str:
        if args.format == "md":
            return attacks.render_report_md(results)
        return json.dumps([r.render() for r in results], indent=2)

    if args.command == "report":
        results = [attacks.run_attack(a, seed=args.seed) for a in attacks.CATALOG]
        print(render(results))
        return 0 if all(r.success and not r.diffs for r in results) else 1

    ids = list(attacks.CATALOG) if args.all else args.ids
    if not ids:
        run_p.error("give attack ids or --all")
    unknown = [i for i in ids if i not in attacks.CATALOG]
    if unknown:
        _fail_usage(f"unknown attack ids: {', '.join(unknown)}")

    try:  # NAME=on|off; a bare NAME is NAME= and fails as any other value does
        flaws = attacks.flaw_settings(dict(pair.partition("=")[::2] for pair in args.flaw))
    except ValueError as err:
        _fail_usage(f"--flaw: {err}")
    results = []
    for attack_id in ids:
        result = attacks.run_attack(attack_id, seed=args.seed, flaw_overrides=flaws)
        results.append(result)
        status = "SUCCESS" if result.success else "no-effect"
        match = "expected" if not result.diffs else f"DIVERGES: {result.diffs}"
        print(f"{attack_id:24} {status:10} violated={result.report.summary()} "
              f"({match})")
        if args.trace:
            import os
            os.makedirs(args.trace, exist_ok=True)
            result.trace.save(os.path.join(args.trace, f"{attack_id}.jsonl"))

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render(results))

    return 0 if all(r.success and not r.diffs for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
