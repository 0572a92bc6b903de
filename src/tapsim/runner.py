"""Scenario wiring and the command-line front end.

``build_env`` turns the fixture roster plus a seed into a fully keyed world:
one CA, one issuer, nine cards/phones and six terminals, all sharing a trace.
Key material is drawn from a single seeded RNG in a fixed order, so the same
(seed, configuration) always produces byte-identical traces and reports.

The genuine matrix at the bottom pairs every card with the terminals it
would plausibly meet, under both the permissive and hardened issuer
policies; it is the no-attack baseline that must come up clean.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Any

from .card import Card, CardProfile, WALLET_KINDS
from .channel import NfcChannel, PaymentRails, TransactionTrace
from .crypto import (
    CAStore,
    generate_signing_key,
    issue_certificate,
    public_bytes,
    sign_static_records,
)
from .elements import (
    AID_MAESTRO,
    AID_MASTERCARD,
    AID_VISA,
    ActionCodes,
    Amount,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    DataElementMap,
    Tag,
    TVR,
)
from .issuer import PERMISSIVE_2019, Issuer, IssuerPolicy
from .terminal import Terminal, TerminalConfig

AMOUNT_HIGH = 12000   # well above the CVM limit
AMOUNT_LOW = 1500     # below the CVM and floor limits

CA_INDEX = 1

_AIDS = {"visa": AID_VISA, "mastercard": AID_MASTERCARD, "maestro": AID_MAESTRO}

# One entry per personalized card/phone. Dicts, not classes: scenario code
# copies and patches these freely.
CARD_FIXTURES: dict[str, dict[str, Any]] = {
    "visa_plastic_no_fdda": dict(
        pan="4111111111111111", expiry="2812", cardholder_name="ALICE HOLDER",
        csc="123", brand="visa", kernel=3, fdda=False, oda=False,
    ),
    "visa_plastic_fdda": dict(
        pan="4012888888881881", expiry="2901", cardholder_name="BEA HOLDER",
        csc="456", brand="visa", kernel=3, fdda=True, oda=True,
    ),
    "visa_credit_foreign_nocvm": dict(
        pan="4556000000001008", expiry="2711", cardholder_name="CHUCK ABROAD",
        csc="789", brand="visa", kernel=3, fdda=False, oda=False,
        home_currency="USD", foreign_no_cvm=True,
    ),
    "mastercard_cda": dict(
        pan="5555555555554444", expiry="2806", cardholder_name="DANA HOLDER",
        csc="321", brand="mastercard", kernel=2, cda=True, oda=True,
        magstripe_capable=True, iac_denial_cda_failed=True,
        cvm_list=[("OnlinePIN", "IfAboveCvmLimit"), ("NoCVM", "IfBelowCvmLimit")],
        pin="4315",
    ),
    "maestro_debit": dict(
        pan="6761000000000006", expiry="2710", cardholder_name="EDDY HOLDER",
        csc="654", brand="maestro", kernel=2, oda=False,
        cvm_list=[("OnlinePIN", "IfAboveCvmLimit"), ("NoCVM", "IfBelowCvmLimit")],
        pin="8022",
    ),
    "google_like_phone": dict(
        pan="4938000000003003", expiry="3005", cardholder_name="FAY PHONE",
        csc="987", brand="visa", kernel=3, fdda=True, oda=True,
        device_type="phone", wallet="google_like", wallet_cdcvm_always=True,
    ),
    "apple_like_phone": dict(
        pan="4321000000004006", expiry="3007", cardholder_name="GIL PHONE",
        csc="135", brand="visa", kernel=3, fdda=False, oda=False,
        device_type="phone", wallet="apple_like",
    ),
    "samsung_like_phone": dict(
        pan="4100000000005000", expiry="3009", cardholder_name="HUE PHONE",
        csc="246", brand="visa", kernel=3, fdda=True, oda=True,
        device_type="phone", wallet="samsung_like",
    ),
    "magstripe_only": dict(
        pan="5200000000000114", expiry="2512", cardholder_name="IVY LEGACY",
        csc="111", brand="mastercard", kernel=2, emv_mode=False, oda=False,
        magstripe_capable=True, service_code="101",
    ),
}

TERMINAL_FIXTURES: dict[str, dict[str, Any]] = {
    "standard_pos": dict(terminal_id="T-STD-1", merchant_id="M-SHOP-1"),
    "offline_capable_pos": dict(terminal_id="T-OFF-1", merchant_id="M-SHOP-2",
                                offline_capable=True),
    "transit_gate": dict(terminal_id="T-GATE-1", merchant_id="M-TRANSIT-1",
                         mcc="4111", transit=True, offline_capable=True),
    "rogue_fixed_un_pos": dict(terminal_id="T-FIX-1", merchant_id="M-SHOP-3",
                               fixed_un=322420958),
    "strict_tac_pos": dict(terminal_id="T-TAC-1", merchant_id="M-SHOP-4",
                           tac_denial_cda_failed=True),
    "swipe_pos": dict(terminal_id="T-SWIPE-1", merchant_id="M-SHOP-5",
                      interface="swipe"),
}

@dataclass
class Env:
    seed: int
    policy: IssuerPolicy
    trace: TransactionTrace
    rng: random.Random
    issuer: Issuer
    rails: PaymentRails
    ca_store: CAStore
    cards: dict[str, Card]
    terminals: dict[str, Terminal]


def _cvm_list(entries: list[tuple[str, str]]) -> CVMList:
    return CVMList(tuple(CVMEntry(CVMMethod[m], CVMCondition[c]) for m, c in entries))


def _build_profile(name: str, fx: dict[str, Any], rng: random.Random,
                   policy: IssuerPolicy, issuer_key, issuer_cert) -> CardProfile:
    """Personalize one card; every key not translated here is a CardProfile field."""
    # key material is drawn unconditionally so profile toggles never shift
    # the rng stream of later cards
    master_key = rng.randbytes(32)
    cvc3_key = rng.randbytes(32)
    signing_seed = rng.randbytes(32)

    aid = _AIDS[fx.pop("brand")]
    cvm_list = _cvm_list(fx.pop("cvm_list", []))
    iac = ActionCodes(denial=TVR(cda_failed=fx.pop("iac_denial_cda_failed", False)))
    wallet_kind = fx.pop("wallet", None)
    cdcvm_always = fx.pop("wallet_cdcvm_always", False)
    oda = fx.pop("oda", False)
    profile = CardProfile(
        name=name, aid=aid, master_key=master_key, cvc3_key=cvc3_key,
        cvm_list=cvm_list, iac=iac,
        wallet=(WALLET_KINDS[wallet_kind](cdcvm_always=cdcvm_always)
                if wallet_kind else None),
        include_ttq_in_ac=(fx["kernel"] == 3 and policy.check_ttq_in_ac),
        **fx,
    )

    if oda:
        signing_key = generate_signing_key(signing_seed)
        profile.signing_key = signing_key
        profile.ca_pk_index = CA_INDEX
        profile.issuer_cert = issuer_cert
        profile.card_cert = issue_certificate(issuer_key, profile.pan,
                                              public_bytes(signing_key))
        static = DataElementMap({
            Tag.PAN: profile.pan, Tag.EXPIRY: profile.expiry,
            Tag.AIP: profile.aip, Tag.CVM_LIST: profile.cvm_list,
            Tag.IAC: profile.iac, Tag.CA_PK_INDEX: CA_INDEX,
        })
        profile.static_signature = sign_static_records(issuer_key, static)
    return profile


def build_env(seed: int = 0, policy: IssuerPolicy = PERMISSIVE_2019,
              card_overrides: dict[str, dict[str, Any]] | None = None,
              terminal_overrides: dict[str, dict[str, Any]] | None = None,
              meta: dict[str, Any] | None = None) -> Env:
    """Assemble a fully keyed world. Overrides patch fixture dicts by name."""
    rng = random.Random(seed)
    trace = TransactionTrace(meta={"seed": seed, "policy": policy.name,
                                   **(meta or {})})

    ca_key = generate_signing_key(rng.randbytes(32))
    issuer_key = generate_signing_key(rng.randbytes(32))
    ca_store = CAStore()
    ca_store.add(CA_INDEX, public_bytes(ca_key))
    issuer_cert = issue_certificate(ca_key, "issuer-1", public_bytes(issuer_key))

    issuer = Issuer(policy)
    rails = PaymentRails(trace, issuer)

    cards: dict[str, Card] = {}
    for name, base in CARD_FIXTURES.items():
        fx = dict(base)
        fx.update((card_overrides or {}).get(name, {}))
        profile = _build_profile(name, fx, rng, policy, issuer_key, issuer_cert)
        cards[name] = Card(profile, rng)
        issuer.register_card(profile)

    terminals: dict[str, Terminal] = {}
    for name, base in TERMINAL_FIXTURES.items():
        fx = dict(base)
        fx.update((terminal_overrides or {}).get(name, {}))
        pin_key = rng.randbytes(32)
        tac = ActionCodes(denial=TVR(cda_failed=fx.pop("tac_denial_cda_failed", False)))
        config = TerminalConfig(name=name, tac=tac, **fx)
        terminals[name] = Terminal(config, rng, rails, ca_store, pin_key)
        issuer.register_terminal(config.terminal_id, pin_key)

    return Env(seed=seed, policy=policy, trace=trace, rng=rng, issuer=issuer,
               rails=rails, ca_store=ca_store, cards=cards, terminals=terminals)


# --- genuine runs ---------------------------------------------------------------

def run_genuine(env: Env, card_name: str, terminal_name: str,
                amount_minor: int, *, unlocked: bool = True) -> dict[str, Any]:
    """One honest purchase: cardholder present, no adversary anywhere."""
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
        channel = NfcChannel(env.trace, card)
        if terminal.config.transit:
            result = terminal.run_transit_tap(channel)
        else:
            result = terminal.run_purchase(channel, amount,
                                           pin=card.profile.pin,
                                           performed_by="cardholder")
    terminal.submit_clearing()
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


def _parse_flaws(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            _fail_usage(f"--flaw wants name=on|off, got {pair!r}")
        name, _, value = pair.partition("=")
        if value not in ("on", "off"):
            _fail_usage(f"--flaw value must be on or off, got {value!r}")
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
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

    if args.command == "report":
        results = [attacks.run_attack(a, seed=args.seed) for a in attacks.CATALOG]
        text = (attacks.render_report_md(results) if args.format == "md"
                else json.dumps([r.render() for r in results], indent=2))
        print(text)
        return 0 if all(r.success and not r.diffs for r in results) else 1

    ids = list(attacks.CATALOG) if args.all else args.ids
    if not ids:
        run_p.error("give attack ids or --all")
    unknown = [i for i in ids if i not in attacks.CATALOG]
    if unknown:
        _fail_usage(f"unknown attack ids: {', '.join(unknown)}")

    flaws = _parse_flaws(args.flaw)
    bad_flaws = sorted(set(flaws) - attacks.KNOWN_FLAWS)
    if bad_flaws:
        _fail_usage(f"unknown flaws: {', '.join(bad_flaws)}")
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
        text = (attacks.render_report_md(results) if args.format == "md"
                else json.dumps([r.render() for r in results], indent=2))
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)

    return 0 if all(r.success and not r.diffs for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
