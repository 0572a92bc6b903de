"""Scenario wiring and the command-line front end.

``build_env`` turns the fixture roster plus a seed into a world: one CA, one
issuer, nine cards/phones and six terminals, all sharing a trace. The same
(seed, configuration) always produces byte-identical traces and reports.

- Once per process: what a fixture decides, whatever the seed. Each (fixture,
  patched items, ``check_ttq_in_ac``) is personalized once into a template
  (``_TEMPLATES``): a card's keyless ``CardProfile`` and ODA static records, or
  a terminal's frozen ``TerminalConfig``.
- Once per world: the override check, every key seed in one draw from a single
  seeded RNG (``_SEED_AT``, ``_DRAW``), and the read-only mappings naming its devices.
- On first lookup: each card and terminal (``_OnDemand``), a card as its
  template with the world's keys, a fresh ``Wallet``, its signing seed and the
  world's ``Pki``, whose Ed25519 work also waits for first use; and the CA
  and issuer keys and certificate (``Pki``). A run pays only for the parts of
  the world it reaches. A template is frozen: a world changes only through its
  overrides, which make templates of their own, and its devices' own state.

The genuine matrix at the bottom pairs every card with the terminals it
would plausibly meet, under both the permissive and hardened issuer
policies; it is the no-attack baseline that must come up clean.
"""

from __future__ import annotations

import json
import random
import sys
from collections.abc import Collection, Mapping
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Iterator

from .card import Card, CardProfile
from .channel import Adversary, NfcChannel, PaymentRails, TransactionTrace
from .crypto import (
    AC_COVERAGE_KERNEL2,
    STATIC_SIGNED_TAGS,
    CAStore,
    ac_coverage_kernel3,
    generate_signing_key,
    issue_certificate,
    public_bytes,
)
from .elements import (
    ActionCodes,
    Amount,
    BRANDS,
    CVMCondition,
    CVMEntry,
    CVMList,
    CVMMethod,
    FIELD_NAMES,
    FrozenElementMap,
    TVR,
    brand_of,
    keep,
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

# Where each device's key seeds begin in a world's one draw: the CA's and the issuer's (32
# bytes each), then each card's master, CVC3 and signing seeds, then each terminal's PIN key.
# A card's three are drawn whatever its profile uses, so no override moves another's seeds.
_SEED_AT = {name: 64 + 96 * i for i, name in enumerate(CARD_FIXTURES)}
_SEED_AT.update((name, 64 + 96 * len(CARD_FIXTURES) + 32 * i)
                for i, name in enumerate(TERMINAL_FIXTURES))
_SEED_BYTES = 64 + 96 * len(CARD_FIXTURES) + 32 * len(TERMINAL_FIXTURES)
# The latest int seed drawn for, its key seeds, and the RNG state after them, taken only when a
# second world in a row meets that seed: a fresh seed per world pays nothing for it.
_DRAW: list[Any] = [None, b"", None]


@dataclass
class Env:
    trace: TransactionTrace
    issuer: Issuer
    rails: PaymentRails
    cards: Mapping[str, Card]
    terminals: Mapping[str, Terminal]


class _OnDemand(Mapping):
    """A read-only mapping whose keys are fixed when it is made and whose values
    ``build(key)`` makes on first lookup, then keeps. ``build`` is a partial of a
    module function, never a closure over the world, so a world holds no
    reference cycle and reference counting frees it."""

    def __init__(self, keys: Collection[Any], build: Callable[[Any], Any]):
        self._keys = keys
        self._build = build
        self._built: dict[Any, Any] = {}

    def __getitem__(self, key: Any) -> Any:
        built = self._built
        if key not in built:
            if key not in self._keys:
                raise KeyError(key)
            built[key] = self._build(key)
        return built[key]

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class Pki:
    """A world's CA -> issuer chain, and the terminals' one CA root. The seeds are
    drawn in ``build_env``; the (deterministic) Ed25519 keys and the issuer
    certificate wait for the first ODA card or chain walk that needs them, and
    each is a lookup in crypto's memo of its result."""

    seeds: bytes  # the world's key seeds: the CA's, then the issuer's

    @property
    def ca_key(self) -> Any:
        return generate_signing_key(self.seeds[:32])

    @property
    def issuer_key(self) -> Any:
        return generate_signing_key(self.seeds[32:64])

    @property
    def issuer_cert(self) -> bytes:
        return issue_certificate(self.ca_key, "issuer-1", public_bytes(self.issuer_key))

    def __getitem__(self, index: int) -> bytes:  # the CA store's roots: one, under CA_INDEX
        if index != CA_INDEX:
            raise KeyError(index)
        return public_bytes(self.ca_key)


# (fixture name, a card's check_ttq_in_ac, under an override each patched item with its value's
# type, a list as a tuple) -> the template, the latest _TEMPLATES_SIZE made. Its domain: each
# fixture under each override a flaw assignment makes; the workloads at seeds 0-2 meet 39.
_TEMPLATES_SIZE = 256
_TEMPLATES: dict[tuple, Any] = {}


def _template(make: Callable[..., Any], name: str, fx: dict[str, Any],
              over: dict[str, Any] | None, *args: Any) -> Any:
    """``make(name, fx patched with over, *args)``, made once per process and then shared by
    every world, so it must never be written to. One with an unhashable value is not kept."""
    key = (name, *args)  # a fixture is never written, so its name stands for its items
    if over:
        fx = {**fx, **over}
        key += tuple([(k, type(v), tuple(v) if type(v) is list else v) for k, v in fx.items()])
    try:
        template = _TEMPLATES.get(key)
    except TypeError:
        return make(name, fx, *args)
    if template is None:  # a make that raises keeps nothing
        template = keep(_TEMPLATES, key, make(name, fx, *args), _TEMPLATES_SIZE)
    return template


def _card_template(name: str, fx: dict[str, Any],
                   check_ttq_in_ac: bool) -> tuple[CardProfile, FrozenElementMap | None]:
    """A card fixture's profile, and the records its issuer signs (None without ``oda``);
    every key not translated here is a CardProfile field."""
    fx = dict(fx)
    cvm_list = CVMList(tuple(CVMEntry(CVMMethod[m], CVMCondition[c])
                             for m, c in fx.pop("cvm_list", ())))
    iac = ActionCodes(denial=TVR(cda_failed=fx.pop("iac_denial_cda_failed", False)))
    if oda := fx.pop("oda", False):
        fx["ca_pk_index"] = CA_INDEX
    profile = CardProfile(
        name=name, cvm_list=cvm_list, iac=iac,
        ac_coverage=(ac_coverage_kernel3(check_ttq_in_ac)
                     if BRANDS[brand_of(fx["pan"])].kernel == 3 else AC_COVERAGE_KERNEL2),
        **fx,
    )
    return profile, FrozenElementMap({tag: getattr(profile, FIELD_NAMES[tag])
                                      for tag in STATIC_SIGNED_TAGS}) if oda else None


def _build_card(overrides: dict[str, dict[str, Any]], seeds: bytes, policy: IssuerPolicy,
                pki: Pki, rng: random.Random, name: str) -> Card:
    """One world's card: its template, which every world shares, with the world's keys and
    PKI; the card makes its own wallet."""
    profile, static = _template(_card_template, name, CARD_FIXTURES[name],
                                overrides.get(name), policy.check_ttq_in_ac)
    at = _SEED_AT[name]
    return Card(profile, rng, seeds[at:at + 32], seeds[at + 32:at + 64], seeds[at + 64:at + 96],
                pki, static)


def _terminal_template(name: str, fx: dict[str, Any]) -> TerminalConfig:
    fx = dict(fx)
    tac = ActionCodes(denial=TVR(cda_failed=fx.pop("tac_denial_cda_failed", False)))
    return TerminalConfig(name=name, tac=tac, **fx)


def _build_terminal(overrides: dict[str, dict[str, Any]], seeds: bytes, rng: random.Random,
                    rails: PaymentRails, ca_store: CAStore, name: str) -> Terminal:
    at = _SEED_AT[name]
    return Terminal(_template(_terminal_template, name, TERMINAL_FIXTURES[name],
                              overrides.get(name)),
                    rng, rails, ca_store, seeds[at:at + 32])


def _card_of(cards: Mapping[str, Card], pan: str) -> Card:
    return cards[_PANS[pan]]


def _known_keys(fixtures: dict[str, dict[str, Any]], cls: type,
                owned: set[str]) -> frozenset[str]:
    """The keys an override may set: each key some fixture uses (which covers
    every key the builder translates) and each field ``cls`` is built with, less those
    the builder sets itself and those naming the device."""
    return frozenset(k for fx in fixtures.values() for k in fx).union(
        f.name for f in fields(cls) if f.init).difference(owned)


_CARD_KEYS = _known_keys(CARD_FIXTURES, CardProfile,
                         {"name", "pan", "iac", "ac_coverage", "ca_pk_index"})
_TERMINAL_KEYS = _known_keys(TERMINAL_FIXTURES, TerminalConfig, {"name", "terminal_id", "tac"})
_PANS = {fx["pan"]: name for name, fx in CARD_FIXTURES.items()}
# each terminal id's online-PIN key: where its terminal's seed begins in a world's draw
_PIN_KEY_AT = {fx["terminal_id"]: _SEED_AT[name] for name, fx in TERMINAL_FIXTURES.items()}


def _check_overrides(fixtures: dict[str, dict[str, Any]], overrides: dict[str, dict[str, Any]],
                     known: frozenset[str]) -> None:
    """Reject here, not when a device is first built, an override naming a device no fixture
    is or a key no override may set."""
    if not overrides.keys() <= fixtures.keys():
        raise TypeError(f"unknown fixtures {sorted(overrides.keys() - fixtures.keys())}")
    keys = set().union(*filter(None, overrides.values()))
    if not known.issuperset(keys):
        raise TypeError(f"unknown fixture keys {sorted(keys - known)}")


def build_env(seed: int = 0, policy: IssuerPolicy = PERMISSIVE_2019,
              card_overrides: dict[str, dict[str, Any]] | None = None,
              terminal_overrides: dict[str, dict[str, Any]] | None = None,
              meta: dict[str, Any] | None = None) -> Env:
    """Assemble a world. Every key seed is drawn here; each card, terminal
    and the PKI is built on first lookup. Overrides patch fixture dicts by
    name: one naming a device no fixture is, or a key it may not set (a device's PAN
    or terminal id is its fixture's), raises TypeError here."""
    card_overrides = card_overrides or {}
    terminal_overrides = terminal_overrides or {}
    if card_overrides or terminal_overrides:
        _check_overrides(CARD_FIXTURES, card_overrides, _CARD_KEYS)
        _check_overrides(TERMINAL_FIXTURES, terminal_overrides, _TERMINAL_KEYS)
    kept_seed, seeds, state = _DRAW
    if state is not None and type(seed) is int and seed == kept_seed:
        (rng := random.Random.__new__(random.Random)).setstate(state)
    else:
        rng = random.Random(seed)
        seeds = rng.randbytes(_SEED_BYTES)  # the bytes and RNG state a draw per seed would give
        if type(seed) is int:
            _DRAW[:] = seed, seeds, rng.getstate() if seed == kept_seed else None
    trace = TransactionTrace(meta={"seed": seed, "policy": policy.name,
                                   **(meta or {})})
    pki = Pki(seeds)
    cards = _OnDemand(CARD_FIXTURES, partial(_build_card, card_overrides, seeds, policy, pki, rng))
    issuer = Issuer(policy, cards=_OnDemand(_PANS, partial(_card_of, cards)),
                    pin_keys={tid: seeds[at:at + 32] for tid, at in _PIN_KEY_AT.items()})
    rails = PaymentRails(trace, issuer)
    terminals = _OnDemand(TERMINAL_FIXTURES, partial(_build_terminal, terminal_overrides,
                                                     seeds, rng, rails, CAStore(pki)))
    return Env(trace=trace, issuer=issuer, rails=rails, cards=cards, terminals=terminals)


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
    if card.wallet is not None:
        card.wallet.unlocked = unlocked
        card.wallet.magic_seen = False
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

