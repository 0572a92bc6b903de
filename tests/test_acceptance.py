"""Acceptance gate: the behaviors this package promises, one criterion per test.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all) and then asserts, so the same list shows up as test results.
"""

import dataclasses
import random
import time

from tapsim import attacks
from tapsim.attacks import (
    CATALOG,
    harvest_cvc3_table,
    pin_exhaust,
    run_attack,
    simulate_pin_search,
)
from tapsim.card import N_UN_DIGITS, PIN_TRY_LIMIT
from tapsim.channel import Adversary, Message, NfcChannel
from tapsim.crypto import (
    AC_COVERAGE_KERNEL2,
    SDAD_COVERAGE,
    ac_coverage_kernel3,
)
from tapsim.elements import (
    AID_MASTERCARD,
    Amount,
    CVMCondition,
    CVMMethod,
    CVMResult,
    CVMResults,
    DataElementMap,
    Tag,
)
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.properties import evaluate
from tapsim.runner import (
    AMOUNT_HIGH,
    AMOUNT_LOW,
    GENUINE_MATRIX,
    build_env,
    run_genuine,
    run_genuine_matrix,
)


def _line(number: int, ok: bool, text: str) -> bool:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")
    return ok


def simulate_partial_clone(table_size: int, retries: int,
                           rng: random.Random) -> bool:
    """Chance model for a partial pre-play table: each presentment draws a
    fresh terminal UN; the clone wins as soon as one lands in its table."""
    return any(rng.randrange(10 ** N_UN_DIGITS) < table_size for _ in range(retries))


# --- 1: honest world is quiet -----------------------------------------------------------

def test_criterion_1_genuine_matrix_clean():
    started = time.perf_counter()
    problems = []
    pairings = 0
    for policy in (PERMISSIVE_2019, HARDENED):
        for pairing, env, result in run_genuine_matrix(policy):
            pairings += 1
            if not result["outcome"].startswith(pairing[-1]):
                problems.append((policy.name, pairing, result["reason"]))
            report = evaluate(env.trace)
            if report.violations:
                problems.append((policy.name, pairing, report.summary()))
    elapsed = time.perf_counter() - started
    ok = (not problems and len(GENUINE_MATRIX) >= 25 and elapsed < 5.0)
    assert _line(1, ok,
                 f"{pairings} genuine pairings across 2 issuer policies, "
                 f"{len(problems)} anomalies, {elapsed:.2f}s"), problems


# --- 2: the whole catalogue lands --------------------------------------------------------

def test_criterion_2_all_attacks_land():
    started = time.perf_counter()
    bad = []
    for attack_id in CATALOG:
        result = run_attack(attack_id, seed=0)
        if not result.success or result.diffs:
            bad.append((attack_id, result.detail, result.diffs))
    elapsed = time.perf_counter() - started
    ok = not bad and len(CATALOG) == 16 and elapsed < 10.0
    assert _line(2, ok,
                 f"16/16 attacks succeed with the documented property "
                 f"violations, {elapsed:.2f}s"), bad


# --- 3: every fix works ------------------------------------------------------------------

def test_criterion_3_fix_duality():
    flips = failures = 0
    for attack_id, spec in CATALOG.items():
        for flaw, broken in spec.required_flaws.items():
            flips += 1
            result = run_attack(attack_id, seed=0,
                                flaw_overrides={flaw: not broken})
            if result.success:
                failures += 1
    ok = failures == 0 and flips >= 20
    assert _line(3, ok,
                 f"{flips - failures}/{flips} single-flaw fixes kill their "
                 f"attack")


# --- 4: the toy nonce space --------------------------------------------------------------

def test_criterion_4_nonce_space_and_preplay():
    started = time.perf_counter()
    env = build_env(seed=0)

    # mag-stripe mode announces a 3-digit nonce
    channel = NfcChannel(env.trace, env.cards["magstripe_only"])
    channel.exchange(Message("SELECT",
                             DataElementMap({Tag.AID: AID_MASTERCARD})))
    gpo = channel.exchange(Message("GET_PROCESSING_OPTIONS"))
    digits = gpo.payload[Tag.N_UN_DIGITS]
    space_ok = digits == 3

    # a full sweep covers the space exactly
    harvest = NfcChannel(env.trace, env.cards["mastercard_cda"])
    _r1, _n, table = harvest_cvc3_table(harvest, AID_MASTERCARD,
                                        range(10 ** digits))
    sweep_elapsed = time.perf_counter() - started
    table_ok = set(table) == set(range(1000)) and sweep_elapsed < 10.0

    # full table: always cashable; the end-to-end run agrees
    rng = random.Random(99)
    full = sum(simulate_partial_clone(1000, 1, rng) for _ in range(2000))
    attack = run_attack("magstripe_mode_clone", seed=0)

    # partial table: one presentment lands at about k/1000
    hits = sum(simulate_partial_clone(100, 1, rng) for _ in range(2000))
    single_rate = hits / 2000
    # with r retries: 1 - (1 - k/1000)^r
    retry_hits = sum(simulate_partial_clone(100, 10, rng) for _ in range(2000))
    retry_rate = retry_hits / 2000
    rates_ok = (full == 2000 and attack.success
                and abs(single_rate - 0.100) <= 0.03
                and abs(retry_rate - 0.6513) <= 0.05)

    ok = space_ok and table_ok and rates_ok
    assert _line(4, ok,
                 f"nonce space 10^{digits}, sweep {sweep_elapsed:.2f}s, "
                 f"full table {full}/2000, k=100 single {single_rate:.3f}, "
                 f"10 retries {retry_rate:.3f}")


# --- 5: PIN search discipline -------------------------------------------------------------

def test_criterion_5_pin_search():
    rng = random.Random(2024)
    outcomes = [simulate_pin_search(f"{rng.randrange(10000):04d}")
                for _ in range(1000)]
    mean = sum(g for g, _r, _b in outcomes) / len(outcomes)
    blocked = sum(1 for _g, _r, b in outcomes if b)
    mean_ok = abs(mean - 5000.5) <= 100
    never_blocked = blocked == 0

    # over the wire: deliberately wrong guesses block in exactly the try limit
    env = build_env(seed=0, card_overrides={
        "visa_plastic_no_fdda": {"offline_pin_enabled": True}})
    card = env.cards["visa_plastic_no_fdda"]
    burned = pin_exhaust(NfcChannel(env.trace, card),
                         wrong_pins=("0000", "0001", "0002", "0003"))
    exhaust_ok = burned == PIN_TRY_LIMIT == 3 and card.blocked

    dos = run_attack("pin_guess_dos", seed=0)
    dos_ok = dos.success and dos.report.violated("P6")

    ok = mean_ok and never_blocked and exhaust_ok and dos_ok
    assert _line(5, ok,
                 f"careful sweep: mean {mean:.1f} guesses, {blocked}/1000 "
                 f"blocked; careless sweep blocks in {burned} tries and "
                 f"bricks the card (P6)")


# --- 6: what the cryptograms bind, they defend ---------------------------------------------

def _mutate(tag, value):
    if tag == Tag.AMOUNT:
        return Amount(value.value + 1, value.currency)
    if tag in (Tag.UN, Tag.ATC, Tag.UN_CARD):
        return value + 1
    if tag == Tag.AC:
        return bytes([value[0] ^ 0x01]) + value[1:]
    if tag in (Tag.AIP, Tag.TTQ, Tag.CTQ):
        first = dataclasses.fields(value)[0].name
        return value.replace(**{first: not getattr(value, first)})
    if tag == Tag.IAD:
        return dataclasses.replace(
            value, cdcvm_performed=not value.cdcvm_performed)
    if tag == Tag.CVM_RESULTS:
        if value.method == CVMMethod.OnlinePIN:
            return CVMResults()
        return CVMResults(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit,
                          CVMResult.Performed)
    raise AssertionError(f"no mutator for {tag.name}")


def _sweep_auth_request(policy, card, amount, coverage):
    """Mutate each covered request field in turn; collect issuer reasons."""
    outcomes = {}
    for tag in sorted(coverage, key=lambda t: t.name):
        env = build_env(seed=0, policy=policy)
        captured = {}
        original = env.rails.authorize

        def spy(request, **kw):
            captured.setdefault("req", request)
            return original(request, **kw)

        env.rails.authorize = spy
        result = run_genuine(env, card, "standard_pos", amount)
        assert result["outcome"] == "approve_online", (card, result)
        request = captured["req"]
        tampered = Message("AUTH_REQUEST", request.payload.copy().put(
            tag, _mutate(tag, request.payload[tag])))
        resp = env.issuer.handle_auth(tampered)
        outcomes[tag.name] = (resp.payload[Tag.DECISION],
                              resp.payload.get(Tag.REASON))
    return outcomes


def _sweep_signature(card, coverage, *, kind):
    """Mutate each signed element on the wire; collect terminal reasons."""
    gac = ("GENERATE_AC",)
    gpo = ("GET_PROCESSING_OPTIONS",)
    where = {  # which message carries each element, and in which direction
        "fdda": {Tag.UN_CARD: ("from", gpo), Tag.ATC: ("from", gpo),
                 Tag.CTQ: ("from", gpo + ("READ_RECORD",)),
                 Tag.AIP: ("from", gpo), Tag.UN: ("to", gpo)},
        "cda": {Tag.UN_CARD: ("from", gac), Tag.ATC: ("from", gac),
                Tag.AC: ("from", gac), Tag.IAD: ("from", gac),
                Tag.UN: ("to", gac)},
    }[kind]
    overrides = {}
    if kind == "fdda":
        # the card only signs when the terminal asks for ODA online
        overrides["standard_pos"] = {"require_oda_kernel3": True}
    outcomes = {}
    for tag in sorted(coverage, key=lambda t: t.name):
        direction, names = where[tag]
        env = build_env(seed=0, terminal_overrides=overrides)
        adv = Adversary(trace=env.trace)

        def tamper(msg, a, _tag=tag, _names=names):
            if msg.name in _names and _tag in msg.payload:
                p = msg.payload.copy().put(_tag,
                                           _mutate(_tag, msg.payload[_tag]))
                return Message(msg.name, p)
            return msg

        (adv.on_from_card if direction == "from" else adv.on_to_card)(tamper)
        profile = env.cards[card].profile
        channel = NfcChannel(env.trace, env.cards[card], adversary=adv)
        result = env.terminals["standard_pos"].run_purchase(
            channel, Amount(AMOUNT_HIGH, "EUR"), pin=profile.pin)
        outcomes[tag.name] = (result["outcome"], result["reason"])
    return outcomes


def test_criterion_6_mutation_sweep():
    declines = []
    misses = []

    def check(label, outcomes, wanted_reason):
        for field, (decision, reason) in outcomes.items():
            declines.append((label, field, reason))
            if decision != "decline" or reason != wanted_reason:
                misses.append((label, field, decision, reason))

    check("ac-k2", _sweep_auth_request(
        PERMISSIVE_2019, "mastercard_cda", AMOUNT_HIGH, AC_COVERAGE_KERNEL2),
        "bad_ac")
    check("ac-k3", _sweep_auth_request(
        PERMISSIVE_2019, "visa_plastic_no_fdda", AMOUNT_LOW,
        ac_coverage_kernel3(False)), "bad_ac")
    check("ac-k3+ttq", _sweep_auth_request(
        PERMISSIVE_2019.with_fixes(check_ttq_in_ac=True),
        "visa_plastic_no_fdda", AMOUNT_LOW, ac_coverage_kernel3(True)),
        "bad_ac")
    check("fdda", _sweep_signature(
        "visa_plastic_fdda", SDAD_COVERAGE["fdda"], kind="fdda"),
        "fdda_failed")
    check("cda", _sweep_signature(
        "mastercard_cda", SDAD_COVERAGE["cda"], kind="cda"), "cda_invalid")

    ok = not misses and len(declines) == 6 + 5 + 6 + 5 + 5
    assert _line(6, ok,
                 f"{len(declines) - len(misses)}/{len(declines)} single-field "
                 f"mutations of cryptogram/signature coverage detected and "
                 f"declined"), misses


# --- 7: reproducibility --------------------------------------------------------------------

def test_criterion_7_determinism():
    first = [run_attack(a, seed=42) for a in CATALOG]
    second = [run_attack(a, seed=42) for a in CATALOG]
    traces_ok = all(x.trace.to_jsonl() == y.trace.to_jsonl()
                    for x, y in zip(first, second))
    reports_ok = (attacks.render_report_md(first)
                  == attacks.render_report_md(second))
    renders_ok = all(x.render() == y.render() for x, y in zip(first, second))
    ok = traces_ok and reports_ok and renders_ok
    assert _line(7, ok,
                 "same configuration and seed give byte-identical traces "
                 "and reports")
