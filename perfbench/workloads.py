"""The benchmark's workloads, driven only through tapsim's public API.

A workload pass is a generator of scenario runs. Each yielded thunk performs
one scenario run (build the world, stage or purchase, judge, and emit where
the workload emits) and returns an ``Outcome``. Code after the last yield is
pass-level work, such as rendering the catalogue reports; it counts towards
the pass's time but not towards any single scenario run.

Module attributes (``runner.build_env``, ``properties.evaluate``) are looked
up at call time, so the traced run's wrappers see these calls too.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Iterator, NamedTuple

from tapsim import attacks, properties, runner
from tapsim.channel import Adversary, Message, NfcChannel
from tapsim.crypto import AC_COVERAGE_KERNEL2, SDAD_COVERAGE, ac_coverage_kernel3
from tapsim.elements import (
    Amount,
    CVMCondition,
    CVMMethod,
    CVMResult,
    CVMResults,
    Tag,
)
from tapsim.issuer import HARDENED, PERMISSIVE_2019


class Outcome(NamedTuple):
    ok: bool          # the run met its expected outcome
    events: int       # trace events the run produced
    emitted: str      # JSONL the run emitted ("" where nothing is emitted)


Scenario = Callable[[], Outcome]
Pass = Callable[[int], Iterator[Scenario]]


# --- catalogue -------------------------------------------------------------------

def catalogue(seed: int) -> Iterator[Scenario]:
    """All 16 attacks, each emitted as JSONL, then the md and json reports."""
    results = []
    for attack_id in attacks.CATALOG:
        def run(attack_id: str = attack_id) -> Outcome:
            result = attacks.run_attack(attack_id, seed=seed)
            results.append(result)
            return Outcome(result.success and not result.diffs,
                           len(result.trace.events), result.trace.to_jsonl())
        yield run
    attacks.render_report_md(results)
    json.dumps([r.render() for r in results], indent=2)


# --- genuine ---------------------------------------------------------------------

def genuine(seed: int) -> Iterator[Scenario]:
    """The genuine matrix under both issuer policies, each pairing in a fresh
    world, judged with zero violations allowed, then emitted."""
    for policy in (PERMISSIVE_2019, HARDENED):
        matrix = runner.run_genuine_matrix(policy, seed=seed)
        for _ in runner.GENUINE_MATRIX:
            def run(matrix=matrix) -> Outcome:
                pairing, env, result = next(matrix)
                report = properties.evaluate(env.trace)
                ok = (result["outcome"].startswith(pairing[-1])
                      and not report.violations)
                return Outcome(ok, len(env.trace.events), env.trace.to_jsonl())
            yield run


# --- sweep -----------------------------------------------------------------------

def _fix_runs(seed: int) -> Iterator[Scenario]:
    """Every (attack, required flaw) pair with that one flaw fixed: the
    attack must lose."""
    for attack_id, spec in attacks.CATALOG.items():
        for flaw, broken in spec.required_flaws.items():
            def run(attack_id: str = attack_id, flaw: str = flaw,
                    fixed: bool = not broken) -> Outcome:
                result = attacks.run_attack(attack_id, seed=seed,
                                            flaw_overrides={flaw: fixed})
                return Outcome(not result.success, len(result.trace.events), "")
            yield run


def _mutate(tag, value):
    """Change one covered field to another legal value of its type."""
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
        return dataclasses.replace(value, cdcvm_performed=not value.cdcvm_performed)
    if tag == Tag.CVM_RESULTS:
        if value.method == CVMMethod.OnlinePIN:
            return CVMResults()
        return CVMResults(CVMMethod.OnlinePIN, CVMCondition.IfAboveCvmLimit,
                          CVMResult.Performed)
    raise ValueError(f"no mutator for {tag.name}")


def _ac_mutations(seed: int, policy, card: str, amount: int,
                  coverage) -> Iterator[Scenario]:
    """Mutate one AC-covered field of a captured authorization request; the
    issuer must decline it with ``bad_ac``."""
    for tag in sorted(coverage, key=lambda t: t.name):
        def run(tag=tag) -> Outcome:
            env = runner.build_env(seed=seed, policy=policy)
            captured = []
            authorize = env.rails.authorize

            def spy(request, **kw):
                captured.append(request)
                return authorize(request, **kw)

            env.rails.authorize = spy
            result = runner.run_genuine(env, card, "standard_pos", amount)
            if not captured:
                return Outcome(False, len(env.trace.events), "")
            request = captured[0]
            tampered = Message("AUTH_REQUEST", request.payload.copy().put(
                tag, _mutate(tag, request.payload[tag])))
            response = env.issuer.handle_auth(tampered)
            ok = (result["outcome"] == "approve_online"
                  and response.payload[Tag.DECISION] == "decline"
                  and response.payload.get(Tag.REASON) == "bad_ac")
            return Outcome(ok, len(env.trace.events), "")
        yield run


_GPO = ("GET_PROCESSING_OPTIONS",)
_GAC = ("GENERATE_AC",)
# which message carries each signed element, and in which direction
_SIGNED_AT = {
    "fdda": {Tag.UN_CARD: ("from", _GPO), Tag.ATC: ("from", _GPO),
             Tag.CTQ: ("from", _GPO + ("READ_RECORD",)),
             Tag.AIP: ("from", _GPO), Tag.UN: ("to", _GPO)},
    "cda": {Tag.UN_CARD: ("from", _GAC), Tag.ATC: ("from", _GAC),
            Tag.AC: ("from", _GAC), Tag.IAD: ("from", _GAC),
            Tag.UN: ("to", _GAC)},
}


def _signature_mutations(seed: int, card: str, kind: str,
                         reason: str) -> Iterator[Scenario]:
    """Mutate one SDAD-covered element on the NFC hop; the terminal must
    decline with ``reason``."""
    # the fDDA card only signs when the terminal asks for ODA online
    overrides = ({"standard_pos": {"require_oda_kernel3": True}}
                 if kind == "fdda" else {})
    for tag in sorted(SDAD_COVERAGE[kind], key=lambda t: t.name):
        direction, names = _SIGNED_AT[kind][tag]

        def run(tag=tag, direction=direction, names=names) -> Outcome:
            env = runner.build_env(seed=seed, terminal_overrides=overrides)
            adversary = Adversary(trace=env.trace)

            def tamper(msg, _adv):
                if msg.name in names and tag in msg.payload:
                    return Message(msg.name, msg.payload.copy().put(
                        tag, _mutate(tag, msg.payload[tag])))
                return msg

            if direction == "from":
                adversary.on_from_card(tamper)
            else:
                adversary.on_to_card(tamper)
            victim = env.cards[card]
            channel = NfcChannel(env.trace, victim, adversary=adversary)
            result = env.terminals["standard_pos"].run_purchase(
                channel, Amount(runner.AMOUNT_HIGH, "EUR"), pin=victim.profile.pin)
            ok = result["outcome"] == "decline" and result["reason"] == reason
            return Outcome(ok, len(env.trace.events), "")
        yield run


def sweep(seed: int) -> Iterator[Scenario]:
    """22 single-flaw fixes, then 27 single-field mutations of AC and SDAD
    coverage; judged by ``evaluate`` or the issuer or terminal verdict, and
    never emitted."""
    yield from _fix_runs(seed)
    yield from _ac_mutations(seed, PERMISSIVE_2019, "mastercard_cda",
                             runner.AMOUNT_HIGH, AC_COVERAGE_KERNEL2)
    yield from _ac_mutations(seed, PERMISSIVE_2019, "visa_plastic_no_fdda",
                             runner.AMOUNT_LOW, ac_coverage_kernel3(False))
    yield from _ac_mutations(seed, PERMISSIVE_2019.with_fixes(check_ttq_in_ac=True),
                             "visa_plastic_no_fdda", runner.AMOUNT_LOW,
                             ac_coverage_kernel3(True))
    yield from _signature_mutations(seed, "visa_plastic_fdda", "fdda", "fdda_failed")
    yield from _signature_mutations(seed, "mastercard_cda", "cda", "cda_invalid")


WORKLOADS: dict[str, Pass] = {
    "catalogue": catalogue,
    "genuine": genuine,
    "sweep": sweep,
}
