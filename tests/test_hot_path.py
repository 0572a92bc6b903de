"""Per-message budgets of the card dialogue loop and of trace emission,
counted instead of timed.

The unit is one Python-level call, as ``sys.setprofile`` reports it: for an
exchange, into code that lives in the tapsim package or that ``dataclasses``
generated (the ``__init__`` of the flag maps and other value types, whose file
is ``<string>``); for emission, into any Python code (``json``'s encoder frames
count there). The count does not
depend on the machine's speed or load, so work put back on the per-exchange
path (building the message, both log lines, the card's answer and reading
the reply) or on the per-event path of ``TransactionTrace.to_jsonl`` fails
here and not only in the benchmark. The ceilings are the counts measured
when they were set. Emission compiles each line shape once per process, so
its ceilings were measured with every test run alone, the shape cache cold;
after other tests have filled it the counts are lower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import tapsim
from tapsim import crypto
from tapsim.attacks import harvest_cvc3_table, run_attack
from tapsim.channel import Adversary, Message, NfcChannel
from tapsim.elements import AID_MASTERCARD, Amount, DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import AMOUNT_HIGH, build_env, run_genuine_matrix

# seeds no other test builds a world at, so no memo holds their keys or signatures
FRESH_SEED = 7_000_000

PACKAGE = os.path.dirname(tapsim.__file__)

HARVEST_CEILING = 14.04  # per GENERATE AC, SELECT and READ RECORD amortized
VERIFY_CEILING = 9
HARVEST_EMIT_CEILING = 0.68  # per event of the harvest trace
VERIFY_EMIT_CEILING = 0.36  # per event of the PIN-guessing trace
PIN_TRACE_MESSAGES = 1251  # message objects in the PIN-guessing trace, of 3,716 message events
GENUINE_EMIT_CEILING = 1.90  # per event of the genuine matrix's traces, both policies


def python_calls(fn, under: str | tuple[str, ...] = (PACKAGE, "<string>")) -> int:
    """Python-level calls ``fn`` makes into code whose file name starts with ``under``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(under):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def harvest(env):
    """Run 1,000 harvest exchanges against the Mastercard in ``env``; return
    the Python calls they made into tapsim and the harvested table."""
    channel = NfcChannel(env.trace, env.cards["mastercard_cda"])
    tables = []
    calls = python_calls(lambda: tables.append(
        harvest_cvc3_table(channel, AID_MASTERCARD, range(1000))))
    return calls, tables[0]


def emission_calls_per_event(*traces) -> float:
    """Python-level calls, into any code, per event of ``to_jsonl()`` of ``traces``."""
    out = []
    calls = python_calls(lambda: out.extend([trace.to_jsonl() for trace in traces]), under="")
    events = sum(len(trace.events) for trace in traces)
    assert "".join(out).count("\n") == events + len(traces)  # a meta line, one per event
    return calls / events


def test_harvest_generate_ac_exchange_budget():
    calls, table = harvest(build_env(seed=0))
    assert len(table[2]) == 1000
    assert calls / 1000 <= HARVEST_CEILING


def test_verify_exchange_budget():
    env = build_env(seed=0, card_overrides={
        "visa_plastic_no_fdda": {"offline_pin_enabled": True}})
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    replies = []
    calls = python_calls(lambda: replies.append(channel.exchange(
        Message("VERIFY", DataElementMap({Tag.PIN_GUESS: "0000"})))))
    assert replies[0].payload[Tag.DECISION] == "fail"
    assert calls <= VERIFY_CEILING


def test_harvest_trace_emission_budget():
    env = build_env(seed=0)
    harvest(env)
    assert emission_calls_per_event(env.trace) <= HARVEST_EMIT_CEILING


def test_verify_heavy_trace_emission_budget():
    trace = run_attack("pin_guessing", seed=0).trace
    verifies = sum(1 for ev in trace.events if ev.kind == "msg" and ev.sent.name == "VERIFY")
    assert verifies > 3000
    assert emission_calls_per_event(trace) <= VERIFY_EMIT_CEILING


def test_pin_guessing_trace_shares_its_constant_messages():
    # the card's VERIFY replies and the owner's refill command are one object each, so
    # the trace holds little more than one object per guess, and emission renders each once
    events = [ev for ev in run_attack("pin_guessing", seed=0).trace.events if ev.kind == "msg"]
    assert len(events) == 3716
    assert len({id(m) for ev in events for m in (ev.sent, ev.received)}) <= PIN_TRACE_MESSAGES


def test_genuine_matrix_emission_budget():
    # short worlds: element values, card_tx and decision markers and the
    # auth markers' requests make up most of each trace
    traces = [env.trace for policy in (PERMISSIVE_2019, HARDENED)
              for _pairing, env, _result in run_genuine_matrix(policy, seed=0)]
    assert emission_calls_per_event(*traces) <= GENUINE_EMIT_CEILING


def test_signatures_made_in_process_verify_without_ed25519(monkeypatch):
    # every signature a genuine world checks (certificates, static records, SDADs)
    # was made in this process, so its verdict is on record: a fresh matrix pays no
    # Ed25519 verify; a tampered SDAD has no record and meets the real verifier
    verifies = []
    real = crypto.Ed25519PublicKey

    class CountingKey:
        @staticmethod
        def from_public_bytes(raw):
            key = real.from_public_bytes(raw)

            class Counted:
                @staticmethod
                def verify(signature, msg):
                    verifies.append(msg)
                    key.verify(signature, msg)
            return Counted

    monkeypatch.setattr(crypto, "Ed25519PublicKey", CountingKey)
    results = [result for policy in (PERMISSIVE_2019, HARDENED)
               for _pairing, _env, result in run_genuine_matrix(policy, seed=FRESH_SEED)]
    assert len(results) == 58 and verifies == []

    def flip_sdad(msg, _adversary):
        if msg.name == "GENERATE_AC" and Tag.SDAD in msg.payload:
            sdad = msg.payload[Tag.SDAD]
            return msg.with_payload(SDAD=sdad[:-1] + bytes([sdad[-1] ^ 1]))
        return msg

    env = build_env(seed=FRESH_SEED + 100)
    adversary = Adversary(trace=env.trace)
    adversary.on_from_card(flip_sdad)
    card = env.cards["mastercard_cda"]
    result = env.terminals["standard_pos"].run_purchase(
        NfcChannel(env.trace, card, adversary=adversary), Amount(AMOUNT_HIGH, "EUR"),
        pin=card.profile.pin)
    assert (result["outcome"], result["reason"]) == ("decline", "cda_invalid")
    assert len(verifies) == 1


# --- empty messages come from one table ----------------------------------------------

def empty_messages(sources: dict[str, str]) -> list[str]:
    """``file:line`` of each ``Message(name)`` built with no payload in ``sources``,
    outside ``channel.py``, whose ``EMPTY`` table holds one such message per name."""
    found = []
    for name, source in sources.items():
        if name == "channel.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Message"
                    and len(node.args) < 2 and "payload" not in {k.arg for k in node.keywords}):
                found.append(f"{name}:{node.lineno}")
    return found


def test_scan_flags_messages_built_with_no_payload():
    sources = {
        "card.py": 'def no(msg):\n    return Message("SELECT")\n'
                   'def other(msg):\n    return channel.Message(msg.name)\n'
                   'def full(p):\n    return Message("SELECT", p)\n'
                   'def named(p):\n    return Message("VERIFY", payload=p)\n'
                   'def table(msg):\n    # Message("GENERATE_AC") in a comment is no call\n'
                   '    return EMPTY[msg.name]\n',
        "channel.py": 'EMPTY = {name: Message(name) for name in MESSAGES}\n',
    }
    assert empty_messages(sources) == ["card.py:2", "card.py:4"]


def test_every_empty_message_comes_from_the_table():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(PACKAGE).glob("*.py"))}
    assert empty_messages(sources) == []
