"""Per-message budgets of the card dialogue loop and of trace emission,
counted instead of timed.

The unit is one Python-level call, as ``sys.setprofile`` reports it: into
code that lives in the tapsim package for an exchange, into any Python code
for emission (``json``'s encoder frames count there). The count does not
depend on the machine's speed or load, so work put back on the per-exchange
path (building the message, both log lines, the card's answer and reading
the reply) or on the per-event path of ``TransactionTrace.to_jsonl`` fails
here and not only in the benchmark. The ceilings are the counts measured
when they were set.
"""

from __future__ import annotations

import os
import sys

import tapsim
from tapsim.attacks import harvest_cvc3_table, run_attack
from tapsim.channel import Message, NfcChannel
from tapsim.elements import AID_MASTERCARD, DataElementMap, Tag
from tapsim.runner import build_env

PACKAGE = os.path.dirname(tapsim.__file__)

HARVEST_CEILING = 31.1  # per GENERATE AC, SELECT and READ RECORD amortized
VERIFY_CEILING = 23
HARVEST_EMIT_CEILING = 4.01  # per event of the harvest trace
VERIFY_EMIT_CEILING = 2.03  # per event of the PIN-guessing trace


def python_calls(fn, under: str = PACKAGE) -> int:
    """Python-level calls ``fn`` makes into code whose file is under ``under``."""
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


def emission_calls_per_event(trace) -> float:
    """Python-level calls, into any code, per event of ``trace.to_jsonl()``."""
    out = []
    calls = python_calls(lambda: out.append(trace.to_jsonl()), under="")
    assert out[0].count("\n") == len(trace.events) + 1  # the meta line and one per event
    return calls / len(trace.events)


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
