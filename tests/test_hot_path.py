"""Per-message budgets of the card dialogue loop and of trace emission,
counted instead of timed.

The unit is one Python-level call, as ``sys.setprofile`` reports it: for an
exchange, into code that lives in the tapsim package or that ``dataclasses``
generated (the ``__init__`` of ``Message``, ``TraceEvent`` and the flag maps,
whose file is ``<string>``); for emission, into any Python code (``json``'s
encoder frames count there). The count does not
depend on the machine's speed or load, so work put back on the per-exchange
path (building the message, both log lines, the card's answer and reading
the reply) or on the per-event path of ``TransactionTrace.to_jsonl`` fails
here and not only in the benchmark. The ceilings are the counts measured
when they were set. Emission compiles each line shape once per process, so
its ceilings were measured with every test run alone, the shape cache cold;
after other tests have filled it the counts are lower.
"""

from __future__ import annotations

import os
import sys

import tapsim
from tapsim.attacks import harvest_cvc3_table, run_attack
from tapsim.channel import Message, NfcChannel
from tapsim.elements import AID_MASTERCARD, DataElementMap, Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import build_env, run_genuine_matrix

PACKAGE = os.path.dirname(tapsim.__file__)

HARVEST_CEILING = 22.06  # per GENERATE AC, SELECT and READ RECORD amortized
VERIFY_CEILING = 19
HARVEST_EMIT_CEILING = 0.68  # per event of the harvest trace
VERIFY_EMIT_CEILING = 1.03  # per event of the PIN-guessing trace
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


def test_genuine_matrix_emission_budget():
    # short worlds: element values, card_tx and decision markers and the
    # auth markers' requests make up most of each trace
    traces = [env.trace for policy in (PERMISSIVE_2019, HARDENED)
              for _pairing, env, _result in run_genuine_matrix(policy, seed=0)]
    assert emission_calls_per_event(*traces) <= GENUINE_EMIT_CEILING
