"""Per-message budget of the card dialogue loop, counted instead of timed.

The unit is one Python-level call into code that lives in the tapsim
package, as ``sys.setprofile`` reports it. The count does not depend on the
machine's speed or load, so work put back on the per-exchange path (building
the message, both log lines, the card's answer and reading the reply) fails
here and not only in the benchmark. The ceilings are the counts measured
when they were set.
"""

from __future__ import annotations

import os
import sys

import tapsim
from tapsim.attacks import harvest_cvc3_table
from tapsim.channel import Message, NfcChannel
from tapsim.elements import AID_MASTERCARD, DataElementMap, Tag
from tapsim.runner import build_env

PACKAGE = os.path.dirname(tapsim.__file__)

HARVEST_CEILING = 31.1  # per GENERATE AC, SELECT and READ RECORD amortized
VERIFY_CEILING = 23


def tapsim_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_harvest_generate_ac_exchange_budget():
    env = build_env(seed=0)
    channel = NfcChannel(env.trace, env.cards["mastercard_cda"])
    tables = []
    calls = tapsim_calls(lambda: tables.append(
        harvest_cvc3_table(channel, AID_MASTERCARD, range(1000))))
    assert len(tables[0][2]) == 1000
    assert calls / 1000 <= HARVEST_CEILING


def test_verify_exchange_budget():
    env = build_env(seed=0, card_overrides={
        "visa_plastic_no_fdda": {"offline_pin_enabled": True}})
    channel = NfcChannel(env.trace, env.cards["visa_plastic_no_fdda"])
    replies = []
    calls = tapsim_calls(lambda: replies.append(channel.exchange(
        Message("VERIFY", DataElementMap({Tag.PIN_GUESS: "0000"})))))
    assert replies[0].payload[Tag.DECISION] == "fail"
    assert calls <= VERIFY_CEILING
