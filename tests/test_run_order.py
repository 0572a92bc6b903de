"""Run order leaves no trace behind.

A process keeps several things for its lifetime: the line shapes of
emission, the Ed25519 and HMAC memos, the shared messages built on first
use (the enumerations' commands, the issuer's responses, the card's constant
replies), the text each message keeps once emitted, and the interned
element values with their texts. None of it may show in the
output. A child that has filled all of them with other seeds emits the
seed-42 catalogue, in a shuffled order, and the seed-0 genuine matrices
exactly as a child that starts cold.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from tapsim.attacks import CATALOG
from test_golden import CATALOGUE, GENUINE

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints {attack id: sha256 of its seed-42 trace}, the digest of those traces
# concatenated in catalogue order and the digest of the seed-0 genuine matrices'
# traces; WARM runs and emits the catalogue and both genuine matrices at seeds 3 and
# 9 first, then the seed-42 catalogue in a shuffled order
CHILD = """\
import hashlib, json, random, sys
from tapsim import elements
from tapsim.attacks import CATALOG, run_attack
from tapsim.channel import EMPTY, shared
from tapsim.elements import Tag
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import run_genuine_matrix
def genuine(seed):
    return [env.trace.to_jsonl() for policy in (PERMISSIVE_2019, HARDENED)
            for _pairing, env, _result in run_genuine_matrix(policy, seed=seed)]
order = list(CATALOG)
if sys.argv[1] == "warm":
    for seed in (3, 9):
        for attack_id in CATALOG:
            run_attack(attack_id, seed=seed).trace.to_jsonl()
        genuine(seed)
    misses = shared.cache_info().misses  # every UN query and the first PIN guess built
    assert all(shared("GENERATE_AC", Tag.UN, un) for un in range(1000))
    assert shared("VERIFY", Tag.PIN_GUESS, "0000")
    assert shared.cache_info().misses == misses
    assert EMPTY["VERIFY"].json is not None
    kept = [v for v in elements._INTERNED.values() if type(v) in elements.RENDER]
    assert kept and all(v.json == elements.to_json(v) for v in kept)
    random.Random(42).shuffle(order)
texts = {attack_id: run_attack(attack_id, seed=42).trace.to_jsonl() for attack_id in order}
digest = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
print(json.dumps({"order": order, "traces": {a: digest(t) for a, t in texts.items()},
                  "catalogue": digest("".join(texts[a] for a in CATALOG)),
                  "genuine": digest("".join(genuine(0)))}))
"""


def test_warm_caches_and_shuffled_order_emit_what_a_cold_process_emits():
    procs = {state: subprocess.Popen([sys.executable, "-c", CHILD, state],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                     env={**os.environ, "PYTHONPATH": SRC})
             for state in ("cold", "warm")}
    out = {}
    for state, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        out[state] = json.loads(stdout)
    cold, warm = out["cold"], out["warm"]
    assert cold["order"] == list(CATALOG) != warm["order"]
    assert sorted(warm["order"]) == sorted(CATALOG)
    assert warm["traces"] == cold["traces"]
    assert warm["catalogue"] == cold["catalogue"] == CATALOGUE
    assert warm["genuine"] == cold["genuine"] == GENUINE
    assert hashlib.sha256(b"").hexdigest() not in cold["traces"].values()
