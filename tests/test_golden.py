"""Golden digests: a refactor must leave every trace and report byte-identical.

A change that moves one of these digests has to say why in CHANGES.md.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from tapsim.attacks import CATALOG, KNOWN_FLAWS, render_report_md, run_attack
from tapsim.issuer import HARDENED, PERMISSIVE_2019
from tapsim.runner import run_genuine_matrix

# sha256 over the concatenated JSONL traces of the catalogue at seed 42
CATALOGUE = "ad743bb0ea69b356ecaa290cf0af0963a110ce4709db09e4bd3612d90ed762ca"
# sha256 over the genuine-matrix traces, both policies, seed 0
GENUINE = "bba3670be28083aee896d0f841604e32329c5fe2f4f3d7363fb643cda89da0d5"
# sha256 over the markdown report and then the JSON report at seed 42
REPORT = "43cc069b2c61885debf3bd38be270be7c6af98fb3d567185b0597daea3a883fd"
# sha256 over the traces at seed 42 of each attack with one required flaw fixed, in
# catalogue and then required-flaw order: the declined paths of the fix duality
FIXES = "8ff6f5a307309e2a84460020a0407cb078f49ebf111376b9beb766ebdb96baf6"
# sha256 over the traces at seed 42 of each attack with every known flaw on, then off:
# a flaw applies to every card and terminal of the world
ALL_FLAWS = "2a89f7843bd25da2fab563c0013c32c17fca3c101598653536e594def0bc1db0"
# sha256 over the JSON reports at seed 42 of each attack with each known flaw on, then off,
# one flaw at a time: the checker's verdicts on the single-flaw flips
FLIPS = "6ae9e54cb45dd4495814cf8d92b2ce286daf3c483a572a387fd040d7e7fcd3e2"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def catalogue_results():
    return [run_attack(attack_id, seed=42) for attack_id in CATALOG]


def test_catalogue_traces(catalogue_results):
    assert _sha256("".join(r.trace.to_jsonl() for r in catalogue_results)) == CATALOGUE


def test_genuine_matrix_traces():
    traces = [env.trace.to_jsonl()
              for policy in (PERMISSIVE_2019, HARDENED)
              for _pairing, env, _result in run_genuine_matrix(policy, seed=0)]
    assert _sha256("".join(traces)) == GENUINE


def test_reports(catalogue_results):
    text = (render_report_md(catalogue_results)
            + json.dumps([r.render() for r in catalogue_results], indent=2))
    assert _sha256(text) == REPORT


def test_fix_traces():
    traces = [run_attack(attack_id, seed=42, flaw_overrides={flaw: not broken}).trace.to_jsonl()
              for attack_id, spec in CATALOG.items()
              for flaw, broken in spec.required_flaws.items()]
    assert _sha256("".join(traces)) == FIXES


def test_all_flaws_traces():
    traces = [run_attack(attack_id, seed=42,
                         flaw_overrides=dict.fromkeys(KNOWN_FLAWS, on)).trace.to_jsonl()
              for attack_id in CATALOG for on in (True, False)]
    assert _sha256("".join(traces)) == ALL_FLAWS


def test_single_flaw_flip_reports():
    reports = [run_attack(attack_id, seed=42, flaw_overrides={flaw: on}).render()
               for attack_id in CATALOG for flaw in sorted(KNOWN_FLAWS) for on in (True, False)]
    assert len(reports) == 448
    assert _sha256(json.dumps(reports, indent=2)) == FLIPS


def test_benchmark_pins_the_same_digests():
    # perfbench/run.py checks its own copy of two digests; read it without
    # importing the benchmark, so a digest move cannot update one copy only
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    golden = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "GOLDEN" for t in node.targets))
    assert ast.literal_eval(golden) == {"catalogue": (42, CATALOGUE), "genuine": (0, GENUINE)}
