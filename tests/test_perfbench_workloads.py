"""The benchmark's scenario checks hold: one pass of each perfbench workload
at seed 0 meets every expected outcome.

``perfbench/workloads.py`` drives tapsim only through its public API and
checks each run it makes; loading it here makes a change that breaks those
checks fail the test suite, not only the benchmark.
"""

import runpy
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# run_path compiles from source, so no bytecode cache is written under perfbench/
WORKLOADS = runpy.run_path(str(WORKLOADS_PY))["WORKLOADS"]


@pytest.mark.parametrize("name", ["catalogue", "genuine", "sweep"])
def test_one_pass_meets_every_expected_outcome(name):
    outcomes = [scenario() for scenario in WORKLOADS[name](0)]
    assert outcomes
    failed = [i for i, outcome in enumerate(outcomes) if not outcome.ok]
    assert not failed, f"{name} runs that missed their outcome: {failed}"
