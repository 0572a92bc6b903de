"""Measure and record the benchmark's baseline on the current checkout.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Two sets, one after the other: in each, every workload in BENCHMARK.json
gets ten untraced runs, each at another seed, which give every end-to-end
metric's median, quartiles and spread (interquartile distance over the
median). Every spread must stay within the metric's bound, and the second
set's median may be worse than the first's by no more than the bound. Two
traced runs at one seed, under PYTHONHASHSEED 0 and 1, give the per-layer
metrics and must agree exactly on every count. Runs are made one after
another, never in parallel. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 101
TRACE_SEED = 7


def _run(workload: str, seed: int, seconds: int, trace: int,
         hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if out.returncode:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name.endswith("_per_put") \
        or name.endswith("_per_msg")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    sets: list[dict] = []
    for index in range(SETS):
        first_seed = FIRST_SEED + index * RUNS
        rows: dict = {}
        for workload in workloads:
            runs = [_run(workload, first_seed + i, seconds, 0) for i in range(RUNS)]
            rows[workload] = {}
            for name, bound in bounds.items():
                values = [r[name] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                rows[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values}
                ok &= spread <= bound
                print(f"set {index + 1} {workload:10} {name:14} median {median:12.4f} "
                      f"spread {spread:.3f} bound {bound}"
                      f"{'' if spread <= bound else '  OVER BOUND'}", flush=True)
        sets.append({"seeds": [first_seed, first_seed + RUNS - 1], "end_to_end": rows})

    for workload in workloads:
        for name, bound in bounds.items():
            first = sets[0]["end_to_end"][workload][name]["median"]
            for later in sets[1:]:
                second = later["end_to_end"][workload][name]["median"]
                worse = (first - second if better[name] == "higher"
                         else second - first) / first
                ok &= worse <= bound
                print(f"{workload:10} {name:14} later set worse by {worse:+.3f} "
                      f"bound {bound}{'' if worse <= bound else '  OVER BOUND'}")

    per_layer: dict = {}
    for workload in workloads:
        first = _run(workload, TRACE_SEED, seconds, 1, hash_seed="0")
        second = _run(workload, TRACE_SEED, seconds, 1, hash_seed="1")
        differing = sorted(n for n in first if _is_count(n) and first[n] != second[n])
        ok &= not differing
        print(f"{workload:10} traced counts repeat under PYTHONHASHSEED 0/1: "
              f"{'yes' if not differing else differing}")
        per_layer[workload] = {"values": first, "counts_repeat": not differing}

    baseline = {
        "environment": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "cryptography": metadata.version("cryptography"),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "bounds": bounds,
        "sets": sets,
        "trace_seed": TRACE_SEED,
        "per_layer": per_layer,
        "accepted": ok,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
