"""tapsim benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; tapsim is imported from ``src/`` of that
checkout. A pass of the workload runs at seed ``--seed + pass index``; each
scenario run starts only after the previous one finished. Pass 0 warms up
and is checked but not timed. Every scenario run's outcome is checked, and
the catalogue and genuine outputs at their pinned seeds must hash to the
golden digests.

Each pass has the same slots: its scenario runs, then the pass-level work
after the last one. A slot's time is the mean of its fastest tenth over the
timed passes, and every host time of the passes is scaled to the machine's
nominal speed, measured by a reference kernel timed after each pass (see
``speed.py``); their unscaled values are printed above the result.
``setup_s`` is the median of fresh interpreters' set-up CPU times, taken
between the passes and not scaled.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
passes with and without spans around tapsim's layers, and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
it is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed
from layers import OPS, RATIOS
from tracing import Tracer, op_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

# sha256 over the concatenated JSONL of one pass at a pinned seed
GOLDEN = {
    "catalogue": (42, "ad743bb0ea69b356ecaa290cf0af0963a110ce4709db09e4bd3612d90ed762ca"),
    "genuine": (0, "bba3670be28083aee896d0f841604e32329c5fe2f4f3d7363fb643cda89da0d5"),
}
# run_ms_p90 needs at least ten samples above it
MIN_SAMPLES = 110
SETUP_SAMPLES = 15
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import tapsim, tapsim.attacks
tapsim.runner.build_env()
print(time.process_time() - start, tapsim.__file__)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_tapsim() -> None:
    if not (SRC / "tapsim" / "__init__.py").is_file():
        _fail(f"no tapsim package under {SRC}; run from a tapsim checkout")
    sys.path.insert(0, str(SRC))
    import tapsim
    if Path(tapsim.__file__).resolve().parent != SRC / "tapsim":
        _fail(f"imported tapsim from {tapsim.__file__}, not from {SRC}")


def setup_sample() -> float:
    """CPU time a fresh interpreter spends importing tapsim and
    tapsim.attacks and building the first world. CPU time and not host
    time, because the host at times leaves the child waiting for a CPU for
    longer than its whole set-up takes."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout.split()
    if Path(out[1]).resolve().parent != SRC / "tapsim":
        _fail(f"set-up child imported tapsim from {out[1]}")
    return float(out[0])


class Tally:
    """Outcome counts and per-slot timings of a stretch of passes.

    Slot k of a pass is its k-th scenario run; the last slot is the work
    after the last run. Every pass has the same slots, with the same trace
    lengths, whatever its seed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.events = 0                      # trace events of one pass
        self.slot_s: list[list[float]] = []  # slot -> time in each timed pass
        self.reference_s: list[float] = []   # reference kernel after each pass

    @property
    def passes(self) -> int:
        return len(self.reference_s)

    def run_pass(self, make_pass, seed: int, timed: bool = True,
                 tracer=None) -> str:
        """Run one pass; return its concatenated emitted JSONL."""
        emitted = []
        times = []
        events = 0
        scenarios = make_pass(seed)
        while True:
            start = perf_counter()
            scenario = next(scenarios, None)
            if scenario is None:
                times.append(perf_counter() - start)
                break
            if tracer is not None:
                tracer.run_id += 1
            outcome = scenario()
            times.append(perf_counter() - start)
            events += outcome.events
            self.attempted += 1
            self.failed += not outcome.ok
            emitted.append(outcome.emitted)
        if timed:
            self.slot_s = self.slot_s or [[] for _ in times]
            for slot, elapsed in zip(self.slot_s, times):
                slot.append(elapsed)
            self.events = events
            self.reference_s.append(speed.time_reference())
        return "".join(emitted)

    def loop(self, make_pass, seed: int, first_index: int, seconds: float,
             between=None) -> None:
        """Closed loop over passes until ``seconds`` elapse and there are
        enough samples; ``between`` is called after each pass with the
        share of ``seconds`` gone."""
        index = first_index
        started = perf_counter()
        while True:
            gone = (perf_counter() - started) / seconds
            if gone >= 1 and len(self.fastest_runs()) >= MIN_SAMPLES:
                break
            self.run_pass(make_pass, seed + index)
            index += 1
            if between is not None:
                between(gone)

    def pass_s(self) -> float:
        """Host time of one pass, each slot at its typical time."""
        return sum(speed.typical(slot) for slot in self.slot_s)

    def fastest_runs(self) -> list[float]:
        """The fastest tenth of each scenario run's times, pooled."""
        return [t for slot in self.slot_s[:-1] for t in speed.fastest_tenth(slot)]

    def machine_speed(self) -> float:
        return speed.speed(self.reference_s)


def golden_ok(workloads, tally: Tally) -> bool:
    ok = True
    for name, (seed, digest) in GOLDEN.items():
        text = tally.run_pass(workloads[name], seed, timed=False)
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if got != digest:
            print(f"perfbench: {name} @ seed {seed} digest {got} != {digest}",
                  file=sys.stderr)
            ok = False
    return ok


def end_to_end(make_pass, seed: int, seconds: float, tally: Tally) -> dict:
    setups: list[float] = []

    def sample_setup(gone: float) -> None:
        # spread the set-up samples over the timed loop
        if len(setups) < SETUP_SAMPLES * min(gone, 1):
            setups.append(setup_sample())

    tally.run_pass(make_pass, seed, timed=False)
    tally.loop(make_pass, seed, 1, seconds, between=sample_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())

    factor = tally.machine_speed()
    pass_s = tally.pass_s()
    runs = len(tally.slot_s) - 1
    fastest = tally.fastest_runs()
    deciles = statistics.quantiles(fastest, n=10)
    raw = {
        "setup_s": statistics.median(setups),
        "runs_per_s": runs / pass_s,
        "run_ms_p50": statistics.median(fastest) * 1e3,
        "run_ms_p90": deciles[-1] * 1e3,
        "events_per_s": tally.events / pass_s,
    }
    print(f"timed passes={tally.passes} scenario runs per pass={runs} "
          f"samples for p50/p90={len(fastest)} speed={factor:.4f}")
    print("unscaled: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    return {
        "setup_s": (raw["setup_s"], "s"),
        "runs_per_s": (raw["runs_per_s"] / factor, "1/s"),
        "run_ms_p50": (raw["run_ms_p50"] * factor, "ms"),
        "run_ms_p90": (raw["run_ms_p90"] * factor, "ms"),
        "events_per_s": (raw["events_per_s"] / factor, "1/s"),
        "rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload: str, make_pass, seed: int, seconds: float,
              tally: Tally) -> dict:
    tracer = Tracer()
    tally.run_pass(make_pass, seed, timed=False)
    # counts and span records come from one untimed pass, always at
    # seed + 1, so they repeat; self times come from the timed passes
    tracer.keep_spans = True
    before = tally.attempted
    with tracer.installed():
        tally.run_pass(make_pass, seed + 1, timed=False, tracer=tracer)
    tracer.keep_spans = False
    first_runs = tally.attempted - before
    first_calls = tracer.calls.copy()
    tracer.calls.clear()
    tracer.self_ns.clear()

    # traced and untraced passes alternate, so that each pair sees the
    # machine in the same state and their ratio is the tracing overhead
    traced, plain = Tally(), Tally()
    index = 2
    started = perf_counter()
    while perf_counter() - started < seconds:
        with tracer.installed():
            traced.run_pass(make_pass, seed + index, tracer=tracer)
        plain.run_pass(make_pass, seed + index + 1)
        index += 2
    for part in (traced, plain):
        tally.attempted += part.attempted
        tally.failed += part.failed
    _write_spans(workload, seed, tracer.spans)

    metrics = {}
    first_ops = op_calls(first_calls)
    all_ops = op_calls(tracer.calls)
    for op in OPS:
        metrics[f"{op}.calls"] = (first_ops[op] / first_runs, "calls/run")
        self_us = (tracer.self_ns[op] / all_ops[op] / 1e3) if all_ops[op] else 0.0
        metrics[f"{op}.self_us"] = (self_us, "us")
    for name, (numerator, denominator) in RATIOS.items():
        den = first_calls[denominator]
        metrics[name] = (first_calls[numerator] / den if den else 0.0, "ratio")
    # traced runs_per_s over untraced runs_per_s
    metrics["trace.overhead"] = (plain.pass_s() / traced.pass_s(), "ratio")
    return metrics


def _write_spans(workload: str, seed: int, spans) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for run, span, parent, op, start, end in spans:
            fh.write(json.dumps({"run": run, "span": span, "parent": parent,
                                 "op": op, "start_ns": start, "end_ns": end}))
            fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_tapsim()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    make_pass = WORKLOADS[args.workload]

    checks = Tally()
    if args.trace:
        metrics = per_layer(args.workload, make_pass, args.seed, args.seconds, checks)
    else:
        metrics = end_to_end(make_pass, args.seed, args.seconds, checks)
    # after the measured passes, so that rss_mb is the workload's own peak
    digests_ok = golden_ok(WORKLOADS, checks)
    correct = digests_ok and checks.failed == 0

    print(f"workload={args.workload} seed={args.seed} "
          f"python={platform.python_version()} "
          f"cryptography={metadata.version('cryptography')} nproc={os.cpu_count()} "
          f"digests={'ok' if digests_ok else 'MISMATCH'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
