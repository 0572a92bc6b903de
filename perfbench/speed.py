"""How fast the machine runs at the moment, and robust time estimates.

On a small shared VM the host's speed changes by up to 1.8x over minutes,
and every scenario run and the reference kernel below slow down together.
The benchmark therefore times a fixed pure-Python reference kernel between
its passes, and scales each host time by ``speed()``: the reference's
nominal time over its time in the same stretch. Interference that comes in
bursts is removed by taking each time as the mean of its fastest tenth of
samples. Both programs of a comparison run the same kernel, which lives here
and not in tapsim.
"""

from __future__ import annotations

import hashlib
import json
import math
from time import perf_counter
from typing import Sequence

# about the fastest-tenth time of reference_kernel() on a 2-vCPU x86-64 VM
# (Python 3.11) in its fast phases
REF_NOMINAL_S = 0.007


def reference_kernel() -> None:
    """Fixed work of the kinds tapsim does, in about equal shares: integer
    arithmetic in the interpreter loop, small records built, sorted
    and serialised to JSON, and a chain of SHA-256 digests."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    records = {f"k{i:05d}": {"i": i, "s": str(i) * 3, "l": [i, i + 1]}
               for i in range(1500)}
    json.dumps(sorted(records.items(), key=lambda item: item[1]["s"]))
    digest = b"\x00" * 32
    for i in range(3000):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()


def time_reference() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def fastest_tenth(samples: Sequence[float]) -> list[float]:
    return sorted(samples)[:math.ceil(len(samples) / 10)]


def typical(samples: Sequence[float]) -> float:
    """Mean of the fastest tenth of ``samples``."""
    fastest = fastest_tenth(samples)
    return sum(fastest) / len(fastest)


def speed(reference_s: Sequence[float]) -> float:
    """Machine speed relative to nominal, from reference kernel times; a
    host time multiplied by it reads as at nominal speed."""
    return REF_NOMINAL_S / typical(reference_s)
