"""Reference jobs timed next to the workload, as the unit of the machine's
current speed.

This machine's speed swings by tens of per cent within seconds as its
neighbours load it, so the timed loop measures a reference job after every
short segment of item time and expresses item times in multiples of it.
In-process workloads use ``reference_s``; the CLI workload, whose item is a
process, uses ``launch_s``.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def reference_job():
    """A fixed pure-Python job: integer, tuple, dict, Fraction and string
    work, as in the library."""
    total = Fraction(0)
    seen = {}
    text = []
    for a in range(2, 40):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                key = tuple(sorted((a, b % 7, a * b % 11)))
                seen[key] = seen.get(key, 0) + 1
                total += Fraction(b, a)
                text.append(f"({a},{b})")
    return len(seen), total, ",".join(text)


def reference_s(repeats=3) -> float:
    """Median seconds of one reference job."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_job()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def launch_s(env, code="pass") -> float:
    """Seconds to start an interpreter, run ``code`` and stop; by default a
    bare ``python -c pass``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
    return perf_counter() - t0
