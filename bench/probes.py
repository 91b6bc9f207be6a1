"""Measurements taken next to every run: the environment, the split of one
CLI process into interpreter start, import and compute, and the per-call cost
of each stage under the names of the ROADMAP baseline table."""

from __future__ import annotations

import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from calibrate import launch_s


def python_start_ms(env, repeats=7) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return statistics.median(launch_s(env) * 1e3 for _ in range(repeats))


def site_pth_ms(env, repeats=3) -> float:
    """Import time of modules that ``.pth`` files in site-packages pull in at
    start-up (certifi, in some sandboxes), from ``-X importtime``; 0 when
    no such module is imported."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "pass"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        total = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            # top-level imports made while site runs sit one level below it
            if m and len(m.group(2)) == 3 and m.group(3) == "certifi":
                total += int(m.group(1))
        samples.append(total / 1e3)
    return statistics.median(samples)


def commit(root: Path) -> str:
    """The checkout's commit; git is not let look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False, env=env,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path, env) -> dict:
    return {
        "python": platform.python_version(),
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "cli.python_start_ms": python_start_ms(env, repeats=5),
        "site_pth_import_ms": site_pth_ms(env, repeats=1),
        "threads": "single-threaded closed loop; no waiting-time metric applies",
    }


# Fixed inputs that cover each branch of the decision: a congruence clash, an
# Euler mismatch, a single degree, a progression, a bounded fibering, a lens
# form, and an oriented base with a homotopy catalog.
STAGE_INPUTS = (
    "M(0; (3,2), (6,1))",
    "M(0; (2,1), (3,1), (5,1))",
    "M(0; (1,-1), (5,2), (5,2), (5,2))",
    "M(0; (1,2), (2,-1), (2,-1), (2,-1), (2,-1))",
    "M(0, 1; (3,1), (3,2))",
    "M(0; (3,1), (5,2))",
    "M(1; (1,0))",
)

# A fixed ``hvf --json`` query set for the CLI compute probe (without the
# bounded input, which the hvf subcommand rejects).
PROBE_ARGV = tuple(["hvf", text, "--json"] for text in STAGE_INPUTS if ", 1;" not in text)


def cli_split(S, env, repeats=7) -> dict:
    """Interpreter start, ``import seifert.cli`` on top of it, and the
    compute of one query, timed in-process on the probe set."""
    start = python_start_ms(env, repeats)
    imported = statistics.median(launch_s(env, "import seifert.cli") * 1e3 for _ in range(repeats))
    import seifert.cli  # noqa: F401 - the probe needs the module

    samples = []
    for _ in range(repeats):
        for argv in PROBE_ARGV:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                S.cli.main(list(argv))
                samples.append((perf_counter() - t0) * 1e3)
    return {
        "cli.python_start_ms": start,
        "cli.import_ms": imported - start,
        "cli.compute_ms": statistics.median(samples),
    }


def _stage_calls(S):
    invs = [S.parse_invariant(t) for t in STAGE_INPUTS]
    closed = [i for i in invs if i.closed]
    lens_forms = [i for i in closed if i.genus_code == 0 and len(S.normalize(i).pairs) <= 2]
    catalogued = [i for i in closed if i.genus_code >= 0 and S.decide_hvf(i).exists]
    reports = [S.invariant_report(t, i) for t, i in zip(STAGE_INPUTS, invs)]
    pairs = list(zip(STAGE_INPUTS, invs))
    return {
        "parse_invariant": (S.parse_invariant, [(t,) for t in STAGE_INPUTS]),
        "normalize": (S.normalize, [(i,) for i in invs]),
        "degree_solve": (S.allowable_degrees, [(i,) for i in invs]),
        "lens_from_invariant": (S.lens_from_invariant, [(i,) for i in lens_forms]),
        "homotopy_components": (S.homotopy_components, [(i,) for i in catalogued]),
        "invariant_report": (S.invariant_report, pairs),
        "json_serialise": (lambda r: json.dumps(r, indent=2), [(r,) for r in reports]),
    }


def stage_costs(S, batches=15, calls_per_batch=140) -> dict:
    """Per-call cost of each stage, in microseconds: each batch cycles the
    stage over its inputs; the median and quartiles are taken over batches."""
    out = {}
    for stage, (fn, arglists) in _stage_calls(S).items():
        plan = (arglists * (calls_per_batch // len(arglists) + 1))[:calls_per_batch]
        per_call = []
        for _ in range(batches):
            t0 = perf_counter()
            for args in plan:
                fn(*args)
            per_call.append((perf_counter() - t0) / len(plan) * 1e6)
        q1, q2, q3 = statistics.quantiles(per_call, n=4)
        out[f"stage.{stage}.p25_us"] = q1
        out[f"stage.{stage}.p50_us"] = q2
        out[f"stage.{stage}.p75_us"] = q3
    return out
