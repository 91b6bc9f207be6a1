"""Smoke test of the benchmark itself: ``python3 bench/smoke_test.py``.

Runs every workload at a tiny size, both untimed and traced, and checks
that every metric BENCHMARK.json names is printed with its unit; checks that
the traced call counts repeat for a fixed seed; and checks that each oracle
rejects a corrupted copy of a correct output.
"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import seifert  # noqa: E402
import seifert.cli  # noqa: E402,F401 - the cli workload calls it in-process
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, seconds=0.3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class EveryMetricPrinted(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))

    def test_metrics_with_units(self):
        for name in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = result["metrics"]
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(printed), set(expected))
                    for metric, unit in expected.items():
                        self.assertEqual(printed[metric]["unit"], unit, metric)
                        self.assertIsInstance(printed[metric]["value"], (int, float), metric)

    def test_traced_counts_repeat(self):
        first, second = (bench("report-stream", 1, seed=5) for _ in range(2))
        counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        self.assertTrue(any(counts.values()))
        self.assertEqual(
            counts, {k: second["metrics"][k]["value"] for k in counts}
        )


def first_output(workload, want, limit):
    """The first input among the workload's first ``limit`` items whose
    correct output satisfies ``want(x, out)``, with that output."""
    for x in itertools.islice(itertools.chain.from_iterable(workload.chunks()), limit):
        try:
            out = workload.run(x)
        except seifert.ParseError:
            continue
        if want(x, out):
            return x, out
    raise AssertionError("no such input among the first items")


class OraclesReject(unittest.TestCase):
    def workload(self, name):
        return WORKLOADS[name](seifert, 7)

    def test_degree_grid(self):
        wl = self.workload("degree-grid")
        x, out = first_output(wl, lambda x, out: wl._scanned(x), limit=20_000)
        self.assertTrue(wl.check(x, out))
        wrong = seifert.SingleDegree(1) if out[0].is_empty() else seifert.EmptyDegrees()
        self.assertFalse(wl.check(x, (wrong, ())))
        x, out = first_output(wl, lambda x, out: not out[0].is_empty(), limit=100_000)
        self.assertTrue(wl.check(x, out))
        self.assertFalse(wl.check(x, (out[0], out[1][:-1] + (False,))))

    def test_report_stream(self):
        wl = self.workload("report-stream")
        x, out = first_output(wl, lambda x, out: "lens" in out[0] and wl._scanned(x), limit=100_000)
        self.assertTrue(wl.check(x, out))
        report, text = copy.deepcopy(out)
        report["lens"]["p"] += 1
        self.assertFalse(wl.check(x, (report, text)))
        report, text = copy.deepcopy(out)
        del report["hvf"]["target"]
        self.assertFalse(wl.check(x, (report, text)))
        report, _ = copy.deepcopy(out)
        degrees = report["hvf"]["degrees"]
        report["hvf"]["degrees"] = (
            {"kind": "single", "d": 1} if degrees["kind"] == "empty"
            else {"kind": "empty", "include_zero": False}
        )
        self.assertFalse(wl.check(x, (report, json.dumps(report, indent=2))))
        as_malformed = x[:4] + (True,)
        self.assertFalse(wl.check(as_malformed, out))

    def test_lens_census(self):
        wl = self.workload("lens-census")
        chunk = [(5, 1, marking) for marking in wl.markings[(5, 1)]]  # some with, some without
        outs = [wl.run(x) for x in chunk]
        self.assertTrue(all(wl.check(x, out) for x, out in zip(chunk, outs)))
        self.assertEqual(wl.close_chunk(chunk, outs), 0)
        flipped = [[f[:2] + (not f[2],) + f[3:] for f in out] for out in outs]
        self.assertFalse(all(wl.check(x, out) for x, out in zip(chunk, flipped)))
        for keep in (True, False):  # drop every fibering with, then without, a field
            dropped = [[f for f in out if f[2] == keep] for out in outs]
            self.assertEqual(wl.close_chunk(chunk, dropped), 1)
        x, out = next((x, out) for x, out in zip(chunk, outs) if out)
        self.assertFalse(wl.check(x, [f[:3] + (f[3] + 1, f[4]) for f in out]))

    def test_cli_query(self):
        wl = self.workload("cli-query")
        x, out = first_output(wl, lambda x, out: out[0] == 0, limit=30)
        self.assertTrue(wl.check(x, out))
        code, stdout = out
        self.assertFalse(wl.check(x, (code, stdout[:-1] + b" ")))
        self.assertFalse(wl.check(x, (1, stdout)))
        bad, bad_out = first_output(wl, lambda x, out: x[1], limit=80)
        self.assertTrue(wl.check(bad, bad_out))
        self.assertFalse(wl.check(bad, (0, bad_out[1])))


if __name__ == "__main__":
    unittest.main()
