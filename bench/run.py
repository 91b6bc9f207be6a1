"""Benchmark of seifert-hvf: four closed-loop workloads, timed end to end,
and a separate traced run that times each library module.

    python3 bench/run.py --workload degree-grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

One run measures one workload in this process.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed, seeded item list twice, the
second time with spans around every public library function, and prints the
per-layer metrics.  ``--all`` runs every workload both ways, each in a fresh
process, prints every metric by name and unit, and writes
``.bench_out/BENCH_seed<seed>.json``.  The last line of a single run's
standard output is its result as one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed this many times: once before the timed loop and the rest
# spread evenly through it, so that its median samples the machine's speed
# across the whole run rather than at one moment.
SETUP_REPEATS = 11
# latencies kept per segment of the timed loop; a fixed-size sample keeps the
# benchmark's own memory independent of how many items a run completes
SEGMENT_SAMPLE = 500

END_TO_END = {
    "setup_s": "s",
    "throughput_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = ("exactmath", "orbifold", "invariant", "hvf")  # entered by every workload
ALL_LAYERS = ("exactmath", "orbifold", "invariant", "hvf", "lens", "homotopy", "notation", "cli")
STAGES = (
    "parse_invariant", "normalize", "degree_solve", "lens_from_invariant",
    "homotopy_components", "invariant_report", "json_serialise",
)
PER_LAYER = {
    "hvf.allowable_degrees.calls": "count",
    "hvf.decide_hvf.calls": "count",
    "hvf.solves_per_item": "count",
    "exactmath.crt_merge.calls": "count",
    "exactmath.mod_inverse.calls": "count",
    "orbifold.chi.calls": "count",
    "orbifold.unit_tangent_invariant.calls": "count",
    "invariant.normalize.calls": "count",
    "invariant.normalize_per_item": "count",
    "invariant.fiberwise_quotient.calls": "count",
    "invariant.equal.calls": "count",
    "lens.lens_from_invariant.calls": "count",
    "lens.enumerate_yield": "ratio",
    "homotopy.homotopy_components.calls": "count",
    "notation.parse_error_share": "ratio",
    "cli.exit2_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in ALL_LAYERS},
    "lens.enumerate_lens_fiberings.self_share": "ratio",
    "notation.parse_invariant.self_share": "ratio",
    "notation.invariant_report.self_share": "ratio",
    "notation.serialise_share": "ratio",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.compute_ms": "ms",
    **{f"stage.{s}.{q}_us": "us" for s in STAGES for q in ("p25", "p50", "p75")},
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    """The environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _library_modules() -> list[str]:
    return [m for m in sys.modules if m == "seifert" or m.startswith("seifert.")]


def fresh_import(with_cli: bool):
    """Import ``seifert`` from source as a new process would, dropping any
    copy this process imported before."""
    for name in _library_modules():
        del sys.modules[name]
    S = importlib.import_module("seifert")
    if with_cli:
        importlib.import_module("seifert.cli")
    return S


def set_up(cls, seed):
    """Import the library afresh and generate the first inputs.  Returns the
    seconds taken, the workload, its chunk stream and the first chunk."""
    t0 = perf_counter()
    S = fresh_import(with_cli=cls.name == "cli-query")
    workload = cls(S, seed)
    chunks = workload.chunks()
    first = next(chunks)
    return perf_counter() - t0, workload, chunks, first


def time_set_up(cls, seed) -> float:
    """Seconds of one more set-up, after which the library modules the run
    is using are put back, so the run's program state stays whole."""
    saved = {name: sys.modules[name] for name in _library_modules()}
    try:
        return set_up(cls, seed)[0]
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_items(work, chunk, budget=None):
    """Run items in a closed loop; stop early once ``budget`` seconds of item
    time have elapsed.  Returns outputs and per-item seconds."""
    outs, lats = [], []
    deadline = None if budget is None else perf_counter() + budget
    for x in chunk:
        t0 = perf_counter()
        try:
            out = work(x)
        except Exception as err:  # an unexpected failure is the item's output
            out = err
        t1 = perf_counter()
        outs.append(out)
        lats.append(t1 - t0)
        if deadline is not None and t1 >= deadline:
            break
    return outs, lats


def judge(workload, chunk, outs, check) -> int:
    """Oracle pass outside the timed region; returns the failures."""
    failed = 0
    for x, out in zip(chunk, outs):
        failed += not check(x, out)
        workload.tally(x, out)
    if len(outs) == len(chunk):
        failed += workload.close_chunk(chunk, outs)
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, chunks, chunk, seconds, setup_times):
    """Closed loop over the seeded items for ``seconds`` of item time.

    After every ``workload.segment_s`` of item time the workload's reference
    job is timed, and each item time is divided by the mean reference time
    at the two ends of its segment, so that the figures are in units of the
    machine's speed at that moment (see calibrate.py).  Peak memory is read
    once ``workload.rss_items`` items are done, so that it measures a fixed
    amount of work however fast the machine runs."""
    cls, seed = type(workload), workload.seed
    setup_every = seconds / (SETUP_REPEATS - 1)
    rng = random.Random(0)
    rss_mb = None
    refs = [workload.reference()]
    segments = []  # (items, item seconds, reference seconds, latency sample)
    lats, busy, total = [], 0.0, 0.0
    attempted = failed = 0
    done, chunk_outs = 0, []
    while total < seconds:
        outs, new = run_items(workload.run, chunk[done:] if done else chunk, workload.segment_s - busy)
        done += len(outs)
        chunk_outs += outs
        lats += new
        busy += sum(new)
        if done == len(chunk):
            failed += judge(workload, chunk, chunk_outs, workload.check)
            attempted += done
            chunk, done, chunk_outs = next(chunks), 0, []
        if busy >= workload.segment_s:
            refs.append(workload.reference())
            sample = lats if len(lats) <= SEGMENT_SAMPLE else rng.sample(lats, SEGMENT_SAMPLE)
            segments.append((len(lats), busy, (refs[-2] + refs[-1]) / 2, sample))
            total += busy
            lats, busy = [], 0.0
            if rss_mb is None and sum(s[0] for s in segments) >= workload.rss_items:
                rss_mb = peak_rss_mb()
            if total >= setup_every * len(setup_times):
                setup_times.append(time_set_up(cls, seed))
    if done:
        failed += judge(workload, chunk, chunk_outs, workload.check)
        attempted += done
    items = sum(s[0] for s in segments)
    relative = statistics.quantiles([lat / ref for _, _, ref, sample in segments for lat in sample], n=10)
    absolute = statistics.quantiles([lat for *_, sample in segments for lat in sample], n=10)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_ref": items / sum(t / ref for _, t, ref, _ in segments),
        "latency_p50_ref": relative[4],
        "latency_p90_ref": relative[8],
        "peak_rss_mb": peak_rss_mb() if rss_mb is None else rss_mb,
    }
    detail = {
        "timed_items": items,
        "latency_samples": sum(len(s[3]) for s in segments),
        "segments": len(segments),
        "reference_ms": statistics.median(refs) * 1e3,
        "throughput_per_s": items / total,
        "latency_p50_ms": absolute[4] * 1e3,
        "latency_p90_ms": absolute[8] * 1e3,
    }
    return attempted, failed, metrics, detail


def take_chunks(chunks, first, n_items):
    """Whole chunks, starting with ``first``, until ``n_items`` are taken."""
    taken, count, chunk = [], 0, first
    while True:
        taken.append(chunk)
        count += len(chunk)
        if count >= n_items:
            return taken
        chunk = next(chunks)


def traced_run(workload, chunks, chunk, seconds):
    """Run a fixed item list untraced, then the next one traced; return the
    per-layer metrics of the traced pass and the probes' figures."""
    from calibrate import reference_s
    from probes import cli_split, stage_costs
    from tracer import Tracer

    n_items = max(1, round(workload.trace_rate * seconds))
    plain = take_chunks(chunks, chunk, n_items)
    traced = take_chunks(chunks, next(chunks), n_items)

    tracer = Tracer()
    root = tracer.name_id("item")
    item_ids = itertools.count()

    def traced_work(x):
        tracer.item_id = next(item_ids)
        idx = tracer.begin(root)
        try:
            return workload.traced_work(x)
        finally:
            tracer.finish(idx)

    def one_pass(chunk_list, work, install):
        """Relative time per item of the pass, its outputs and failures."""
        failed, outs_all, busy, refs = 0, [], 0.0, [reference_s()]
        for chunk in chunk_list:
            if install:
                tracer.install()
            outs, lats = run_items(work, chunk)
            if install:
                tracer.uninstall()
            refs.append(reference_s())
            busy += sum(lats)
            failed += judge(workload, chunk, outs, workload.check_traced)
            outs_all += outs
        return busy / statistics.median(refs) / len(outs_all), outs_all, failed

    try:  # first-call costs (lazy imports, compiled patterns) fall outside both passes
        workload.traced_work(plain[0][0])
    except Exception:  # noqa: BLE001 - the item is judged in the plain pass
        pass
    plain_cost, plain_outs, plain_failed = one_pass(plain, workload.traced_work, install=False)
    dumps = getattr(workload, "serialise", None)
    if dumps is not None:
        workload.serialise = lambda report: tracer.call("notation.serialise", dumps, report)
    traced_cost, traced_outs, traced_failed = one_pass(traced, traced_work, install=True)
    if dumps is not None:
        del workload.serialise

    metrics = layer_metrics(tracer, workload, traced_outs)
    metrics["trace.overhead_ratio"] = traced_cost / plain_cost
    metrics.update(cli_split(workload.S, child_env()))
    metrics.update(stage_costs(workload.S))
    tracer.write(OUT / f"{workload.name}-seed{workload.seed}-spans")
    attempted = len(plain_outs) + len(traced_outs)
    detail = {
        "spans": len(tracer.start),
        "traced_items": len(traced_outs),
        "plain_items": len(plain_outs),
    }
    return attempted, plain_failed + traced_failed, metrics, detail


def layer_metrics(tracer, workload, traced_outs) -> dict:
    """Per-layer counts, self times and shares from the traced pass."""
    own = tracer.self_times()
    names = tracer.names
    layer_of = [name.split(".")[0] for name in names]
    enumerate_id = tracer.name_id("lens.enumerate_lens_fiberings")
    calls, self_by_name, self_by_layer, raised = Counter(), Counter(), Counter(), Counter()
    hvf_entries = candidates = 0
    item_total = 0.0
    for idx, nid in enumerate(tracer.name):
        name, layer = names[nid], layer_of[nid]
        parent = tracer.parent[idx]
        parent_id = tracer.name[parent] if parent >= 0 else -1
        calls[name] += 1
        self_by_name[name] += own[idx]
        self_by_layer[layer] += own[idx]
        raised[name] += tracer.raised[idx]
        if name == "item":
            item_total += tracer.end[idx] - tracer.start[idx]
        if layer == "hvf" and (parent_id < 0 or layer_of[parent_id] != "hvf"):
            hvf_entries += 1
        if name == "lens.lens_from_invariant" and parent_id == enumerate_id:
            candidates += 1
    items = max(1, calls["item"])

    def share(seconds):
        return seconds / item_total if item_total else 0.0

    found = sum(workload.fiberings_found(out) for out in traced_outs)
    codes = [workload.exit_code(out) for out in traced_outs]
    codes = [c for c in codes if c is not None]
    metrics = {name: calls[name.rsplit(".", 1)[0]] for name in PER_LAYER if name.endswith(".calls")}
    metrics.update({
        "hvf.solves_per_item": hvf_entries / items,
        "invariant.normalize_per_item": calls["invariant.normalize"] / items,
        "lens.enumerate_yield": found / candidates if candidates else 0.0,
        "notation.parse_error_share": (
            raised["notation.parse_invariant"] / calls["notation.parse_invariant"]
            if calls["notation.parse_invariant"] else 0.0
        ),
        "cli.exit2_share": codes.count(2) / len(codes) if codes else 0.0,
        "lens.enumerate_lens_fiberings.self_share": share(self_by_name["lens.enumerate_lens_fiberings"]),
        "notation.parse_invariant.self_share": share(self_by_name["notation.parse_invariant"]),
        "notation.invariant_report.self_share": share(self_by_name["notation.invariant_report"]),
        "notation.serialise_share": share(self_by_name["notation.serialise"]),
    })
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    for layer in ALL_LAYERS:
        metrics[f"{layer}.self_share"] = share(self_by_layer[layer])
    return metrics


def result_line(attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from probes import environment
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup_s, workload, chunks, first = set_up(cls, args.seed)
    if args.trace:
        attempted, failed, metrics, detail = traced_run(workload, chunks, first, args.seconds)
        units = PER_LAYER
    else:
        attempted, failed, metrics, detail = timed_run(workload, chunks, first, args.seconds, [setup_s])
        units = END_TO_END
    record = {
        "workload": args.workload,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT, child_env()),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "input_shares": workload.share_report(),
        **detail,
        "metrics": {name: [metrics[name], unit] for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# workload {args.workload} (seed {args.seed}, trace {args.trace}): {cls.why}")
    print(f"# environment {json.dumps(record['environment'])}")
    shares = ", ".join(f"{k} {v:.4f} of {n}" for k, (v, n) in record["input_shares"].items())
    print(f"# input shares: {shares}")
    print(f"# failed_ratio {record['failed_ratio']:.6f} ({failed} of {attempted} items)")
    print("# " + ", ".join(f"{k} {v:.6g}" for k, v in detail.items()))
    for name, (value, unit) in record["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    print(result_line(attempted, failed, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    from workloads import WORKLOADS

    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        rows = summary["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            rows[f"trace{trace}"] = json.loads(
                (OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text()
            )
    for name, rows in summary["workloads"].items():
        for key, record in rows.items():
            print(f"== {name} ({key}): failed_ratio {record['failed_ratio']:.6f} "
                  f"of {record['attempted']} items")
            shares = ", ".join(f"{k} {v:.4f}" for k, (v, _) in record["input_shares"].items())
            print(f"   input shares: {shares}")
            for metric, (value, unit) in record["metrics"].items():
                print(f"   {metric:<44} {value:>14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seifert" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'seifert'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
