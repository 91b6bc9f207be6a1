"""The four workloads: seeded inputs, the timed item, and its oracle.

Each workload is a closed loop with one caller: a sweep or a shell script
waits for each answer before it asks the next question.  ``chunks`` yields
the seeded inputs in batches that the harness generates outside the timed
region; ``run`` is one item of user work; ``check`` is the oracle, run on the
item's output outside the timed region; ``tally`` records the input
properties whose shares are printed with the results.

The library is reached only through the ``seifert`` package object ``S`` and
its submodules, so that the tracer's rebinding of public names is seen.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import oracles

# Items whose sorted residue tuple is remembered when counting repeats; a
# window keeps the benchmark's own memory independent of the program's speed.
REPEAT_WINDOW = 20_000

SHARE_KEYS = (
    "clash", "euler_mismatch", "exists", "bounded", "lens_form", "malformed", "repeated_residues",
    "exit2",
)


class Workload:
    name = ""
    why = ""
    # items per second of --seconds in each of the two passes of a traced run
    trace_rate = 1.0
    # item time between two timings of the reference job (see calibrate.py)
    segment_s = 0.125
    # items after which peak memory is read: about half of what the slowest
    # 20-second run on a 2-CPU Xeon sandbox completed
    rss_items: int

    def __init__(self, S, seed: int):
        self.S = S
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.shares = Counter()
        self.share_base = Counter()
        self._seen = set()
        self._seen_items = 0

    def chunks(self):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError

    def tally(self, x, out) -> None:
        raise NotImplementedError

    def traced_work(self, x):
        """The call the traced pass times and traces; the item itself,
        except where the item runs in another process."""
        return self.run(x)

    def check_traced(self, x, out) -> bool:
        return self.check(x, out)

    def reference(self) -> float:
        return calibrate.reference_s()

    def close_chunk(self, chunk, outs) -> int:
        """Oracle checks that need a whole chunk; returns the failures."""
        return 0

    def fiberings_found(self, out) -> int:
        return 0

    def exit_code(self, out):
        return None

    # -- input-property bookkeeping ----------------------------------------

    def _count(self, key: str, flag: bool) -> None:
        self.shares[key] += bool(flag)
        self.share_base[key] += 1

    def _count_flags(self, flags: dict) -> None:
        for key, value in flags.items():
            self._count(key, value)

    def _count_repeat(self, pairs) -> None:
        if self._seen_items >= REPEAT_WINDOW:
            return
        self._seen_items += 1
        key = oracles.residue_key(pairs)
        self._count("repeated_residues", key in self._seen)
        self._seen.add(key)

    def share_report(self) -> dict:
        return {
            k: [self.shares[k] / self.share_base[k], self.share_base[k]]
            for k in SHARE_KEYS
            if self.share_base[k]
        }


# --------------------------------------------------------------- degree-grid


def small_members(degrees, limit=2):
    """The covering degrees criterion 2 exhibits: the pinned degree, or the
    members of the progression nearest zero."""
    d = getattr(degrees, "d", None)
    if d is not None:
        return [d]
    r, m = degrees.residue, degrees.modulus
    return sorted({r + k * m for k in range(-2, 3)} - {0}, key=abs)[:limit]


class DegreeGrid(Workload):
    """Criterion 2's per-fibering work on the canonical grid: alpha <= 8, at
    most four reduced pairs, integer part b in [-8, 8], genus code -2..2.
    The seed orders the pair multisets; each multiset is swept over every b
    and genus, so 84 of every 85 merges repeat a residue tuple."""

    name = "degree-grid"
    why = "warm-cache congruence sweep of criterion 2: hvf merge cache and clash path, orbifold, invariant"
    trace_rate = 500.0
    rss_items = 300_000
    MULTISETS_PER_CHUNK = 40
    SCAN_EVERY = 512  # one item in this many gets the brute-force window scan

    def __init__(self, S, seed):
        super().__init__(S, seed)
        pool = [(a, b) for a in range(2, 9) for b in range(1, a) if math.gcd(a, b) == 1]
        self.multisets = [
            ms for size in range(5) for ms in itertools.combinations_with_replacement(pool, size)
        ]
        self.rng.shuffle(self.multisets)
        self._index = 0

    def chunks(self):
        while True:
            chunk = []
            for ms in self._next_multisets():
                for b in range(-8, 9):
                    pairs = ms + ((1, b),) if b else ms
                    chunk.extend((genus, pairs) for genus in range(-2, 3))
            yield chunk

    def _next_multisets(self):
        out = []
        for _ in range(self.MULTISETS_PER_CHUNK):
            out.append(self.multisets[self._index % len(self.multisets)])
            self._index += 1
        return out

    def run(self, x):
        S = self.S
        inv = S.SeifertInvariant(*x)
        degrees = S.allowable_degrees(inv)
        if degrees.is_empty():
            return degrees, ()
        target = S.unit_tangent_invariant(S.base_orbifold(inv))
        return degrees, tuple(
            S.equal(S.fiberwise_quotient(inv, d), target) for d in small_members(degrees)
        )

    def _scanned(self, x) -> bool:
        return hash(x) % self.SCAN_EVERY == 0

    def check(self, x, out) -> bool:
        if isinstance(out, Exception):
            return False
        degrees, witnesses = out
        if not all(witnesses):
            return False
        if self._scanned(x):
            as_json = self.S.notation.degree_set_json(degrees)
            return oracles.scan_agrees(x[0], x[1], 0, as_json)
        return True

    def tally(self, x, out) -> None:
        self._count_repeat(x[1])
        if self._scanned(x):
            flags = oracles.classify(x[0], x[1], 0)
            flags["malformed"] = False
            self._count_flags(flags)


# ------------------------------------------------------------- report-stream


def random_pairs(rng, max_pairs=5, max_alpha=60, max_beta=240):
    pairs = []
    for _ in range(rng.randint(0, max_pairs)):
        a = rng.randint(1, max_alpha)
        b = rng.randint(-max_beta, max_beta)
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return pairs


def random_moves(rng, pairs, closed, count=4):
    """Fibering-preserving moves, so the text is not in canonical form:
    shift one ratio up and another down (any single shift with boundary),
    reorder, insert a (1, 0) pair."""
    pairs = list(pairs)
    for _ in range(count):
        move = rng.randrange(3)
        if move == 0 and pairs:
            k = rng.randint(-3, 3)
            i = rng.randrange(len(pairs))
            a, b = pairs[i]
            pairs[i] = (a, b + k * a)
            if closed:
                pairs.append((1, -k))
        elif move == 1:
            rng.shuffle(pairs)
        else:
            pairs.insert(rng.randrange(len(pairs) + 1), (1, 0))
    return pairs


def invariant_text(rng, genus, pairs, boundary) -> str:
    head = f"{genus}, {boundary}" if boundary else f"{genus}"
    sep = rng.choice([", ", ",", " , "])
    body = sep.join(f"({a},{b})" if rng.random() < 0.5 else f"( {a}, {b} )" for a, b in pairs)
    return f"{rng.choice(['M', ''])}({head};{' ' if body else ''}{body})"


MALFORMATIONS = (
    lambda t: t[:-1],  # unclosed
    lambda t: t.replace(";", ":", 1),  # wrong separator
    lambda t: t + " trailing",  # trailing input
    lambda t: t.replace("(", "((", 1),  # unbalanced
    lambda t: t.replace(";", "; (0,1),", 1),  # alpha 0
)


BOUNDED_SHARE = 0.2
MALFORMED_SHARE = 0.1


def random_invariant(rng):
    """One report input: ``(text, genus, pairs, boundary, malformed)``."""
    boundary = rng.randint(1, 3) if rng.random() < BOUNDED_SHARE else 0
    genus = rng.randint(-3, 3)
    pairs = random_moves(rng, random_pairs(rng), closed=not boundary)
    text = invariant_text(rng, genus, pairs, boundary)
    malformed = rng.random() < MALFORMED_SHARE
    if malformed:
        text = rng.choice(MALFORMATIONS)(text)
    return text, genus, tuple(pairs), boundary, malformed


HVF_KEYS = {"exists", "mechanisms", "degrees", "target", "obstruction"}


class ReportStream(Workload):
    """Text in, JSON out: parse, full report, ``json.dumps(indent=2)``, on
    random non-canonical invariants with alpha up to 60, 0-5 pairs, about
    20 % bounded and 10 % malformed, so the degree merge runs mostly cold."""

    name = "report-stream"
    why = "text-in JSON-out path with cold solves: notation, lens, homotopy and one-off hvf merges"
    trace_rate = 100.0
    rss_items = 40_000
    CHUNK = 1000
    SCAN_EVERY = 64
    SHARE_EVERY = 8  # input properties are classified on one item in this many

    def chunks(self):
        while True:
            yield [random_invariant(self.rng) for _ in range(self.CHUNK)]

    def _scanned(self, x, every=None) -> bool:
        return zlib.crc32(x[0].encode()) % (every or self.SCAN_EVERY) == 0

    def serialise(self, report):
        return json.dumps(report, indent=2)

    def run(self, x):
        S = self.S
        inv = S.parse_invariant(x[0])
        report = S.invariant_report(x[0], inv)
        return report, self.serialise(report)

    def check(self, x, out) -> bool:
        text, genus, pairs, boundary, malformed = x
        if malformed:
            return isinstance(out, self.S.ParseError)
        if isinstance(out, Exception):
            return False
        report, serialised = out
        hvf = report["hvf"]
        if set(hvf) != HVF_KEYS or not serialised.startswith("{\n"):
            return False
        lens_form = not boundary and genus == 0 and len(oracles.cone_pairs(pairs)) <= 2
        if ("lens" in report) != lens_form:
            return False
        if lens_form and report["lens"]["p"] != oracles.lens_p(pairs):
            return False
        if self._scanned(x):
            if json.loads(serialised) != report:
                return False
            return oracles.scan_agrees(genus, pairs, boundary, hvf["degrees"])
        return True

    def tally(self, x, out) -> None:
        text, genus, pairs, boundary, malformed = x
        self._count("malformed", malformed)
        if malformed:
            return
        self._count_repeat(pairs)
        if self._scanned(x, self.SHARE_EVERY):
            self._count_flags(oracles.classify(genus, pairs, boundary))


# --------------------------------------------------------------- lens-census


def manifold_markings(p, q):
    """Every marking of the manifold L(p, q), as criterion 7 enumerates them."""
    qs = {q % p, (-q) % p} if p else {1}
    if p > 2:
        inv_q = pow(q, -1, p)
        qs |= {inv_q, (-inv_q) % p}
    return sorted({(s * p, qq) for s in (1, -1) for qq in qs})


class LensCensus(Workload):
    """One item is one marking of a lens manifold L(p, q), p <= 16: the
    two-fiber fiberings at bound 8, then the decision and the marking of
    each.  Each cycle visits all 161 markings of the 33 manifolds in a
    seeded order, so that any stretch of a run has the same mix of slow
    markings (those with many fiberings) for every seed.  Once every marking
    of a manifold is done, they are merged and Theorem 1's four-case verdict
    is checked against them, as criterion 7 does."""

    name = "lens-census"
    why = "O(B^4) candidate loop of enumerate_lens_fiberings: lens and invariant.normalize, memory"
    trace_rate = 0.5
    rss_items = 161  # one cycle over every marking
    MAX_P = 16
    BOUND = 8
    CHUNK = 8

    def __init__(self, S, seed):
        super().__init__(S, seed)
        self.markings = {}  # manifold (p, q) -> its markings, one (p, q) per class
        for p in range(self.MAX_P + 1):
            for q in range(p) if p else (1,):
                if math.gcd(p, q) == 1:
                    markings = manifold_markings(p, q)
                    if markings not in self.markings.values():
                        self.markings[(p, q)] = markings
        self._done = {}  # manifold -> {marking: output} until all are in

    def chunks(self):
        items = [(p, q, m) for (p, q), markings in self.markings.items() for m in markings]
        while True:
            self.rng.shuffle(items)
            for start in range(0, len(items), self.CHUNK):
                yield items[start:start + self.CHUNK]

    def run(self, x):
        S = self.S
        pp, qq = x[2]
        found = S.enumerate_lens_fiberings(S.MarkedLens(pp, qq), self.BOUND)
        out = []
        for fibering in found:
            lens = S.lens_from_invariant(fibering)
            out.append((fibering.genus_code, fibering.pairs, S.decide_hvf(fibering).exists, lens.p, lens.q))
        return out

    def check(self, x, out) -> bool:
        if isinstance(out, Exception):
            return False
        pp, qq = x[2]
        for genus, pairs, exists, p, q in out:
            if genus != 0 or len(oracles.cone_pairs(pairs)) > 2:
                return False
            if p != pp or oracles.lens_p(pairs) != pp:
                return False
            if not oracles.same_marking(pp, q, qq) or not oracles.same_marking(pp, oracles.lens_q(pairs), qq):
                return False
            if exists != oracles.lens_has_hvf(pp, q):
                return False
        return True

    def close_chunk(self, chunk, outs) -> int:
        """Collect the markings; check each manifold whose markings are all in."""
        failed = 0
        for (p, q, marking), out in zip(chunk, outs):
            done = self._done.setdefault((p, q), {})
            done[marking] = out
            if len(done) == len(self.markings[(p, q)]):
                failed += not self._verdict_holds(p, q, list(self._done.pop((p, q)).values()))
        return failed

    def _verdict_holds(self, p, q, outs) -> bool:
        """Merge the markings of one manifold and check Theorem 1's verdict."""
        if any(isinstance(o, Exception) for o in outs):
            return False
        found = {}
        for out in outs:
            for genus, pairs, exists, _, _ in out:
                found[oracles.unoriented_key(genus, pairs)] = exists
        witness_key = None
        if p >= 4 and p % 4 == 0 and q % p in ((p // 2 + 1) % p, (p // 2 - 1) % p):
            witness = self.S.SeifertInvariant(-1, ((p // 4, -1),))
            witness_key = oracles.unoriented_key(-1, witness.pairs)
            found[witness_key] = self.S.decide_hvf(witness).exists
        verdict = self.S.classify_lens(p, q).case.value
        with_hvf = [k for k, v in found.items() if v]
        return (
            bool(found)
            and verdict == oracles.four_case(p, q)
            and oracles.verdict_holds(verdict, len(with_hvf), len(found) - len(with_hvf))
            and (verdict != "exactly_one" or with_hvf == [witness_key])
        )

    def fiberings_found(self, out) -> int:
        return 0 if isinstance(out, Exception) else len(out)

    def tally(self, x, out) -> None:
        self._count("malformed", False)
        if isinstance(out, Exception):
            return
        for genus, pairs, exists, _, _ in out:
            self._count_flags(oracles.classify(genus, pairs, 0))
            self._count_repeat(pairs)


# ----------------------------------------------------------------- cli-query


def cli_argv(rng):
    """One seeded command line: ``(argv, malformed, genus, pairs, boundary)``."""
    roll = rng.random()
    malformed = rng.random() < MALFORMED_SHARE
    if roll < 0.7:
        cmd, bounded, lens_only = "hvf", False, False
    elif roll < 0.8:
        cmd, bounded, lens_only = "boundary-hvf", True, False
    elif roll < 0.9:
        cmd, bounded, lens_only = "lens", False, True
    else:
        cmd, bounded, lens_only = "homotopy", False, False
    boundary = rng.randint(1, 3) if bounded else 0
    genus = 0 if lens_only else rng.randint(-3 if cmd != "homotopy" else 0, 3)
    pairs = random_pairs(rng, max_pairs=2 if lens_only else 5)
    pairs = random_moves(rng, pairs, closed=not bounded)
    text = invariant_text(rng, genus, pairs, boundary)
    if malformed:
        text = rng.choice(MALFORMATIONS)(text)
    argv = [cmd, text]
    if cmd != "lens" or rng.random() < 0.5:
        argv.append("--json")
    return tuple(argv), malformed, genus, tuple(pairs), boundary


class CliQuery(Workload):
    """Seeded argv lists, each run as its own ``python -m seifert.cli``
    process, one at a time: mostly ``hvf ... --json``, some
    ``boundary-hvf``, ``lens`` and ``homotopy``, about 10 % malformed."""

    name = "cli-query"
    why = "one process per query: interpreter start and import seifert.cli dominate, the only cli-layer load"
    trace_rate = 1.0
    rss_items = 80
    segment_s = 0.01  # one item: each query is timed against a bare interpreter start
    CHUNK = 10

    def __init__(self, S, seed):
        super().__init__(S, seed)
        root = Path(S.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))

    def chunks(self):
        while True:
            yield [cli_argv(self.rng) for _ in range(self.CHUNK)]

    def run(self, x):
        proc = subprocess.run(
            [sys.executable, "-m", "seifert.cli", *x[0]],
            capture_output=True, env=self.env, timeout=60, check=False,
        )
        return proc.returncode, proc.stdout

    def in_process(self, x):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.S.cli.main(list(x[0]))
            except SystemExit as exit_:
                code = exit_.code
        return code, out.getvalue().encode()

    def traced_work(self, x):
        return self.in_process(x)

    def reference(self) -> float:
        return calibrate.launch_s(self.env)

    def exit_code(self, out):
        return None if isinstance(out, Exception) else out[0]

    def check(self, x, out, other=None) -> bool:
        """The subprocess and the in-process ``main`` agree byte for byte, with
        exit code 0, or 2 for the malformed lines."""
        if isinstance(out, Exception) or isinstance(other, Exception):
            return False
        if other is None:
            other = self.in_process(x)
        code = out[0]
        return code in (0, 2) and (code == 2) >= x[1] and out == other

    def check_traced(self, x, out) -> bool:
        return self.check(x, self.run(x), other=out)

    def tally(self, x, out) -> None:
        argv, malformed, genus, pairs, boundary = x
        self._count("malformed", malformed)
        if not isinstance(out, Exception):
            self._count("exit2", out[0] == 2)
        if not malformed:
            self._count_flags(oracles.classify(genus, pairs, boundary))
            self._count_repeat(pairs)


WORKLOADS = {w.name: w for w in (DegreeGrid, ReportStream, LensCensus, CliQuery)}
