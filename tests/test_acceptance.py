"""Acceptance suite.

Each test exercises one acceptance criterion end to end, at full advertised
scale, with exact arithmetic (zero tolerance), and prints one PASS line when
it completes.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to
see the PASS lines).
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import apply_random_moves, unoriented_key
from seifert import (
    DegreeProgression,
    EmptyDegrees,
    MarkedLens,
    Orbifold,
    SeifertInvariant,
    SingleDegree,
    Theorem1Case,
    allowable_degrees,
    base_orbifold,
    chi,
    classify_lens,
    decide_hvf,
    elliptic_orbifolds,
    equal,
    euler_number,
    fiberings_over,
    fiberwise_quotient,
    fibered_lens_hvf,
    has_hvf,
    homeomorphic,
    homotopy_components,
    iter_lens_census,
    lens_from_invariant,
    manifold_markings,
    marked_equal,
    normalize,
    oriented_diffeomorphic,
    parse_invariant,
    parse_orbifold,
    print_invariant,
    print_orbifold,
    projective_plane,
    reverse_orientation,
    sphere,
    unit_tangent_invariant,
)


def report(n, text):
    print(f"CRITERION {n:2d} PASS: {text}")


def reduced_pairs(max_alpha):
    return [
        (a, b)
        for a in range(2, max_alpha + 1)
        for b in range(1, a)
        if math.gcd(a, b) == 1
    ]


def canonical_grid(max_alpha, max_pairs, b_range, genus_codes):
    """Every distinct fibering with reduced pairs bounded by max_alpha, at
    most max_pairs of them, and integer part b in b_range."""
    pool = reduced_pairs(max_alpha)
    for size in range(max_pairs + 1):
        for ms in itertools.combinations_with_replacement(pool, size):
            for b in b_range:
                pairs = ms + ((1, b),) if b else ms
                for genus in genus_codes:
                    yield SeifertInvariant(genus, pairs)


# --------------------------------------------------------------------------
# 1. Euler number of the unit tangent bundle equals chi, exhaustively.


def test_criterion_01_unit_tangent_euler_equals_chi():
    start = time.time()
    genus_codes = [0, 1, 2, 3, -1, -2, -3]
    checked = 0
    for count in range(6):
        for cones in itertools.combinations_with_replacement(range(2, 16), count):
            for g in genus_codes:
                orb = Orbifold(g, cones)
                assert euler_number(unit_tangent_invariant(orb)) == chi(orb)
                checked += 1
    elapsed = time.time() - start
    assert checked == 11628 * 7
    assert elapsed < 10
    report(1, f"e(UT) = chi on {checked} orbifolds in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Every allowable degree exhibits the covering onto the unit tangent
#    bundle, constructively, across the whole grid.


def _small_members(degrees, limit=2):
    if isinstance(degrees, SingleDegree):
        return [degrees.d]
    assert isinstance(degrees, DegreeProgression)
    r, m = degrees.residue, degrees.modulus
    nearby = sorted({r + k * m for k in range(-2, 3)} - {0}, key=abs)
    return nearby[:limit]


def test_criterion_02_covering_witness_on_grid():
    start = time.time()
    checked = witnesses = 0
    for inv in canonical_grid(8, 4, range(-8, 9), range(-2, 3)):
        checked += 1
        degrees = allowable_degrees(inv)
        if degrees.is_empty():
            continue
        target = unit_tangent_invariant(base_orbifold(inv))
        for d in _small_members(degrees):
            assert equal(fiberwise_quotient(inv, d), target), (inv, d)
            witnesses += 1
    elapsed = time.time() - start
    assert checked == 12650 * 17 * 5
    assert witnesses > 1000
    report(
        2,
        f"quotient = UT(base) for {witnesses} witnesses across "
        f"{checked} fiberings in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. The closed-form degree set agrees with a brute-force scan of the raw
#    conditions.


def test_criterion_03_degree_set_matches_brute_force():
    start = time.time()
    checked = points = 0
    for inv in canonical_grid(6, 3, range(-6, 7), range(-2, 3)):
        checked += 1
        degrees = allowable_degrees(inv)
        e = euler_number(inv)
        x = chi(base_orbifold(inv))
        cone_pairs = [(a, b) for a, b in inv.pairs if a >= 2]
        lcm = math.lcm(*(a for a, _ in cone_pairs), 1)
        windows = [range(-3 * lcm, 3 * lcm + 1)]
        if e != 0:
            ratio = x / e
            pin = int(ratio) if ratio.denominator == 1 else None
            if pin is not None:
                windows.append(range(pin - 3 * lcm, pin + 3 * lcm + 1))

            def euler_ok(d, pin=pin):
                return pin is not None and d == pin

        else:
            chi_zero = x == 0

            def euler_ok(d, ok=chi_zero):
                return ok

        for window in windows:
            for d in window:
                raw = (
                    d != 0
                    and euler_ok(d)
                    and all((d * b + 1) % a == 0 for a, b in cone_pairs)
                )
                assert raw == degrees.contains(d), (inv, d)
                points += 1
    elapsed = time.time() - start
    assert checked == 364 * 13 * 5
    report(
        3,
        f"oracle agreement at {points} degree evaluations over "
        f"{checked} fiberings in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 4. Elliptic bases admit positive covering degrees 1 and 2 only, with 2
#    occurring exactly on the known two-fiber family.


def _degree_two_family(alpha):
    return SeifertInvariant(0, ((alpha, (alpha - 1) // 2), (alpha, -(alpha + 1) // 2)))


def test_criterion_04_elliptic_degrees_at_most_two():
    start = time.time()
    checked = twos = 0
    for base in elliptic_orbifolds(11):
        pp = base.genus_code >= 0 and len(set(base.cone_orders)) <= 1
        alpha = base.cone_orders[0] if base.cone_orders else 1
        family = _degree_two_family(alpha) if pp and alpha % 2 else None
        for inv in fiberings_over(base, range(-64, 65)):
            checked += 1
            degrees = allowable_degrees(inv)
            assert not isinstance(degrees, DegreeProgression)
            if isinstance(degrees, EmptyDegrees) or degrees.d <= 0:
                continue
            assert degrees.d in (1, 2), inv
            is_family = family is not None and equal(inv, family)
            assert (degrees.d == 2) == is_family, inv
            if degrees.d == 2:
                twos += 1
    # the two-fold cover exists for every odd alpha, including the alpha = 1
    # double cover of UT(S^2) by the 3-sphere
    for alpha in range(1, 12, 2):
        family = _degree_two_family(alpha)
        assert allowable_degrees(family) == SingleDegree(2)
        base = base_orbifold(family)
        assert equal(fiberwise_quotient(family, 2), unit_tangent_invariant(base))
    belt = SeifertInvariant(0, ((1, 0), (1, -1)))
    assert allowable_degrees(belt) == SingleDegree(2)
    assert equal(fiberwise_quotient(belt, 2), unit_tangent_invariant(sphere()))
    elapsed = time.time() - start
    assert twos == 6  # odd alpha in 1..11
    report(
        4,
        f"elliptic scan: {checked} fiberings, positive degrees in {{1,2}}, "
        f"{twos} degree-two hits in {elapsed:.1f}s",
    )


def test_criterion_04_every_shift():
    """Criterion 4 for every integer shift, not a box of them: d * e = chi
    with d >= 1 and chi > 0 needs 0 < e <= chi, and e = -s - b for the sum s
    of the ratios beta/alpha, so for each choice of betas only the shifts b
    with -s - chi <= b < -s can carry a positive degree.  The window is
    computed here with Fractions, and the shift just outside it on either
    side is checked to carry none."""
    start = time.time()
    checked = twos = outside = 0
    for base in elliptic_orbifolds(60):
        g, orders = base.genus_code, base.cone_orders
        x = (2 if g == 0 else 1) - sum(1 - Fraction(1, a) for a in orders)
        pp = g >= 0 and len(set(orders)) <= 1
        alpha = orders[0] if orders else 1
        family = _degree_two_family(alpha) if pp and alpha % 2 else None
        units = [[c for c in range(1, a) if math.gcd(a, c) == 1] for a in orders]
        for betas in itertools.product(*units):
            cones = tuple(zip(orders, betas))
            s = sum(Fraction(c, a) for a, c in cones)
            low, high = math.ceil(-s - x), math.ceil(-s) - 1
            for b in range(low - 1, high + 2):
                inv = SeifertInvariant(g, cones + ((1, b),) if b else cones)
                degrees = allowable_degrees(inv)
                assert not isinstance(degrees, DegreeProgression)
                positive = isinstance(degrees, SingleDegree) and degrees.d > 0
                if not low <= b <= high:
                    assert not positive, inv
                    outside += 1
                    continue
                assert 0 < -s - b <= x
                checked += 1
                if not positive:
                    continue
                assert degrees.d in (1, 2), inv
                is_family = family is not None and equal(inv, family)
                assert (degrees.d == 2) == is_family, inv
                twos += degrees.d == 2
    elapsed = time.time() - start
    assert (checked, twos, outside) == (1571, 30, 66202)  # twos: odd alpha in 1..59
    report(
        4,
        f"elliptic scan over every shift: {checked} fiberings in the windows, "
        f"{twos} degree-two hits, {outside} beside them in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. The named instances come out exactly.


def test_criterion_05_named_instances():
    ut235 = unit_tangent_invariant(sphere(2, 3, 5))
    assert equal(ut235, SeifertInvariant(0, ((1, 1), (2, -1), (3, -1), (5, -1))))
    assert allowable_degrees(ut235) == SingleDegree(1)

    cover555 = parse_invariant("M(0; (1,-1), (5,2), (5,2), (5,2))")
    assert allowable_degrees(cover555) == SingleDegree(2)
    decision = decide_hvf(cover555)
    assert decision.exists
    assert equal(decision.mechanisms[0].target, unit_tangent_invariant(sphere(5, 5, 5)))

    ut237 = unit_tangent_invariant(sphere(2, 3, 7))
    assert allowable_degrees(ut237) == SingleDegree(1)
    assert allowable_degrees(reverse_orientation(ut237)) == SingleDegree(-1)

    ut2222 = unit_tangent_invariant(sphere(2, 2, 2, 2))
    assert allowable_degrees(ut2222) == DegreeProgression(1, 2)
    ut22x = unit_tangent_invariant(projective_plane(2, 2))
    assert allowable_degrees(ut22x) == DegreeProgression(1, 2)

    bounded = parse_invariant("M(0, 1; (3,1), (3,2))")
    assert allowable_degrees(bounded) == EmptyDegrees()
    report(5, "UT(235), the 555 double cover, UT(237), UT(2222), UT(22x), "
              "and the bounded (3,1),(3,2) example all reproduce")


# --------------------------------------------------------------------------
# 6. Exactly ten fiberings with e = 0 over a parabolic base.


def test_criterion_06_zero_euler_parabolic_census():
    start = time.time()
    bases = {
        "T2": Orbifold(1),
        "K": Orbifold(-2),
        "236": sphere(2, 3, 6),
        "244": sphere(2, 4, 4),
        "333": sphere(3, 3, 3),
        "2222": sphere(2, 2, 2, 2),
        "22x": projective_plane(2, 2),
    }
    census = {}
    for name, base in bases.items():
        beta_choices = [
            [c for c in range(-12, 13) if math.gcd(a, c) == 1]
            for a in base.cone_orders
        ]
        found = set()
        for betas in itertools.product(*beta_choices):
            total = sum(Fraction(c, a) for a, c in zip(base.cone_orders, betas))
            if total.denominator != 1:
                continue
            pairs = tuple(zip(base.cone_orders, betas)) + ((1, -int(total)),)
            inv = SeifertInvariant(base.genus_code, pairs)
            assert euler_number(inv) == 0
            cf = normalize(inv)
            found.add((cf.genus_code, cf.pairs, cf.b))
        census[name] = found
        ut = unit_tangent_invariant(base)
        ut_keys = {
            (cf.genus_code, cf.pairs, cf.b)
            for cf in (normalize(ut), normalize(reverse_orientation(ut)))
        }
        assert found == ut_keys, name
    total = sum(len(v) for v in census.values())
    assert total == 10
    asymmetric = {name for name, v in census.items() if len(v) == 2}
    assert asymmetric == {"236", "244", "333"}
    elapsed = time.time() - start
    report(
        6,
        f"exactly 10 zero-Euler parabolic fiberings, UT != -UT precisely "
        f"for 236/244/333, in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 7. The lens-space classification agrees with brute-force evidence.


def _check_theorem1(max_p, bound):
    """Check Theorem 1's four-case verdict for every L(p, q) with p <= max_p
    against its fiberings enumerated at the bound; returns the case counts.
    The fiberings come from ``iter_lens_census``, which holds one p at a
    time.  Each manifold's fiberings are decided once, by ``has_hvf``, keyed
    by its first marking and shared by its other markings; fiberings of
    different p never coincide, so those decisions are dropped when p
    changes."""
    cases = {case: 0 for case in Theorem1Case}
    exists, last_p = {}, None
    for (p, q), fiberings in iter_lens_census(max_p, bound):
        if p != last_p:
            exists, last_p = {}, p
        verdict = classify_lens(p, q)
        assert fiberings, (p, q)
        manifold = manifold_markings(p, q)[0]
        if manifold not in exists:
            exists[manifold] = [has_hvf(f) for f in fiberings]
        with_hvf = [f for f, e in zip(fiberings, exists[manifold]) if e]
        without = [f for f, e in zip(fiberings, exists[manifold]) if not e]
        if verdict.case is Theorem1Case.ALL_HAVE:
            assert not without, (p, q)
        elif verdict.case is Theorem1Case.NONE_HAVE:
            assert not with_hvf, (p, q)
        elif verdict.case is Theorem1Case.MIXED_INFINITE:
            assert with_hvf and without, (p, q)
        else:
            assert len(with_hvf) == 1, (p, q)
            assert unoriented_key(with_hvf[0]) == unoriented_key(verdict.witness)
            assert equal(verdict.witness, SeifertInvariant(-1, ((p // 4, -1),)))
        cases[verdict.case] += 1
    assert all(cases.values()), cases
    return cases


def _criterion_07(max_p, bound, **counts):
    """Criterion 7 for every L(p, q) with p <= max_p at this bound, within
    60 s, with the case counts pinned when ``counts`` are given.  From p <= 48
    on, the bound max_p/2 is at least p/2 for every p."""
    start = time.time()
    cases = {c.value: n for c, n in _check_theorem1(max_p, bound).items()}
    elapsed = time.time() - start
    assert elapsed < 60
    if counts:
        assert cases == counts
    report(
        7,
        f"classification verified against enumerated fiberings for p <= {max_p} "
        f"at bound {bound} ({cases}) in {elapsed:.1f}s",
    )


def test_criterion_07_lens_classification_end_to_end():
    _criterion_07(12, 12)


def test_criterion_07_lens_classification_wide_range():
    _criterion_07(32, 16)


def test_criterion_07_lens_classification_p48():
    # at bound 16, L(33, 1) has no fibering with all coefficients in range
    _criterion_07(48, 24, all_have=2, mixed_infinite=92, exactly_one=22, none_have=597)


def test_criterion_07_lens_classification_p64():
    _criterion_07(64, 32, all_have=2, mixed_infinite=124, exactly_one=30, none_have=1105)


def test_criterion_07_lens_classification_p80():
    _criterion_07(80, 40, all_have=2, mixed_infinite=156, exactly_one=38, none_have=1771)


def test_criterion_07_lens_classification_p128():
    _criterion_07(128, 64, all_have=2, mixed_infinite=252, exactly_one=62, none_have=4707)


def test_criterion_07_lens_classification_p256():
    _criterion_07(256, 128, all_have=2, mixed_infinite=508, exactly_one=126, none_have=19313)


# --------------------------------------------------------------------------
# 8. The lens marking is well defined and matches the decision procedure.


def test_criterion_08_lens_marking_well_defined():
    start = time.time()
    pairs = [
        (a, b) for a in range(1, 9) for b in range(-8, 9) if math.gcd(a, b) == 1
    ]
    checked = 0
    for i, (a1, b1) in enumerate(pairs):
        for a2, b2 in pairs[i:]:
            inv = SeifertInvariant(0, ((a1, b1), (a2, b2)))
            lens = lens_from_invariant(inv)
            p = a1 * b2 + a2 * b1
            assert lens.p == p
            qs = set()
            for a1p in range(-5 * a1, 5 * a1 + 1):
                if (1 + b1 * a1p) % a1:
                    continue
                b1p = (1 + b1 * a1p) // a1
                qs.add((a1p * b2 + a2 * b1p) % abs(p) if p else a1p * b2 + a2 * b1p)
            if p:
                assert len(qs) == 1
                assert marked_equal(lens, MarkedLens(p, qs.pop()))
            else:
                assert qs <= {1, -1}
            assert decide_hvf(inv).exists == fibered_lens_hvf(lens), inv
            checked += 1
    elapsed = time.time() - start
    report(
        8,
        f"marking stable across Bezout choices and consistent with the "
        f"decision procedure on {checked} two-fiber invariants in {elapsed:.1f}s",
    )


def test_criterion_08_every_census_fibering():
    # every genus-0 fibering that criterion 7 meets at p <= 128, bound 64:
    # its marking is on its own manifold, and gives the decision's verdict
    start = time.time()
    checked = 0
    seen = set()
    for (p, q), fiberings in iter_lens_census(128, 64):
        markings = manifold_markings(p, q)
        if markings[0] in seen:
            continue  # the census lists a manifold's fiberings under each marking
        seen.add(markings[0])
        for f in fiberings:
            if f.genus_code != 0:
                continue
            lens = lens_from_invariant(f)
            assert abs(lens.p) == p and (lens.p, lens.q) in markings, f
            assert decide_hvf(f).exists == fibered_lens_hvf(lens), f
            checked += 1
    assert checked == 98993
    elapsed = time.time() - start
    assert elapsed < 60
    report(
        8,
        f"marking on its manifold and consistent with the decision procedure "
        f"on all {checked} genus-0 census fiberings at p <= 128, bound 64, in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 9. Property suites.


def _random_invariant(rng, max_pairs=4, max_alpha=9, max_beta=9):
    pairs = []
    for _ in range(rng.randrange(max_pairs + 1)):
        a = rng.randint(1, max_alpha)
        b = rng.randint(-max_beta, max_beta)
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return SeifertInvariant(rng.randint(-3, 3), tuple(pairs))


def test_criterion_09_property_suites():
    start = time.time()
    rng = random.Random(20260808)

    # Euler-number invariance under 10^4 random move sequences, and
    # normalize idempotence along the way
    for _ in range(10_000):
        inv = _random_invariant(rng)
        moved = apply_random_moves(inv, rng, 5)
        assert euler_number(moved) == euler_number(inv)
        assert equal(moved, inv)
        cf = normalize(inv)
        assert normalize(cf.invariant()) == cf

    # quotient composition on 10^3 coprime triples
    composed = 0
    while composed < 1_000:
        inv = _random_invariant(rng)
        d1, d2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if d1 == 0 or d2 == 0:
            continue
        if any(math.gcd(d1 * d2, a) != 1 for a, _ in inv.pairs):
            continue
        assert equal(
            fiberwise_quotient(fiberwise_quotient(inv, d1), d2),
            fiberwise_quotient(inv, d1 * d2),
        )
        composed += 1

    # orientation reversal: involution and degree-set antisymmetry
    for _ in range(2_000):
        inv = _random_invariant(rng)
        assert equal(reverse_orientation(reverse_orientation(inv)), inv)
        ds = allowable_degrees(inv)
        rev = allowable_degrees(reverse_orientation(inv))
        if isinstance(ds, EmptyDegrees):
            assert isinstance(rev, EmptyDegrees)
        elif isinstance(ds, SingleDegree):
            assert rev == SingleDegree(-ds.d)
        else:
            assert rev == DegreeProgression(-ds.residue % ds.modulus, ds.modulus)

    # marked equality refines oriented diffeomorphism refines homeomorphism,
    # strictly, for |p| <= 12
    spaces = []
    for p in range(-12, 13):
        qs = range(abs(p)) if p else (1,)
        spaces += [MarkedLens(p, q) for q in qs if math.gcd(p, q) == 1]
    strict_oriented = strict_homeo = 0
    for a, b in itertools.combinations(spaces, 2):
        m, o, h = marked_equal(a, b), oriented_diffeomorphic(a, b), homeomorphic(a, b)
        assert not m or o
        assert not o or h
        strict_oriented += o and not m
        strict_homeo += h and not o
    assert strict_oriented and strict_homeo

    # parser round-trips on 10^4 random invariants and orbifolds
    for _ in range(10_000):
        inv = _random_invariant(rng)
        if rng.random() < 0.3:
            inv = SeifertInvariant(inv.genus_code, inv.pairs, rng.randint(1, 3))
        text = print_invariant(inv)
        assert parse_invariant(text) == normalize(inv).invariant()
        orientable = bool(rng.getrandbits(1))
        genus = rng.randint(1 if not orientable else 0, 3)
        orb = Orbifold(
            genus if orientable else -genus,
            tuple(rng.randint(1, 15) for _ in range(rng.randrange(5))),
            rng.randrange(3),
        )
        assert parse_orbifold(print_orbifold(orb)) == orb

    elapsed = time.time() - start
    report(9, f"property suites (moves, quotients, reversal, lens relations, "
              f"round-trips) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 10. Homotopy catalogs.


def test_criterion_10_homotopy_catalogs():
    catalog = homotopy_components(unit_tangent_invariant(sphere(2, 3, 5)))
    assert catalog.degrees == SingleDegree(1)
    assert catalog.cohomology_rank == 0
    assert catalog.unique_up_to_homotopy

    three_torus = SeifertInvariant(1, ((1, 0),))
    catalog = homotopy_components(three_torus)
    assert catalog.degrees == DegreeProgression(0, 1, include_zero=True)
    assert all(catalog.degrees.contains(d) for d in range(-10, 11))
    assert catalog.cohomology_rank == 2
    assert not catalog.unique_up_to_homotopy
    report(10, "UT(235) is unique up to homotopy; the 3-torus catalog is "
               "all integers times rank 2")
