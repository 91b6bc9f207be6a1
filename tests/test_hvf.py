import collections
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded_invariants, closed_invariants, inv
from test_acceptance import canonical_grid
from seifert import (
    Covering,
    CongruenceClash,
    DegreeProgression,
    EmptyDegrees,
    EulerMismatch,
    Orbifold,
    SeifertInvariant,
    SingleDegree,
    SurfaceSection,
    allowable_degrees,
    base_orbifold,
    boundary_tangency,
    chi,
    chi_underlying,
    decide_hvf,
    equal,
    euler_number,
    fiberwise_quotient,
    has_hvf,
    invariant_report,
    normalize,
    print_invariant,
    reverse_orientation,
    sphere,
    unit_tangent_invariant,
)
from seifert.errors import NotCoprime
from seifert.hvf import _merge, _verdict
from seifert.invariant import _fold


def brute_degrees(invariant, window):
    """Oracle: test the raw conditions (d*b_i = -1 mod a_i for every pair,
    and d*e = chi for closed fiberings) on every non-zero d in the window."""
    e = euler_number(invariant) if invariant.closed else None
    x = chi(base_orbifold(invariant))
    out = set()
    for d in window:
        if d == 0:
            continue
        if any((d * b + 1) % a for a, b in invariant.pairs):
            continue
        if invariant.closed and d * e != x:
            continue
        out.add(d)
    return out


def degrees_in(ds, window):
    return {d for d in window if d != 0 and ds.contains(d)}


class TestAllowableDegrees:
    def test_ut_235(self):
        assert allowable_degrees(unit_tangent_invariant(sphere(2, 3, 5))) == SingleDegree(1)

    def test_555_double_cover(self):
        d = allowable_degrees(inv(0, (1, -1), (5, 2), (5, 2), (5, 2)))
        assert d == SingleDegree(2)

    def test_ut_2222(self):
        d = allowable_degrees(unit_tangent_invariant(sphere(2, 2, 2, 2)))
        assert d == DegreeProgression(1, 2)

    def test_ut_237(self):
        assert allowable_degrees(unit_tangent_invariant(sphere(2, 3, 7))) == SingleDegree(1)
        rev = reverse_orientation(unit_tangent_invariant(sphere(2, 3, 7)))
        assert allowable_degrees(rev) == SingleDegree(-1)

    def test_boundary_clash(self):
        assert allowable_degrees(inv(0, (3, 1), (3, 2), boundary=1)) == EmptyDegrees()

    def test_boundary_progression(self):
        # d = -1^{-1} = 2 (mod 3) from both pairs
        assert allowable_degrees(inv(0, (3, 1), (3, 1), boundary=1)) == DegreeProgression(2, 3)

    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_matches_brute_force(self, invariant):
        ds = allowable_degrees(invariant)
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        window = list(range(-3 * lcm, 3 * lcm + 1))
        e = euler_number(invariant)
        if e != 0:
            ratio = chi(base_orbifold(invariant)) / e
            if ratio.denominator == 1:
                pin = int(ratio)
                window += range(pin - lcm, pin + lcm + 1)
        assert degrees_in(ds, window) == brute_degrees(invariant, window)

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_boundary_matches_brute_force(self, invariant):
        ds = allowable_degrees(invariant)
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        window = range(-3 * lcm, 3 * lcm + 1)
        assert degrees_in(ds, window) == brute_degrees(invariant, window)

    @given(closed_invariants(max_pairs=3, max_alpha=7, max_beta=7))
    def test_orientation_antisymmetry(self, invariant):
        ds = allowable_degrees(invariant)
        rev = allowable_degrees(reverse_orientation(invariant))
        if isinstance(ds, EmptyDegrees):
            assert isinstance(rev, EmptyDegrees)
        elif isinstance(ds, SingleDegree):
            assert rev == SingleDegree(-ds.d)
        else:
            assert rev == DegreeProgression(-ds.residue % ds.modulus, ds.modulus)


class TestDecideHvf:
    def test_torus_base_section_only(self):
        decision = decide_hvf(inv(1, (1, 5)))
        assert decision.exists
        assert decision.mechanisms == (SurfaceSection(),)

    def test_torus_base_both_mechanisms(self):
        decision = decide_hvf(inv(1))
        kinds = [type(m) for m in decision.mechanisms]
        assert kinds == [SurfaceSection, Covering]

    def test_ut_237_covers_itself(self):
        invariant = inv(0, (2, -1), (3, -1), (7, -1), (1, 1))
        decision = decide_hvf(invariant)
        assert decision.exists
        (mech,) = decision.mechanisms
        assert isinstance(mech, Covering)
        assert mech.degrees == SingleDegree(1)
        assert equal(mech.target, invariant)

    def test_333_euler_pin_fails(self):
        decision = decide_hvf(inv(0, (3, 1), (3, 1), (3, 1)))
        assert not decision.exists
        assert decision.mechanisms == ()
        assert isinstance(decision.obstruction, EulerMismatch)
        assert decision.obstruction.pin == 0

    def test_congruence_clash_reported(self):
        # closed analogue of the (3,1),(3,2) boundary example
        decision = decide_hvf(inv(0, (3, 1), (3, 2), (5, 1)))
        assert not decision.exists
        assert decision.obstruction == CongruenceClash(0, 1)

    def test_covering_target_is_unit_tangent_bundle(self):
        invariant = inv(0, (1, -1), (5, 2), (5, 2), (5, 2))
        (mech,) = decide_hvf(invariant).mechanisms
        assert equal(mech.target, unit_tangent_invariant(sphere(5, 5, 5)))

    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_covering_witness(self, invariant):
        # every small allowable degree exhibits the fiberwise covering onto
        # the unit tangent bundle of the base
        ds = allowable_degrees(invariant)
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        small = [d for d in range(-2 * lcm, 2 * lcm + 1) if d and ds.contains(d)]
        if isinstance(ds, SingleDegree):
            small = [ds.d]
        target = unit_tangent_invariant(base_orbifold(invariant))
        for d in small:
            assert equal(fiberwise_quotient(invariant, d), target)


@st.composite
def wide_closed_invariants(draw):
    """Closed invariants over any genus code in -5..5: small alphas, which
    often pin a degree, mixed with alphas up to 10**6, and betas far outside
    ``[0, alpha)``."""
    genus = draw(st.integers(-5, 5))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
        b = draw(st.integers(-3 * a - 10, 3 * a + 10))
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return SeifertInvariant(genus, tuple(pairs))


class TestIntegerPin:
    """The decision's integer Euler pin against the rational e and chi of
    the invariant and its base orbifold."""

    @settings(max_examples=400)
    @given(wide_closed_invariants())
    def test_matches_rational_rule(self, invariant):
        e = euler_number(invariant)
        x = chi(base_orbifold(invariant))
        decision = decide_hvf(invariant)
        degrees = allowable_degrees(invariant)
        if isinstance(decision.obstruction, EulerMismatch):
            ratio = x / e if e else None
            pin = int(ratio) if ratio is not None and ratio.denominator == 1 else None
            assert decision.obstruction == EulerMismatch(e, x, pin)
        if isinstance(degrees, SingleDegree):
            assert degrees.d * e == x
        target = normalize(unit_tangent_invariant(base_orbifold(invariant))).invariant()
        for mech in decision.mechanisms:
            if isinstance(mech, Covering):
                assert mech.degrees == degrees
                assert mech.target == target


class TestDecideHvfBoundary:
    def test_clash_means_no_field(self):
        decision = decide_hvf(inv(0, (3, 1), (3, 2), boundary=1))
        assert not decision.exists
        assert decision.obstruction == CongruenceClash(0, 1)

    def test_annulus_section(self):
        decision = decide_hvf(inv(0, boundary=2))
        assert decision.exists
        assert any(isinstance(m, SurfaceSection) for m in decision.mechanisms)

    def test_congruences_alone_decide(self):
        decision = decide_hvf(inv(0, (3, 1), (3, 1), boundary=1))
        assert decision.exists
        (mech,) = decision.mechanisms
        assert mech.degrees == DegreeProgression(2, 3)
        # d = 2 satisfies the raw conditions, confirmed by scanning 1..6
        assert brute_degrees(inv(0, (3, 1), (3, 1), boundary=1), range(1, 7)) == {2, 5}

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_exists_iff_section_or_congruences(self, invariant):
        decision = decide_hvf(invariant)
        base = base_orbifold(invariant)
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        solvable = bool(brute_degrees(invariant, range(-3 * lcm, 3 * lcm + 1)))
        assert decision.exists == (not base.cone_orders or solvable)


class TestDecisionBody:
    """Closed and bounded decisions apply one rule: the section needs a bare
    base surface with a nowhere-zero field, the covering the unit tangent
    target."""

    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_closed_section_iff_torus_or_klein_bottle(self, invariant):
        base = base_orbifold(invariant)
        decision = decide_hvf(invariant)
        expected = not base.cone_orders and base.genus_code in {1, -2}
        assert (SurfaceSection() in decision.mechanisms) == expected

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_bounded_section_iff_no_cone_points(self, invariant):
        decision = decide_hvf(invariant)
        expected = not base_orbifold(invariant).cone_orders
        assert (SurfaceSection() in decision.mechanisms) == expected

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_bounded_covering_witness(self, invariant):
        # bounded twin of TestDecideHvf.test_covering_witness: every small
        # covering degree exhibits the fiberwise covering onto the target
        covering = [m for m in decide_hvf(invariant).mechanisms if isinstance(m, Covering)]
        if not covering:
            return
        (mech,) = covering
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        small = [d for d in range(-2 * lcm, 2 * lcm + 1) if d and mech.degrees.contains(d)]
        assert small
        for d in small:
            assert equal(fiberwise_quotient(invariant, d), mech.target)


@st.composite
def unit_tangent_bundles(draw):
    """Unit tangent bundles of closed orbifolds, each of which covers itself
    with degree 1."""
    genus_code = draw(st.integers(-3, 3))
    cones = draw(st.lists(st.integers(2, 9), max_size=4))
    return unit_tangent_invariant(Orbifold(genus_code, cones))


class TestCoveringBothWays:
    def test_allowable_iff_quotient_is_unit_tangent_bundle(self):
        """The covering mechanism as the paper defines it, in both
        directions, on criterion 3's grid: for a closed fibering and d != 0,
        ``allowable_degrees(inv).contains(d)`` holds exactly when
        ``fiberwise_quotient(inv, d)`` exists (no NotCoprime) and equals the
        unit tangent bundle of the base.  Closed fiberings only: the unit
        tangent bundle is defined for closed orbifolds.  The window is
        ``0 < |d| <= lcm`` of the cone orders, and the same width around the
        Euler pin chi/e when it is an integer.  The decision's covering
        target is that bundle as a record, not only as a fibering."""
        start = time.time()
        checked = points = shared = coverings = 0
        for invariant in canonical_grid(6, 3, range(-6, 7), range(-2, 3)):
            checked += 1
            degrees = allowable_degrees(invariant)
            base = base_orbifold(invariant)
            ut = unit_tangent_invariant(base)
            for mech in decide_hvf(invariant).mechanisms:
                if isinstance(mech, Covering):
                    assert mech.target == ut, invariant
                    coverings += 1
            target = normalize(ut)
            lcm = math.lcm(*(a for a, _ in invariant.pairs))
            window = set(range(-lcm, lcm + 1))
            e = euler_number(invariant)
            pin = chi(base) / e if e else None
            if pin is not None and pin.denominator == 1:
                window.update(range(int(pin) - lcm, int(pin) + lcm + 1))
            window.discard(0)
            for d in window:
                points += 1
                try:
                    quotient = fiberwise_quotient(invariant, d)
                except NotCoprime:
                    # the quotient is not free, and no such d is allowable
                    assert math.gcd(d, lcm) != 1, (invariant, d)
                    assert not degrees.contains(d), (invariant, d)
                    shared += 1
                    continue
                covers = normalize(quotient) == target
                assert covers == degrees.contains(d), (invariant, d)
        elapsed = time.time() - start
        assert checked == 364 * 13 * 5
        assert coverings == 1187
        print(f"{points} degrees ({shared} not coprime) over {checked} fiberings in {elapsed:.1f}s")


class TestCoveringTarget:
    """The target the decision builds in canonical form, against the unit
    tangent bundle of the base built pair by pair and normalized."""

    @settings(max_examples=300)
    @given(st.one_of(closed_invariants(), bounded_invariants(), unit_tangent_bundles()))
    def test_target_is_normalized_unit_tangent_bundle(self, invariant):
        covering = [m for m in decide_hvf(invariant).mechanisms if isinstance(m, Covering)]
        if not covering:
            return
        (mech,) = covering
        base = base_orbifold(invariant)
        n = len(base.cone_orders)
        pairs = ((1, n - chi_underlying(base)),) + tuple((a, -1) for a in base.cone_orders)
        ut = SeifertInvariant(invariant.genus_code, pairs, invariant.boundary_count)
        assert mech.target == normalize(ut).invariant()
        if invariant.closed:
            # one builder gives both, so they agree as records
            assert mech.target == unit_tangent_invariant(base)


def random_invariant(rng):
    """Genus code -3..3, up to four pairs with alpha <= 12 and beta drawn
    from -30..30, then raised to the next value prime to alpha, and no
    boundary half the time."""
    pairs = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(1, 12), rng.randint(-30, 30)
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return SeifertInvariant(rng.randint(-3, 3), tuple(pairs), rng.choice([0, 0, 1, 2]))


class TestQuotientDegreeLaw:
    def test_degree_law(self):
        """For k != 0 prime to every alpha and N = fiberwise_quotient(M, k),
        d is allowable for N exactly when d*k is allowable for M: N's
        congruences and Euler pin are M's with every beta and e times k.
        Half the closed M are unit tangent bundles, so that many closed
        degree sets are non-empty; |k| <= 7 and |d| <= 60."""
        rng = random.Random(21)
        kinds = collections.Counter()
        points = 0
        for i in range(4000):
            m = random_invariant(rng)
            if i % 2 and m.closed:
                m = unit_tangent_invariant(Orbifold(m.genus_code, [a for a, _ in m.pairs]))
            degrees = allowable_degrees(m)
            for k in range(-7, 8):
                if k == 0 or any(math.gcd(k, a) != 1 for a, _ in m.pairs):
                    continue
                quotient = allowable_degrees(fiberwise_quotient(m, k))
                kinds[type(quotient).__name__, m.closed] += 1
                for d in range(-60, 61):
                    assert quotient.contains(d) == degrees.contains(d * k), (m, k, d)
                points += 121
        assert points > 3_000_000
        # the law is checked on every kind of degree set, closed and bounded
        for kind in ("EmptyDegrees", "SingleDegree", "DegreeProgression"):
            assert kinds[kind, True] > 1000, kinds
        assert kinds["DegreeProgression", False] > 10000, kinds


def brute_clash(pairs):
    """Oracle: scan d over one period for each prefix of the pair list.  ``j``
    is the first pair whose prefix has no common solution, ``i`` the first
    earlier pair with no solution in common with pair ``j``; None when every
    prefix is solvable."""
    period = math.lcm(*(a for a, _ in pairs))
    solutions = [
        {d for d in range(period) if (d * b + 1) % a == 0} for a, b in pairs
    ]
    common = set(range(period))
    for j, sol in enumerate(solutions):
        common &= sol
        if not common:
            i = next(k for k in range(j) if not solutions[k] & sol)
            return CongruenceClash(i, j)
    return None


@st.composite
def clash_prone_pairs(draw):
    """Pairs in random order: alphas that share factors, unreduced betas, and
    vacuous ``(1, b)`` pairs interleaved anywhere."""
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]))
        b = draw(st.integers(-40, 40).filter(lambda b, a=a: math.gcd(a, b) == 1))
        pairs.append((a, b))
    return pairs


class TestClashIndices:
    @settings(max_examples=300)
    @given(clash_prone_pairs())
    def test_closed_matches_oracle(self, pairs):
        decision = decide_hvf(inv(0, *pairs))
        expected = brute_clash(pairs)
        if expected is None:
            assert not isinstance(decision.obstruction, CongruenceClash)
        else:
            assert decision.obstruction == expected

    @settings(max_examples=300)
    @given(clash_prone_pairs(), st.integers(1, 2))
    def test_boundary_matches_oracle(self, pairs, boundary):
        decision = decide_hvf(inv(0, *pairs, boundary=boundary))
        expected = brute_clash(pairs)
        assert decision.obstruction == expected
        assert decision.exists == (expected is None)

    @settings(max_examples=300)
    @given(clash_prone_pairs(), st.integers(1, 2))
    def test_boundary_class_is_reduced_mod_lcm(self, pairs, boundary):
        degrees = allowable_degrees(inv(0, *pairs, boundary=boundary))
        if isinstance(degrees, DegreeProgression):
            assert degrees.modulus == math.lcm(*(a for a, _ in pairs))
            assert 0 <= degrees.residue < degrees.modulus


def _merge_clash_oracle(pairs):
    """The clash as the congruence merge names it: ``_merge``'s first pair
    ``j`` that contradicts the merge of the pairs before it, then the first
    ``k < j`` whose congruence contradicts pair ``j``'s on its own; None when
    the congruences merge."""
    j = _merge(pairs)
    if not isinstance(j, int):
        return None
    a, b = pairs[j]
    return next(k for k in range(j) if (pairs[k][1] - b) % math.gcd(pairs[k][0], a)), j


@st.composite
def scan_invariants(draw):
    """0-8 pairs with alphas up to 30, ``a = 1`` drawn often, over genus
    codes -2..2 and 0..2 boundary circles."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.one_of(st.just(1), st.integers(1, 30)))
        b = draw(st.integers(-60, 60))
        while math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    return inv(draw(st.integers(-2, 2)), *pairs, boundary=draw(st.integers(0, 2)))


class TestClashScan:
    """``_verdict`` names a clash by one pairwise scan; it must name the
    ``(i, j)`` that the merge does."""

    @settings(max_examples=1000)
    @given(scan_invariants())
    def test_matches_merge(self, invariant):
        expected = _merge_clash_oracle(invariant.pairs)
        mechanisms, clash = _verdict(invariant, _fold(invariant) if invariant.closed else None)
        if mechanisms:
            assert expected is None and clash is None, invariant
        else:
            assert clash == expected, invariant
        obstruction = decide_hvf(invariant).obstruction
        if expected is not None:
            assert obstruction == CongruenceClash(*expected), invariant
        else:
            assert not isinstance(obstruction, CongruenceClash), invariant
            assert isinstance(obstruction, EulerMismatch) == (not mechanisms), invariant


class TestEntryPointsAgree:
    @settings(max_examples=300)
    @given(clash_prone_pairs(), st.integers(-2, 2), st.integers(0, 2))
    def test_allowable_degrees_is_the_covering_degrees(self, pairs, genus, boundary):
        """One solve serves both entry points: the degree set is the
        decision's covering degrees, or the empty set with no covering."""
        invariant = inv(genus, *pairs, boundary=boundary)
        covering = [m for m in decide_hvf(invariant).mechanisms if isinstance(m, Covering)]
        expected = covering[0].degrees if covering else EmptyDegrees()
        assert allowable_degrees(invariant) == expected


def _solve_oracle(inv):
    """The merge-then-pin solve that the Euler-pin-first order replaced: the
    congruences merge in input order into ``d = r (mod m)``, and only then
    does a closed fibering apply the pin.  Returns the degree set and the
    failure: None, the index ``j`` of the first clashing pair, or the
    4-tuple ``(eb, x, P, pin)`` of an Euler mismatch."""
    r, m = 0, 1
    for j, (a, b) in enumerate(inv.pairs):
        g = math.gcd(m, a)
        c = 1 + r * b
        if c % g:
            return EmptyDegrees(), j
        step = a // g
        r += m * (-(c // g) * pow(m // g * b, -1, step) % step)
        m *= step
    if not inv.closed:
        return DegreeProgression(r, m), None
    eb, x, p = _fold(inv)
    if eb:
        pin = -x // eb if x % eb == 0 else None
        if pin is not None and pin != 0 and pin % m == r:
            return SingleDegree(pin), None
        return EmptyDegrees(), (eb, x, p, pin)
    if x == 0:
        return DegreeProgression(r, m), None
    return EmptyDegrees(), (0, x, p, None)


def _obstruction_oracle(inv, failure):
    """The record the merge-then-pin decision built from a failure of
    ``_solve_oracle``; the earlier pair of a clash by the gcd scan."""
    if isinstance(failure, int):
        j = failure
        a, b = inv.pairs[j]
        i = next(k for k, (ak, bk) in enumerate(inv.pairs[:j]) if (bk - b) % math.gcd(ak, a))
        return CongruenceClash(i, j)
    eb, x, p, pin = failure
    return EulerMismatch(Fraction(-eb, p), Fraction(x, p), pin)


@st.composite
def pin_first_invariants(draw):
    """``clash_prone_pairs`` over genus codes -2..2 and 0..2 boundary
    circles; a third of them append each pair's mirror ``(a, -b)``, so
    that a closed one has e = 0."""
    pairs = draw(clash_prone_pairs())
    if draw(st.integers(0, 2)) == 0:
        pairs += [(a, -b) for a, b in pairs]
    return inv(draw(st.integers(-2, 2)), *pairs, boundary=draw(st.integers(0, 2)))


class TestEulerPinFirst:
    """The Euler pin first, the merge only for a class or to name a clash,
    against the merge-then-pin oracle: the same degree set, mechanisms and
    obstruction, with its ``(i, j)`` or its pin."""

    @staticmethod
    def _check(invariant):
        degrees, failure = _solve_oracle(invariant)
        assert allowable_degrees(invariant) == degrees, invariant
        decision = decide_hvf(invariant)
        section = all(a == 1 for a, _ in invariant.pairs) and (
            not invariant.closed or chi_underlying(base_orbifold(invariant)) == 0
        )
        kinds = [SurfaceSection] * section + [Covering] * (not degrees.is_empty())
        assert [type(m) for m in decision.mechanisms] == kinds, invariant
        assert [m.degrees for m in decision.mechanisms if isinstance(m, Covering)] == (
            [] if degrees.is_empty() else [degrees]
        )
        assert decision.exists == bool(kinds)
        expected = None if kinds else _obstruction_oracle(invariant, failure)
        assert decision.obstruction == expected, invariant

    @settings(max_examples=500)
    @given(pin_first_invariants())
    def test_matches_merge_then_pin(self, invariant):
        self._check(invariant)

    @pytest.mark.parametrize(
        "invariant",
        [
            inv(1),  # the torus: e = chi = 0
            inv(1, (1, 3), (1, -3)),
            inv(-2),  # M(-2;), the Klein bottle
            inv(-2, (1, -1), (1, 1)),
            unit_tangent_invariant(sphere(2, 2, 2, 2)),
            inv(0, (3, 1), (3, 1), (3, -2)),  # e = chi = 0 over (3, 3, 3)
            inv(0, (1, 0)),  # S^2 x S^1: e = 0, chi = 2
            inv(1, (2, 1), (2, -1)),  # e = 0, chi = -1, congruences agree
            inv(0, (3, 1), (3, -1)),  # e = 0 and a clash
        ],
        ids=repr,
    )
    def test_euler_number_zero(self, invariant):
        assert euler_number(invariant) == 0
        self._check(invariant)


class TestRecordsPerSolve:
    """A failed condition is integers until a decision with no field needs
    its record: ``allowable_degrees`` builds no obstruction and no empty
    set, and ``decide_hvf`` builds one obstruction per such decision."""

    def test_records_built_on_criterion_3_grid(self, monkeypatch):
        built = collections.Counter()
        for cls in (CongruenceClash, EulerMismatch, EmptyDegrees):
            def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        grid = list(canonical_grid(6, 3, range(-6, 7), range(-2, 3)))
        for invariant in grid:
            allowable_degrees(invariant)
        assert not built, built
        without = collections.Counter()
        for invariant in grid:
            decision = decide_hvf(invariant)
            if not decision.exists:
                without[type(decision.obstruction).__name__] += 1
        assert built == without, (built, without)
        # the grid has decisions of both kinds
        assert without["CongruenceClash"] > 1000 and without["EulerMismatch"] > 1000, without
        # the report renders its obstruction from the decision body's integers
        built.clear()
        for invariant in grid:
            invariant_report("", invariant)
        assert not built["CongruenceClash"] and not built["EulerMismatch"], built

    def test_decision_builds_two_fractions(self, monkeypatch):
        # only the public record carries e and chi as Fractions
        calls = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        decision = decide_hvf(inv(0, (2, 1), (3, 1), (5, 1)))
        assert len(calls) == 2
        assert decision.obstruction == EulerMismatch(Fraction(-31, 30), Fraction(1, 30), None)

    @pytest.mark.parametrize(
        "invariant",
        [
            inv(0, (1, -1), (5, 2), (5, 2), (5, 2)),  # a covering, with a homotopy section
            inv(1, (1, 1)),  # the section over the torus
            inv(0, (2, 1), (3, 1), (5, 1)),  # an Euler mismatch
            inv(0, (3, 2), (6, 1)),  # a congruence clash
            inv(0, (3, 1), (3, -1)),  # e = 0 and a clash
        ],
        ids=repr,
    )
    def test_closed_report_folds_once(self, monkeypatch, invariant):
        # the report's e and chi and its decision read one fold
        calls = []

        def counting(invariant):
            calls.append(invariant)
            return _fold(invariant)

        for name, module in list(sys.modules.items()):
            if name.startswith("seifert") and getattr(module, "_fold", None) is _fold:
                monkeypatch.setattr(module, "_fold", counting)
        invariant_report(print_invariant(invariant), invariant)
        assert len(calls) == 1


@st.composite
def mixed_invariants(draw):
    """Genus codes -4..4 and 0..3 boundary circles, with pairs that mix
    integer pairs ``(1, b)`` and cone points."""
    integer_pair = st.tuples(st.just(1), st.integers(-5, 5))
    cone_point = st.integers(2, 6).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(-7, 7).filter(lambda b: math.gcd(a, b) == 1))
    )
    pairs = draw(st.lists(st.one_of(integer_pair, cone_point), max_size=3))
    return inv(draw(st.integers(-4, 4)), *pairs, boundary=draw(st.integers(0, 3)))


class TestHasHvf:
    """``has_hvf`` answers the decision's yes or no by the same section test
    and solve, as ``TestEntryPointsAgree`` binds ``allowable_degrees``."""

    @settings(max_examples=300)
    @given(pin_first_invariants())
    def test_matches_decision_on_clashes_and_mirrors(self, invariant):
        assert has_hvf(invariant) == decide_hvf(invariant).exists, invariant

    @settings(max_examples=300)
    @given(mixed_invariants())
    def test_matches_decision_on_sections(self, invariant):
        assert has_hvf(invariant) == decide_hvf(invariant).exists, invariant


class TestOneSurfaceRule:
    """The section and tangency tests read one chi of the bare base; the
    oracle is the explicit list of surfaces that carry a nowhere-zero field:
    the annulus and the Mobius band with boundary, the torus and the Klein
    bottle without."""

    @given(mixed_invariants())
    def test_tangency_and_section(self, invariant):
        bare = all(a == 1 for a, _ in invariant.pairs)
        g, n = invariant.genus_code, invariant.boundary_count
        if invariant.closed:
            with pytest.raises(ValueError):
                boundary_tangency(invariant)
        else:
            assert boundary_tangency(invariant) == (bare and (g, n) in ((0, 2), (-1, 1)))
        decision = decide_hvf(invariant)
        section = bare and (not invariant.closed or g in (1, -2))
        assert (SurfaceSection() in decision.mechanisms) == section


class TestBoundaryTangency:
    def test_annulus(self):
        assert boundary_tangency(inv(0, boundary=2))

    def test_mobius_band(self):
        assert boundary_tangency(inv(-1, boundary=1))

    def test_cone_point_blocks(self):
        assert not boundary_tangency(inv(0, (2, 1), boundary=1))

    def test_disk_is_not_enough(self):
        assert not boundary_tangency(inv(0, boundary=1))


class TestParabolicSelfCovers:
    """Degree sets of the seven parabolic unit tangent bundles, with the
    constructive cross-check that each allowed degree really produces a
    fiberwise self-cover (or a cover of the reversed orientation)."""

    EXPECTED = {
        (1, ()): DegreeProgression(0, 1),  # torus: every d != 0
        (-2, ()): DegreeProgression(0, 1),  # Klein bottle
        (0, (2, 3, 6)): DegreeProgression(1, 6),
        (0, (2, 4, 4)): DegreeProgression(1, 4),
        (0, (3, 3, 3)): DegreeProgression(1, 3),
        (0, (2, 2, 2, 2)): DegreeProgression(1, 2),
        (-1, (2, 2)): DegreeProgression(1, 2),
    }

    @pytest.mark.parametrize("key", sorted(EXPECTED, key=str))
    def test_degree_sets(self, key):
        genus_code, cones = key
        ut = unit_tangent_invariant(Orbifold(genus_code, cones))
        assert allowable_degrees(ut) == self.EXPECTED[key]

    @pytest.mark.parametrize("key", sorted(EXPECTED, key=str))
    def test_covers_land_on_plus_minus_ut(self, key):
        # a degree coprime to every cone order quotients the unit tangent
        # bundle onto itself or its reverse; the allowable set picks out the
        # self-covers
        genus_code, cones = key
        ut = unit_tangent_invariant(Orbifold(genus_code, cones))
        degrees = allowable_degrees(ut)
        for d in range(-12, 13):
            if d == 0 or any(math.gcd(d, a) != 1 for a in cones):
                continue
            covered = fiberwise_quotient(ut, d)
            self_cover = equal(covered, ut)
            assert self_cover or equal(covered, reverse_orientation(ut))
            assert degrees.contains(d) == self_cover


class TestSectionDetection:
    def test_klein_bottle_base(self):
        decision = decide_hvf(inv(-2, (1, 3)))
        assert decision.exists
        assert SurfaceSection() in decision.mechanisms

    def test_torus_with_cone_has_no_section(self):
        decision = decide_hvf(inv(1, (2, 1)))
        assert SurfaceSection() not in decision.mechanisms
        assert decision.exists  # it is the unit tangent bundle of its base
        assert equal(
            decide_hvf(inv(1, (2, 1))).mechanisms[0].target,
            unit_tangent_invariant(base_orbifold(inv(1, (2, 1)))),
        )
