import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded_invariants, closed_invariants, inv
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
    decide_hvf_boundary,
    equal,
    euler_number,
    fiberwise_quotient,
    normalize,
    reverse_orientation,
    sphere,
    unit_tangent_invariant,
)
from seifert.errors import BoundaryNotSupported


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

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            decide_hvf(inv(0, boundary=1))

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
        decision = decide_hvf_boundary(inv(0, (3, 1), (3, 2), boundary=1))
        assert not decision.exists
        assert decision.obstruction == CongruenceClash(0, 1)

    def test_annulus_section(self):
        decision = decide_hvf_boundary(inv(0, boundary=2))
        assert decision.exists
        assert any(isinstance(m, SurfaceSection) for m in decision.mechanisms)

    def test_congruences_alone_decide(self):
        decision = decide_hvf_boundary(inv(0, (3, 1), (3, 1), boundary=1))
        assert decision.exists
        (mech,) = decision.mechanisms
        assert mech.degrees == DegreeProgression(2, 3)
        # d = 2 satisfies the raw conditions, confirmed by scanning 1..6
        assert brute_degrees(inv(0, (3, 1), (3, 1), boundary=1), range(1, 7)) == {2, 5}

    def test_closed_rejected(self):
        with pytest.raises(ValueError):
            decide_hvf_boundary(inv(0))

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_exists_iff_section_or_congruences(self, invariant):
        decision = decide_hvf_boundary(invariant)
        base = base_orbifold(invariant)
        lcm = math.lcm(*(a for a, _ in invariant.pairs), 1)
        solvable = bool(brute_degrees(invariant, range(-3 * lcm, 3 * lcm + 1)))
        assert decision.exists == (not base.cone_orders or solvable)


class TestDecisionBody:
    """Both deciders apply one rule: the section needs a bare base surface
    with a nowhere-zero field, the covering the unit tangent target."""

    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_closed_section_iff_torus_or_klein_bottle(self, invariant):
        base = base_orbifold(invariant)
        decision = decide_hvf(invariant)
        surface = (base.orientable, base.genus)
        expected = not base.cone_orders and surface in {(True, 1), (False, 2)}
        assert (SurfaceSection() in decision.mechanisms) == expected

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_bounded_section_iff_no_cone_points(self, invariant):
        decision = decide_hvf_boundary(invariant)
        expected = not base_orbifold(invariant).cone_orders
        assert (SurfaceSection() in decision.mechanisms) == expected

    @given(bounded_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_bounded_covering_witness(self, invariant):
        # bounded twin of TestDecideHvf.test_covering_witness: every small
        # covering degree exhibits the fiberwise covering onto the target
        covering = [m for m in decide_hvf_boundary(invariant).mechanisms if isinstance(m, Covering)]
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
    orientable = draw(st.booleans())
    genus = draw(st.integers(0 if orientable else 1, 3))
    cones = draw(st.lists(st.integers(2, 9), max_size=4))
    return unit_tangent_invariant(Orbifold(orientable, genus, tuple(cones)))


class TestCoveringTarget:
    """The target the decision builds in canonical form, against the unit
    tangent bundle of the base built pair by pair and normalized."""

    @settings(max_examples=300)
    @given(st.one_of(closed_invariants(), bounded_invariants(), unit_tangent_bundles()))
    def test_target_is_normalized_unit_tangent_bundle(self, invariant):
        decide = decide_hvf if invariant.closed else decide_hvf_boundary
        covering = [m for m in decide(invariant).mechanisms if isinstance(m, Covering)]
        if not covering:
            return
        (mech,) = covering
        base = base_orbifold(invariant)
        n = len(base.cone_orders)
        pairs = ((1, n - chi_underlying(base)),) + tuple((a, -1) for a in base.cone_orders)
        ut = SeifertInvariant(invariant.genus_code, pairs, invariant.boundary_count)
        assert mech.target == normalize(ut).invariant()
        if invariant.closed:
            assert equal(mech.target, unit_tangent_invariant(base))


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
        decision = decide_hvf_boundary(inv(0, *pairs, boundary=boundary))
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
            decision = decide_hvf(invariant)
        else:
            assert boundary_tangency(invariant) == (bare and (g, n) in ((0, 2), (-1, 1)))
            decision = decide_hvf_boundary(invariant)
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
        (True, 1, ()): DegreeProgression(0, 1),  # torus: every d != 0
        (False, 2, ()): DegreeProgression(0, 1),  # Klein bottle
        (True, 0, (2, 3, 6)): DegreeProgression(1, 6),
        (True, 0, (2, 4, 4)): DegreeProgression(1, 4),
        (True, 0, (3, 3, 3)): DegreeProgression(1, 3),
        (True, 0, (2, 2, 2, 2)): DegreeProgression(1, 2),
        (False, 1, (2, 2)): DegreeProgression(1, 2),
    }

    @pytest.mark.parametrize("key", sorted(EXPECTED, key=str))
    def test_degree_sets(self, key):
        orientable, genus, cones = key
        ut = unit_tangent_invariant(Orbifold(orientable, genus, cones))
        assert allowable_degrees(ut) == self.EXPECTED[key]

    @pytest.mark.parametrize("key", sorted(EXPECTED, key=str))
    def test_covers_land_on_plus_minus_ut(self, key):
        # a degree coprime to every cone order quotients the unit tangent
        # bundle onto itself or its reverse; the allowable set picks out the
        # self-covers
        orientable, genus, cones = key
        ut = unit_tangent_invariant(Orbifold(orientable, genus, cones))
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
