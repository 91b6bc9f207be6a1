import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import apply_random_moves, closed_invariants, inv
from seifert import (
    alternate_fiberings,
    annulus,
    base_orbifold,
    equal,
    euler_number,
    fiberwise_quotient,
    normalize,
    projective_plane,
    reverse_orientation,
    sphere,
    unit_tangent_invariant,
)
from seifert.errors import (
    BoundaryNotSupported,
    MixedBoundary,
    NotCoprime,
    ZeroDegree,
)


class TestType:
    def test_non_coprime_pair_rejected(self):
        with pytest.raises(NotCoprime) as exc:
            inv(0, (2, 1), (4, 2))
        assert exc.value.index == 1

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            inv(0, (0, 1))


class TestNormalize:
    def test_integer_pairs_absorbed(self):
        cf = normalize(inv(0, (1, 0), (1, -2)))
        assert cf.pairs == () and cf.b == -2

    def test_betas_reduced_with_shift(self):
        cf = normalize(inv(0, (2, -1), (3, -1), (6, 5)))
        assert cf.pairs == ((2, 1), (3, 2), (6, 5))
        assert cf.b == -2

    def test_boundary_reduction_drops_shift(self):
        cf = normalize(inv(0, (3, 4), boundary=1))
        assert cf.pairs == ((3, 1),)
        assert cf.b is None

    @given(closed_invariants())
    def test_idempotent(self, invariant):
        cf = normalize(invariant)
        assert normalize(cf.invariant()) == cf

    @given(closed_invariants())
    def test_representative_is_equal(self, invariant):
        assert equal(normalize(invariant).invariant(), invariant)


class TestEqual:
    def test_reordering(self):
        assert equal(inv(0, (2, 1), (2, -1)), inv(0, (2, -1), (2, 1)))

    def test_different_b(self):
        assert not equal(inv(0, (2, 1)), inv(0, (2, -1)))

    def test_b_aggregation(self):
        assert equal(inv(0, (1, 5)), inv(0, (1, 2), (1, 3)))

    def test_mixed_boundary_rejected(self):
        with pytest.raises(MixedBoundary):
            equal(inv(0), inv(0, boundary=1))

    @given(closed_invariants(), st.integers(0, 2**32))
    def test_invariant_under_moves(self, invariant, seed):
        moved = apply_random_moves(invariant, random.Random(seed), 6)
        assert equal(invariant, moved)

    @given(closed_invariants(), closed_invariants(), closed_invariants())
    def test_equivalence_relation(self, a, b, c):
        assert equal(a, a)
        assert equal(a, b) == equal(b, a)
        if equal(a, b) and equal(b, c):
            assert equal(a, c)


class TestEulerNumber:
    def test_zero_euler(self):
        assert euler_number(inv(0, (2, -1), (3, -1), (6, 5))) == 0

    def test_fractional(self):
        assert euler_number(inv(0, (1, -1), (5, 2), (5, 2), (5, 2))) == Fraction(-1, 5)

    def test_empty(self):
        assert euler_number(inv(1)) == 0

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            euler_number(inv(0, boundary=2))

    @given(closed_invariants(), st.integers(0, 2**32))
    def test_invariant_under_moves(self, invariant, seed):
        moved = apply_random_moves(invariant, random.Random(seed), 6)
        assert euler_number(moved) == euler_number(invariant)


class TestReverseOrientation:
    def test_formula(self):
        rev = reverse_orientation(inv(0, (2, -1), (3, -1), (6, 5)))
        assert rev == inv(0, (2, 1), (3, 1), (6, -5))

    def test_no_pairs(self):
        assert reverse_orientation(inv(1)) == inv(1)

    @given(closed_invariants())
    def test_involution(self, invariant):
        assert equal(reverse_orientation(reverse_orientation(invariant)), invariant)

    @given(closed_invariants())
    def test_euler_number_flips(self, invariant):
        assert euler_number(reverse_orientation(invariant)) == -euler_number(invariant)


class TestFiberwiseQuotient:
    def test_belt_trick(self):
        covered = fiberwise_quotient(inv(0, (1, 0), (1, -1)), 2)
        assert equal(covered, unit_tangent_invariant(sphere()))

    def test_555_double_cover(self):
        covered = fiberwise_quotient(inv(0, (1, -1), (5, 2), (5, 2), (5, 2)), 2)
        assert equal(covered, unit_tangent_invariant(sphere(5, 5, 5)))

    def test_shared_factor_rejected(self):
        with pytest.raises(NotCoprime) as exc:
            fiberwise_quotient(inv(0, (2, 1)), 2)
        assert exc.value.index == 0

    def test_zero_degree_rejected(self):
        with pytest.raises(ZeroDegree):
            fiberwise_quotient(inv(0, (2, 1)), 0)

    @given(closed_invariants(), st.integers(-6, 6), st.integers(-6, 6))
    def test_composition(self, invariant, d1, d2):
        import math

        if d1 == 0 or d2 == 0:
            return
        if any(math.gcd(d1 * d2, a) != 1 for a, _ in invariant.pairs):
            return
        twice = fiberwise_quotient(fiberwise_quotient(invariant, d1), d2)
        assert equal(twice, fiberwise_quotient(invariant, d1 * d2))

    @given(closed_invariants(), st.integers(-6, 6))
    def test_euler_number_scales(self, invariant, d):
        import math

        if d == 0 or any(math.gcd(d, a) != 1 for a, _ in invariant.pairs):
            return
        assert euler_number(fiberwise_quotient(invariant, d)) == d * euler_number(invariant)


class TestBaseOrbifold:
    def test_sphere_base(self):
        assert base_orbifold(inv(0, (2, -1), (3, -1), (6, 5))) == sphere(2, 3, 6)

    def test_projective_plane_base(self):
        assert base_orbifold(inv(-1, (2, -1))) == projective_plane(2)

    def test_annulus_base(self):
        assert base_orbifold(inv(0, boundary=2)) == annulus()


class TestAlternateFiberings:
    def test_projective_plane_fibering_has_lens_dual(self):
        alts = alternate_fiberings(inv(-1, (2, -1)))
        assert [a.kind for a in alts] == ["lens_dual"]
        # beta3/alpha3 = alpha1/beta1 = -2, so the third pair is (1, -2)
        assert equal(alts[0].invariant, inv(0, (2, 1), (2, -1), (1, -2)))

    def test_ut_2222_matches_klein_bottle_ut(self):
        alts = alternate_fiberings(inv(0, (2, 1), (2, 1), (2, -1), (2, -1)))
        assert [a.kind for a in alts] == ["klein_ut"]
        assert equal(alts[0].invariant, inv(-2))

    def test_klein_bottle_ut_matches_2222(self):
        alts = alternate_fiberings(inv(-2))
        assert [a.kind for a in alts] == ["klein_ut"]
        assert equal(alts[0].invariant, inv(0, (2, 1), (2, 1), (2, -1), (2, -1)))

    def test_generic_fibering_is_unique(self):
        assert alternate_fiberings(inv(0, (2, -1), (3, -1), (7, -1), (1, 1))) == []

    def test_lens_form_reports_family_and_dual(self):
        alts = alternate_fiberings(inv(0, (2, 1), (2, 3)))
        kinds = [a.kind for a in alts]
        assert kinds == ["lens_dual", "lens_family"]
        assert equal(alts[0].invariant, inv(-1, (2, 1)))

    def test_ut_22p_duality(self):
        # the unit tangent bundle of a 2 2 p orbifold also fibers over the
        # projective plane as (-1; (1, -p))
        for p in range(2, 8):
            alts = alternate_fiberings(inv(0, (2, 1), (2, -1), (p, -1)))
            duals = [a for a in alts if a.kind == "lens_dual"]
            assert len(duals) == 1
            assert equal(duals[0].invariant, inv(-1, (1, -p)))

    @given(st.integers(1, 9), st.integers(-9, 9))
    def test_lens_dual_round_trip(self, a1, b1):
        import math

        if b1 == 0 or math.gcd(a1, b1) != 1:
            return
        start = inv(-1, (a1, b1))
        dual = [a for a in alternate_fiberings(start) if a.kind == "lens_dual"]
        assert len(dual) == 1
        back = [
            a
            for a in alternate_fiberings(dual[0].invariant)
            if a.kind == "lens_dual"
        ]
        assert len(back) == 1
        assert equal(back[0].invariant, start)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            alternate_fiberings(inv(0, boundary=1))


@given(
    st.integers(-200, 200),
    st.integers(1, 200),
    st.integers(-200, 200),
    st.integers(1, 200),
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b


def test_rational_arithmetic_exact_at_scale():
    import random

    rng = random.Random(7)
    for _ in range(10_000):
        a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        b, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
        assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b
