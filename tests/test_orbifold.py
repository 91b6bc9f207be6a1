import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seifert import (
    GeometryClass,
    Orbifold,
    SeifertInvariant,
    annulus,
    base_orbifold,
    chi,
    chi_underlying,
    elliptic_family,
    elliptic_orbifolds,
    equal,
    euler_number,
    fiberings_over,
    geometry_class,
    is_bad,
    klein_bottle,
    mobius_band,
    normalize,
    parabolic_family,
    parse_orbifold,
    print_orbifold,
    projective_plane,
    sphere,
    torus,
    unit_tangent_invariant,
)
from seifert.errors import BoundaryNotSupported


def small_orbifolds(max_genus=2, max_cones=4, max_order=12):
    """Exhaustive closed-orbifold grid used by several family properties."""
    out = []
    orders = range(2, max_order + 1)
    for count in range(max_cones + 1):
        for cones in itertools.combinations_with_replacement(orders, count):
            for genus in range(max_genus + 1):
                out.append(Orbifold(genus, cones))
            for genus in range(1, max_genus + 1):
                out.append(Orbifold(-genus, cones))
    return out


class TestOrbifoldType:
    def test_order_one_cones_dropped(self):
        assert Orbifold(0, (1, 3, 1, 2)).cone_orders == (2, 3)

    def test_cone_orders_sorted(self):
        assert sphere(7, 2, 3).cone_orders == (2, 3, 7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Orbifold(True, 1),
            lambda: Orbifold(False, 2, (2,)),
            lambda: Orbifold(orientable=True, genus=1),
        ],
        ids=["torus", "cone-on-klein-bottle", "keywords"],
    )
    def test_old_call_shapes_rejected(self, call):
        # a call that passes orientability and a genus fails instead of
        # naming another surface
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("g", range(-6, 7))
    def test_every_genus_code_names_a_surface(self, g):
        for cones, boundary in [((), 0), ((2, 3), 0), ((5,), 1), ((2, 2, 4), 3)]:
            orb = Orbifold(g, cones, boundary)
            assert orb.genus_code == g
            assert parse_orbifold(print_orbifold(orb)) == orb
            inv = SeifertInvariant(g, tuple((a, 1) for a in cones), boundary)
            assert base_orbifold(inv).genus_code == g


class TestChi:
    def test_chi_underlying_sphere(self):
        assert chi_underlying(sphere()) == 2

    def test_chi_underlying_klein_bottle(self):
        assert chi_underlying(klein_bottle()) == 0

    def test_chi_underlying_annulus(self):
        assert chi_underlying(annulus()) == 0

    def test_chi_235(self):
        assert chi(sphere(2, 3, 5)) == Fraction(1, 30)

    def test_chi_237(self):
        # 2 - 1/2 - 2/3 - 6/7
        assert chi(sphere(2, 3, 7)) == Fraction(-1, 42)

    def test_chi_2222(self):
        assert chi(sphere(2, 2, 2, 2)) == 0


class TestBadAndGeometry:
    def test_single_cone_point_is_bad(self):
        assert is_bad(sphere(3))

    def test_two_equal_cones_good(self):
        assert not is_bad(sphere(5, 5))

    def test_torus_with_cone_not_bad(self):
        assert not is_bad(Orbifold(1, (2,)))

    def test_geometry_236(self):
        assert geometry_class(sphere(2, 3, 6)) is GeometryClass.PARABOLIC

    def test_geometry_22p(self):
        assert geometry_class(sphere(2, 2, 7)) is GeometryClass.ELLIPTIC

    def test_geometry_genus_two(self):
        assert geometry_class(Orbifold(2, (2, 3))) is GeometryClass.HYPERBOLIC

    def test_bad_orbifolds_have_positive_chi(self):
        for orb in small_orbifolds():
            if is_bad(orb):
                assert chi(orb) > 0

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            geometry_class(annulus())


class TestFamilies:
    def test_235_is_23q(self):
        assert elliptic_family(sphere(2, 3, 5)) == ("23q", 5)

    def test_projective_plane_with_cone(self):
        assert elliptic_family(projective_plane(4)) == ("px", 4)

    def test_237_not_elliptic(self):
        assert elliptic_family(sphere(2, 3, 7)) is None

    def test_333(self):
        assert parabolic_family(sphere(3, 3, 3)) == "333"

    def test_klein_bottle_family(self):
        assert parabolic_family(klein_bottle()) == "K"

    def test_245_not_parabolic(self):
        assert parabolic_family(sphere(2, 4, 5)) is None

    def test_families_match_geometry_on_grid(self):
        for orb in small_orbifolds():
            geom = geometry_class(orb)
            assert (elliptic_family(orb) is not None) == (geom is GeometryClass.ELLIPTIC)
            assert (parabolic_family(orb) is not None) == (geom is GeometryClass.PARABOLIC)

    def test_each_parabolic_name_once_on_grid(self):
        # a table entry keyed to the wrong surface or cone orders still
        # answers "parabolic" on the grid above, but names the wrong orbifold
        named = [(parabolic_family(orb), orb) for orb in small_orbifolds()]
        named = [(name, orb) for name, orb in named if name is not None]
        assert len(named) == 7
        assert dict(named) == {
            "T2": torus(),
            "K": klein_bottle(),
            "236": sphere(2, 3, 6),
            "244": sphere(2, 4, 4),
            "333": sphere(3, 3, 3),
            "2222": sphere(2, 2, 2, 2),
            "22x": projective_plane(2, 2),
        }


class TestUnitTangentBundle:
    def test_sphere(self):
        ut = unit_tangent_invariant(sphere())
        assert equal(ut, SeifertInvariant(0, ((1, -1), (1, -1))))

    def test_two_equal_cones(self):
        ut = unit_tangent_invariant(sphere(5, 5))
        assert equal(ut, SeifertInvariant(0, ((5, -1), (5, -1))))

    def test_projective_plane_with_cone(self):
        ut = unit_tangent_invariant(projective_plane(2))
        assert equal(ut, SeifertInvariant(-1, ((2, -1),)))

    def test_euler_number_equals_chi_on_grid(self):
        for orb in small_orbifolds(max_genus=2, max_cones=3, max_order=9):
            assert euler_number(unit_tangent_invariant(orb)) == chi(orb)

    @given(
        st.integers(-5, 4),
        st.lists(st.integers(2, 20), max_size=5),
    )
    def test_euler_number_equals_chi(self, genus_code, cones):
        orb = Orbifold(genus_code, cones)
        assert euler_number(unit_tangent_invariant(orb)) == chi(orb)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            unit_tangent_invariant(mobius_band())

    @pytest.mark.parametrize("g", range(-4, 5))
    def test_genus_code_round_trip(self, g):
        # the base of the bare fibering of genus code g keeps that code
        # through the unit tangent bundle and the fibering enumeration
        orb = base_orbifold(SeifertInvariant(g))
        assert unit_tangent_invariant(orb).genus_code == g
        assert list(fiberings_over(orb, range(1))) == [SeifertInvariant(g)]


class TestEllipticScan:
    @pytest.mark.parametrize("max_order", range(1, 9))
    def test_elliptic_orbifolds_match_brute_force(self, max_order):
        found = elliptic_orbifolds(max_order)
        assert len(set(found)) == len(found)
        brute = {
            o
            for o in small_orbifolds(max_order=max_order)
            if geometry_class(o) is GeometryClass.ELLIPTIC
        }
        assert set(found) == brute

    def test_elliptic_orbifolds_order(self):
        assert elliptic_orbifolds(2) == [
            sphere(), projective_plane(), sphere(2, 2), sphere(2, 2, 2), projective_plane(2)
        ]
        assert elliptic_orbifolds(11)[-3:] == [sphere(2, 3, 3), sphere(2, 3, 4), sphere(2, 3, 5)]

    def test_fiberings_over(self):
        found = list(fiberings_over(projective_plane(5), range(-1, 2)))
        assert len(found) == 4 * 3
        assert found[:3] == [
            SeifertInvariant(-1, ((5, 1), (1, -1))),
            SeifertInvariant(-1, ((5, 1),)),
            SeifertInvariant(-1, ((5, 1), (1, 1))),
        ]
        over_sphere = list(fiberings_over(sphere(2, 3, 5), range(0, 1)))
        assert len(over_sphere) == 1 * 2 * 4
        assert all(base_orbifold(i) == sphere(2, 3, 5) for i in over_sphere)
        # distinct fiberings: no two are equal after normalizing
        assert len({normalize(i) for i in found + over_sphere}) == len(found) + len(over_sphere)

    def test_fiberings_over_rejects_boundary(self):
        with pytest.raises(BoundaryNotSupported):
            next(fiberings_over(annulus(), range(1)))
