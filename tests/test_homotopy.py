import pytest
from hypothesis import given

from conftest import closed_invariants, inv
from seifert import (
    DegreeProgression,
    EmptyDegrees,
    SingleDegree,
    allowable_degrees,
    decide_hvf,
    homotopy_components,
    print_invariant,
    sphere,
    unit_tangent_invariant,
)
from seifert.errors import BoundaryNotSupported, NoHvf, NonOrientedBase
from seifert.notation import catalog_json, invariant_report


class TestCatalogs:
    def test_ut_235_unique(self):
        catalog = homotopy_components(unit_tangent_invariant(sphere(2, 3, 5)))
        assert catalog.degrees == SingleDegree(1)
        assert catalog.cohomology_rank == 0
        assert catalog.unique_up_to_homotopy

    def test_three_torus(self):
        catalog = homotopy_components(inv(1, (1, 0)))
        assert catalog.degrees == DegreeProgression(0, 1, include_zero=True)
        assert all(catalog.degrees.contains(d) for d in range(-5, 6))
        assert catalog.cohomology_rank == 2
        assert not catalog.unique_up_to_homotopy

    def test_genus_two_circle_bundle(self):
        # e = 2 and chi = -2 pin the degree at -1; rank 4 from the genus
        catalog = homotopy_components(inv(2, (1, -2)))
        assert catalog.degrees == SingleDegree(-1)
        assert catalog.cohomology_rank == 4
        assert not catalog.unique_up_to_homotopy

    def test_nil_torus_bundle_has_only_sections(self):
        # no covering degree works (the pin would be 0) but the section
        # mechanism contributes the lone degree 0
        catalog = homotopy_components(inv(1, (1, 5)))
        assert catalog.degrees == EmptyDegrees(include_zero=True)
        assert catalog.degrees.contains(0)
        assert not catalog.degrees.is_empty()
        assert catalog.cohomology_rank == 2


class TestErrors:
    def test_non_oriented_base_rejected(self):
        with pytest.raises(NonOrientedBase):
            homotopy_components(inv(-2))

    def test_no_field_reported(self):
        with pytest.raises(NoHvf):
            homotopy_components(inv(0, (3, 1), (3, 1), (3, 1)))

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryNotSupported):
            homotopy_components(inv(0, boundary=1))


class TestAgainstDecision:
    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_no_hvf_iff_decision_negative(self, invariant):
        if invariant.genus_code < 0:
            return
        decision = decide_hvf(invariant)
        try:
            catalog = homotopy_components(invariant)
        except NoHvf:
            assert not decision.exists
        else:
            assert decision.exists
            assert catalog.cohomology_rank == 2 * invariant.genus_code
            assert catalog.unique_up_to_homotopy == (
                isinstance(catalog.degrees, SingleDegree)
                and catalog.cohomology_rank == 0
            )
            covering = allowable_degrees(invariant)
            assert all(
                catalog.degrees.contains(d) == covering.contains(d)
                for d in range(-80, 81)
                if d != 0
            )

    @given(
        closed_invariants(max_pairs=3, max_alpha=6, max_beta=6).filter(
            lambda invariant: invariant.genus_code >= 0
        )
    )
    def test_report_section_is_the_catalog(self, invariant):
        # the report reaches the catalog through the mechanisms it holds,
        # and homotopy_components through a verdict of its own
        report = invariant_report(print_invariant(invariant), invariant)
        try:
            catalog = homotopy_components(invariant)
        except NoHvf:
            assert "homotopy" not in report
        else:
            assert report["homotopy"] == catalog_json(catalog)

    @given(closed_invariants(max_pairs=3, max_alpha=6, max_beta=6))
    def test_degree_zero_only_over_the_bare_torus(self, invariant):
        # a horizontal section needs a nowhere-zero field on the base, which
        # cone points forbid; over an oriented base that leaves the torus
        if invariant.genus_code < 0:
            return
        try:
            catalog = homotopy_components(invariant)
        except NoHvf:
            return
        base_is_torus = (
            invariant.genus_code == 1
            and all(a == 1 for a, _ in invariant.pairs)
        )
        assert catalog.degrees.contains(0) == base_is_torus
