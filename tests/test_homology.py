"""First homology as an oracle for the manifold-level claims.

Fibering isomorphism is checked elsewhere through canonical forms; the lens
classification, the alternate fiberings and the lens enumeration also claim
that two invariants live on one manifold, or on ``L(p, q)``.  ``H_1``,
computed from the presentation of the fundamental group in
``conftest.first_homology``, is a homeomorphism invariant that uses none of
the library's arithmetic, so each such claim must preserve it.
"""

import itertools
import math

import pytest
from hypothesis import given

from conftest import closed_invariants, first_homology, inv, smith_diagonal
from seifert import (
    SeifertInvariant,
    alternate_fiberings,
    classify_lens,
    euler_number,
    exceptional_lens_fibering,
    lens_from_invariant,
    manifold_fiberings,
    parse_invariant,
    projective_plane,
    reverse_orientation,
    sphere,
    unit_tangent_invariant,
)


def cyclic(order):
    """``smith_diagonal``'s form of Z/order, with Z for order 0."""
    return (order,) if order != 1 else ()


def coprime_pairs(max_alpha, max_beta):
    return [
        (a, b)
        for a in range(1, max_alpha + 1)
        for b in range(-max_beta, max_beta + 1)
        if math.gcd(a, b) == 1
    ]


class TestOracle:
    @pytest.mark.parametrize(
        "rows, ncols, expected",
        [
            ([[2, 0], [0, 3]], 2, (6,)),
            ([[4, 6]], 2, (2, 0)),
            ([[0, 0]], 3, (0, 0, 0)),
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3, (2, 6, 12)),
        ],
    )
    def test_smith_diagonal(self, rows, ncols, expected):
        assert smith_diagonal(rows, ncols) == expected

    @pytest.mark.parametrize(
        "invariant, expected",
        [
            (inv(0), (0,)),  # S^2 x S^1
            (inv(1), (0, 0, 0)),  # the 3-torus
            (inv(-1), (2, 2)),  # RP^3 # RP^3
            (inv(-2), (2, 2, 0)),  # UT(Klein bottle)
            (inv(0, (1, 5)), (5,)),  # L(5, 1)
            (inv(0, boundary=2), (0, 0)),  # T^2 x I
            (inv(-1, boundary=1), (2, 0)),  # the twisted I-bundle over the Klein bottle
        ],
    )
    def test_known_manifolds(self, invariant, expected):
        assert first_homology(invariant) == expected

    @given(closed_invariants(max_pairs=4, max_alpha=7, max_beta=9, max_genus=0))
    def test_genus_zero_order_is_e_times_alphas(self, invariant):
        # classical: over a genus-0 base |H_1| = |e| * prod(a_i), and H_1 is
        # infinite when e = 0
        h1 = first_homology(invariant)
        order = abs(euler_number(invariant) * math.prod(a for a, _ in invariant.pairs))
        assert (0 in h1) == (order == 0)
        if order:
            assert math.prod(h1) == order


def test_lens_forms_are_cyclic_of_order_p():
    pairs = coprime_pairs(8, 9)
    assert len(pairs) ** 2 == 9801
    for first, second in itertools.product(pairs, repeat=2):
        form = SeifertInvariant(0, (first, second))
        assert first_homology(form) == cyclic(abs(lens_from_invariant(form).p)), form


def test_alternate_fiberings_keep_homology():
    pairs = coprime_pairs(6, 6)
    checked = 0
    for genus in (0, -1, -2):
        for count in range(4):
            for chosen in itertools.combinations_with_replacement(pairs, count):
                form = SeifertInvariant(genus, chosen)
                alternates = [a for a in alternate_fiberings(form) if a.invariant is not None]
                if alternates:
                    h1 = first_homology(form)
                for alternate in alternates:
                    assert first_homology(alternate.invariant) == h1, (form, alternate)
                    checked += 1
    assert checked > 5000


def test_manifold_fiberings_live_on_the_lens_space():
    checked = 0
    for p in range(1, 17):
        for q in range(p):
            if math.gcd(p, q) != 1:
                continue
            for fibering in manifold_fiberings(p, q, 6):
                assert first_homology(fibering) == cyclic(p), (p, q, fibering)
                checked += 1
    assert checked > 300


def test_exceptional_lens_fibering_and_witnesses():
    for alpha in range(1, 13):
        fibering, lens = exceptional_lens_fibering(alpha)
        assert first_homology(fibering) == cyclic(lens.p)
        witness = classify_lens(4 * alpha, 2 * alpha + 1).witness
        if witness is not None:
            assert first_homology(witness) == cyclic(4 * alpha)


def test_criterion_5_named_instances():
    ut235 = unit_tangent_invariant(sphere(2, 3, 5))
    ut237 = unit_tangent_invariant(sphere(2, 3, 7))
    assert first_homology(ut235) == ()  # the Poincare homology sphere
    assert first_homology(ut237) == first_homology(reverse_orientation(ut237)) == ()
    cover555 = parse_invariant("M(0; (1,-1), (5,2), (5,2), (5,2))")
    assert first_homology(cover555) == (5, 5)
    assert first_homology(unit_tangent_invariant(sphere(5, 5, 5))) == (5, 10)
    # UT(2222) and UT(Klein bottle) are one manifold
    assert first_homology(unit_tangent_invariant(sphere(2, 2, 2, 2))) == (2, 2, 0)
    assert first_homology(unit_tangent_invariant(projective_plane(2, 2))) == (4, 4)
    assert first_homology(parse_invariant("M(0, 1; (3,1), (3,2))")) == (3, 0)
