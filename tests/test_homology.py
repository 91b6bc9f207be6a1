"""First homology as an oracle for the manifold-level claims.

Fibering isomorphism is checked elsewhere through canonical forms; the lens
classification, the alternate fiberings and the lens enumeration also claim
that two invariants live on one manifold, or on ``L(p, q)``.  ``H_1``,
computed from the presentation of the fundamental group in
``conftest.first_homology``, is a homeomorphism invariant that uses none of
the library's arithmetic, so each such claim must preserve it.

``H_1`` cannot tell ``L(p, q)`` from ``L(p, q')``.  The linking form can, in
part: over a genus-0 base the fibering is a plumbing, and the self-linking of
a generator of ``H_1`` is read off its linking matrix with integer
arithmetic only.  The fiberings over the projective plane are no such
plumbing, and only ``H_1`` checks them.
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
    lens_census,
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


def negative_chain(a, b):
    """The integers ``c_1..c_k`` of the negative continued fraction ``a/b =
    c_1 - 1/(c_2 - 1/(... - 1/c_k))``, for ``b != 0``."""
    if b < 0:
        a, b = -a, -b
    chain = []
    while b:
        c = -(-a // b)  # the ceiling, so the remainder c*b - a is in [0, b)
        chain.append(c)
        a, b = b, c * b - a
    return chain


def plumbing_matrix(invariant):
    """The linking matrix of a closed genus-0 fibering as surgery on a framed
    link: a 0-framed unknot around which the fiber runs, and one meridian of
    it per pair ``(a, b)`` with surgery slope ``a/b``.  Slam-dunks expand each
    slope into a chain of unknots framed by its negative continued fraction.
    A pair ``(1, 0)`` is the empty surgery and adds nothing.  The off-diagonal
    signs of a tree do not change the diagonal of the inverse."""
    framings, edges = [0], []
    for a, b in invariant.pairs:
        if b == 0:
            continue
        previous = 0
        for c in negative_chain(a, b):
            framings.append(c)
            edges.append((previous, len(framings) - 1))
            previous = len(framings) - 1
    matrix = [[0] * len(framings) for _ in framings]
    for i, c in enumerate(framings):
        matrix[i][i] = c
    for i, j in edges:
        matrix[i][j] = matrix[j][i] = 1
    return matrix


def determinant(matrix):
    """Fraction-free (Bareiss) elimination: every division is exact."""
    m = [row[:] for row in matrix]
    n, sign, previous = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if n else 1


def linking_form(invariant):
    """``(p, k)``: ``|H_1| = p = |det A|`` for the plumbing matrix A, and
    the self-linking ``k/p`` of a meridian that generates ``H_1``.  That is a
    diagonal entry of ``A^-1``, one cofactor over ``det A`` by Cramer's rule.
    The form is non-degenerate, so a meridian generates exactly when its
    cofactor is prime to p.  ``k`` is None when ``p <= 1``."""
    matrix = plumbing_matrix(invariant)
    p = abs(determinant(matrix))
    if p <= 1:
        return p, None
    for v in range(len(matrix)):
        cofactor = determinant([r[:v] + r[v + 1 :] for i, r in enumerate(matrix) if i != v])
        if math.gcd(cofactor, p) == 1:
            return p, cofactor % p
    raise AssertionError(f"no meridian generates H_1 of {invariant}")


def form_class(p, k):
    """The linking form ``k/p`` on ``Z/p`` up to a change of generator (a unit
    square) and of orientation (a sign): ``L(p, q)`` has the class of q, and
    ``q^-1`` has the same class as q."""
    return frozenset(s * k * u * u % p for s in (1, -1) for u in range(p) if math.gcd(u, p) == 1)


class TestLinkingForm:
    """The 10,620 genus-0 fiberings of ``lens_census(96, 24)`` against their
    linking forms.  The check is up to sign, so it cannot tell q from -q."""

    def test_oracle_on_known_lens_spaces(self):
        assert negative_chain(3, 2) == [2, 2]
        assert negative_chain(1, -3) == [0, 3]
        # (0; (1, 5)) is L(5, 1): its class is the squares {1, 4}, not {2, 3}
        p, k = linking_form(inv(0, (1, 5)))
        assert (p, form_class(p, k)) == (5, {1, 4})
        assert form_class(5, 2) == {2, 3}

    @pytest.fixture(scope="class")
    def census(self):
        census = lens_census(96, 24)
        unique = {f: None for group in census.values() for f in group if f.genus_code == 0}
        return census, {f: linking_form(f) for f in unique}

    def test_lens_marking_has_the_linking_form(self, census):
        _, forms = census
        assert len(forms) == 10620
        for fibering, (p, k) in forms.items():
            lens = lens_from_invariant(fibering)
            assert p == abs(lens.p), fibering
            if p > 1:
                assert form_class(p, k) == form_class(p, lens.q), fibering

    def test_census_group_shares_one_form(self, census):
        groups, forms = census
        for (p, q), group in groups.items():
            for fibering in group:
                if fibering.genus_code == 0 and p > 1:
                    order, k = forms[fibering]
                    assert order == p and form_class(p, k) == form_class(p, q), (p, q, fibering)

    def test_wrong_marking_is_caught(self, census):
        # the power of the oracle: substitute the smallest q outside the
        # homeomorphism class of the marking, which the linking form
        # catches when that q has another form class
        _, forms = census
        tried = caught = 0
        for fibering, (p, k) in forms.items():
            q = lens_from_invariant(fibering).q
            homeo = {s * x % p for s in (1, -1) for x in (q, pow(q, -1, p))} if p > 1 else ()
            wrong = next((u for u in range(1, p) if math.gcd(u, p) == 1 and u not in homeo), None)
            if wrong is None:
                continue
            tried += 1
            caught += form_class(p, k) != form_class(p, wrong)
        assert (tried, caught) == (9989, 4072)
