import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import inv, unoriented_key
from seifert import (
    CanonicalForm,
    MarkedLens,
    Theorem1Case,
    classify_lens,
    decide_hvf,
    enumerate_lens_fiberings,
    equal,
    exceptional_lens_fibering,
    fibered_lens_hvf,
    homeomorphic,
    iter_lens_census,
    lens_census,
    lens_cover,
    lens_from_invariant,
    manifold_fiberings,
    manifold_markings,
    marked_equal,
    normalize,
    oriented_diffeomorphic,
    reverse_orientation_lens,
)
from seifert.lens import MAX_ENUMERATION_BOUND
from seifert.errors import IncompatibleCover, NotALensForm, NotCoprime, ZeroDegree


def bezout_companion(a, b):
    """``(alpha', beta')`` with ``a*beta' - b*alpha' = 1`` and ``0 <= alpha' < a``,
    found by search."""
    ap = next(ap for ap in range(a) if (1 + b * ap) % a == 0)
    return ap, (1 + b * ap) // a


def _lens_pq(a1, b1, a2, b2):
    """``(p, q)`` of the fibering ``(0; (a1, b1), (a2, b2))``, with the Bezout
    companion that has ``alpha1'`` in ``(-a1, 0]``: an oracle for the
    library's ``q = (a2 - p*u)/a1``, independent of it."""
    alpha1p = -pow(b1, -1, a1)
    beta1p = (1 + b1 * alpha1p) // a1  # a1*beta1p - b1*alpha1p = 1
    return a1 * b2 + a2 * b1, alpha1p * b2 + a2 * beta1p


@st.composite
def lens_cone_pairs(draw):
    """A cone pair ``(a, b)``, ``2 <= a <= 30``, with an unreduced beta."""
    a = draw(st.integers(2, 30))
    b = draw(st.integers(-90, 90))
    while math.gcd(a, b) != 1:
        b += 1
    return a, b


def all_marked(max_p):
    out = []
    for p in range(-max_p, max_p + 1):
        qs = range(abs(p)) if p != 0 else (1,)
        out.extend(MarkedLens(p, q) for q in qs if math.gcd(p, q) == 1)
    return out


def congruent_markings(p1, q1, p2, q2):
    """Oracle for marked_equal on unreduced (p, q): equal p, and q1 - q2 or
    q1*q2 - 1 divisible by p.  At p = 0 every marking is L(0, 1)."""
    if p1 != p2:
        return False
    m = abs(p1)
    return m == 0 or (q1 - q2) % m == 0 or (q1 * q2 - 1) % m == 0


def congruent_manifolds(p1, q1, p2, q2):
    """Oracle for homeomorphic (Brody) on unreduced (p, q): equal |p|, and
    one of q1 - q2, q1 + q2, q1*q2 - 1 and q1*q2 + 1 divisible by p.  At
    p = 0 there is one manifold."""
    if abs(p1) != abs(p2):
        return False
    m = abs(p1)
    return m == 0 or any(n % m == 0 for n in (q1 - q2, q1 + q2, q1 * q2 - 1, q1 * q2 + 1))


def theorem1_case(p, q):
    """Oracle for classify_lens on unreduced q: Theorem 1's four cases
    stated in residues mod p."""
    if p in (1, 2):
        return Theorem1Case.ALL_HAVE
    if p >= 3 and q % p in (1, p - 1):
        return Theorem1Case.MIXED_INFINITE
    if p >= 8 and p % 4 == 0 and q % p in (p // 2 + 1, p // 2 - 1):
        # disjoint from the previous case: p/2 +- 1 = +-1 (mod p) only for p = 4
        assert q % p not in (1, p - 1)
        return Theorem1Case.EXACTLY_ONE
    return Theorem1Case.NONE_HAVE


class TestMarkedLensType:
    def test_q_canonicalized(self):
        assert MarkedLens(-2, -1) == MarkedLens(-2, 1)

    def test_p_zero(self):
        assert MarkedLens(0, -1) == MarkedLens(0, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            MarkedLens(6, 2)


class TestLensFromInvariant:
    def test_unit_tangent_bundle_of_sphere(self):
        lens = lens_from_invariant(inv(0, (1, -1), (1, -1)))
        assert lens == MarkedLens(-2, 1)

    def test_two_cone_points(self):
        assert lens_from_invariant(inv(0, (2, 1), (2, 5))) == MarkedLens(12, 7)

    def test_sphere_cross_circle(self):
        assert lens_from_invariant(inv(0, (2, 1), (2, -1))) == MarkedLens(0, 1)

    def test_not_a_lens_form(self):
        with pytest.raises(NotALensForm):
            lens_from_invariant(inv(0, (2, 1), (3, 1), (5, 1)))
        with pytest.raises(NotALensForm):
            lens_from_invariant(inv(1, (2, 1)))

    def test_not_a_lens_form_messages(self):
        # genus and boundary are tested before the cone pairs are counted
        cases = [
            (inv(1, (2, 1)), "need a closed genus-zero invariant"),
            (inv(-1, (2, 1), (3, 1), (5, 1)), "need a closed genus-zero invariant"),
            (inv(0, (2, 1), boundary=1), "need a closed genus-zero invariant"),
            (inv(0, (2, 1), (3, 1), (5, 1)), "more than two exceptional fibers"),
        ]
        for invariant, message in cases:
            with pytest.raises(NotALensForm) as info:
                lens_from_invariant(invariant)
            assert str(info.value) == message, invariant

    @settings(max_examples=500)
    @given(st.data())
    def test_matches_bezout_oracle(self, data):
        # the marking read off the fold is _lens_pq's on the canonical
        # pairs, padded after them with (1, 0) and the shift folded into
        # the first ratio
        pairs = [data.draw(lens_cone_pairs()) for _ in range(data.draw(st.integers(0, 2)))]
        pairs += [(1, data.draw(st.integers(-6, 6))) for _ in range(data.draw(st.integers(0, 3)))]
        invariant = inv(0, *data.draw(st.permutations(pairs)))
        cf = normalize(invariant)
        (a1, b1), (a2, b2) = list(cf.pairs) + [(1, 0)] * (2 - len(cf.pairs))
        expected = MarkedLens(*_lens_pq(a1, b1 + cf.b * a1, a2, b2))
        assert lens_from_invariant(invariant) == expected, invariant

    def test_normalization_does_not_change_marking(self):
        a = inv(0, (2, 1), (2, 5))
        b = inv(0, (2, -1), (2, 5), (1, 1))  # same fibering, different moves
        assert equal(a, b)
        assert marked_equal(lens_from_invariant(a), lens_from_invariant(b))

    def test_q_independent_of_bezout_choice(self):
        # recompute q with every valid companion |alpha'| <= 5*alpha: for a
        # fixed presentation it is constant mod p, and the library value
        # (computed from the canonical presentation, possibly with the pairs
        # relabeled) names the same marked space
        for a1, b1, a2, b2 in itertools.product(range(1, 6), range(-5, 6), range(1, 6), range(-5, 6)):
            if math.gcd(a1, b1) != 1 or math.gcd(a2, b2) != 1:
                continue
            reference = lens_from_invariant(inv(0, (a1, b1), (a2, b2)))
            p = a1 * b2 + a2 * b1
            assert reference.p == p
            qs = set()
            for a1p in range(-5 * a1, 5 * a1 + 1):
                if (1 + b1 * a1p) % a1:
                    continue
                b1p = (1 + b1 * a1p) // a1
                q = a1p * b2 + a2 * b1p
                qs.add(q % abs(p) if p != 0 else q)
            if p != 0:
                assert len(qs) == 1
                assert marked_equal(reference, MarkedLens(p, qs.pop()))
            else:
                assert qs <= {1, -1}


class TestMarkedEqual:
    def test_relabeling_is_inverse_mod_p(self):
        # 3 * 5 = 15 = 1 (mod 7): same marked space with tori relabeled
        assert marked_equal(MarkedLens(7, 3), MarkedLens(7, 5))

    def test_relabel_rule_from_fiberings(self):
        # operational ground truth for the relabeling move: computing the
        # marking of one fibering with the two solid tori labeled either way
        # gives q and q' with q * q' = +1 (mod p), so those markings must
        # compare equal
        for a1, b1, a2, b2 in itertools.product(
            range(1, 7), range(-6, 7), range(1, 7), range(-6, 7)
        ):
            if math.gcd(a1, b1) != 1 or math.gcd(a2, b2) != 1:
                continue
            p = a1 * b2 + a2 * b1
            if p == 0:
                continue
            a1p, b1p = bezout_companion(a1, b1)
            q_forward = a1p * b2 + a2 * b1p
            a2p, b2p = bezout_companion(a2, b2)
            q_swapped = a2p * b1 + a1 * b2p
            assert (q_forward * q_swapped - 1) % abs(p) == 0
            assert marked_equal(MarkedLens(p, q_forward), MarkedLens(p, q_swapped))

    def test_product_minus_one_is_not_the_relabel(self):
        # 3 * 2 = 6 = -1 (mod 7): these markings differ
        assert not marked_equal(MarkedLens(7, 3), MarkedLens(7, 2))

    def test_distinct(self):
        assert not marked_equal(MarkedLens(7, 3), MarkedLens(7, 4))

    def test_same_residue(self):
        assert marked_equal(MarkedLens(5, 4), MarkedLens(5, -1))

    def test_plus_minus_one_differ(self):
        # the classification depends on L(p, 1) and L(p, -1) being different
        for p in range(3, 13):
            assert not marked_equal(MarkedLens(p, 1), MarkedLens(p, -1))

    def test_equivalence_relation(self):
        spaces = all_marked(9)
        for a in spaces:
            assert marked_equal(a, a)
        for a, b in itertools.combinations(spaces, 2):
            assert marked_equal(a, b) == marked_equal(b, a)


class TestOrientationAndHomeomorphism:
    def test_reverse_orientation(self):
        assert reverse_orientation_lens(MarkedLens(5, 4)) == MarkedLens(-5, 4)
        assert reverse_orientation_lens(MarkedLens(0, 1)) == MarkedLens(0, 1)

    def test_core_reversal_is_oriented_diffeo(self):
        assert oriented_diffeomorphic(MarkedLens(5, 1), MarkedLens(-5, -1))
        assert not marked_equal(MarkedLens(5, 1), MarkedLens(-5, -1))

    def test_inverse_move(self):
        assert oriented_diffeomorphic(MarkedLens(7, 2), MarkedLens(7, 4))

    def test_distinct_oriented_classes(self):
        assert not oriented_diffeomorphic(MarkedLens(5, 1), MarkedLens(5, 2))

    def test_brody_inverse(self):
        assert homeomorphic(MarkedLens(7, 2), MarkedLens(7, 4))

    def test_brody_distinct(self):
        assert not homeomorphic(MarkedLens(7, 1), MarkedLens(7, 2))

    def test_brody_signs(self):
        assert homeomorphic(MarkedLens(5, 1), MarkedLens(-5, 1))

    def test_relations_are_nested(self):
        spaces = all_marked(12)
        for a, b in itertools.combinations(spaces, 2):
            if marked_equal(a, b):
                assert oriented_diffeomorphic(a, b)
            if oriented_diffeomorphic(a, b):
                assert homeomorphic(a, b)

    def test_relations_match_congruences(self):
        # every pair of marked lens spaces with |p| <= 20, each built from
        # every unreduced q in [-2|p|, 2|p|] (q = +-1 at p = 0), against the
        # explicit congruences; core reversal sends (p, q) to (-p, -q)
        spaces = [
            (p, q, MarkedLens(p, q))
            for p in range(-20, 21)
            for q in (range(-2 * abs(p), 2 * abs(p) + 1) if p else (-1, 1))
            if math.gcd(p, q) == 1
        ]
        for p1, q1, a in spaces:
            for p2, q2, b in spaces:
                case = (p1, q1, p2, q2)
                marked = congruent_markings(*case)
                oriented = marked or congruent_markings(p1, q1, -p2, -q2)
                assert marked_equal(a, b) == marked, case
                assert oriented_diffeomorphic(a, b) == oriented, case
                assert homeomorphic(a, b) == congruent_manifolds(*case), case

    def test_nesting_is_strict(self):
        assert oriented_diffeomorphic(MarkedLens(5, 1), MarkedLens(-5, -1))
        assert not marked_equal(MarkedLens(5, 1), MarkedLens(-5, -1))
        assert homeomorphic(MarkedLens(5, 1), MarkedLens(5, 4))
        assert not oriented_diffeomorphic(MarkedLens(5, 1), MarkedLens(5, 4))


class TestFiberedLensHvf:
    def test_q_minus_one(self):
        assert fibered_lens_hvf(MarkedLens(5, 4))

    def test_p_zero(self):
        assert not fibered_lens_hvf(MarkedLens(0, 1))

    def test_q_one(self):
        assert not fibered_lens_hvf(MarkedLens(5, 1))


class TestLensCover:
    def test_negative_degree(self):
        assert lens_cover(MarkedLens(-2, 1), -1) == MarkedLens(2, 1)

    def test_keeps_marking_representative(self):
        assert lens_cover(MarkedLens(5, 4), 3) == MarkedLens(15, 4)

    def test_shared_factor_raises(self):
        with pytest.raises(IncompatibleCover):
            lens_cover(MarkedLens(3, 2), 2)

    def test_zero_degree(self):
        with pytest.raises(ZeroDegree):
            lens_cover(MarkedLens(3, 2), 0)

    def test_composition(self):
        for lens in all_marked(8):
            for d1, d2 in itertools.product((-3, -2, -1, 1, 2, 3), repeat=2):
                try:
                    twice = lens_cover(lens_cover(lens, d1), d2)
                    once = lens_cover(lens, d1 * d2)
                except IncompatibleCover:
                    continue
                assert marked_equal(twice, once)

    def test_quotient_marking_is_congruent_mod_p(self):
        # the fiberwise quotient of a two-fiber invariant presents the lens
        # space L(d*p, q') with q' = q (mod p)
        for a1, b1, b2, d in itertools.product(range(1, 5), range(-4, 5), range(-4, 5), (2, 3, 5)):
            pairs = ((a1, b1), (1, b2))
            if math.gcd(a1, b1) != 1 or math.gcd(d, a1) != 1:
                continue
            source = lens_from_invariant(inv(0, *pairs))
            covered = lens_from_invariant(
                inv(0, *((a, d * b) for a, b in pairs))
            )
            assert covered.p == d * source.p
            if source.p != 0:
                assert (covered.q - source.q) % abs(source.p) == 0


class TestClassifyLens:
    def test_all_have(self):
        assert classify_lens(2, 1).case is Theorem1Case.ALL_HAVE

    def test_exactly_one(self):
        result = classify_lens(8, 5)
        assert result.case is Theorem1Case.EXACTLY_ONE
        assert equal(result.witness, inv(-1, (2, -1)))

    def test_none_have(self):
        assert classify_lens(5, 2).case is Theorem1Case.NONE_HAVE

    def test_mixed(self):
        assert classify_lens(7, 6).case is Theorem1Case.MIXED_INFINITE

    def test_p_zero(self):
        assert classify_lens(0, 1).case is Theorem1Case.NONE_HAVE

    def test_mixed_infinite_families(self):
        """Theorem 1's "infinitely many" beyond any enumeration bound: for
        p >= 3 and k >= 0, ``(0; (kp + p - 1, p))`` carries a field and
        ``(0; (kp + 1, p))`` carries none, and both lie on the manifold of
        L(p, 1).  Their alphas differ, so the fiberings are distinct; each
        has e != 0, so its Euler pin decides it."""
        from seifert.lens import _manifold_key

        checked = 0
        for p in range(3, 129):
            key = _manifold_key(p, 1)
            for k in range(100):
                for alpha, carries in ((k * p + p - 1, True), (k * p + 1, False)):
                    fibering = inv(0, (alpha, p))
                    assert decide_hvf(fibering).exists is carries, fibering
                    lens = lens_from_invariant(fibering)
                    assert lens.p == p and _manifold_key(p, lens.q) == key, fibering
                    checked += 1
        assert checked == 25_200

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            classify_lens(-5, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(NotCoprime):
            classify_lens(6, 3)

    def test_cases_partition(self):
        # exactly one verdict per (p, q), and the exactly-one range never
        # collides with q = +-1
        for p in range(0, 101):
            for q in range(p or 1):
                if math.gcd(p, q) != 1:
                    continue
                result = classify_lens(p, q)
                if result.case is Theorem1Case.EXACTLY_ONE:
                    assert p >= 8 and p % 4 == 0
                    assert q % p in (p // 2 + 1, p // 2 - 1)
                    assert q % p not in (1, p - 1)

    def test_matches_residue_statement(self):
        # every q coprime to p in [-2p, 2p], unreduced (+-1 at p = 0)
        for p in range(201):
            for q in range(-2 * p, 2 * p + 1) if p else (-1, 1):
                if math.gcd(p, q) == 1:
                    assert classify_lens(p, q).case is theorem1_case(p, q), (p, q)


class TestExceptionalFibering:
    @pytest.mark.parametrize(
        "alpha,pq",
        [(1, (4, 3)), (2, (8, 5)), (3, (12, 7))],
    )
    def test_values(self, alpha, pq):
        fibering, lens = exceptional_lens_fibering(alpha)
        assert fibering == inv(-1, (alpha, -1))
        assert lens == MarkedLens(*pq)

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_has_horizontal_field(self, alpha):
        fibering, _ = exceptional_lens_fibering(alpha)
        assert decide_hvf(fibering).exists

    @pytest.mark.parametrize("alpha", range(1, 8))
    def test_lens_dual_agrees(self, alpha):
        # the genus-0 presentation of the same manifold computes the same
        # lens space
        fibering, lens = exceptional_lens_fibering(alpha)
        dual = inv(0, (2, 1), (2, -1), (1, alpha))
        assert marked_equal(lens_from_invariant(dual), lens)


def _all_pairs_fiberings(target, bound):
    """Brute-force oracle for enumerate_lens_fiberings: every pair of
    candidate pairs, each tested with the marking comparison."""
    candidates = [
        (a, b)
        for a in range(1, bound + 1)
        for b in range(-bound, bound + 1)
        if math.gcd(a, b) == 1
    ]
    seen = {}
    for i, pair1 in enumerate(candidates):
        for pair2 in candidates[i:]:
            fibering = inv(0, pair1, pair2)
            cf = normalize(fibering)
            key = (cf.pairs, cf.b)
            if key in seen:
                continue
            if marked_equal(lens_from_invariant(fibering), target):
                seen[key] = cf
    return [cf.invariant() for _, cf in sorted(seen.items())]


@st.composite
def edge_targets(draw, max_p=150, max_bound=10):
    """A marked lens space with |p| <= max_p and a bound.  Half the draws
    put p at ``+-a1*bound + a2*b1``, so that one candidate has ``b2`` exactly
    on ``+-bound``, the edge of the enumerator's window."""
    bound = draw(st.integers(1, max_bound))
    if draw(st.booleans()):
        a1 = draw(st.integers(1, bound))
        b1 = draw(st.integers(-bound, bound))
        a2 = draw(st.integers(a1, bound))
        p = draw(st.sampled_from((1, -1))) * a1 * bound + a2 * b1
        p = max(-max_p, min(max_p, p))
    else:
        p = draw(st.integers(-max_p, max_p))
    q = draw(st.integers(0, max(abs(p) - 1, 0)))
    while math.gcd(p, q) != 1:  # for p = 0 this ends at q = 1
        q += 1
    return MarkedLens(p, q), bound


class TestEnumerateLensFiberings:
    def test_matches_all_pairs_oracle(self):
        # identical lists, order included, for every marking with |p| <= 16
        targets = [MarkedLens(p, q) for p, q in {
            m for p in range(17) for q in (range(p) if p else (1,)) if math.gcd(p, q) == 1
            for m in manifold_markings(p, q)
        }]
        assert len(targets) == 161
        for bound in range(1, 6):
            for target in targets:
                assert enumerate_lens_fiberings(target, bound) == _all_pairs_fiberings(
                    target, bound
                ), (target, bound)

    @pytest.mark.parametrize("bound", [6, 7, 8])
    def test_matches_all_pairs_oracle_at_census_bounds(self, bound):
        # the lens-census benchmark enumerates every marking with |p| <= 16
        # at bound 8
        targets = [MarkedLens(p, q) for p, q in {
            m for p in range(17) for q in (range(p) if p else (1,)) if math.gcd(p, q) == 1
            for m in manifold_markings(p, q)
        }]
        assert len(targets) == 161
        for target in targets:
            assert enumerate_lens_fiberings(target, bound) == _all_pairs_fiberings(
                target, bound
            ), (target, bound)

    @settings(max_examples=60, deadline=None)
    @given(edge_targets())
    def test_matches_all_pairs_oracle_on_random_targets(self, case):
        target, bound = case
        assert enumerate_lens_fiberings(target, bound) == _all_pairs_fiberings(target, bound)

    def test_bound_limits(self):
        with pytest.raises(ValueError):
            enumerate_lens_fiberings(MarkedLens(5, 1), 0)
        with pytest.raises(ValueError):
            enumerate_lens_fiberings(MarkedLens(5, 1), MAX_ENUMERATION_BOUND + 1)

    def test_small_sphere_quotients(self):
        found = enumerate_lens_fiberings(MarkedLens(2, 1), 3)
        assert any(equal(f, inv(0, (1, 1), (1, 1))) for f in found)
        assert any(equal(f, inv(0, (3, 2))) for f in found)
        # an invariant with two order-3 fibers has p divisible by 3
        assert not any(equal(f, inv(0, (3, 1), (3, -1))) for f in found)

    def test_sphere_cross_circle(self):
        found = enumerate_lens_fiberings(MarkedLens(0, 1), 2)
        assert any(equal(f, inv(0, (2, 1), (2, -1))) for f in found)

    def test_three_sphere(self):
        found = enumerate_lens_fiberings(MarkedLens(1, 0), 1)
        assert any(equal(f, inv(0, (1, 1), (1, 0))) for f in found)

    def test_members_map_to_target(self):
        target = MarkedLens(7, 6)
        for fibering in enumerate_lens_fiberings(target, 7):
            assert marked_equal(lens_from_invariant(fibering), target)

    def test_deduplicated(self):
        found = enumerate_lens_fiberings(MarkedLens(2, 1), 3)
        for i, a in enumerate(found):
            for b in found[i + 1 :]:
                assert not equal(a, b)


def _walk_oracle(p, bound):
    """The walk over integer lifts that ``lens._walk`` replaced: every
    coprime ``(a1, b1)``, then a window of ``a2``, each fibering reached
    about three times and the repeats dropped by key.  An oracle for the
    keys and marked classes of the walk over canonical residues."""
    from seifert.lens import _check_bound

    _check_bound(bound)
    seen = {}
    for a1 in range(1, bound + 1):
        classes = [p * pow(r, -1, a1) if math.gcd(r, a1) == 1 else None for r in range(a1)]
        for b1 in range(-bound, bound + 1):
            r = classes[b1 % a1]
            if r is None:
                continue
            if b1:
                c, s = (b1, p) if b1 > 0 else (-b1, -p)
                lo, hi = -((bound * a1 - s) // c), (s + bound * a1) // c
            else:
                lo, hi = 1, (bound if -bound <= p <= bound else 0)
            lo = lo if lo > a1 else a1
            hi = hi if hi < bound else bound
            lo += (r - lo) % a1
            if lo == a1 and p < 2 * a1 * b1:
                lo += a1
            q1, r1 = divmod(b1, a1)
            for a2 in range(lo, hi + 1, a1):
                b2 = (p - a2 * b1) // a1
                if math.gcd(a2, b2) != 1:
                    continue
                q2, r2 = divmod(b2, a2)
                if a1 == 1:
                    pairs = ((a2, r2),) if a2 > 1 else ()
                elif a1 < a2 or r1 <= r2:
                    pairs = ((a1, r1), (a2, r2))
                else:
                    pairs = ((a2, r2), (a1, r1))
                key = (pairs, q1 + q2)
                if key not in seen:
                    seen[key] = _lens_pq(a1, b1, a2, b2)[1]
    return seen


@st.composite
def window_edges(draw, max_bound=8):
    """A fibering ``(0; (a1, r1 + b*a1), (a2, r2))`` and a bound, with ``b``
    on an end of the walk's window ``[lo1 + lo2, hi1 + hi2]`` or one past
    it, where ``[lo_i, hi_i]`` are the integer parts ``q_i`` with
    ``|q_i*a_i + r_i| <= bound``."""
    bound = draw(st.integers(1, max_bound))
    a1, a2 = (draw(st.integers(1, bound)) for _ in range(2))
    r1, r2 = (
        draw(st.sampled_from([r for r in range(a) if math.gcd(r, a) == 1]))
        for a in (a1, a2)
    )
    lo = -((bound + r1) // a1) - (bound + r2) // a2
    hi = (bound - r1) // a1 + (bound - r2) // a2
    b = draw(st.sampled_from((lo, hi, lo - 1, hi + 1)))
    return inv(0, (a1, r1 + b * a1), (a2, r2)), bound


# (p, bound) of the walk comparisons: every p that can have a fibering at
# bounds up to 12 and one more on each side, and four at large bounds
_WALK_CASES = [(p, b) for b in range(1, 13) for p in range(-2 * b * b - 1, 2 * b * b + 2)]
_WALK_CASES += [(1, 200), (0, 200), (128, 64), (-77, 150)]


class TestWalk:
    def test_matches_old_walk(self):
        # the same keys, and each q in the old q's marked class; at p = 0,
        # where the marked class ignores q, both give q = 1
        from seifert.lens import _residues, _walk

        for p, bound in _WALK_CASES:
            new, old = _walk(p, bound), _walk_oracle(p, bound)
            assert new.keys() == old.keys(), (p, bound)
            for key, q in old.items():
                m, qs = _residues(p, q)
                assert new[key] % m in qs, (p, bound, key)
                if p == 0:
                    assert new[key] == q == 1, (bound, key)

    def test_residue_classes_match_filtered_walk(self):
        # the walk asked for a marking's residues keeps exactly the whole
        # walk's keys with q in them, with the same q; at p = 0, m = 2
        from seifert.lens import _residues, _walk

        cases = [(p, b) for b in range(1, 13) for p in range(-48, 49)]
        cases += [(p, b) for p, b in _WALK_CASES if b > 12]
        for p, bound in cases:
            whole, oracle = _walk(p, bound), _walk_oracle(p, bound) if bound <= 12 else None
            markings = range(abs(p)) if p else (1,)
            if bound > 12:  # a few markings at each large bound
                markings = [q for q in markings if math.gcd(p, q) == 1][:4]
            for q in markings:
                if math.gcd(p, q) != 1:
                    continue
                m, qs = _residues(p, q)
                expected = {key: k for key, k in whole.items() if k % m in qs}
                assert _walk(p, bound, m, qs) == expected, (p, bound, q)
                if oracle is not None:
                    kept = {key for key, k in oracle.items() if k % m in qs}
                    assert expected.keys() == kept, (p, bound, q)

    def test_q_is_lens_pq(self):
        # the walk's q = (a2 - p*u)/a1 is _lens_pq's q of the key, padded
        # in front with (1, 0) as the walk takes a1 <= a2
        from seifert.lens import _walk

        for p, bound in _WALK_CASES:
            for (pairs, b), q in _walk(p, bound).items():
                (a1, r1), (a2, r2) = [(1, 0)] * (2 - len(pairs)) + list(pairs)
                assert q == _lens_pq(a1, r1 + b * a1, a2, r2)[1], (p, bound, pairs, b)

    def test_rows_are_the_units_with_their_inverse_and_window(self):
        from seifert.lens import _rows

        # at the cap, one row per unit: the totients of 1..200 sum to 12,232
        assert len(_rows(MAX_ENUMERATION_BOUND)[0]) == 12232
        for bound in (*range(1, 13), 40, 64):
            rows, windows = _rows(bound)
            expected = []
            assert len(windows) == bound + 1 and windows[0] == (), bound
            for a1 in range(1, bound + 1):
                assert len(windows[a1]) == a1, (bound, a1)
                for r1 in range(a1):
                    if math.gcd(r1, a1) != 1:
                        assert windows[a1][r1] is None, (bound, a1, r1)
                        continue
                    u = next(u for u in range(a1) if (r1 * u - 1) % a1 == 0)
                    lifts = [k for k in range(-2 * bound, 2 * bound + 1) if abs(k * a1 + r1) <= bound]
                    expected.append((a1, r1, u, min(lifts), max(lifts)))
                    assert windows[a1][r1] == (min(lifts), max(lifts)), (bound, a1, r1)
            assert list(rows) == expected, bound

    def test_rows_cache_holds_one_bound(self):
        from seifert.lens import _rows, _walk

        for bound in (0, -1, MAX_ENUMERATION_BOUND + 1):
            before = _rows.cache_info()
            with pytest.raises(ValueError):
                _walk(1, bound)
            assert _rows.cache_info() == before, bound
        walks = []
        for bound in (8, 24, 8):
            walks.append({p: _walk(p, bound) for p in range(-30, 31)})
            assert _rows.cache_info().currsize <= 1
        for bound, warm in zip((8, 24, 8), walks):
            _rows.cache_clear()
            assert {p: _walk(p, bound) for p in range(-30, 31)} == warm, bound
            assert _rows.cache_info().currsize == 1

    @settings(max_examples=80, deadline=None)
    @given(window_edges())
    def test_window_edges_match_all_pairs_oracle(self, case):
        # p = a1*a2*b + a1*r2 + a2*r1, and the fibering's own marking, so the
        # edge fibering is found exactly when its shift b is inside the window
        fibering, bound = case
        target = lens_from_invariant(fibering)
        assert enumerate_lens_fiberings(target, bound) == _all_pairs_fiberings(target, bound)

    def test_bound_cap_query(self, capsys):
        # the slowest query at the cap, pinned: its count and the SHA-256 of
        # its JSON output
        import hashlib

        from seifert.cli import main

        assert len(enumerate_lens_fiberings(MarkedLens(1, 0), 200)) == 12232
        assert main(["enumerate-lens", "1", "0", "200", "--json"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 472020
        assert hashlib.sha256(out).hexdigest() == (
            "b2df8d72eed83888943741c635354b915e716d9d9074e26da782e5c8ee2d5145"
        )


class TestManifoldMarkings:
    def test_values(self):
        assert manifold_markings(0, 1) == [(0, 1)]
        assert manifold_markings(1, 0) == [(-1, 0), (1, 0)]
        assert manifold_markings(2, 1) == [(-2, 1), (2, 1)]
        assert manifold_markings(5, 2) == [(-5, 2), (-5, 3), (5, 2), (5, 3)]
        assert manifold_markings(7, 2) == [
            (-7, 2), (-7, 3), (-7, 4), (-7, 5), (7, 2), (7, 3), (7, 4), (7, 5)
        ]

    def test_markings_are_the_homeomorphism_class(self):
        for p in range(13):
            for q in range(p) if p else (1,):
                if math.gcd(p, q) != 1:
                    continue
                markings = manifold_markings(p, q)
                assert len(set(markings)) == len(markings)
                expected = {
                    (lens.p, lens.q)
                    for lens in all_marked(p)
                    if congruent_manifolds(lens.p, lens.q, p, q)
                }
                assert set(markings) == expected

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            manifold_markings(-5, 1)
        with pytest.raises(NotCoprime):
            manifold_markings(6, 3)



def _marking_union(p, q, marking_fiberings):
    """Oracle for manifold_fiberings: the fiberings of every marking of
    L(p, q), the markings with p >= 0 first, each fibering kept in the form
    found first under its key up to reversal, plus the projective-plane
    fibering found by scanning alpha; sorted by that key."""
    found = {}
    for pp, qq in sorted(manifold_markings(p, q), key=lambda m: (m[0] < 0, m)):
        for f in marking_fiberings(MarkedLens(pp, qq)):
            found.setdefault(unoriented_key(f), f)
    for alpha in range(1, p // 4 + 1):
        if 4 * alpha == p and q % p in ((2 * alpha + 1) % p, (2 * alpha - 1) % p):
            fibering = inv(-1, (alpha, -1))
            found.setdefault(unoriented_key(fibering), fibering)
    return [found[key] for key in sorted(found)]


class TestManifoldFiberings:
    def test_matches_marking_union(self):
        # identical lists: order, representatives and the projective-plane
        # fibering first, both from manifold_fiberings and from the census
        for max_p, bound in ((12, 4), (16, 6)):
            # each marking's all-pairs fiberings, shared by the q of its class
            marking_fiberings = functools.cache(lambda t, b=bound: _all_pairs_fiberings(t, b))
            census = lens_census(max_p, bound)
            for (p, q), fiberings in census.items():
                expected = _marking_union(p, q, marking_fiberings)
                assert fiberings == expected, (p, q, bound)
                assert manifold_fiberings(p, q, bound) == expected, (p, q, bound)

    @pytest.mark.parametrize("max_p, bound", [(0, 1), (1, 1), (12, 1), (20, 3)])
    def test_census_keys_are_the_coprime_pairs(self, max_p, bound):
        # every manifold is present, in order, also those with no fibering
        # in range
        keys = [(0, 1)] + [
            (p, q) for p in range(1, max_p + 1) for q in range(p) if math.gcd(p, q) == 1
        ]
        assert list(lens_census(max_p, bound)) == keys
        assert [key for key, _ in iter_lens_census(max_p, bound)] == keys

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (2, 1), (7, 2), (12, 5), (12, 1), (16, 7)])
    def test_one_walk_per_call(self, monkeypatch, p, q):
        import seifert.lens as lens

        calls = []
        walk = lens._walk

        def counting_walk(*args):
            calls.append(args[:2])  # (p, bound); a marking adds its residues
            return walk(*args)

        monkeypatch.setattr(lens, "_walk", counting_walk)
        manifold_fiberings(p, q, 5)
        assert calls == [(p, 5)]
        calls.clear()
        for pp, qq in manifold_markings(p, q):
            enumerate_lens_fiberings(MarkedLens(pp, qq), 5)
            assert calls == [(pp, 5)]
            calls.clear()
        lens_census(p, 5)
        assert calls == [(pp, 5) for pp in range(p + 1)]
        calls.clear()
        # the census streams: its first item walks p = 0 only
        next(iter_lens_census(200, 5))
        assert calls == [(0, 5)]

    def test_census_rejects_bad_input_before_any_walk(self, monkeypatch):
        import seifert.lens as lens

        calls = []
        monkeypatch.setattr(lens, "_walk", lambda *args: calls.append(args))
        for max_p, bound in ((-1, 3), (5, 0), (5, MAX_ENUMERATION_BOUND + 1)):
            with pytest.raises(ValueError):
                lens_census(max_p, bound)
            # the stream checks at the call, before its first next()
            with pytest.raises(ValueError):
                iter_lens_census(max_p, bound)
        assert calls == []

    def test_no_marked_lens_per_key(self, monkeypatch):
        # the relations run on integers: the enumerator builds no MarkedLens,
        # and the census at most the projective-plane lens once per p; each
        # fibering is one SeifertInvariant, with no CanonicalForm on the way
        targets = [MarkedLens(pp, qq) for pp, qq in manifold_markings(12, 5)]
        builds = {MarkedLens: [], CanonicalForm: []}

        def count(cls):
            init = cls.__init__

            def counting_init(self, *args):
                builds[cls].append(args)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)

        count(MarkedLens)
        count(CanonicalForm)
        for target in targets:
            assert enumerate_lens_fiberings(target, 6)
            assert builds[MarkedLens] == []
        census = lens_census(16, 6)
        assert sum(map(len, census.values())) > 300
        assert len(builds[MarkedLens]) <= 16 + 1
        assert builds[CanonicalForm] == []

    def test_projective_plane_fibering(self):
        # L(12, q) carries it for q = 6 +- 1 only
        witness = unoriented_key(inv(-1, (3, -1)))
        for q, present in ((5, True), (7, True), (1, False), (11, False)):
            keys = {unoriented_key(f) for f in manifold_fiberings(12, q, 3)}
            assert (witness in keys) == present, q
        # the manifolds of L(64, *) have genus-0 fiberings and, on L(64, 33),
        # the projective-plane one
        genera = {f.genus_code for q in range(1, 64, 2) for f in manifold_fiberings(64, q, 32)}
        assert genera == {0, -1}

    @pytest.mark.parametrize("bound", [1, 3])
    def test_projective_plane_fibering_comes_first(self, bound):
        # present exactly when 4 | p and q = p/2 +- 1 (mod p), and then first;
        # the census agrees
        census = lens_census(64, bound)
        for (p, q), census_fiberings in census.items():
            fiberings = manifold_fiberings(p, q, bound)
            assert census_fiberings == fiberings, (p, q)
            projective = [i for i, f in enumerate(fiberings) if f.genus_code == -1]
            if p % 4 == 0 and p and q % p in ((p // 2 + 1) % p, (p // 2 - 1) % p):
                assert projective == [0], (p, q)
                assert fiberings[0] == inv(-1, (p // 4, -1)), (p, q)
            else:
                assert projective == [], (p, q)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            manifold_fiberings(-4, 1, 3)
        with pytest.raises(NotCoprime):
            manifold_fiberings(6, 3, 3)
        with pytest.raises(ValueError):
            manifold_fiberings(5, 1, 0)


class TestCrossValidation:
    def test_unit_tangent_bundles_are_l_p_minus_one(self):
        # the unit tangent bundle of a sphere with at most two cone points is
        # the marked lens space L(-(a1+a2), -1), and it carries a field
        from seifert import sphere, unit_tangent_invariant

        for a1, a2 in itertools.product(range(1, 9), repeat=2):
            cones = tuple(a for a in (a1, a2) if a > 1)
            lens = lens_from_invariant(unit_tangent_invariant(sphere(*cones)))
            assert marked_equal(lens, MarkedLens(-(a1 + a2), -1))
            assert fibered_lens_hvf(lens)

    def test_exceptional_fibering_dual_is_homeomorphic(self):
        from seifert import alternate_fiberings

        for alpha in range(1, 9):
            fibering, lens = exceptional_lens_fibering(alpha)
            (dual,) = [
                a.invariant
                for a in alternate_fiberings(fibering)
                if a.kind == "lens_dual"
            ]
            assert homeomorphic(lens_from_invariant(dual), lens)

    def test_reversal_commutes_with_marking(self):
        from seifert import reverse_orientation

        for a1, b1, a2, b2 in itertools.product(
            range(1, 5), range(-4, 5), range(1, 5), range(-4, 5)
        ):
            if math.gcd(a1, b1) != 1 or math.gcd(a2, b2) != 1:
                continue
            fibering = inv(0, (a1, b1), (a2, b2))
            lens = lens_from_invariant(fibering)
            reversed_lens = lens_from_invariant(reverse_orientation(fibering))
            assert marked_equal(reversed_lens, reverse_orientation_lens(lens))


class TestConsistencyWithDecision:
    def test_existence_matches_marking_criterion(self):
        pairs = [
            (a, b)
            for a in range(1, 6)
            for b in range(-5, 6)
            if math.gcd(a, b) == 1
        ]
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i:]:
                fibering = inv(0, p1, p2)
                assert (
                    decide_hvf(fibering).exists
                    == fibered_lens_hvf(lens_from_invariant(fibering))
                )
