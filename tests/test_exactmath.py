import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seifert.errors import NotInvertible
from seifert.exactmath import crt_merge, ext_gcd, mod_inverse


def brute_ext_gcd(a, b):
    """Oracle: scan for the Bezout pair with |x| minimal (ties toward x >= 0),
    then |y| minimal."""
    g = math.gcd(abs(a), abs(b))
    if g == 0:
        return (0, 0, 0)
    span = abs(a) + abs(b) + g + 1
    best = None
    for x in range(-span, span + 1):
        rem = g - a * x
        if b != 0:
            if rem % b:
                continue
            ys = [rem // b]
        elif rem == 0:
            ys = [0]
        else:
            continue
        for y in ys:
            key = (abs(x), x < 0, abs(y), y < 0)
            if best is None or key < best[0]:
                best = (key, (g, x, y))
    return best[1]


class TestExtGcd:
    def test_gcd_with_zero(self):
        assert ext_gcd(0, 5) == (5, 0, 1)

    def test_identity_case(self):
        assert ext_gcd(1, 0) == (1, 1, 0)

    def test_negative_operand(self):
        # frozen from brute_ext_gcd(3, -1)
        assert ext_gcd(3, -1) == (1, 0, -1)

    def test_both_zero(self):
        assert ext_gcd(0, 0) == (0, 0, 0)

    def test_matches_brute_force_on_small_grid(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert ext_gcd(a, b) == brute_ext_gcd(a, b), (a, b)

    @given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
    def test_bezout_identity(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert a * x + b * y == g
        assert g == math.gcd(abs(a), abs(b))
        if a or b:
            assert g > 0
            assert a % g == 0 and b % g == 0


class TestModInverse:
    def test_inverse_mod_five(self):
        # frozen from the scan of r in 0..4 with 2*r = 1 (mod 5)
        assert mod_inverse(2, 5) == 3

    def test_trivial_modulus(self):
        assert mod_inverse(7, 1) == 0

    def test_shared_factor(self):
        with pytest.raises(NotInvertible):
            mod_inverse(2, 4)

    def test_modulus_must_be_positive(self):
        for m in (0, -5):
            with pytest.raises(ValueError):
                mod_inverse(1, m)

    @given(st.integers(-300, 300), st.integers(1, 120))
    def test_inverse_property(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertible):
                mod_inverse(a, m)
        else:
            r = mod_inverse(a, m)
            assert 0 <= r < m
            assert (a * r - 1) % m == 0 or m == 1


congruences = st.tuples(st.integers(-40, 40), st.integers(1, 36))


def contains(c, d):
    return (d - c[0]) % c[1] == 0


class TestCrtMerge:
    def test_coprime_moduli(self):
        # frozen from the brute scan of d in 0..5 satisfying both classes
        assert crt_merge((1, 2), (1, 3)) == (1, 6)

    def test_same_modulus_clash(self):
        assert crt_merge((2, 3), (1, 3)) is None

    def test_trivial_modulus_absorbed(self):
        assert crt_merge((0, 1), (4, 6)) == (4, 6)

    def test_non_coprime_moduli(self):
        merged = crt_merge((2, 4), (4, 6))
        assert merged == (10, 12)

    def test_residue_canonicalized(self):
        assert crt_merge((-1, 3), (0, 1)) == (2, 3)

    def test_modulus_must_be_positive(self):
        with pytest.raises(ValueError):
            crt_merge((0, 0), (0, 1))
        with pytest.raises(ValueError):
            crt_merge((0, 1), (1, -2))

    @given(congruences, congruences)
    def test_merge_is_intersection(self, c1, c2):
        merged = crt_merge(c1, c2)
        g = math.gcd(c1[1], c2[1])
        solvable = (c1[0] - c2[0]) % g == 0
        assert (merged is not None) == solvable
        lcm = math.lcm(c1[1], c2[1])
        for d in range(-3 * lcm, 3 * lcm + 1):
            in_both = contains(c1, d) and contains(c2, d)
            in_merged = merged is not None and contains(merged, d)
            assert in_both == in_merged, d
        if merged is not None:
            assert merged[1] == lcm
            assert 0 <= merged[0] < lcm


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
