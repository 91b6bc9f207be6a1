"""Shared hypothesis strategies and helpers for the test suite."""

import math

from hypothesis import strategies as st

from seifert import SeifertInvariant, normalize, reverse_orientation


def inv(genus, *pairs, boundary=0):
    """A SeifertInvariant from a genus code and its pairs."""
    return SeifertInvariant(genus, tuple(pairs), boundary)


@st.composite
def coprime_pairs(draw, max_alpha=9, max_beta=12):
    a = draw(st.integers(1, max_alpha))
    b = draw(st.integers(-max_beta, max_beta))
    while math.gcd(a, b) != 1:
        b += 1
    return (a, b)


@st.composite
def closed_invariants(draw, max_pairs=4, max_alpha=9, max_beta=12, max_genus=3):
    genus = draw(st.integers(-max_genus, max_genus))
    pairs = draw(st.lists(coprime_pairs(max_alpha, max_beta), max_size=max_pairs))
    return SeifertInvariant(genus, tuple(pairs))


@st.composite
def bounded_invariants(draw, max_pairs=4, max_alpha=9, max_beta=12, max_genus=3):
    genus = draw(st.integers(-max_genus, max_genus))
    pairs = draw(st.lists(coprime_pairs(max_alpha, max_beta), max_size=max_pairs))
    boundary = draw(st.integers(1, 3))
    return SeifertInvariant(genus, tuple(pairs), boundary)


def apply_random_moves(inv, rng, count):
    """Apply `count` random fibering-preserving moves to a closed invariant:
    shift one ratio up and another down, reorder, insert/remove (1, 0)."""
    pairs = list(inv.pairs)
    for _ in range(count):
        move = rng.randrange(3)
        if move == 0 and len(pairs) >= 2:
            i, j = rng.sample(range(len(pairs)), 2)
            k = rng.randint(-3, 3)
            a_i, b_i = pairs[i]
            a_j, b_j = pairs[j]
            pairs[i] = (a_i, b_i + k * a_i)
            pairs[j] = (a_j, b_j - k * a_j)
        elif move == 1:
            rng.shuffle(pairs)
        else:
            trivial = [idx for idx, p in enumerate(pairs) if p == (1, 0)]
            if trivial and rng.random() < 0.5:
                pairs.pop(rng.choice(trivial))
            else:
                pairs.insert(rng.randrange(len(pairs) + 1), (1, 0))
    return SeifertInvariant(inv.genus_code, tuple(pairs), inv.boundary_count)


def unoriented_key(inv):
    """One key per closed fibering up to isomorphism that may reverse
    orientation."""
    cf = normalize(inv)
    rcf = normalize(reverse_orientation(inv))
    return min(
        (cf.genus_code, cf.pairs, cf.b), (rcf.genus_code, rcf.pairs, rcf.b)
    )
