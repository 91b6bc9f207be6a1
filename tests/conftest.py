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


def smith_diagonal(rows, ncols):
    """Invariant factors of the abelian group with ``ncols`` generators and
    the integer relation ``rows``: torsion orders above 1 in divisibility
    order, then one 0 per free summand Z."""
    m = [list(r) for r in rows if any(r)]
    diag = []
    while m:
        i, j = min(
            ((i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
        )
        pivot = m[i][j]
        # Euclid step: leave remainders mod the pivot in its row and column
        for k, r in enumerate(m):
            if k != i and r[j]:
                q = r[j] // pivot
                m[k] = [x - q * y for x, y in zip(r, m[i])]
        for col in range(len(m[i])):
            if col != j and m[i][col]:
                q = m[i][col] // pivot
                for r in m:
                    r[col] -= q * r[j]
        if any(r[j] for k, r in enumerate(m) if k != i) or any(
            v for col, v in enumerate(m[i]) if col != j
        ):
            continue  # a remainder is smaller than the pivot: pick again
        diag.append(abs(pivot))
        del m[i]
        m = [r[:j] + r[j + 1 :] for r in m if any(r[:j] + r[j + 1 :])]
        ncols -= 1
    # Z/a + Z/b = Z/gcd + Z/lcm puts the diagonal in divisibility order
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(d for d in diag if d > 1) + (0,) * ncols


def first_homology(inv):
    """H_1 of a Seifert fibering, as ``smith_diagonal``'s invariant factors,
    from the standard presentation of its fundamental group, abelianized.

    Generators: the fiber h, one c_i per pair, 2g handle generators (free in
    H_1) or k cross-cap generators v_j, and one d_j per boundary circle.
    Relations: a_i c_i + b_i h = 0 for each pair, sum(c_i) + sum(d_j) = 0
    (with 2 sum(v_j) added for a non-orientable base), and 2h = 0 for a
    non-orientable base.  With boundary the sum relation only solves for one
    d_j, so it is dropped along with that generator.
    """
    g, n = inv.genus_code, len(inv.pairs)
    caps = -g if g < 0 else 0
    width = caps + n + 1  # v_1..v_k, c_1..c_n, h
    rows = []
    for i, (a, b) in enumerate(inv.pairs):
        row = [0] * width
        row[caps + i], row[-1] = a, b
        rows.append(row)
    if caps:
        rows.append([0] * (width - 1) + [2])
    if inv.closed:
        rows.append([2] * caps + [1] * n + [0])
    free = 2 * g if g > 0 else 0
    free += inv.boundary_count - 1 if inv.boundary_count else 0
    return smith_diagonal(rows, width) + (0,) * free
