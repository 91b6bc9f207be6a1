"""Marked lens spaces and the classification of their fiberings.

A lens space is two solid tori glued along their boundaries; a marking is a
choice of orientation for the two core circles.  With oriented longitudes the
gluing matrix takes the form ``[[-q2, p], [*, q1]]`` with determinant -1, and
``L(p, q)`` denotes the marked lens space with ``q1 = q``.  The integer ``p``
is well defined and ``q`` is well defined modulo ``p``; swapping the two tori
replaces ``q`` by its inverse mod ``p`` (the determinant forces
``q1 * q2 = 1 (mod p)``), so

    L(p, q) = L(p, q')   as marked spaces  iff  q' = q or q*q' = 1 (mod p).

Reversing one core gives the same oriented manifold with a different marking,
``L(-p, -q)``; reversing the manifold's orientation gives ``L(-p, q)``.
Composing with the relabeling move yields the classical homeomorphism
criterion: ``L(p1, q1)`` and ``L(p2, q2)`` are homeomorphic iff
``|p1| = |p2|`` and ``q1 = +-q2^{+-1} (mod p)``.

A genus-zero Seifert invariant with at most two exceptional fibers is a
fibered marked lens space, with

    p = a1*b2 + a2*b1      and      q = a1'*b2 + a2*b1'

for any Bezout companion ``a1*b1' - b1*a1' = 1``; such a fibering carries a
horizontal vector field exactly when ``p != 0`` and ``q = -1 (mod p)``.

Both rules live in one integer helper, ``_residues``, and every fibering
with a given ``p`` in one walk, ``_walk(p, bound)``, keyed by its canonical
pairs and shift.  The walk runs over canonical residues, not integer
lifts, so it meets each fibering once.  Each first residue's inverse,
Bezout companion and window depend on the bound alone: ``_rows(bound)``
holds them for the last bound walked, and each key's ``q`` is one
multiply-add on its row.  ``enumerate_lens_fiberings`` keeps
the keys of one marking; ``_manifolds`` builds each manifold's fiberings,
the projective-plane one included, each once up to reversal, for
``manifold_fiberings`` and ``iter_lens_census``, the one loop over every
coprime ``(p, q)`` up to ``max_p``: it streams one ``p`` at a time, and
``lens_census`` is its dict.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from ._record import Record
from .errors import IncompatibleCover, NotALensForm, NotCoprime, ZeroDegree
from .invariant import CanonicalForm, SeifertInvariant, _with_shift, normalize

__all__ = [
    "MarkedLens",
    "Theorem1Case",
    "LensClassification",
    "lens_from_invariant",
    "marked_equal",
    "reverse_orientation_lens",
    "oriented_diffeomorphic",
    "homeomorphic",
    "fibered_lens_hvf",
    "lens_cover",
    "classify_lens",
    "exceptional_lens_fibering",
    "enumerate_lens_fiberings",
    "manifold_markings",
    "manifold_fiberings",
    "lens_census",
    "iter_lens_census",
    "MAX_ENUMERATION_BOUND",
]


class MarkedLens(Record):
    """``L(p, q)`` with the marking representative canonicalized.

    ``q`` is reduced into ``[0, |p|)`` when ``p != 0``; for ``p = 0`` (the
    product of a sphere and a circle) coprimality forces ``q = +-1`` and the
    canonical representative is 1.
    """

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p, q):
        if math.gcd(p, q) != 1:
            raise NotCoprime(message=f"p = {p} and q = {q} are not coprime")
        self._store(p, q % abs(p) if p != 0 else 1)

    def __str__(self):
        return f"L({self.p}, {self.q})"


def lens_from_invariant(inv: SeifertInvariant) -> MarkedLens:
    """The marked lens space of a genus-zero fibering with at most two
    exceptional fibers.

    The invariant is normalized first, so any representative of such a
    fibering is accepted; more than two exceptional fibers (or non-zero
    genus, or boundary) raises NotALensForm.  Any Bezout companion other
    than ``_lens_pq``'s changes ``q`` by a multiple of ``p``, which
    MarkedLens reduces away.
    """
    return _lens(normalize(inv))


def _lens(cf: CanonicalForm) -> MarkedLens:
    """``lens_from_invariant`` of the invariant with canonical form ``cf``."""
    if cf.boundary_count or cf.genus_code != 0:
        raise NotALensForm("need a closed genus-zero invariant")
    if len(cf.pairs) > 2:
        raise NotALensForm("more than two exceptional fibers")
    pairs = list(cf.pairs) + [(1, 0)] * (2 - len(cf.pairs))
    (a1, b1), (a2, b2) = pairs
    # fold the integer shift into the first ratio
    return MarkedLens(*_lens_pq(a1, b1 + cf.b * a1, a2, b2))


def _lens_pq(a1, b1, a2, b2):
    """``(p, q)`` of the fibering ``(0; (a1, b1), (a2, b2))``, with the Bezout
    companion that has ``alpha1'`` in ``(-a1, 0]``."""
    alpha1p = -pow(b1, -1, a1)
    beta1p = (1 + b1 * alpha1p) // a1  # a1*beta1p - b1*alpha1p = 1
    return a1 * b2 + a2 * b1, alpha1p * b2 + a2 * beta1p


def _residues(p: int, q: int, homeo: bool = False) -> tuple[int, set[int]]:
    """``(m, qs)``: the residues mod ``m`` of the ``q'`` with ``L(p, q')`` the
    marked space ``L(p, q)``, namely ``q`` and ``q^{-1}`` mod ``|p|``; with
    ``homeo``, Brody's class, their negatives too.  At ``p = 0`` the ``q'``
    are +-1, both the canonical 1: the residue 1 mod 2."""
    if p == 0:
        return 2, {1}
    m = abs(p)
    qs = {q % m, pow(q, -1, m)}
    return m, (qs | {-r % m for r in qs} if homeo else qs)


def _manifold_key(p: int, q: int) -> int:
    """The smallest residue of the homeomorphism class of ``L(p, q)``."""
    return min(_residues(p, q, homeo=True)[1])


def marked_equal(a: MarkedLens, b: MarkedLens) -> bool:
    """Same marked lens space: equal ``p`` and ``q`` equal or inverse mod p."""
    return a.p == b.p and b.q in _residues(a.p, a.q)[1]


def reverse_orientation_lens(a: MarkedLens) -> MarkedLens:
    """The oppositely oriented manifold with the same marking: L(-p, q)."""
    return MarkedLens(-a.p, a.q)


def oriented_diffeomorphic(a: MarkedLens, b: MarkedLens) -> bool:
    """Same oriented manifold, markings forgotten.

    Beyond the marked-space moves this allows reversing one core, which sends
    (p, q) to (-p, -q).
    """
    return marked_equal(a, b) or marked_equal(a, MarkedLens(-b.p, -b.q))


def homeomorphic(a: MarkedLens, b: MarkedLens) -> bool:
    """Brody's criterion: |p| equal and q1 = +-q2^{+-1} (mod p)."""
    return abs(a.p) == abs(b.p) and b.q in _residues(a.p, a.q, homeo=True)[1]


def fibered_lens_hvf(a: MarkedLens) -> bool:
    """Whether a fibering presenting this marked lens space carries a
    horizontal vector field: ``p != 0`` and ``q = -1 (mod p)``."""
    return a.p != 0 and (a.q + 1) % abs(a.p) == 0


def lens_cover(a: MarkedLens, d: int) -> MarkedLens:
    """The marked lens space fiberwise covered by ``a`` with degree ``d``,
    namely ``L(d*p, q)`` with the same canonical representative ``q``.

    The covering construction only fixes ``q`` modulo ``p`` while the covered
    space needs it modulo ``d*p``; this function keeps the canonical
    representative and raises IncompatibleCover when that integer shares a
    factor with ``d*p``.
    """
    if d == 0:
        raise ZeroDegree("covering degree must be non-zero")
    if math.gcd(d * a.p, a.q) != 1:
        raise IncompatibleCover(
            f"canonical marking q = {a.q} shares a factor with d*p = {d * a.p}"
        )
    return MarkedLens(d * a.p, a.q)


class Theorem1Case(Enum):
    ALL_HAVE = "all_have"
    MIXED_INFINITE = "mixed_infinite"
    EXACTLY_ONE = "exactly_one"
    NONE_HAVE = "none_have"


class LensClassification(Record):
    """The Theorem 1 case of a lens space, with the one fibering that has a
    horizontal vector field when there is exactly one."""

    __slots__ = ("case", "witness")
    case: Theorem1Case
    witness: SeifertInvariant | None
    _defaults = {"witness": None}


def classify_lens(p: int, q: int) -> LensClassification:
    """How many Seifert fiberings of the lens space L(p, q) carry a
    horizontal vector field, for ``p >= 0`` and ``q`` coprime to ``p``.

      * p = 1 or 2: every fibering does;
      * p >= 3 and q = +-1 (mod p): infinitely many do and infinitely many
        do not;
      * p >= 8 divisible by 4 and q = p/2 +- 1 (mod p): exactly one does,
        the fibering over the projective plane with one cone point of order
        p/4 (returned as the witness);
      * otherwise (including p = 0): none do.

    The middle cases are homeomorphism classes, compared by
    ``_manifold_key``: the class of L(p, 1), and the class of the lens that
    ``exceptional_lens_fibering(p // 4)`` lives on.
    """
    _check_manifold(p, q)
    if p in (1, 2):
        return LensClassification(Theorem1Case.ALL_HAVE)
    key = _manifold_key(p, q)
    if p >= 3 and key == _manifold_key(p, 1):
        return LensClassification(Theorem1Case.MIXED_INFINITE)
    if p >= 8 and p % 4 == 0:
        witness, lens = exceptional_lens_fibering(p // 4)
        if key == _manifold_key(p, lens.q):
            return LensClassification(Theorem1Case.EXACTLY_ONE, witness)
    return LensClassification(Theorem1Case.NONE_HAVE)


def exceptional_lens_fibering(alpha: int) -> tuple[SeifertInvariant, MarkedLens]:
    """The one fibering of a lens space that is not a two-torus gluing: the
    unit tangent bundle of the projective plane with a cone point of order
    ``alpha``, living on L(4*alpha, 2*alpha + 1)."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    return (
        SeifertInvariant(-1, ((alpha, -1),)),
        MarkedLens(4 * alpha, 2 * alpha + 1),
    )


# Largest bound ``_check_bound`` accepts, for the walk and the census.  The walk
# makes at most bound*(bound + 1)/2 candidates, one per (a1, r1, a2), and each is
# at most one fibering: 20,100 candidates for 6,117 fiberings at p = 0, and
# 12,232 candidates, all fiberings, for L(1, 0) at this cap.  ``_rows`` holds one
# bound's rows at a time: 12,232 rows, about 1.3 MB, at this cap.  The slowest
# query, ``seifert enumerate-lens 1 0 200 --json``, takes about 0.1 s per
# process on a 2-CPU x86-64 host with CPython 3.11.7.
MAX_ENUMERATION_BOUND = 200


def _check_manifold(p: int, q: int) -> None:
    """Raise unless ``L(p, q)`` names a manifold by its non-negative ``p``;
    ``MarkedLens`` refuses a non-coprime pair."""
    if p < 0:
        raise ValueError("p must be non-negative; apply orientation moves first")
    MarkedLens(p, q)


def manifold_markings(p: int, q: int) -> list[tuple[int, int]]:
    """Every marking ``(+-p, q')`` of the manifold ``L(p, q)``, sorted, for
    ``p >= 0`` and ``q`` coprime to ``p``: ``q'`` runs over ``+-q^{+-1}``."""
    _check_manifold(p, q)
    return sorted({(s * p, r) for s in (1, -1) for r in _residues(p, q, homeo=True)[1]})


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    if bound > MAX_ENUMERATION_BOUND:
        raise ValueError(f"bound must be at most {MAX_ENUMERATION_BOUND}")


@functools.lru_cache(maxsize=1)
def _rows(bound: int) -> tuple:
    """``_walk``'s rows at this bound, one ``(a1, r1, u, c1, lo1, hi1)`` per
    ``a1 <= bound`` and unit ``r1`` mod ``a1``: ``u = r1^{-1}`` mod ``a1``
    (``pow(0, -1, 1)`` is 0), ``c1 = (1 - r1*u)/a1`` and the window."""
    rows = []
    for a1 in range(1, bound + 1):
        for r1 in range(a1):
            if math.gcd(r1, a1) == 1:
                u = pow(r1, -1, a1)
                rows.append((a1, r1, u, (1 - r1 * u) // a1, -((bound + r1) // a1), (bound - r1) // a1))
    return tuple(rows)


def _walk(p: int, bound: int) -> dict:
    """Every two-fiber genus-zero fibering with ``p = a1*b2 + a2*b1``,
    ``a_i <= bound`` and ``|b_i| <= bound``, as ``{(pairs, b): q}``: its
    canonical pairs and shift, and the ``q`` of its marking from ``_lens_pq``.

    The canonical form writes ``b_i = q_i*a_i + r_i`` with ``0 <= r_i < a_i``
    and shift ``b = q1 + q2``, so ``p = a1*a2*b + a1*r2 + a2*r1``.  The walk
    takes ``a1 <= a2`` and a unit ``r1`` mod ``a1`` (``r1 = 0`` when
    ``a1 = 1``), a row of ``_rows(bound)``; ``a1`` divides ``p - a2*r1``
    only for ``a2`` in the class ``p*u`` mod ``a1``, and for each such
    ``a2`` the quotient ``t = (p - a2*r1)/a1 = a2*b + r2`` gives ``b`` and
    ``r2`` by one divmod, and ``r2`` must be a unit mod ``a2``.  The
    integer parts ``q_i`` with ``|q_i*a_i + r_i| <= bound`` are the interval
    ``[lo_i, hi_i] = [-floor((bound + r_i)/a_i), floor((bound - r_i)/a_i)]``,
    so some lift of the key has both betas in range exactly when ``b`` lies
    in ``[lo1 + lo2, hi1 + hi2]``.  With ``r1 <= r2`` when ``a1 = a2``,
    each fibering is one candidate.

    The key's ``q`` is ``_lens_pq(a1, r1 + b*a1, a2, r2)[1]``: there
    ``alpha1' = -u``, as ``r1 + b*a1 = r1 (mod a1)``, and ``beta1' = c1 -
    b*u``, so ``q = -u*r2 + a2*(c1 - b*u) = a2*c1 - u*t``.
    """
    _check_bound(bound)
    walk = {}
    for a1, r1, u, c1, lo1, hi1 in _rows(bound):
        for a2 in range(a1 + p * u % a1, bound + 1, a1):
            t = (p - a2 * r1) // a1
            b, r2 = divmod(t, a2)
            if math.gcd(r2, a2) != 1 or (a1 == a2 and r2 < r1):
                continue
            if lo1 - (bound + r2) // a2 <= b <= hi1 + (bound - r2) // a2:
                # normalize's key: (1, 0) dropped, pairs already sorted
                pairs = ((a1, r1), (a2, r2)) if a1 > 1 else ((a2, r2),) if a2 > 1 else ()
                walk[pairs, b] = a2 * c1 - u * t
    return walk


def enumerate_lens_fiberings(target: MarkedLens, bound: int) -> list[SeifertInvariant]:
    """All two-fiber genus-zero fiberings of the marked lens space ``target``
    with ``a_i <= bound`` and ``|b_i| <= bound``, deduplicated up to
    fibering isomorphism and returned in canonical order.

    Every such fibering has ``target.p = a1*b2 + a2*b1``, so one ``_walk`` at
    that ``p`` finds them all, keyed by their canonical pairs and shift; a
    key is kept when its ``q`` lies in the target's residues.  Bounds above
    MAX_ENUMERATION_BOUND raise ValueError before any work is done.
    """
    m, qs = _residues(target.p, target.q)
    found = sorted(key for key, q in _walk(target.p, bound).items() if q % m in qs)
    return [SeifertInvariant(0, _with_shift(pairs, b)) for pairs, b in found]


def _up_to_reversal(key):
    """The smaller of a canonical ``(pairs, b)`` and its reversal's: negating
    the betas sends each ``(a, r)`` to ``(a, a - r)`` and the shift to
    ``-b - 1`` per pair."""
    pairs, b = key
    return min(key, (tuple(sorted((a, a - r) for a, r in pairs)), -b - len(pairs)))


def _manifolds(p: int, bound: int) -> dict[int, list[SeifertInvariant]]:
    """Every fibering of ``L(p, *)`` at ``p >= 0`` filed by ``_manifold_key``,
    in the order of ``manifold_fiberings``: the projective-plane fibering
    first where the manifold has it, then the two-fiber ones, their walk
    keys sorted by ``_up_to_reversal``.  Reversal sends ``p`` to ``-p``, so the walk meets
    each fibering of ``L(p, *)`` once; at ``p = 0`` each is its own
    reversal."""
    out, walk = {}, _walk(p, bound)
    if p > 0 and p % 4 == 0:
        witness, lens = exceptional_lens_fibering(p // 4)
        out[_manifold_key(p, lens.q)] = [witness]
    # many keys share a q (2,806 keys, 282 q at p = 191, bound 96): key each q once
    keys = {q: _manifold_key(p, q) for q in set(walk.values())}
    for key in sorted(walk, key=_up_to_reversal):
        out.setdefault(keys[walk[key]], []).append(SeifertInvariant(0, _with_shift(*key)))
    return out


def manifold_fiberings(p: int, q: int, bound: int) -> list[SeifertInvariant]:
    """Every fibering of the manifold ``L(p, q)`` at the search bound, once
    up to isomorphism that may reverse orientation, for ``p >= 0`` and ``q``
    coprime to ``p``: the projective-plane fibering first when the manifold
    has it, then the two-fiber ones sorted by the smaller of each key and
    its reversal's.  One group of ``_manifolds(p, bound)``."""
    _check_manifold(p, q)
    return _manifolds(p, bound).get(_manifold_key(p, q), [])


def iter_lens_census(max_p: int, bound: int):
    """``lens_census(max_p, bound)``'s items, ``((p, q), fiberings)`` in its
    order, one ``p``'s manifolds held at a time.  A negative ``max_p`` or a
    bad bound raises ValueError at the call, before any walk."""
    if max_p < 0:
        raise ValueError("max_p must be non-negative")
    _check_bound(bound)
    return _census(max_p, bound)


def _census(max_p: int, bound: int):
    for p in range(max_p + 1):
        groups = _manifolds(p, bound)
        for q in range(p) if p else (1,):
            if math.gcd(p, q) == 1:
                yield (p, q), list(groups.get(_manifold_key(p, q), ()))
        del groups  # freed before the next p's walk


def lens_census(max_p: int, bound: int) -> dict[tuple[int, int], list[SeifertInvariant]]:
    """``{(p, q): manifold_fiberings(p, q, bound)}`` for ``(0, 1)`` and every
    coprime ``0 <= q < p <= max_p``, in that order, from one walk per ``p``.
    A negative ``max_p`` or a bad bound raises ValueError before any walk."""
    return dict(iter_lens_census(max_p, bound))
