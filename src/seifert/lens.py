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
Written with canonical residues, ``b_i = q_i*a_i + r_i`` with ``0 <= r_i <
a_i`` and shift ``b = q1 + q2``, ``p = a1*a2*b + a1*r2 + a2*r1``: the fold's
``eb`` of any representative.  The companion with ``a1' = -u``, ``u =
r1^{-1}`` mod ``a1`` (``pow(0, -1, 1)`` is 0), has ``b1' = c1 - b*u`` with
``c1 = (1 - r1*u)/a1``, so ``q = -u*r2 + a2*(c1 - b*u) = a2*c1 - u*(p -
a2*r1)/a1``, which ``a1*c1 + u*r1 = 1`` reduces to

    q = (a2 - p*u)/a1,

whichever pair is first; a pair ``(1, 0)`` stands in for a missing one.
Taking the other pair first gives ``q``'s inverse mod ``p``, the same
marking.  ``_lens`` reads the marking off it, with the canonical pairs in
order and ``(1, 0)`` after them.

Both rules live in one integer helper, ``_residues``, and every fibering
with a given ``p`` in one walk, ``_walk(p, bound)``, keyed by its canonical
pairs and shift.  The walk runs over canonical residues, not integer
lifts, so it meets each fibering once.  Each first residue's inverse and
every residue's window depend on the bound alone: ``_rows(bound)`` holds
them for the last bound walked.  Along a row a key's ``q``, with ``(1, 0)``
in front, rises by 1 each time ``a2`` steps by ``a1``, so the walk
asked for residues ``qs`` mod ``m`` visits only their classes of ``a2``.
``enumerate_lens_fiberings`` asks for the residues of one marking;
``_manifolds``, for every key, builds each manifold's fiberings,
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
from .invariant import SeifertInvariant, _fold, _with_shift

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

    Any representative of such a fibering is accepted: ``p`` is the fold's
    ``eb`` and the marking reads only the reduced cone pairs, so no
    canonical form is built.  More than two exceptional fibers (or non-zero
    genus, or boundary) raises NotALensForm.  Any Bezout companion other
    than ``_lens``'s changes ``q`` by a multiple of ``p``, which MarkedLens
    reduces away.
    """
    if inv.boundary_count or inv.genus_code != 0:
        raise NotALensForm("need a closed genus-zero invariant")
    cones = [(a, b % a) for a, b in inv.pairs if a > 1]
    if len(cones) > 2:
        raise NotALensForm("more than two exceptional fibers")
    cones.sort()
    return _lens(cones, _fold(inv)[0])


def _lens(cones, p: int) -> MarkedLens:
    """``L(p, q)`` of the closed genus-zero fibering with at most two sorted
    canonical cone pairs ``cones`` and ``p = a1*b2 + a2*b1``: ``q = (a2 -
    p*u)/a1`` with ``u = r1^{-1}`` mod ``a1``, the pairs in order and
    ``(1, 0)`` after them (module docstring)."""
    a1, r1 = cones[0] if cones else (1, 0)
    a2 = cones[1][0] if len(cones) == 2 else 1
    return MarkedLens(p, (a2 - p * pow(r1, -1, a1)) // a1)


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
# bound's tables at a time: at this cap 12,232 rows and a window table that
# shares its 66 distinct windows, about 1.25 MB together.  The slowest query,
# ``seifert enumerate-lens 1 0 200 --json``, walks every key (m = 1) and takes
# about 0.22 s per process, 46 ms of it the enumeration with its tables, on a
# 2-CPU x86-64 host with CPython 3.11.7.
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
    """``(rows, windows)``: ``_walk``'s tables at this bound.  ``rows`` has one
    ``(a1, r1, u, lo1, hi1)`` per ``a1 <= bound`` and unit ``r1`` mod
    ``a1``: ``u = r1^{-1}`` mod ``a1`` (``pow(0, -1, 1)`` is 0) and the
    window of ``r1``.  ``windows[a][r]`` is the window ``(lo, hi)`` of a unit
    ``r`` mod ``a <= bound`` and None for a non-unit, so one lookup is both
    the second residue's unit test and its window.  A key's ``q`` along a
    row, ``(a2 - p*u)/a1``, needs only ``u``."""
    rows, windows, shared = [], [()], {}
    for a in range(1, bound + 1):
        row = []
        for r in range(a):
            if math.gcd(r, a) == 1:
                # one shared tuple per distinct window, 66 at the cap: less memory to walk
                window = (-((bound + r) // a), (bound - r) // a)
                lo, hi = window = shared.setdefault(window, window)
                rows.append((a, r, pow(r, -1, a), lo, hi))
                row.append(window)
            else:
                row.append(None)
        windows.append(tuple(row))
    return tuple(rows), tuple(windows)


def _walk(p: int, bound: int, m: int = 1, qs: tuple | set = (0,)) -> dict:
    """Every two-fiber genus-zero fibering with ``p = a1*b2 + a2*b1``,
    ``a_i <= bound``, ``|b_i| <= bound`` and the ``q`` of its marking in one
    of the residues ``qs`` mod ``m``, as ``{(pairs, b): q}``: its canonical
    pairs and shift, and that ``q``.  The default class, 0 mod 1, is every
    fibering with this ``p``.

    In canonical residues ``p = a1*a2*b + a1*r2 + a2*r1`` (module
    docstring).  The walk takes ``a1 <= a2`` and a unit ``r1`` mod ``a1``
    (``r1 = 0`` when ``a1 = 1``), a row of ``_rows(bound)``; ``a1`` divides
    ``p - a2*r1`` only for ``a2`` in the class ``p*u`` mod ``a1``, and for
    each such ``a2`` the quotient ``t = (p - a2*r1)/a1 = a2*b + r2`` gives
    ``b`` and ``r2`` by one divmod, and ``r2`` must be a unit mod ``a2``.  The
    integer parts ``q_i`` with ``|q_i*a_i + r_i| <= bound`` are the interval
    ``[lo_i, hi_i] = [-floor((bound + r_i)/a_i), floor((bound - r_i)/a_i)]``,
    so some lift of the key has both betas in range exactly when ``b`` lies
    in ``[lo1 + lo2, hi1 + hi2]``; ``windows[a2][r2]`` is ``(lo2, hi2)``,
    or None when ``r2`` is no unit.  With ``r1 <= r2`` when ``a1 = a2``,
    each fibering is one candidate.

    The key's ``q`` is ``(a2 - p*u)/a1`` (module docstring), with ``(1,
    0)`` in front of a lone cone pair.  So ``q`` rises by 1 each time ``a2``
    steps by ``a1``, and the ``a2`` with ``q = r (mod m)`` are one class mod
    ``a1*m``, starting at ``a1 + (p*u + a1*(r - 1)) % (a1*m)``: the walk
    visits only those.
    """
    _check_bound(bound)
    rows, windows = _rows(bound)
    walk = {}
    for r in qs:  # outermost: a row pays for no loop of its own over qs
        shift = r - 1
        for a1, r1, u, lo1, hi1 in rows:
            pu, step = p * u, a1 * m
            # a while, not a range: most rows have at most one a2
            a2 = a1 + (pu + a1 * shift) % step
            while a2 <= bound:
                b, r2 = divmod((p - a2 * r1) // a1, a2)
                window = windows[a2][r2]
                if (
                    window is not None
                    and (a1 < a2 or r1 <= r2)
                    and lo1 + window[0] <= b <= hi1 + window[1]
                ):
                    # normalize's key: (1, 0) dropped, pairs already sorted
                    pairs = ((a1, r1), (a2, r2)) if a1 > 1 else ((a2, r2),) if a2 > 1 else ()
                    walk[pairs, b] = (a2 - pu) // a1
                a2 += step
    return walk


def enumerate_lens_fiberings(target: MarkedLens, bound: int) -> list[SeifertInvariant]:
    """All two-fiber genus-zero fiberings of the marked lens space ``target``
    with ``a_i <= bound`` and ``|b_i| <= bound``, deduplicated up to
    fibering isomorphism and returned in canonical order.

    Every such fibering has ``target.p = a1*b2 + a2*b1``, so one ``_walk`` at
    that ``p``, asked for the target's residues ``qs`` mod ``m``, finds them
    all, keyed by their canonical pairs and shift.  Along each of the walk's
    rows ``q = (a2 - p*u)/a1`` steps by 1 with ``a2``, so each residue is
    one class of ``a2`` mod ``a1*m`` and the walk meets no other marking's
    fibering.  Bounds above MAX_ENUMERATION_BOUND raise ValueError before any
    work is done.
    """
    found = sorted(_walk(target.p, bound, *_residues(target.p, target.q)))
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
