"""Parsing and printing of orbifold and Seifert-invariant notation, plus the
machine-readable report schema.

Orbifold grammar (whitespace-separated tokens):

    "2 3 7"     sphere with cone points of orders 2, 3 and 7
    "2 3 o o"   genus-two orientable surface with cone points 2 and 3
    "2 2 x"     projective plane with two cone points of order 2
    "b2"        annulus (sphere with two boundary circles)

``o`` adds a handle, ``x`` a cross cap, ``bN`` declares N boundary circles
(at most one ``b`` token, N >= 1), and a positive integer adds a cone point
(order 1 is allowed and dropped).  A mix of k >= 1 cross caps and h handles
is the non-orientable surface of genus k + 2h.  The bare sphere prints as
``1``.

Invariant grammar:

    M(g; (a1,b1), (a2,b2), ...)        closed, genus code g
    M(g, n; (a1,b1), ...)              n boundary circles

The leading ``M`` is optional on input, and ASCII whitespace may stand
around any token.  One compiled pattern, ``_WELL_FORMED``, is the language
accepted: a text it matches, whose literals fit the digit budget, with
every alpha >= 1 and boundary >= 0, is read from the pattern's match.  Any
other text goes to ``_scan_invariant``, the reference parser, which writes
every positioned ParseError.  Printing always emits the canonical form:
betas reduced into [0, alpha), pairs sorted, and (for closed invariants)
the accumulated integer pair ``(1, b)`` first when b != 0.

The JSON report schema is documented in the README; its field names are a
frozen contract.  The report reads its base orbifold, geometry, Euler number
and chi off the invariant's pairs, through the one integer fold
``invariant._fold``: no ``Orbifold`` and no ``Fraction`` is built for it.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import NotALensForm, ParseError
from .hvf import (
    Covering,
    CongruenceClash,
    DegreeSet,
    EmptyDegrees,
    EulerMismatch,
    HvfDecision,
    SingleDegree,
    decide_hvf,
    decide_hvf_boundary,
)
from .homotopy import ComponentCatalog, _catalog
from .invariant import CanonicalForm, SeifertInvariant, _fold, normalize
from .lens import MarkedLens, _lens, fibered_lens_hvf
from . import orbifold as orb_mod

__all__ = [
    "parse_orbifold",
    "print_orbifold",
    "parse_invariant",
    "print_invariant",
    "rational_str",
    "degree_set_json",
    "degree_set_str",
    "decision_json",
    "catalog_json",
    "lens_json",
    "invariant_report",
]


# ---------------------------------------------------------------- orbifolds

# Digits and separators are ASCII only: ``\d``, ``\s``, str.isdigit and
# str.isspace would also take other scripts' digits, superscripts and spaces
# such as U+3000.
_SPACE = " \t\n\r\f\v"
_TOKEN = re.compile(f"[^{_SPACE}]+")
_CONE_TOKEN = re.compile(r"[0-9]+\Z")
_BOUNDARY_TOKEN = re.compile(r"b([0-9]+)\Z")


def _int_digit_limit() -> int:
    """Python's limit on the digits of an integer converted from a string,
    or 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _digit_budget() -> int:
    """The digits that the integer literals of one description may have
    together: half Python's limit on integer string conversion, or 2,150
    when there is none."""
    return (_int_digit_limit() or 4300) // 2


class _Literals:
    """The integer literals of one description, read against one
    ``_digit_budget``.  Every number derived from the literals (the product
    of the alphas, e, chi, the Euler pin, moduli, lens parameters) then
    stays printable."""

    def __init__(self, what: str):
        self.limit = _int_digit_limit()
        self.left = _digit_budget()
        self.what = what

    def read(self, digits: str, pos: int) -> int:
        """``int(digits)`` for a literal that starts at ``pos``, or a
        positioned ParseError past Python's limit or past the budget.  The
        digits are counted before any is converted, since converting takes
        time quadratic in their number."""
        n = len(digits) - digits.startswith("-")
        if self.limit and n > self.limit:
            raise ParseError("integer literal too long", pos)
        self.left -= n
        if self.left < 0:
            raise ParseError(f"{self.what} too large", pos)
        return int(digits)


def parse_orbifold(text: str) -> "orb_mod.Orbifold":
    """Parse orbifold notation; ParseError carries the character offset."""
    handles = 0
    crosscaps = 0
    cones: list[int] = []
    boundary: int | None = None
    literals = _Literals("orbifold")
    matches = list(_TOKEN.finditer(text))
    if not matches:
        raise ParseError("empty orbifold description", 0)
    for m in matches:
        token, pos = m.group(), m.start()
        if token == "o":
            handles += 1
        elif token == "x":
            crosscaps += 1
        elif _CONE_TOKEN.match(token):
            order = literals.read(token, pos)
            if order == 0:
                raise ParseError("cone order must be positive", pos)
            cones.append(order)
        elif _BOUNDARY_TOKEN.fullmatch(token):
            if boundary is not None:
                raise ParseError("more than one boundary token", pos)
            boundary = literals.read(token[1:], pos)
            if boundary == 0:
                raise ParseError("boundary count must be positive (omit b0)", pos)
        else:
            raise ParseError(f"unrecognized token {token!r}", pos)
    if crosscaps:
        # h handles on a non-orientable surface amount to 2h extra cross caps
        return orb_mod.Orbifold(False, crosscaps + 2 * handles, tuple(cones), boundary or 0)
    return orb_mod.Orbifold(True, handles, tuple(cones), boundary or 0)


def _orbifold_text(g: int, cone_orders, boundary_count: int) -> str:
    """Canonical notation of the orbifold of genus code ``g``, these sorted
    cone orders and boundary circles: the cone orders, then ``g`` o tokens
    or ``-g`` x tokens, then bN."""
    parts = [str(a) for a in cone_orders]
    parts += ["o"] * g if g >= 0 else ["x"] * -g
    if boundary_count:
        parts.append(f"b{boundary_count}")
    return " ".join(parts) if parts else "1"


def print_orbifold(orb) -> str:
    """Canonical notation: sorted cone orders, then o/x tokens, then bN."""
    return _orbifold_text(orb_mod._code(orb), orb.cone_orders, orb.boundary_count)


# ---------------------------------------------------------------- invariants

_W = r"\s*"  # under re.ASCII, \s is exactly _SPACE
_INTEGER = "-?[0-9]+"
_PAIR = rf"\({_W}{_INTEGER}{_W},{_W}{_INTEGER}{_W}\)"
# No two unbounded repeats that can match the same character stand next to
# each other (hence "(?:M{_W})?", not "M?{_W}"), so a refusal backtracks in
# time linear in the text.
_WELL_FORMED = re.compile(
    rf"{_W}(?:M{_W})?\({_W}{_INTEGER}{_W}(?P<boundary>,{_W}{_INTEGER}{_W})?;"
    rf"{_W}(?:{_PAIR}(?:{_W},{_W}{_PAIR})*{_W})?\){_W}",
    re.ASCII,
)
_LITERAL = re.compile(_INTEGER)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.literals = _Literals("invariant")

    def _skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> str:
        self._skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        self._skip_space()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self._skip_space()
        m = _LITERAL.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        self.pos = m.end()
        return self.literals.read(m.group(), m.start())

    def end(self):
        self._skip_space()
        if self.pos < len(self.text):
            raise ParseError("trailing input", self.pos)


def parse_invariant(text: str) -> SeifertInvariant:
    """Parse ``M(g; (a,b), ...)`` or ``M(g, n; ...)``; the M is optional.

    Structural problems raise ParseError with a position; a pair with
    gcd(a, b) > 1 raises NotCoprime with the pair's index.  A text that
    ``_WELL_FORMED`` matches and that passes the scanner's checks on the
    values is read from the match; any other goes to the scanner.
    """
    # Every digit of a matched text is a literal's, and no text has more
    # digits than characters, so only a longer one is counted: one over the
    # budget goes to the scanner unmatched.  The budget is at most half
    # Python's limit, so each literal is within the limit too.
    budget = _digit_budget()
    if len(text) <= budget or sum(map(text.count, "0123456789")) <= budget:
        m = _WELL_FORMED.fullmatch(text)
        if m is not None:
            genus_code, *values = map(int, _LITERAL.findall(text))
            boundary = values.pop(0) if m["boundary"] else 0
            alphas = values[::2]
            if boundary >= 0 and min(alphas, default=1) >= 1:
                return SeifertInvariant(genus_code, tuple(zip(alphas, values[1::2])), boundary)
    return _scan_invariant(text)


def _scan_invariant(text: str) -> SeifertInvariant:
    """``parse_invariant`` by one scan of the text: the reference parser, and
    the only one that raises a ParseError."""
    s = _Scanner(text)
    if s.peek() == "M":
        s.pos += 1
    s.expect("(")
    genus_code = s.integer()
    boundary = 0
    if s.peek() == ",":
        s.expect(",")
        at = s.pos
        boundary = s.integer()
        if boundary < 0:
            raise ParseError("boundary count must be non-negative", at)
    s.expect(";")
    pairs = []
    while s.peek() != ")":
        if pairs:
            s.expect(",")
        s.expect("(")
        at = s.pos
        a = s.integer()
        if a < 1:
            raise ParseError("alpha must be a positive integer", at)
        s.expect(",")
        b = s.integer()
        s.expect(")")
        pairs.append((a, b))
    s.expect(")")
    s.end()
    return SeifertInvariant(genus_code, tuple(pairs), boundary)


def _invariant_text(genus_code: int, boundary_count: int, pairs) -> str:
    """Notation of the invariant with these fields, its pairs as given: the
    one printer of canonical pair lists."""
    head = f"M({genus_code}, {boundary_count};" if boundary_count else f"M({genus_code};"
    if not pairs:
        return head + ")"
    return head + " " + ", ".join(f"({a},{b})" for a, b in pairs) + ")"


def _canonical_text(cf: CanonicalForm) -> str:
    """Notation of a canonical form, the integer pair ``(1, b)`` first."""
    pairs = ((1, cf.b),) + cf.pairs if cf.b else cf.pairs
    return _invariant_text(cf.genus_code, cf.boundary_count, pairs)


def print_invariant(inv: SeifertInvariant) -> str:
    """Canonical notation for the fibering (normalizes first)."""
    return _canonical_text(normalize(inv))


# ------------------------------------------------------------------- reports


def _ratio_str(num: int, den: int) -> str:
    """The rational ``num/den``, for a positive ``den``, as
    "numerator/denominator" in lowest terms."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def rational_str(x: Fraction) -> str:
    """Exact rationals are serialized as "numerator/denominator"."""
    return _ratio_str(x.numerator, x.denominator)


def degree_set_json(ds: DegreeSet) -> dict:
    if isinstance(ds, EmptyDegrees):
        return {"kind": "empty", "include_zero": ds.include_zero}
    if isinstance(ds, SingleDegree):
        return {"kind": "single", "d": ds.d}
    return {
        "kind": "progression",
        "residue": ds.residue,
        "modulus": ds.modulus,
        "include_zero": ds.include_zero,
    }


def degree_set_str(ds: dict) -> str:
    """A degree set in words, from its ``degree_set_json`` form, as the
    human-readable CLI output prints it."""
    if ds["kind"] == "empty":
        return "d = 0 only" if ds["include_zero"] else "none"
    if ds["kind"] == "single":
        return f"d = {ds['d']}"
    text = f"d = {ds['residue']} (mod {ds['modulus']}), d != 0"
    if ds["include_zero"]:
        text += ", and d = 0"
    return text


def _obstruction_json(obs) -> dict | None:
    if obs is None:
        return None
    if isinstance(obs, CongruenceClash):
        return {"kind": "congruence_clash", "i": obs.i, "j": obs.j}
    assert isinstance(obs, EulerMismatch)
    return {
        "kind": "euler_mismatch",
        "euler": rational_str(obs.euler),
        "chi": rational_str(obs.chi),
        "pin": obs.pin,
    }


def decision_json(decision: HvfDecision) -> dict:
    """The decision's JSON form; the covering's degrees and target, rendered
    once, also stand at the top level (empty and null without a covering).
    The target is printed from its pairs as they stand: the decision builds
    it canonical."""
    mechanisms = []
    degrees, target = degree_set_json(EmptyDegrees()), None
    for mech in decision.mechanisms:
        if isinstance(mech, Covering):
            t = mech.target
            degrees = degree_set_json(mech.degrees)
            target = _invariant_text(t.genus_code, t.boundary_count, t.pairs)
            mechanisms.append({"kind": "covering", "degrees": degrees, "target": target})
        else:
            mechanisms.append({"kind": "surface_section"})
    return {
        "exists": decision.exists,
        "mechanisms": mechanisms,
        "degrees": degrees,
        "target": target,
        "obstruction": _obstruction_json(decision.obstruction),
    }


def catalog_json(catalog: ComponentCatalog) -> dict:
    return {
        "degrees": degree_set_json(catalog.degrees),
        "cohomology_rank": catalog.cohomology_rank,
        "unique_up_to_homotopy": catalog.unique_up_to_homotopy,
    }


def lens_json(lens: MarkedLens) -> dict:
    return {"p": lens.p, "q": lens.q, "fibered_hvf": fibered_lens_hvf(lens)}


def invariant_report(text: str, inv: SeifertInvariant) -> dict:
    """The full structured report for one invariant.

    Field names are frozen: input, normalized_invariant, base_orbifold,
    geometry, euler_number, chi, hvf, and the optional lens and homotopy
    sections.  Bounded invariants have null geometry and euler_number.  The
    base orbifold is read off the genus code, the boundary count and the
    canonical form's sorted alphas, and e and chi come from one fold over
    the product of the alphas.  The one canonical form serves the normalized
    invariant, the cone orders and the lens section.
    """
    cf = normalize(inv)
    cones = [a for a, _ in cf.pairs]
    eb, x, p = _fold(inv)
    if inv.closed:
        geometry = orb_mod._geometry(inv.genus_code, cones, x).value
        euler = _ratio_str(-eb, p)
        decision = decide_hvf(inv)
    else:
        geometry = None
        euler = None
        decision = decide_hvf_boundary(inv)
    report = {
        "input": text,
        "normalized_invariant": _canonical_text(cf),
        "base_orbifold": _orbifold_text(inv.genus_code, cones, inv.boundary_count),
        "geometry": geometry,
        "euler_number": euler,
        "chi": _ratio_str(x, p),
        "hvf": decision_json(decision),
    }
    if inv.closed:
        try:
            report["lens"] = lens_json(_lens(cf))
        except NotALensForm:
            pass
        if inv.genus_code >= 0 and decision.exists:
            report["homotopy"] = catalog_json(_catalog(inv, decision))
    return report
