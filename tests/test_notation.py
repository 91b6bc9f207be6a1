import math
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bounded_invariants, closed_invariants
from test_cli import MALFORMATIONS, fuzz_invariant
from test_hvf import pin_first_invariants
from seifert import (
    Orbifold,
    SeifertInvariant,
    annulus,
    base_orbifold,
    catalog_json,
    chi,
    decision_json,
    equal,
    euler_number,
    geometry_class,
    homotopy_components,
    invariant_report,
    normalize,
    parse_invariant,
    parse_orbifold,
    print_invariant,
    print_orbifold,
    sphere,
)
from seifert import notation
from seifert.errors import NotCoprime, ParseError
from seifert.hvf import Covering, decide_hvf
from seifert.notation import rational_str


@pytest.fixture
def conversions_without_limit(monkeypatch):
    """Turn Python's limit on integer string conversion off for one test,
    and record the length of every string that notation converts to int."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no limit on integer string conversion to turn off")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    lengths = []

    def counting_int(text):
        lengths.append(len(text))
        return int(text)

    monkeypatch.setattr(notation, "int", counting_int, raising=False)
    yield lengths
    sys.set_int_max_str_digits(limit)


class TestParseOrbifold:
    def test_sphere_with_cones(self):
        assert parse_orbifold("2 3 7") == sphere(2, 3, 7)

    def test_handles(self):
        assert parse_orbifold("2 3 o o") == Orbifold(2, (2, 3))

    def test_crosscap(self):
        assert parse_orbifold("2 2 x") == Orbifold(-1, (2, 2))

    def test_boundary(self):
        assert parse_orbifold("b2") == annulus()

    def test_order_one_dropped(self):
        assert parse_orbifold("1 1") == sphere()

    def test_mixed_handles_and_crosscaps(self):
        # one cross cap and one handle combine to three cross caps
        assert parse_orbifold("x o") == Orbifold(-3)

    def test_zero_cone_order(self):
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 0 3")
        assert exc.value.position == 2

    def test_b0_rejected(self):
        with pytest.raises(ParseError):
            parse_orbifold("b0")

    def test_duplicate_boundary(self):
        with pytest.raises(ParseError):
            parse_orbifold("b1 b2")

    def test_garbage_token(self):
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 3 spam")
        assert exc.value.position == 4

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_orbifold("   ")

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic three and five
        with pytest.raises(ParseError) as exc:
            parse_orbifold("\u0663 \u0665")
        assert exc.value.position == 0

    def test_superscript_digit_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 \u00b2")
        assert exc.value.position == 2

    def test_non_ascii_space_rejected(self):
        # ideographic space and no-break space are not separators
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2\u30003 7")
        assert exc.value.position == 0
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 3\u00a0")
        assert exc.value.position == 2

    def test_integer_literal_too_long(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits == 0:
            pytest.skip("no limit on integer string conversion")
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 1" + "0" * digits)
        assert exc.value.position == 2
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 3 b1" + "0" * digits)
        assert exc.value.position == 4

    def test_orbifold_too_large(self):
        # the cone orders together may have half as many digits as one
        # integer may print with, so that chi's denominator stays printable
        budget = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) // 2
        first = "1" + "0" * (budget // 2 - 1)
        second = "1" + "0" * (budget - len(first) - 2)
        orb = parse_orbifold(f"{first} {second} b1 x")
        assert orb.cone_orders == tuple(sorted((int(first), int(second))))
        with pytest.raises(ParseError) as exc:
            parse_orbifold(f"{first} {second} b10 x")
        assert str(exc.value) == f"orbifold too large (at position {len(first) + len(second) + 2})"

    def test_over_budget_literal_not_converted(self, conversions_without_limit):
        # with no limit, converting a million digits would take seconds
        with pytest.raises(ParseError) as exc:
            parse_orbifold("2 " + "7" * 10**6)
        assert str(exc.value) == "orbifold too large (at position 2)"
        assert conversions_without_limit == [1]


class TestPrintOrbifold:
    def test_cones(self):
        assert print_orbifold(sphere(2, 3, 7)) == "2 3 7"

    def test_sphere(self):
        assert print_orbifold(sphere()) == "1"

    def test_annulus(self):
        assert print_orbifold(annulus()) == "b2"

    def test_klein_bottle(self):
        assert print_orbifold(Orbifold(-2)) == "x x"

    def test_genus_two_with_cones(self):
        assert print_orbifold(Orbifold(2, (3, 2))) == "2 3 o o"


class TestParseInvariant:
    def test_ut_236(self):
        inv = parse_invariant("M(0; (2,-1), (3,-1), (6,5))")
        assert inv == SeifertInvariant(0, ((2, -1), (3, -1), (6, 5)))

    def test_leading_m_optional(self):
        assert parse_invariant("(-1; (2,-1))") == SeifertInvariant(-1, ((2, -1),))

    def test_boundary_form(self):
        inv = parse_invariant("M(0, 1; (3,1), (3,2))")
        assert inv == SeifertInvariant(0, ((3, 1), (3, 2)), 1)

    def test_empty_pairs(self):
        assert parse_invariant("M(1;)") == SeifertInvariant(1)

    def test_non_coprime_pair(self):
        with pytest.raises(NotCoprime) as exc:
            parse_invariant("M(0; (4,2))")
        assert exc.value.index == 0

    def test_zero_alpha(self):
        # a value error points at its literal, past the whitespace before it
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0; ( 0,1))")
        assert str(exc.value) == "alpha must be a positive integer (at position 7)"

    def test_negative_boundary(self):
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0,\t-1; (2,1))")
        assert str(exc.value) == "boundary count must be non-negative (at position 5)"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_invariant("M(0; (2,1)) extra")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_invariant("M(0 (2,1))")

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic three
        with pytest.raises(ParseError) as exc:
            parse_invariant("(0; (\u0663,1))")
        assert exc.value.position == 5

    def test_non_ascii_space_rejected(self):
        # ideographic space and no-break space are not separators
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0;\u3000(2,1))")
        assert exc.value.position == 4
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0; (2,\u00a01))")
        assert exc.value.position == 8

    def test_integer_literal_too_long(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits == 0:
            pytest.skip("no limit on integer string conversion")
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0; (1,-1" + "0" * digits + "))")
        assert exc.value.position == 8

    def test_invariant_too_large(self):
        # every literal counts towards one budget of digits, signs aside
        budget = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) // 2
        first = "1" + "0" * (budget // 2 - 1)
        second = "1" + "0" * (budget - len(first) - 4)
        text = f"M(-1; ({first},-1), ({second},1))"
        assert parse_invariant(text).pairs == ((int(first), -1), (int(second), 1))
        with pytest.raises(ParseError) as exc:
            parse_invariant(text.replace(",1))", ",11))"))
        assert str(exc.value) == f"invariant too large (at position {text.index(',1))') + 1})"

    def test_genus_code_too_large(self):
        # the base orbifold prints one token per unit of the genus code, so
        # the code is bounded by the digit budget, at its literal's start
        budget = notation._digit_budget()
        for g in (budget, -budget):
            for parse in (parse_invariant, notation._scan_invariant):
                assert parse(f"M({g}, 1; (2,1))") == SeifertInvariant(g, ((2, 1),), 1)
                assert parse(f"M({g};)") == SeifertInvariant(g)
        for g in (budget + 1, -budget - 1, 10**9):
            for parse in (parse_invariant, notation._scan_invariant):
                with pytest.raises(ParseError) as exc:
                    parse(f"M( {g}, 1; (2,1))")
                assert str(exc.value) == "invariant too large (at position 3)"

    def test_over_budget_literal_not_converted(self, conversions_without_limit):
        with pytest.raises(ParseError) as exc:
            parse_invariant("M(0; (1," + "7" * 10**6 + "))")
        assert str(exc.value) == "invariant too large (at position 8)"
        assert conversions_without_limit == [1, 1]


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the invariant, or the exception's
    type, message, position and pair index."""
    try:
        return parse(text)
    except (ParseError, NotCoprime) as err:
        return type(err), str(err), getattr(err, "position", None), getattr(err, "index", None)


def _report_stream_text(rng):
    """Invariant text with a run of ASCII whitespace, or none, between any
    two tokens, alpha and boundary sometimes out of range, and malformed
    three times in ten."""

    def space():
        return rng.choice(["", "", " ", "  ", "\t", "\n ", " \r\f\v"])

    genus = rng.randint(-3, 3)
    boundary = rng.choice([0, 0, 0, 1, 2, -1])
    pairs = [(rng.randint(-1, 60), rng.randint(-240, 240)) for _ in range(rng.randint(0, 5))]
    body = f"{space()},{space()}".join(
        f"({space()}{a}{space()},{space()}{b}{space()})" for a, b in pairs
    )
    head = f"{genus}{space()},{space()}{boundary}" if boundary else f"{genus}"
    text = f"{space()}{rng.choice(['M', ''])}{space()}({space()}{head}{space()};"
    text += f"{space()}{body}{space()}){space()}"
    if rng.random() < 0.3:
        text = rng.choice(MALFORMATIONS)(text)
    return text


class TestWellFormedPattern:
    """``parse_invariant`` reads a well-formed text off one pattern's match;
    the scanner ``_scan_invariant`` is the reference for every text."""

    def corpus(self):
        rng = random.Random(20181)
        texts = [fuzz_invariant(rng) for _ in range(3000)]
        texts += [_report_stream_text(rng) for _ in range(3000)]
        # non-ASCII spaces and digits, then structure and signs
        texts += [
            "M(0;\u00a0(2,1))", "(0; (\u0663,1))", "M(0; (2,1))\u2028", "M(0; (2,\u00b2))",
            "\u3000M(0;)", "M(0\u200b;)", "M(0;\x1c)", "M(0;\x85)", "M(0; (\uff12,1))", "m(0;)",
            "M(0; (2,1)),", "M(0; (2,1),)", "M(0; (2,-1), (2,1)", "M(0, -0;)", "M(-0;)",
            "M(0; (2, - 1))", "M(0; (--2,1))", "", "M", "M(", "M(0", "M(0;", "M(0;(",
            "M(0; (2,1)) )", "(0;)(1;)", "M(0; (4,2), (0,1))",
        ]
        budget = notation._digit_budget()
        limit = notation._int_digit_limit()
        for digits in (budget - 4, budget - 3, budget - 2, budget, budget + 1, limit, limit + 1):
            seven = "7" * max(digits, 1)
            texts += [f"M(0; (1,{seven}))", f"M(0; (1,-{seven}))", f"M(-1, 1; ({seven},2))"]
        for g in (budget, budget + 1, -budget, -budget - 1):
            texts += [f"M({g};)", f"M({g}, 1; (2,1))", f" ( {g} ; (0,1))"]
        return texts

    def test_matches_scanner(self):
        budget = notation._digit_budget()

        def too_large(outcome):
            return outcome[0] is ParseError and outcome[1].startswith("invariant too large")

        for text in self.corpus():
            scanned = _outcome(notation._scan_invariant, text)
            assert _outcome(parse_invariant, text) == scanned, text
            if not isinstance(scanned, tuple) or scanned[0] is NotCoprime:
                # what the scanner reads takes the pattern's path
                assert notation._WELL_FORMED.fullmatch(text), text
            elif sum(map(text.count, "0123456789")) <= budget and not too_large(scanned):
                # and what the pattern takes within the budget and the genus
                # bound, the scanner reads: within the budget, only the genus
                # bound refuses a text as too large
                assert not notation._WELL_FORMED.fullmatch(text), text

    def test_over_budget_text_not_matched(self, monkeypatch):
        # its digits are counted first, so the pattern never scans it
        matched = []
        pattern = notation._WELL_FORMED

        class CountingPattern:
            def fullmatch(self, text):
                matched.append(text)
                return pattern.fullmatch(text)

        monkeypatch.setattr(notation, "_WELL_FORMED", CountingPattern())
        with pytest.raises(ParseError, match="invariant too large"):
            parse_invariant("M(0; " + "(1,1), " * notation._digit_budget() + "(1,1))")
        assert matched == []
        assert parse_invariant("M(0; (2,1))") == SeifertInvariant(0, ((2, 1),))
        assert matched == ["M(0; (2,1))"]

    def test_whitespace_runs_bounded(self):
        # a run of 100,002 ASCII whitespace characters at every separator,
        # in text that parses and in two texts that do not
        base = "M(0, 1; (2,1), (3,-1))"
        run = " \t\n\r\f\v" * 16_667
        cuts = [
            i for i in range(len(base) + 1)
            if not (0 < i < len(base) and base[i - 1] in "-0123456789" and base[i].isdigit())
        ]
        expected = parse_invariant(base)
        start = time.perf_counter()
        for i in cuts:
            text = base[:i] + run + base[i:]
            assert parse_invariant(text) == expected
            for bad in (text.replace(";", ":"), base[:i] + run + "x" + base[i:]):
                with pytest.raises(ParseError):
                    parse_invariant(bad)
        assert time.perf_counter() - start < 2


class TestPrintInvariant:
    def test_normalizes(self):
        assert print_invariant(SeifertInvariant(0, ((1, 0),))) == "M(0;)"

    def test_integer_pair_first(self):
        inv = SeifertInvariant(0, ((2, -1), (3, -1), (6, 5)))
        assert print_invariant(inv) == "M(0; (1,-2), (2,1), (3,2), (6,5))"

    def test_boundary(self):
        inv = SeifertInvariant(0, ((3, 4),), 1)
        assert print_invariant(inv) == "M(0, 1; (3,1))"

    def test_bounded_empty(self):
        assert print_invariant(SeifertInvariant(0, (), 2)) == "M(0, 2;)"

    def test_builds_no_invariant(self, monkeypatch):
        # the canonical form is printed as it is, not rebuilt into a record
        closed = SeifertInvariant(0, ((2, -1), (3, -1), (6, 5)))
        bounded = SeifertInvariant(-1, ((3, 4), (1, 2)), 2)
        calls = []
        init = SeifertInvariant.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SeifertInvariant, "__init__", counting_init)
        assert print_invariant(closed) == "M(0; (1,-2), (2,1), (3,2), (6,5))"
        assert print_invariant(bounded) == "M(-1, 2; (3,1))"
        assert calls == []


class TestInvariantReport:
    def test_closed_report_shape(self):
        from seifert.notation import invariant_report

        inv = parse_invariant("M(0; (2,-1), (3,-1), (6,5))")
        report = invariant_report("M(0; (2,-1), (3,-1), (6,5))", inv)
        assert report["normalized_invariant"] == "M(0; (1,-2), (2,1), (3,2), (6,5))"
        assert report["base_orbifold"] == "2 3 6"
        assert report["geometry"] == "parabolic"
        assert report["euler_number"] == "0/1"
        assert report["chi"] == "0/1"
        assert report["hvf"]["exists"] is True
        assert report["hvf"]["degrees"] == {
            "kind": "progression",
            "residue": 1,
            "modulus": 6,
            "include_zero": False,
        }
        assert "lens" not in report
        assert report["homotopy"]["cohomology_rank"] == 0

    def test_normalizes_once(self, monkeypatch):
        # the normalized invariant and the lens section read one canonical
        # form, and the covering target is printed as the decision built it
        import seifert

        calls = []
        original = seifert.normalize

        def counting_normalize(inv):
            calls.append(inv)
            return original(inv)

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.split(".")[0] == "seifert" and getattr(module, "normalize", None) is original:
                monkeypatch.setattr(module, "normalize", counting_normalize)
        cases = [
            # closed lens form, with a covering
            ("M(0; (1,-2), (2,1), (3,2))", "covering", True),
            # closed covering, not a lens form
            ("M(0; (1,-1), (5,2), (5,2), (5,2))", "covering", False),
            # Euler mismatch
            ("M(0; (2,1), (3,1), (7,1))", "euler_mismatch", False),
            # bounded, with a covering
            ("M(0, 1; (3,1), (3,1))", "covering", False),
        ]
        for text, kind, lens in cases:
            calls.clear()
            report = invariant_report(text, parse_invariant(text))
            hvf = report["hvf"]
            kinds = {m["kind"] for m in hvf["mechanisms"]}
            kinds.add((hvf["obstruction"] or {}).get("kind"))
            assert kind in kinds, (text, hvf)
            assert ("lens" in report) is lens, text
            assert len(calls) == 1, text

    @given(st.one_of(closed_invariants(), bounded_invariants()))
    def test_target_printed_canonical(self, invariant):
        # the decision builds its covering target canonical, so the report
        # prints its pairs as they stand
        decision = decide_hvf(invariant)
        targets = [m.target for m in decision.mechanisms if isinstance(m, Covering)]
        expected = print_invariant(targets[0]) if targets else None
        assert notation.decision_json(decision)["target"] == expected

    def test_bounded_report_shape(self):
        from seifert.notation import invariant_report

        inv = parse_invariant("M(0, 1; (3,1), (3,2))")
        report = invariant_report("M(0, 1; (3,1), (3,2))", inv)
        assert report["geometry"] is None
        assert report["euler_number"] is None
        assert report["chi"] == "-1/3"
        assert report["hvf"]["exists"] is False
        assert report["hvf"]["obstruction"] == {
            "kind": "congruence_clash",
            "i": 0,
            "j": 1,
        }


@st.composite
def report_texts(draw):
    """Invariant text as a report reads it: genus codes -3..3, 0-2 boundary
    circles and 0-5 pairs with alpha <= 9, (1, b) pairs mixed in.  Bad bases
    (one cone point, or two unequal ones), e = 0 and one literal pair near the
    description's digit budget are drawn on purpose."""

    def coprime(a, b):
        while math.gcd(a, b) != 1:
            b += 1
        return (a, b)

    genus = draw(st.integers(-3, 3))
    boundary = draw(st.integers(0, 2))
    small = st.builds(coprime, st.integers(2, 9), st.integers(-20, 20))
    trivial = st.builds(lambda b: (1, b), st.integers(-5, 5))
    pairs = draw(st.lists(st.one_of(small, trivial), max_size=5))
    kind = draw(st.sampled_from(["any", "bad", "e0", "long"]))
    if kind == "bad":
        genus = 0
        orders = draw(st.lists(st.integers(2, 9), min_size=1, max_size=2, unique=True))
        betas = draw(st.lists(st.integers(-20, 20), min_size=len(orders), max_size=len(orders)))
        pairs = [p for p in pairs if p[0] == 1][:3] + [coprime(a, b) for a, b in zip(orders, betas)]
    elif kind == "e0":
        pairs = pairs[:2] + [(a, -b) for a, b in pairs[:2]] + [(1, 0)] * (len(pairs) > 4)
    elif kind == "long":
        # about 2,000 digits, under the budget of 2,150 that parsing allows
        a = draw(st.integers(10**998, 10**1000))
        pairs = pairs[:4] + [coprime(a, draw(st.integers(-(10**1000), 10**1000)))]
    head = f"M({genus}, {boundary};" if boundary else f"M({genus};"
    return head + " " + ", ".join(f"({a},{b})" for a, b in pairs) + ")"


class TestReportFields:
    """The report's base-surface fields, read off the invariant's pairs,
    against the public Orbifold and Fraction path."""

    @settings(max_examples=300)
    @given(report_texts())
    def test_fields_match_orbifold_path(self, text):
        inv = parse_invariant(text)
        report = invariant_report(text, inv)
        base = base_orbifold(inv)
        expected = (
            print_orbifold(base),
            geometry_class(base).value if inv.closed else None,
            rational_str(euler_number(inv)) if inv.closed else None,
            rational_str(chi(base)),
        )
        fields = ("base_orbifold", "geometry", "euler_number", "chi")
        assert tuple(report[key] for key in fields) == expected


class TestReportIsTheDecision:
    """The report decides through the decision body and renders the result
    itself; its sections are what the public records render to."""

    @staticmethod
    def _check(invariant):
        report = invariant_report(print_invariant(invariant), invariant)
        assert report["hvf"] == decision_json(decide_hvf(invariant))
        catalogued = invariant.closed and invariant.genus_code >= 0 and report["hvf"]["exists"]
        assert ("homotopy" in report) == catalogued
        if catalogued:
            assert report["homotopy"] == catalog_json(homotopy_components(invariant))

    @settings(max_examples=300)
    @given(pin_first_invariants())
    def test_sections_match_records(self, invariant):
        self._check(invariant)

    @pytest.mark.parametrize(
        "text",
        [
            "M(0; (1,-1), (2,1), (6,1))",  # pin 2, outside the congruence class
            "M(0; (3,1), (3,1), (3,1))",  # pin 0: e = -1, chi = 0
            "M(0; (2,1), (3,1), (5,1))",  # no integer pin
            "M(0; (3,2), (6,1))",  # a congruence clash
            "M(1; (1,1))",  # the section over the torus
            "M(0, 1; (3,1), (6,5))",  # a clash with boundary
        ],
    )
    def test_named_verdicts(self, text):
        self._check(parse_invariant(text))


class TestRoundTrips:
    @given(closed_invariants())
    def test_closed_invariants(self, invariant):
        text = print_invariant(invariant)
        assert parse_invariant(text) == normalize(invariant).invariant()
        assert equal(parse_invariant(text), invariant)

    @given(bounded_invariants())
    def test_bounded_invariants(self, invariant):
        text = print_invariant(invariant)
        assert equal(parse_invariant(text), invariant)

    @given(
        st.integers(-5, 4),
        st.lists(st.integers(1, 15), max_size=5),
        st.integers(0, 3),
    )
    def test_orbifolds(self, genus_code, cones, boundary):
        orb = Orbifold(genus_code, cones, boundary)
        assert parse_orbifold(print_orbifold(orb)) == orb
