import ast
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from seifert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestGoldenExamples:
    def test_hvf_555_cover(self, capsys):
        report = run_json(
            capsys, "hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))"
        )
        assert report["hvf"]["exists"] is True
        assert report["hvf"]["degrees"] == {"kind": "single", "d": 2}
        assert report["hvf"]["target"] == "M(0; (1,-2), (5,4), (5,4), (5,4))"
        assert report["base_orbifold"] == "5 5 5"
        assert report["geometry"] == "hyperbolic"
        assert report["euler_number"] == "-1/5"
        assert report["chi"] == "-2/5"

    def test_lens_classify_8_5(self, capsys):
        report = run_json(capsys, "lens-classify", "8", "5")
        assert report["case"] == "exactly_one"
        assert report["witness"] == "M(-1; (1,-1), (2,1))"

    def test_euler_ut_236(self, capsys):
        code, out, err = run(capsys, "euler", "M(0; (2,-1), (3,-1), (6,5))")
        assert code == 0
        assert out == "0\n"

    def test_ut_237(self, capsys):
        report = run_json(capsys, "ut", "2 3 7")
        assert report["invariant"] == "M(0; (1,-2), (2,1), (3,2), (7,6))"
        assert report["euler_number"] == "-1/42"
        assert report["chi"] == "-1/42"

    def test_classify_orbifold(self, capsys):
        report = run_json(capsys, "classify-orbifold", "2 3 5")
        assert report["geometry"] == "elliptic"
        assert report["chi"] == "1/30"
        assert report["family"] == {"kind": "23q", "param": 5}

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "M(0; (1,0), (1,-2))")
        assert code == 0
        assert out == "M(0; (1,-2))\n"

    def test_quotient_belt_trick(self, capsys):
        report = run_json(capsys, "quotient", "M(0; (1,0), (1,-1))", "2")
        assert report["invariant"] == "M(0; (1,-2))"

    def test_lens(self, capsys):
        report = run_json(capsys, "lens", "M(0; (2,1), (2,5))")
        assert report == {
            "input": "M(0; (2,1), (2,5))",
            "p": 12,
            "q": 7,
            "fibered_hvf": False,
        }

    def test_lens_equal(self, capsys):
        report = run_json(
            capsys, "lens-equal", "5", "1", "-5", "-1", "--relation", "oriented"
        )
        assert report["equal"] is True
        report = run_json(capsys, "lens-equal", "7", "3", "7", "2")
        assert report["equal"] is False

    def test_enumerate_lens(self, capsys):
        report = run_json(capsys, "enumerate-lens", "0", "1", "2")
        assert "M(0; (1,-1), (2,1), (2,1))" in report["fiberings"]

    def test_homotopy_t3(self, capsys):
        report = run_json(capsys, "homotopy", "M(1; (1,0))")
        assert report["homotopy"]["degrees"] == {
            "kind": "progression",
            "residue": 0,
            "modulus": 1,
            "include_zero": True,
        }
        assert report["homotopy"]["cohomology_rank"] == 2

    def test_homotopy_no_field(self, capsys):
        report = run_json(capsys, "homotopy", "M(0; (3,1), (3,1), (3,1))")
        assert report["homotopy"] is None
        assert report["note"] == "no horizontal vector field exists"

    def test_boundary_hvf(self, capsys):
        report = run_json(capsys, "boundary-hvf", "M(0, 1; (3,1), (3,2))")
        assert report["hvf"]["exists"] is False
        assert report["boundary_tangency"] is False
        report = run_json(capsys, "boundary-hvf", "M(0, 2;)")
        assert report["hvf"]["exists"] is True
        assert report["boundary_tangency"] is True

    def test_alternates(self, capsys):
        report = run_json(capsys, "alternates", "M(-1; (2,-1))")
        assert [a["kind"] for a in report["alternates"]] == ["lens_dual"]

    def test_hvf_negative_answer_exits_zero(self, capsys):
        code, out, _ = run(capsys, "hvf", "M(0; (3,1), (3,1), (3,1))")
        assert code == 0
        assert "horizontal vector field: no" in out


class TestSchema:
    def test_report_fields_frozen(self, capsys):
        report = run_json(capsys, "hvf", "M(0; (2,-1), (3,-1), (6,5))")
        assert set(report) >= {
            "input",
            "normalized_invariant",
            "base_orbifold",
            "geometry",
            "euler_number",
            "chi",
            "hvf",
        }
        assert set(report["hvf"]) == {
            "exists",
            "mechanisms",
            "degrees",
            "target",
            "obstruction",
        }

    def test_degree_set_kinds(self, capsys):
        single = run_json(capsys, "hvf", "M(0; (2,-1), (3,-1), (7,-1), (1,1))")
        assert single["hvf"]["degrees"]["kind"] == "single"
        prog = run_json(capsys, "hvf", "M(0; (1,2), (2,-1), (2,-1), (2,-1), (2,-1))")
        assert prog["hvf"]["degrees"] == {
            "kind": "progression",
            "residue": 1,
            "modulus": 2,
            "include_zero": False,
        }
        empty = run_json(capsys, "hvf", "M(0; (3,1), (3,1), (3,1))")
        assert empty["hvf"]["degrees"] == {"kind": "empty", "include_zero": False}
        assert empty["hvf"]["obstruction"]["kind"] == "euler_mismatch"

    def test_lens_section_present_for_lens_forms(self, capsys):
        report = run_json(capsys, "hvf", "M(0; (2,1), (2,5))")
        assert report["lens"] == {"p": 12, "q": 7, "fibered_hvf": False}

    def test_homotopy_section_present_when_field_exists(self, capsys):
        report = run_json(capsys, "hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))")
        assert report["homotopy"]["unique_up_to_homotopy"] is True

    def test_byte_stable(self, capsys):
        first = run(capsys, "hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))", "--json")
        second = run(capsys, "hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))", "--json")
        assert first == second


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "hvf", "M(0; (2,1)")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_non_coprime(self, capsys):
        code, _, err = run(capsys, "hvf", "M(0; (4,2))")
        assert code == 2
        assert "error:" in err

    def test_boundary_invariant_to_hvf(self, capsys):
        code, _, err = run(capsys, "hvf", "M(0, 1; (3,1))")
        assert code == 2

    def test_closed_invariant_to_boundary_hvf(self, capsys):
        code, _, err = run(capsys, "boundary-hvf", "M(0; (3,1))")
        assert code == 2

    def test_bad_orbifold_token(self, capsys):
        code, _, err = run(capsys, "ut", "2 3 seven")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_enumerate_lens_bound_above_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate-lens", "5", "1", "10000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: bound must be at most")

    def test_quotient_zero_degree(self, capsys):
        code, _, err = run(capsys, "quotient", "M(0; (2,1))", "0")
        assert code == 2

    def test_integer_literal_too_long(self, capsys):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits == 0:
            pytest.skip("no limit on integer string conversion")
        code, out, err = run(capsys, "hvf", "M(0;(1,1" + "0" * digits + "))")
        assert code == 2
        assert out == ""
        assert "(at position 7)" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_derived_numbers_too_large(self, capsys, json_flag):
        # each alpha is under the limit on integer string conversion, but
        # their product, the denominator of e and chi, would be over it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        zeros = "0" * (limit * 7 // 10)
        text = f"M(0;(1{zeros}1,3), (1{zeros}3,3), (1{zeros}7,1))"
        code, out, err = run(capsys, "hvf", text, *json_flag)
        assert code == 2
        assert out == ""
        assert err == "error: invariant too large (at position 5)\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_quotient_degree_too_large(self, capsys, json_flag):
        # the degree multiplies every beta, so its digits count against the
        # description's budget: at the budget the quotient prints, past it
        # the degree is refused before any beta grows past the limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        code, out, err = run(
            capsys, "quotient", "M(0; (1, " + "7" * (limit // 2 - 50) + "))",
            "9" * (limit - 300), *json_flag,
        )
        assert (code, out, err) == (2, "", "error: degree too large\n")
        sevens = "7" * (limit // 2 - 3)  # with 0, 2 and the degree: the budget
        code, out, err = run(capsys, "quotient", f"M(0; (2, {sevens}))", "-3", *json_flag)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "quotient", f"M(0; (2, {sevens}))", "-33", *json_flag)
        assert (code, out, err) == (2, "", "error: degree too large\n")

    def test_quotient_degree_syntax_matches_int(self, capsys):
        # the degree stays text until its digits are counted; a text that int
        # refuses, or one past Python's limit, gets argparse's message
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        texts = ["3", " +0_3 ", "-1", "\u0663", "\uff13", "\u30003\u2028", "\x853", "1__3",
                 "_3", "3_", "+-3", "- 3", "", " ", "3.0", "0x3", "\u00b3", "\x1c3", "3\x1f"]
        texts += ["1" * limit, "1" * (limit + 1), "1_" * limit + "1"] if limit else []
        for text in texts:
            try:
                int(text)
            except ValueError:
                with pytest.raises(SystemExit) as exc:
                    main(["quotient", "M(0; (2,1))", text])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert err.endswith(f"error: argument degree: invalid int value: {text!r}\n")
            else:
                code, out, err = run(capsys, "quotient", "M(0; (2,1))", text, "--json")
                assert "argument degree" not in err, text
                assert code == 2 or json.loads(out)["degree"] == int(text), text

    def test_over_budget_degree_not_converted(self, capsys, monkeypatch):
        # with no limit, converting a million digits would take seconds: the
        # parser leaves the degree as text and the handler counts it first
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no limit on integer string conversion to turn off")
        import seifert.cli as cli

        converted = []

        def counting_int(text):
            converted.append(len(text))
            return int(text)

        monkeypatch.setattr(cli, "int", counting_int, raising=False)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        cli._build_parser.cache_clear()  # so that a parser's int is counted too
        try:
            code, out, err = run(capsys, "quotient", "M(0; (2,1))", "7" * 10**6)
        finally:
            sys.set_int_max_str_digits(limit)
            cli._build_parser.cache_clear()
        assert (code, out, err) == (2, "", "error: degree too large\n")
        assert converted == []


class TestOrbifoldsPerQuery:
    """The decision and the report read everything off the invariant: no
    query that answers with a report builds an ``Orbifold``, and only an
    Euler mismatch builds ``Fraction``s."""

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))", "--json"], 0),
            (["hvf", "M(-2;)"], 0),
            (["homotopy", "M(1; (1,1))", "--json"], 0),
            (["homotopy", "M(0; (2,1), (3,1), (5,1))"], 0),
            (["boundary-hvf", "M(2, 1; (2,1), (4,1))", "--json"], 0),
            (["boundary-hvf", "M(-1, 1;)"], 0),
        ],
    )
    def test_orbifold_builds(self, capsys, monkeypatch, argv, built):
        from seifert.orbifold import Orbifold

        calls = []
        init = Orbifold.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Orbifold, "__init__", counting_init)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(calls) == built

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["hvf", "M(0; (1,-1), (5,2), (5,2), (5,2))", "--json"], 0),
            (["hvf", "M(-2;)", "--json"], 0),
            (["hvf", "M(0; (3,2), (6,1))", "--json"], 0),  # congruence clash
            (["boundary-hvf", "M(2, 1; (2,1), (4,1))", "--json"], 0),
            (["boundary-hvf", "M(-1, 1;)", "--json"], 0),
            # an Euler mismatch carries its e and chi as Fractions
            (["hvf", "M(0; (2,1), (3,1), (5,1))", "--json"], 2),
            # the section fires on the torus and the Klein bottle, so their
            # Euler mismatch is never reported
            (["hvf", "M(1; (1,1))", "--json"], 0),
            (["hvf", "M(-2; (1,3))", "--json"], 0),
        ],
    )
    def test_fraction_builds(self, capsys, monkeypatch, argv, built):
        from fractions import Fraction

        calls = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(calls) == built


class TestValuesPerQuery:
    """Each query computes each value once: normalize prints the canonical
    form it already holds, alternates renders its lines from the payload,
    and classify-orbifold reads its geometry and badness off the one chi."""

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv, built",
        [
            (["normalize", "M(0; (1,0), (1,-2))"], 1),
            (["alternates", "M(-1; (2,-1))"], 3),
        ],
    )
    def test_canonical_forms(self, capsys, monkeypatch, argv, built, json_flag):
        from seifert.invariant import CanonicalForm

        calls = []
        init = CanonicalForm.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CanonicalForm, "__init__", counting_init)
        code, _, err = run(capsys, *argv, *json_flag)
        assert code == 0, err
        assert len(calls) == built

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("name", ["chi", "_is_bad"])
    def test_classify_orbifold_rules(self, capsys, monkeypatch, name, json_flag):
        from seifert import orbifold

        calls = []
        rule = getattr(orbifold, name)

        def counting(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(orbifold, name, counting)
        code, _, err = run(capsys, "classify-orbifold", "2 3 7", *json_flag)
        assert code == 0, err
        assert len(calls) == 1


class TestImportFootprint:
    def test_cli_import_skips_dataclasses_inspect_traceback(self):
        # one process answers one query, so every module the import pulls in
        # is paid for on every query
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", "import seifert.cli, sys; print(sorted(sys.modules))"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        loaded = set(ast.literal_eval(out))
        assert "seifert.cli" in loaded
        assert not {"dataclasses", "inspect", "traceback"} & loaded



# The malformations of the benchmark's report stream, plus non-ASCII text.
MALFORMATIONS = (
    lambda t: t[:-1],  # unclosed
    lambda t: t.replace(";", ":", 1),  # wrong separator
    lambda t: t + " trailing",  # trailing input
    lambda t: t.replace("(", "((", 1),  # unbalanced
    lambda t: t.replace(";", "; (0,1),", 1),  # alpha 0
    lambda t: t.replace(" ", "\u3000", 1),  # ideographic space
    lambda t: t.replace("1", "\u0661", 1),  # Arabic-Indic one
    lambda t: "",
)


def fuzz_invariant(rng):
    """Random invariant text: genus 0 half the time, 0-4 pairs with a beta
    that shares a factor with its alpha one time in ten, sometimes boundary,
    and malformed three times in ten."""
    genus = rng.choice([0, rng.randint(-3, 3)])
    boundary = rng.choice([0, 0, 0, 1, 2])
    pairs = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(1, 30), rng.randint(-60, 60)
        while rng.random() < 0.9 and math.gcd(a, b) != 1:
            b += 1
        pairs.append((a, b))
    head = f"{genus}, {boundary}" if boundary else f"{genus}"
    text = f"{rng.choice(['M', ''])}({head}; {', '.join(f'({a},{b})' for a, b in pairs)})"
    if rng.random() < 0.3:
        text = rng.choice(MALFORMATIONS)(text)
    return text


def fuzz_orbifold(rng):
    tokens = ["o", "x", "b1", "b2", "2", "3", "4", "5", "6", "7"]
    text = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
    if rng.random() < 0.3:
        text += " " + rng.choice(["b0", "0", "q", "-2", "\u00b2", "b1"])
    return text


def fuzz_argv(rng):
    command = rng.choice(
        ["hvf", "boundary-hvf", "homotopy", "lens", "normalize", "euler", "classify-orbifold"]
    )
    argv = [command]
    if rng.random() < 0.97:  # else the argument is missing
        argv.append(fuzz_orbifold(rng) if command == "classify-orbifold" else fuzz_invariant(rng))
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


class TestExitCodeFuzz:
    def test_only_answers_and_input_errors(self):
        rng = random.Random(20181)
        codes = {0: 0, 2: 0}
        start = time.perf_counter()
        for _ in range(2000):
            argv = fuzz_argv(rng)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exit_:  # argparse rejects the command line
                    code = exit_.code
            assert code in (0, 2), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
            codes[code] += 1
        # no input may make a query do unbounded work; 2,000 queries take
        # about 0.3 s on a 2-CPU x86-64 host
        assert time.perf_counter() - start < 30
        # both outcomes are exercised
        assert min(codes.values()) > 400, codes


# Full stdout, human and --json, of the decision subcommands; recorded once and
# never regenerated, so any change to an output byte fails here.
GOLDEN = [
    # hvf: clash at (2, 3), (1, b) pair first
    (
        ['hvf', 'M(0; (1,2), (5,1), (3,1), (3,2))'],
        """\
invariant: M(0; (1,2), (3,1), (3,2), (5,1))
base orbifold: 3 3 5
geometry: hyperbolic
euler number: -16/5
chi: -2/15
horizontal vector field: no
  obstruction: exceptional fibers 2 and 3 impose incompatible degree congruences
""",
    ),
    (
        ['hvf', 'M(0; (1,2), (5,1), (3,1), (3,2))', '--json'],
        """\
{
  "input": "M(0; (1,2), (5,1), (3,1), (3,2))",
  "normalized_invariant": "M(0; (1,2), (3,1), (3,2), (5,1))",
  "base_orbifold": "3 3 5",
  "geometry": "hyperbolic",
  "euler_number": "-16/5",
  "chi": "-2/15",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "congruence_clash",
      "i": 2,
      "j": 3
    }
  }
}
""",
    ),
    # hvf: Euler mismatch, pin 1 outside the class
    (
        ['hvf', 'M(0; (4,1), (4,1), (1,-1))'],
        """\
invariant: M(0; (1,-1), (4,1), (4,1))
base orbifold: 4 4
geometry: elliptic
euler number: 1/2
chi: 1/2
horizontal vector field: no
  obstruction: no non-zero integer d with d * (1/2) = 1/2 in the allowed congruence class
""",
    ),
    (
        ['hvf', 'M(0; (4,1), (4,1), (1,-1))', '--json'],
        """\
{
  "input": "M(0; (4,1), (4,1), (1,-1))",
  "normalized_invariant": "M(0; (1,-1), (4,1), (4,1))",
  "base_orbifold": "4 4",
  "geometry": "elliptic",
  "euler_number": "1/2",
  "chi": "1/2",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "euler_mismatch",
      "euler": "1/2",
      "chi": "1/2",
      "pin": 1
    }
  },
  "lens": {
    "p": -8,
    "q": 3,
    "fibered_hvf": false
  }
}
""",
    ),
    # hvf: Euler mismatch, pin 0
    (
        ['hvf', 'M(0; (3,1), (3,1), (3,1))'],
        """\
invariant: M(0; (3,1), (3,1), (3,1))
base orbifold: 3 3 3
geometry: parabolic
euler number: -1
chi: 0
horizontal vector field: no
  obstruction: no non-zero integer d with d * (-1/1) = 0/1 in the allowed congruence class
""",
    ),
    (
        ['hvf', 'M(0; (3,1), (3,1), (3,1))', '--json'],
        """\
{
  "input": "M(0; (3,1), (3,1), (3,1))",
  "normalized_invariant": "M(0; (3,1), (3,1), (3,1))",
  "base_orbifold": "3 3 3",
  "geometry": "parabolic",
  "euler_number": "-1/1",
  "chi": "0/1",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "euler_mismatch",
      "euler": "-1/1",
      "chi": "0/1",
      "pin": 0
    }
  }
}
""",
    ),
    # hvf: Euler mismatch, no integer pin
    (
        ['hvf', 'M(0; (2,1), (3,1), (1,1))'],
        """\
invariant: M(0; (1,1), (2,1), (3,1))
base orbifold: 2 3
geometry: bad
euler number: -11/6
chi: 5/6
horizontal vector field: no
  obstruction: no non-zero integer d with d * (-11/6) = 5/6 in the allowed congruence class
""",
    ),
    (
        ['hvf', 'M(0; (2,1), (3,1), (1,1))', '--json'],
        """\
{
  "input": "M(0; (2,1), (3,1), (1,1))",
  "normalized_invariant": "M(0; (1,1), (2,1), (3,1))",
  "base_orbifold": "2 3",
  "geometry": "bad",
  "euler_number": "-11/6",
  "chi": "5/6",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "euler_mismatch",
      "euler": "-11/6",
      "chi": "5/6",
      "pin": null
    }
  },
  "lens": {
    "p": 11,
    "q": 7,
    "fibered_hvf": false
  }
}
""",
    ),
    # hvf: single degree
    (
        ['hvf', 'M(0; (1,-1), (5,2), (5,2), (5,2))'],
        """\
invariant: M(0; (1,-1), (5,2), (5,2), (5,2))
base orbifold: 5 5 5
geometry: hyperbolic
euler number: -1/5
chi: -2/5
horizontal vector field: yes
  via fiberwise covering of M(0; (1,-2), (5,4), (5,4), (5,4)) with degrees d = 2
""",
    ),
    (
        ['hvf', 'M(0; (1,-1), (5,2), (5,2), (5,2))', '--json'],
        """\
{
  "input": "M(0; (1,-1), (5,2), (5,2), (5,2))",
  "normalized_invariant": "M(0; (1,-1), (5,2), (5,2), (5,2))",
  "base_orbifold": "5 5 5",
  "geometry": "hyperbolic",
  "euler_number": "-1/5",
  "chi": "-2/5",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "covering",
        "degrees": {
          "kind": "single",
          "d": 2
        },
        "target": "M(0; (1,-2), (5,4), (5,4), (5,4))"
      }
    ],
    "degrees": {
      "kind": "single",
      "d": 2
    },
    "target": "M(0; (1,-2), (5,4), (5,4), (5,4))",
    "obstruction": null
  },
  "homotopy": {
    "degrees": {
      "kind": "single",
      "d": 2
    },
    "cohomology_rank": 0,
    "unique_up_to_homotopy": true
  }
}
""",
    ),
    # hvf: progression
    (
        ['hvf', 'M(0; (1,2), (2,-1), (2,-1), (2,-1), (2,-1))'],
        """\
invariant: M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))
base orbifold: 2 2 2 2
geometry: parabolic
euler number: 0
chi: 0
horizontal vector field: yes
  via fiberwise covering of M(0; (1,-2), (2,1), (2,1), (2,1), (2,1)) with degrees d = 1 (mod 2), d != 0
""",
    ),
    (
        ['hvf', 'M(0; (1,2), (2,-1), (2,-1), (2,-1), (2,-1))', '--json'],
        """\
{
  "input": "M(0; (1,2), (2,-1), (2,-1), (2,-1), (2,-1))",
  "normalized_invariant": "M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))",
  "base_orbifold": "2 2 2 2",
  "geometry": "parabolic",
  "euler_number": "0/1",
  "chi": "0/1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 1,
          "modulus": 2,
          "include_zero": false
        },
        "target": "M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 1,
      "modulus": 2,
      "include_zero": false
    },
    "target": "M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))",
    "obstruction": null
  },
  "homotopy": {
    "degrees": {
      "kind": "progression",
      "residue": 1,
      "modulus": 2,
      "include_zero": false
    },
    "cohomology_rank": 0,
    "unique_up_to_homotopy": false
  }
}
""",
    ),
    # hvf: torus base, both mechanisms
    (
        ['hvf', 'M(1;)'],
        """\
invariant: M(1;)
base orbifold: o
geometry: parabolic
euler number: 0
chi: 0
horizontal vector field: yes
  via section of the fibering over the base surface
  via fiberwise covering of M(1;) with degrees d = 0 (mod 1), d != 0
""",
    ),
    (
        ['hvf', 'M(1;)', '--json'],
        """\
{
  "input": "M(1;)",
  "normalized_invariant": "M(1;)",
  "base_orbifold": "o",
  "geometry": "parabolic",
  "euler_number": "0/1",
  "chi": "0/1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "surface_section"
      },
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 0,
          "modulus": 1,
          "include_zero": false
        },
        "target": "M(1;)"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": false
    },
    "target": "M(1;)",
    "obstruction": null
  },
  "homotopy": {
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": true
    },
    "cohomology_rank": 2,
    "unique_up_to_homotopy": false
  }
}
""",
    ),
    # hvf: Klein-bottle base, both mechanisms
    (
        ['hvf', 'M(-2;)'],
        """\
invariant: M(-2;)
base orbifold: x x
geometry: parabolic
euler number: 0
chi: 0
horizontal vector field: yes
  via section of the fibering over the base surface
  via fiberwise covering of M(-2;) with degrees d = 0 (mod 1), d != 0
""",
    ),
    (
        ['hvf', 'M(-2;)', '--json'],
        """\
{
  "input": "M(-2;)",
  "normalized_invariant": "M(-2;)",
  "base_orbifold": "x x",
  "geometry": "parabolic",
  "euler_number": "0/1",
  "chi": "0/1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "surface_section"
      },
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 0,
          "modulus": 1,
          "include_zero": false
        },
        "target": "M(-2;)"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": false
    },
    "target": "M(-2;)",
    "obstruction": null
  }
}
""",
    ),
    # hvf: Klein-bottle base, section only
    (
        ['hvf', 'M(-2; (1,3))'],
        """\
invariant: M(-2; (1,3))
base orbifold: x x
geometry: parabolic
euler number: -3
chi: 0
horizontal vector field: yes
  via section of the fibering over the base surface
""",
    ),
    (
        ['hvf', 'M(-2; (1,3))', '--json'],
        """\
{
  "input": "M(-2; (1,3))",
  "normalized_invariant": "M(-2; (1,3))",
  "base_orbifold": "x x",
  "geometry": "parabolic",
  "euler_number": "-3/1",
  "chi": "0/1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "surface_section"
      }
    ],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": null
  }
}
""",
    ),
    # hvf: lens form
    (
        ['hvf', 'M(0; (2,1), (2,5))'],
        """\
invariant: M(0; (1,2), (2,1), (2,1))
base orbifold: 2 2
geometry: elliptic
euler number: -3
chi: 1
horizontal vector field: no
  obstruction: no non-zero integer d with d * (-3/1) = 1/1 in the allowed congruence class
""",
    ),
    (
        ['hvf', 'M(0; (2,1), (2,5))', '--json'],
        """\
{
  "input": "M(0; (2,1), (2,5))",
  "normalized_invariant": "M(0; (1,2), (2,1), (2,1))",
  "base_orbifold": "2 2",
  "geometry": "elliptic",
  "euler_number": "-3/1",
  "chi": "1/1",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "euler_mismatch",
      "euler": "-3/1",
      "chi": "1/1",
      "pin": null
    }
  },
  "lens": {
    "p": 12,
    "q": 7,
    "fibered_hvf": false
  }
}
""",
    ),
    # boundary-hvf: clash
    (
        ['boundary-hvf', 'M(0, 2; (1,4), (3,1), (5,2), (3,2))'],
        """\
invariant: M(0, 2; (3,1), (3,2), (5,2))
horizontal vector field: no
tangent/transverse to the boundary possible: no
""",
    ),
    (
        ['boundary-hvf', 'M(0, 2; (1,4), (3,1), (5,2), (3,2))', '--json'],
        """\
{
  "input": "M(0, 2; (1,4), (3,1), (5,2), (3,2))",
  "normalized_invariant": "M(0, 2; (3,1), (3,2), (5,2))",
  "base_orbifold": "3 3 5 b2",
  "hvf": {
    "exists": false,
    "mechanisms": [],
    "degrees": {
      "kind": "empty",
      "include_zero": false
    },
    "target": null,
    "obstruction": {
      "kind": "congruence_clash",
      "i": 1,
      "j": 3
    }
  },
  "boundary_tangency": false,
  "homotopy_note": null
}
""",
    ),
    # boundary-hvf: progression
    (
        ['boundary-hvf', 'M(0, 1; (3,1), (3,1))'],
        """\
invariant: M(0, 1; (3,1), (3,1))
horizontal vector field: yes
  via fiberwise covering of M(0, 1; (3,2), (3,2)) with degrees d = 2 (mod 3), d != 0
tangent/transverse to the boundary possible: no
infinitely many homotopy classes of horizontal vector fields
""",
    ),
    (
        ['boundary-hvf', 'M(0, 1; (3,1), (3,1))', '--json'],
        """\
{
  "input": "M(0, 1; (3,1), (3,1))",
  "normalized_invariant": "M(0, 1; (3,1), (3,1))",
  "base_orbifold": "3 3 b1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 2,
          "modulus": 3,
          "include_zero": false
        },
        "target": "M(0, 1; (3,2), (3,2))"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 2,
      "modulus": 3,
      "include_zero": false
    },
    "target": "M(0, 1; (3,2), (3,2))",
    "obstruction": null
  },
  "boundary_tangency": false,
  "homotopy_note": "infinitely many homotopy classes of horizontal vector fields"
}
""",
    ),
    (
        ['homotopy', 'M(1; (1,0))'],
        """\
degrees: d = 0 (mod 1), d != 0, and d = 0
cohomology rank: 2
unique up to homotopy: no
""",
    ),
    (
        ['homotopy', 'M(1; (1,0))', '--json'],
        """\
{
  "input": "M(1; (1,0))",
  "invariant": "M(1;)",
  "homotopy": {
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": true
    },
    "cohomology_rank": 2,
    "unique_up_to_homotopy": false
  },
  "note": null
}
""",
    ),
    (
        ['homotopy', 'M(1; (1,5))'],
        """\
degrees: d = 0 only
cohomology rank: 2
unique up to homotopy: no
""",
    ),
    (
        ['homotopy', 'M(1; (1,5))', '--json'],
        """\
{
  "input": "M(1; (1,5))",
  "invariant": "M(1; (1,5))",
  "homotopy": {
    "degrees": {
      "kind": "empty",
      "include_zero": true
    },
    "cohomology_rank": 2,
    "unique_up_to_homotopy": false
  },
  "note": null
}
""",
    ),
    (
        ['homotopy', 'M(0; (1,-1), (5,2), (5,2), (5,2))'],
        """\
degrees: d = 2
cohomology rank: 0
unique up to homotopy: yes
""",
    ),
    (
        ['homotopy', 'M(0; (1,-1), (5,2), (5,2), (5,2))', '--json'],
        """\
{
  "input": "M(0; (1,-1), (5,2), (5,2), (5,2))",
  "invariant": "M(0; (1,-1), (5,2), (5,2), (5,2))",
  "homotopy": {
    "degrees": {
      "kind": "single",
      "d": 2
    },
    "cohomology_rank": 0,
    "unique_up_to_homotopy": true
  },
  "note": null
}
""",
    ),
    (
        ['homotopy', 'M(0; (3,1), (3,1), (3,1))'],
        """\
no horizontal vector field exists
""",
    ),
    (
        ['homotopy', 'M(0; (3,1), (3,1), (3,1))', '--json'],
        """\
{
  "input": "M(0; (3,1), (3,1), (3,1))",
  "invariant": "M(0; (3,1), (3,1), (3,1))",
  "homotopy": null,
  "note": "no horizontal vector field exists"
}
""",
    ),
    # boundary-hvf: the annulus, section and covering, tangency yes
    (
        ['boundary-hvf', 'M(0, 2;)'],
        """\
invariant: M(0, 2;)
horizontal vector field: yes
  via section of the fibering over the base surface
  via fiberwise covering of M(0, 2;) with degrees d = 0 (mod 1), d != 0
tangent/transverse to the boundary possible: yes
infinitely many homotopy classes of horizontal vector fields
""",
    ),
    (
        ['boundary-hvf', 'M(0, 2;)', '--json'],
        """\
{
  "input": "M(0, 2;)",
  "normalized_invariant": "M(0, 2;)",
  "base_orbifold": "b2",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "surface_section"
      },
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 0,
          "modulus": 1,
          "include_zero": false
        },
        "target": "M(0, 2;)"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": false
    },
    "target": "M(0, 2;)",
    "obstruction": null
  },
  "boundary_tangency": true,
  "homotopy_note": "infinitely many homotopy classes of horizontal vector fields"
}
""",
    ),
    # boundary-hvf: the Mobius band
    (
        ['boundary-hvf', 'M(-1, 1;)'],
        """\
invariant: M(-1, 1;)
horizontal vector field: yes
  via section of the fibering over the base surface
  via fiberwise covering of M(-1, 1;) with degrees d = 0 (mod 1), d != 0
tangent/transverse to the boundary possible: yes
infinitely many homotopy classes of horizontal vector fields
""",
    ),
    (
        ['boundary-hvf', 'M(-1, 1;)', '--json'],
        """\
{
  "input": "M(-1, 1;)",
  "normalized_invariant": "M(-1, 1;)",
  "base_orbifold": "x b1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "surface_section"
      },
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 0,
          "modulus": 1,
          "include_zero": false
        },
        "target": "M(-1, 1;)"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 0,
      "modulus": 1,
      "include_zero": false
    },
    "target": "M(-1, 1;)",
    "obstruction": null
  },
  "boundary_tangency": true,
  "homotopy_note": "infinitely many homotopy classes of horizontal vector fields"
}
""",
    ),
    # boundary-hvf: cones on a genus-2 base, tangency no
    (
        ['boundary-hvf', 'M(2, 1; (2,1), (4,1))'],
        """\
invariant: M(2, 1; (2,1), (4,1))
horizontal vector field: yes
  via fiberwise covering of M(2, 1; (2,1), (4,3)) with degrees d = 3 (mod 4), d != 0
tangent/transverse to the boundary possible: no
infinitely many homotopy classes of horizontal vector fields
""",
    ),
    (
        ['boundary-hvf', 'M(2, 1; (2,1), (4,1))', '--json'],
        """\
{
  "input": "M(2, 1; (2,1), (4,1))",
  "normalized_invariant": "M(2, 1; (2,1), (4,1))",
  "base_orbifold": "2 4 o o b1",
  "hvf": {
    "exists": true,
    "mechanisms": [
      {
        "kind": "covering",
        "degrees": {
          "kind": "progression",
          "residue": 3,
          "modulus": 4,
          "include_zero": false
        },
        "target": "M(2, 1; (2,1), (4,3))"
      }
    ],
    "degrees": {
      "kind": "progression",
      "residue": 3,
      "modulus": 4,
      "include_zero": false
    },
    "target": "M(2, 1; (2,1), (4,3))",
    "obstruction": null
  },
  "boundary_tangency": false,
  "homotopy_note": "infinitely many homotopy classes of horizontal vector fields"
}
""",
    ),
    # homotopy: a progression without 0
    (
        ['homotopy', 'M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))'],
        """\
degrees: d = 1 (mod 2), d != 0
cohomology rank: 0
unique up to homotopy: no
""",
    ),
    (
        ['homotopy', 'M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))', '--json'],
        """\
{
  "input": "M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))",
  "invariant": "M(0; (1,-2), (2,1), (2,1), (2,1), (2,1))",
  "homotopy": {
    "degrees": {
      "kind": "progression",
      "residue": 1,
      "modulus": 2,
      "include_zero": false
    },
    "cohomology_rank": 0,
    "unique_up_to_homotopy": false
  },
  "note": null
}
""",
    ),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out == expected
