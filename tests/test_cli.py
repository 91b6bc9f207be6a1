import json
import time

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
