"""Command-line front end.

One process answers one query.  Results go to stdout (human-readable by
default, machine-readable with --json); diagnostics go to stderr.  Exit
codes: 0 for any computed answer (including negative ones), 2 for parse or
validation errors, 1 for an internal invariant violation, 141 (128 + SIGPIPE,
as a shell reports it) when the reader closes stdout early.  ``run`` applies
these codes to ``main`` and to each script in scripts/, so all end alike.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .errors import NoHvf, SeifertError
from .hvf import boundary_tangency
from .homotopy import homotopy_components
from .invariant import _euler_ratio, _fold, _unit_tangent, alternate_fiberings
from .invariant import fiberwise_quotient, normalize
from .lens import (
    MarkedLens,
    classify_lens,
    enumerate_lens_fiberings,
    homeomorphic,
    lens_from_invariant,
    marked_equal,
    oriented_diffeomorphic,
)
from .notation import (
    _canonical_text,
    _digit_budget,
    _int_digit_limit,
    _invariant_text,
    _ratio_str,
    catalog_json,
    degree_set_str,
    invariant_report,
    lens_json,
    parse_invariant,
    parse_orbifold,
    print_invariant,
    print_orbifold,
)
from . import orbifold as orb_mod


def _decision_lines(hvf: dict) -> list[str]:
    """The verdict and its mechanisms, from the report's ``hvf`` section."""
    lines = [f"horizontal vector field: {'yes' if hvf['exists'] else 'no'}"]
    for mech in hvf["mechanisms"]:
        if mech["kind"] == "surface_section":
            lines.append("  via section of the fibering over the base surface")
        else:
            lines.append(
                f"  via fiberwise covering of {mech['target']} "
                f"with degrees {degree_set_str(mech['degrees'])}"
            )
    return lines


def _rational_text(ratio: str) -> str:
    """A report's "numerator/denominator" as ``str(Fraction)`` prints it:
    the ratio is in lowest terms, so only a denominator of 1 is dropped."""
    return ratio.removesuffix("/1")


def _emit(args, payload: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)
    return 0


def _cmd_classify_orbifold(args) -> int:
    orb = parse_orbifold(args.orbifold)
    chi_u = orb_mod.chi_underlying(orb)
    _, x, p = _fold(_unit_tangent(orb.genus_code, orb.boundary_count, orb.cone_orders))
    payload = {
        "input": args.orbifold,
        "orbifold": print_orbifold(orb),
        "chi": _ratio_str(x, p),
        "chi_underlying": chi_u,
        "geometry": None,
        "bad": None,
        "family": None,
    }
    lines = [
        f"orbifold: {payload['orbifold']}",
        f"chi: {_rational_text(payload['chi'])}",
        f"underlying surface chi: {payload['chi_underlying']}",
    ]
    if orb.closed:
        geometry = orb_mod._geometry(orb.genus_code, orb.cone_orders, x)
        payload["geometry"] = geometry.value
        payload["bad"] = geometry is orb_mod.GeometryClass.BAD
        family = orb_mod.elliptic_family(orb) or orb_mod.parabolic_family(orb)
        if isinstance(family, tuple):
            payload["family"] = {"kind": family[0], "param": family[1]}
            family_text = f"{family[0]} (parameter {family[1]})"
        elif family:
            payload["family"] = {"kind": family}
            family_text = family
        else:
            family_text = "none"
        lines += [f"geometry: {geometry.value}", f"family: {family_text}"]
    else:
        lines.append("geometry: undefined (orbifold has boundary)")
    return _emit(args, payload, lines)


def _cmd_ut(args) -> int:
    orb = parse_orbifold(args.orbifold)
    inv = orb_mod.unit_tangent_invariant(orb)
    # the bundle's extra pair (1, -chi0) adds nothing to the cone sum of the
    # fold, so its x/P is chi of the orbifold
    eb, x, p = _fold(inv)
    payload = {
        "input": args.orbifold,
        "orbifold": print_orbifold(orb),
        "invariant": print_invariant(inv),
        "euler_number": _ratio_str(-eb, p),
        "chi": _ratio_str(x, p),
    }
    lines = [
        f"unit tangent bundle: {payload['invariant']}",
        f"euler number: {_rational_text(payload['euler_number'])}",
    ]
    return _emit(args, payload, lines)


def _cmd_normalize(args) -> int:
    inv = parse_invariant(args.invariant)
    cf = normalize(inv)
    payload = {
        "input": args.invariant,
        "normalized_invariant": _canonical_text(cf),
        "genus_code": cf.genus_code,
        "boundary_count": cf.boundary_count,
        "pairs": [list(p) for p in cf.pairs],
        "b": cf.b,
    }
    return _emit(args, payload, [payload["normalized_invariant"]])


def _cmd_euler(args) -> int:
    inv = parse_invariant(args.invariant)
    payload = {"input": args.invariant, "euler_number": _ratio_str(*_euler_ratio(inv))}
    return _emit(args, payload, [_rational_text(payload["euler_number"])])


def _cmd_hvf(args) -> int:
    inv = parse_invariant(args.invariant)
    if not inv.closed:
        raise SeifertError("invariant has boundary; use the boundary-hvf subcommand")
    report = invariant_report(args.invariant, inv)
    lines = [
        f"invariant: {report['normalized_invariant']}",
        f"base orbifold: {report['base_orbifold']}",
        f"geometry: {report['geometry']}",
        f"euler number: {_rational_text(report['euler_number'])}",
        f"chi: {_rational_text(report['chi'])}",
        *_decision_lines(report["hvf"]),
    ]
    obs = report["hvf"]["obstruction"]
    if obs is not None:
        if obs["kind"] == "congruence_clash":
            lines.append(
                f"  obstruction: exceptional fibers {obs['i']} and {obs['j']} "
                "impose incompatible degree congruences"
            )
        else:
            lines.append(
                f"  obstruction: no non-zero integer d with d * ({obs['euler']}) "
                f"= {obs['chi']} in the allowed congruence class"
            )
    return _emit(args, report, lines)


# The texts ``int`` converts in base 10: Unicode digits, one underscore
# between two of them, and around them the spaces of str.isspace but for
# U+001C..U+001F.  Compiled by ``re`` on first use, so only quotient pays.
_INT_TEXT = r"[^\S\x1c-\x1f]*[+-]?(\d+(?:_\d+)*)[^\S\x1c-\x1f]*"


def _int_text(text: str) -> str:
    """An int argument left unconverted, so that its digits can be counted
    before it is converted: a text that ``int`` refuses, with more digits
    than Python's limit too, gets argparse's message for an int."""
    m = re.fullmatch(_INT_TEXT, text)
    if m is None or 0 < _int_digit_limit() < len(m.group(1)) - m.group(1).count("_"):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return text


def _cmd_quotient(args) -> int:
    inv = parse_invariant(args.invariant)
    # the degree multiplies every beta, so its digits count against the
    # budget of the description's literals (which hold all its digits), and
    # the quotient stays printable; they are counted before it is converted
    digits = sum(c.isdigit() for c in args.invariant) + sum(map(str.isdecimal, args.degree))
    if digits > _digit_budget():
        raise ValueError("degree too large")
    degree = int(args.degree)
    result = fiberwise_quotient(inv, degree)
    payload = {
        "input": args.invariant,
        "degree": degree,
        "invariant": print_invariant(result),
    }
    return _emit(args, payload, [payload["invariant"]])


def _cmd_lens(args) -> int:
    inv = parse_invariant(args.invariant)
    lens = lens_from_invariant(inv)
    payload = {"input": args.invariant, **lens_json(lens)}
    lines = [
        str(lens),
        f"horizontal vector field: {'yes' if payload['fibered_hvf'] else 'no'}",
    ]
    return _emit(args, payload, lines)


def _cmd_lens_classify(args) -> int:
    result = classify_lens(args.p, args.q)
    witness = print_invariant(result.witness) if result.witness else None
    payload = {"p": args.p, "q": args.q, "case": result.case.value, "witness": witness}
    lines = [f"case: {result.case.value}"]
    if witness:
        lines.append(f"witness: {witness}")
    return _emit(args, payload, lines)


def _cmd_lens_equal(args) -> int:
    first = MarkedLens(args.p1, args.q1)
    second = MarkedLens(args.p2, args.q2)
    relation = {
        "marked": marked_equal,
        "oriented": oriented_diffeomorphic,
        "homeo": homeomorphic,
    }[args.relation]
    verdict = relation(first, second)
    payload = {
        "relation": args.relation,
        "first": {"p": first.p, "q": first.q},
        "second": {"p": second.p, "q": second.q},
        "equal": verdict,
    }
    return _emit(args, payload, [f"equal: {'yes' if verdict else 'no'}"])


def _cmd_enumerate_lens(args) -> int:
    target = MarkedLens(args.p, args.q)
    found = enumerate_lens_fiberings(target, args.bound)
    payload = {
        "target": {"p": target.p, "q": target.q},
        "bound": args.bound,
        "fiberings": [_invariant_text(0, 0, inv.pairs) for inv in found],
    }
    return _emit(args, payload, payload["fiberings"] or ["(none found)"])


def _cmd_homotopy(args) -> int:
    inv = parse_invariant(args.invariant)
    payload = {
        "input": args.invariant,
        "invariant": print_invariant(inv),
        "homotopy": None,
        "note": None,
    }
    try:
        catalog = homotopy_components(inv)
    except NoHvf:
        payload["note"] = "no horizontal vector field exists"
        return _emit(args, payload, [payload["note"]])
    payload["homotopy"] = shown = catalog_json(catalog)
    lines = [
        f"degrees: {degree_set_str(shown['degrees'])}",
        f"cohomology rank: {shown['cohomology_rank']}",
        f"unique up to homotopy: {'yes' if shown['unique_up_to_homotopy'] else 'no'}",
    ]
    return _emit(args, payload, lines)


def _cmd_boundary_hvf(args) -> int:
    inv = parse_invariant(args.invariant)
    if inv.closed:
        raise SeifertError("invariant is closed; use the hvf subcommand")
    report = invariant_report(args.invariant, inv)
    note = None
    if report["hvf"]["exists"]:
        # one horizontal field gives infinitely many homotopy classes with
        # boundary: the degree repeats modulo the lcm of the cone orders
        note = "infinitely many homotopy classes of horizontal vector fields"
    keys = ("input", "normalized_invariant", "base_orbifold", "hvf")
    payload = {key: report[key] for key in keys}
    payload.update(boundary_tangency=boundary_tangency(inv), homotopy_note=note)
    lines = [
        f"invariant: {payload['normalized_invariant']}",
        *_decision_lines(payload["hvf"]),
        "tangent/transverse to the boundary possible: "
        f"{'yes' if payload['boundary_tangency'] else 'no'}",
    ]
    if note:
        lines.append(note)
    return _emit(args, payload, lines)


def _cmd_alternates(args) -> int:
    inv = parse_invariant(args.invariant)
    alternates = alternate_fiberings(inv)
    payload = {
        "input": args.invariant,
        "invariant": print_invariant(inv),
        "alternates": [
            {
                "kind": alt.kind,
                "invariant": print_invariant(alt.invariant) if alt.invariant else None,
                "note": alt.note,
            }
            for alt in alternates
        ],
    }
    lines = [
        f"{alt['kind']}: {alt['invariant'] or '(family)'} -- {alt['note']}"
        for alt in payload["alternates"]
    ]
    return _emit(args, payload, lines or ["unique fibering of its manifold"])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="seifert",
        description="Decide existence of horizontal vector fields on Seifert "
        "fiber spaces, and compute the related invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    p = add("classify-orbifold", _cmd_classify_orbifold, "geometry of an orbifold")
    p.add_argument("orbifold")
    p = add("ut", _cmd_ut, "Seifert invariant of an orbifold's unit tangent bundle")
    p.add_argument("orbifold")
    p = add("normalize", _cmd_normalize, "canonical form of a Seifert invariant")
    p.add_argument("invariant")
    p = add("euler", _cmd_euler, "Euler number of a closed fibering")
    p.add_argument("invariant")
    p = add("hvf", _cmd_hvf, "decide existence of a horizontal vector field")
    p.add_argument("invariant")
    p = add("quotient", _cmd_quotient, "fiberwise quotient by a degree")
    p.add_argument("invariant")
    p.add_argument("degree", type=_int_text)
    p = add("lens", _cmd_lens, "marked lens space of a two-fiber invariant")
    p.add_argument("invariant")
    p = add("lens-classify", _cmd_lens_classify, "how many fiberings of L(p,q) have one")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p = add("lens-equal", _cmd_lens_equal, "compare two marked lens spaces")
    p.add_argument("p1", type=int)
    p.add_argument("q1", type=int)
    p.add_argument("p2", type=int)
    p.add_argument("q2", type=int)
    p.add_argument(
        "--relation", choices=["marked", "oriented", "homeo"], default="marked"
    )
    p = add("enumerate-lens", _cmd_enumerate_lens, "two-fiber fiberings of L(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("bound", type=int)
    p = add("homotopy", _cmd_homotopy, "homotopy classes of horizontal fields")
    p.add_argument("invariant")
    p = add("boundary-hvf", _cmd_boundary_hvf, "decision for fiberings with boundary")
    p.add_argument("invariant")
    p = add("alternates", _cmd_alternates, "other fiberings of the same manifold")
    p.add_argument("invariant")
    return parser


def run(entry, *args) -> int:
    """Call ``entry(*args)`` and return its exit code: what it returns once
    stdout is flushed, 141 when the reader closed stdout, 2 on a
    ``ValueError`` and 1 on any other exception."""
    try:
        code = entry(*args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; devnull absorbs the flush at exit ("Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as err:  # SeifertError subclasses ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # an internal invariant violation
        import traceback  # only here, to keep it off every query's import

        traceback.print_exc(file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.handler, args)


if __name__ == "__main__":
    sys.exit(main())
