"""Command-line interface.

Subcommands: classify, resolvent, discriminant, audit, search, quintic.
Machine-readable JSON by default (rationals always serialized as exact
"p/q" strings, never floats); --format text for aligned human output.
Exit codes: 0 success, 1 usage or parse error or closed stdout, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import mpmath as mp

from .classify import ClassificationReport, classify, scan_point
from .errors import NumericFailure
from .exact import RatPoly, rational_roots
from .quintic import QuinticParams, params_from_ab, radical_roots, search_quintics
from .resolvents import (
    ReducedSextic,
    ResolventKind,
    discriminant_exact,
    discriminant_reduced,
    f_reduced,
    g_reduced,
    reconstruct_reduced,
    resolvents_exact,
)
from .roots import PRECISION_CAP, check_precision

_KINDS = {"j": ResolventKind.MATCHING, "k": ResolventKind.PARTITION}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the interface contract says 1."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(1 if status else 0)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _precision_bits(text: str) -> int:
    try:
        return check_precision(int(text))
    except ValueError:
        bounds = f"1..{PRECISION_CAP} (flag or SEXTIC_PRECISION_BITS)"
        raise argparse.ArgumentTypeError(f"must be an integer in {bounds}, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _coeff_list(text: str) -> RatPoly:
    try:
        parts = [Fraction(t.strip()) for t in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list: {text!r}") from exc
    if not parts or parts[0] == 0:
        raise argparse.ArgumentTypeError("leading coefficient must be nonzero")
    return RatPoly(parts[::-1])


def _poly_from_args(args, parser) -> RatPoly:
    if args.coeffs is not None:
        if args.d is not None or args.e is not None:
            parser.error("--coeffs and --d/--e are mutually exclusive")
        return args.coeffs
    if args.d is None or args.e is None:
        parser.error("provide either --coeffs or both --d and --e")
    return ReducedSextic(args.d, args.e).to_poly()


def _poly_strings(p: RatPoly) -> list:
    return [str(c) for c in reversed(p.coeffs)]


def _report_dict(report: ClassificationReport) -> dict:
    return {
        "input": _poly_strings(report.input),
        "irreducible": report.irreducible,
        "f_roots": [str(r) for r in sorted(report.f_roots)],
        "g_roots": [str(r) for r in sorted(report.g_roots)],
        "discriminant": str(report.discriminant),
        "sqrt_discriminant": None
        if report.sqrt_discriminant is None
        else str(report.sqrt_discriminant),
        "bound": report.bound.value,
        "solvable": report.solvable.value,
        "notes": list(report.notes),
    }


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data))
        return
    for key, value in data.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for item in value:
                print("  " + ", ".join(f"{k}={v}" for k, v in item.items()))
        else:
            print(f"{key}: {value}")


def _params_dict(p: QuinticParams) -> dict:
    return {"epsilon": p.epsilon, "c": str(p.c), "e": str(p.e)}


def _complex_dict(z, digits: int = 30) -> dict:
    return {"re": mp.nstr(mp.mpf(z.real), digits), "im": mp.nstr(mp.mpf(z.imag), digits)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args, parser) -> int:
    poly = _poly_from_args(args, parser)
    report = classify(poly)
    _emit(_report_dict(report), args.format)
    return 0


def _cmd_resolvent(args, parser) -> int:
    kind = _KINDS[args.kind]
    reduced = None
    if args.coeffs is None and args.d is not None and args.e is not None:
        reduced = ReducedSextic(args.d, args.e)
    poly = _poly_from_args(args, parser)
    out = {"kind": args.kind, "method": args.method}
    closed = numeric = None
    if args.method in ("closed", "both"):
        if reduced is None:
            parser.error("--method closed needs the reduced --d/--e form")
        closed = f_reduced(reduced) if kind is ResolventKind.MATCHING else g_reduced(reduced)
        out["closed"] = _poly_strings(closed)
    if args.method in ("numeric", "both"):
        ((numeric, _),) = resolvents_exact(poly, (kind,))
        out["numeric"] = _poly_strings(numeric)
    if args.method == "both":
        diff = []
        for power in range(kind.degree, -1, -1):
            if closed[power] != numeric[power]:
                diff.append(
                    {"x_power": power, "closed": str(closed[power]), "numeric": str(numeric[power])}
                )
        out["diff"] = diff
    if args.roots:
        target = numeric if numeric is not None else closed
        out["rational_roots"] = [str(r) for r in sorted(rational_roots(target))]
    _emit(out, args.format)
    return 0


def _cmd_discriminant(args, parser) -> int:
    poly = _poly_from_args(args, parser)
    out = {"input": _poly_strings(poly), "exact": str(discriminant_exact(poly))}
    if args.coeffs is None:
        out["reduced_formula"] = str(discriminant_reduced(ReducedSextic(args.d, args.e)))
    _emit(out, args.format)
    return 0


def _cmd_audit(args, parser) -> int:
    kinds = [args.kind] if args.kind else ["j", "k"]
    documents = []
    for label in kinds:
        report = reconstruct_reduced(_KINDS[label])
        terms = [{**asdict(t), "match": t.reference == t.fitted} for t in report.terms]
        documents.append(
            {
                "kind": label,
                "matches_reference": report.matches_reference(),
                "discrepancy_count": len(report.discrepancies),
                "notes": list(report.notes),
                "holdout_points": [list(pt) for pt in report.holdout_points],
                "terms": terms,
            }
        )
    if args.format == "json":
        print(json.dumps(documents))
        return 0
    for doc in documents:
        print(f"kind {doc['kind']}: matches reference: {doc['matches_reference']}")
        for note in doc["notes"]:
            print(f"  note: {note}")
        for term in doc["terms"]:
            if not term["match"]:
                print(
                    f"  x^{term['x_power']} d^{term['d_power']} e^{term['e_power']}: "
                    f"reference {term['reference']}, fitted {term['fitted']}"
                )
    return 0


def _parse_range(text: str) -> tuple:
    """(lo, hi, step) of LO:HI[:STEP]; the values are generated by _range_values."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"range must be LO:HI or LO:HI:STEP, got {text!r}")
    lo, hi = _fraction(parts[0]), _fraction(parts[1])
    step = _fraction(parts[2]) if len(parts) == 3 else Fraction(1)
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range LO must not exceed HI, got {text!r}")
    return lo, hi, step


def _range_values(lo: Fraction, hi: Fraction, step: Fraction):
    v = lo
    while v <= hi:
        yield v
        v += step


def _print_scan(results) -> None:
    """Print hits to stdout and errors to stderr, each as soon as its point arrives."""
    for d, e, report, error in results:
        if error is not None:
            print(f"d={d} e={e}: {error}", file=sys.stderr)
        elif report is not None:
            print(json.dumps({"d": str(d), "e": str(e), "report": _report_dict(report)}), flush=True)


def _cmd_search(args, parser) -> int:
    grid = args.d_range is not None or args.e_range is not None
    if grid and args.quintic:
        parser.error("--quintic and --d-range/--e-range are mutually exclusive")
    if grid and args.box is not None:
        parser.error("--box and --d-range/--e-range are mutually exclusive (--box bounds --quintic)")
    if args.quintic:
        if args.box is None:
            parser.error("--quintic needs --box N")
        for a, b, params in search_quintics(args.box):
            print(json.dumps({"a": str(a), "b": str(b), "params": _params_dict(params)}), flush=True)
        return 0
    if args.d_range is None or args.e_range is None:
        parser.error("provide --d-range and --e-range (or --quintic --box N)")
    # nested generators, not itertools.product, which would materialize both ranges
    points = ((d, e) for d in _range_values(*args.d_range) for e in _range_values(*args.e_range))
    _print_scan(map(scan_point, points))
    return 0


def _cmd_quintic(args, parser) -> int:
    if args.params is not None:
        if args.a is not None or args.b is not None:
            parser.error("--params and --a/--b are mutually exclusive")
        try:
            eps_s, c_s, e_s = args.params.split(",")
            params = QuinticParams(int(eps_s), Fraction(c_s), Fraction(e_s))
        except (ValueError, ZeroDivisionError) as exc:
            parser.error(f"bad --params (want eps,c,e): {exc}")
    else:
        if args.a is None or args.b is None:
            parser.error("provide --a and --b, or --params eps,c,e")
        if args.a == 0:
            parser.error("--a must be nonzero")
        params = params_from_ab(args.a, args.b)
        if params is None:
            _emit({"a": str(args.a), "b": str(args.b), "found": False}, args.format)
            return 0
    tower = radical_roots(params, args.precision_bits)
    out = {
        "a": str(tower.a),
        "b": str(tower.b),
        "found": True,
        "params": _params_dict(params),
        "roots": [_complex_dict(z) for z in tower.roots],
        "residual": mp.nstr(tower.residual, 8),
    }
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_poly_flags(sub):
    sub.add_argument("--coeffs", type=_coeff_list, help="c6,c5,c4,c3,c2,c1,c0 with rationals as p/q")
    sub.add_argument("--d", type=_fraction, help="reduced-form linear coefficient")
    sub.add_argument("--e", type=_fraction, help="reduced-form constant coefficient")


def _precision_default() -> str:
    # argparse runs a string default through type, so a bad env value exits 1 too
    return os.environ.get("SEXTIC_PRECISION_BITS", "256")


def build_parser() -> _Parser:
    """The sextic parser; `precision_bits` is its --precision-bits action,
    which every subcommand shares."""
    common = argparse.ArgumentParser(add_help=False)
    precision_bits = common.add_argument(
        "--precision-bits",
        type=_precision_bits,
        default=_precision_default(),
        help="working precision of the quintic radical tower "
        "(default 256, env SEXTIC_PRECISION_BITS)",
    )
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = _Parser(prog="sextic", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", parents=[common], help="solvability report for a sextic")
    _add_poly_flags(p)
    p.set_defaults(func=_cmd_classify, parser=p)

    p = subs.add_parser(
        "resolvent", parents=[common], help="resolvent polynomial by closed form or root orbit"
    )
    _add_poly_flags(p)
    p.add_argument("--kind", choices=("j", "k"), required=True,
                   help="j: degree-15 matching resolvent, k: degree-10 partition resolvent")
    p.add_argument("--method", choices=("closed", "numeric", "both"), default="both")
    p.add_argument("--roots", action="store_true", help="also list rational roots")
    p.set_defaults(func=_cmd_resolvent, parser=p)

    p = subs.add_parser(
        "discriminant", parents=[common], help="exact discriminant (and reduced-form formula)"
    )
    _add_poly_flags(p)
    p.set_defaults(func=_cmd_discriminant, parser=p)

    p = subs.add_parser(
        "audit", parents=[common], help="re-derive closed-form tables and diff the transcription"
    )
    p.add_argument("--kind", choices=("j", "k"))
    p.set_defaults(func=_cmd_audit, parser=p)

    p = subs.add_parser(
        "search", parents=[common], help="scan reduced sextics or Bring-Jerrard quintics"
    )
    p.add_argument("--d-range", type=_parse_range,
                   help="LO:HI[:STEP]; write --d-range=-3:3 for a negative LO")
    p.add_argument("--e-range", type=_parse_range,
                   help="LO:HI[:STEP]; write --e-range=-3:3 for a negative LO")
    p.add_argument("--quintic", action="store_true")
    p.add_argument("--box", type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility and ignored; the scan runs in one process")
    p.set_defaults(func=_cmd_search, parser=p)

    p = subs.add_parser(
        "quintic", parents=[common], help="parameters and radical roots for x^5 + a x + b"
    )
    p.add_argument("--a", type=_fraction)
    p.add_argument("--b", type=_fraction)
    p.add_argument(
        "--params",
        help="eps,c,e with epsilon in {1,-1}, c >= 0, e != 0; "
        "use --params=-1,1/2,1 for a leading minus",
    )
    p.set_defaults(func=_cmd_quintic, parser=p)
    parser.precision_bits = precision_bits
    return parser


_PARSER = None  # built by the first main call, reused by the later ones


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    parser.precision_bits.default = _precision_default()
    # exact values may run past the int-to-str digit limit: lift it for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args, args.parser)
    except SystemExit as exc:  # a usage error, or parser.error inside a subcommand
        return int(exc.code or 0)
    except NumericFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout; spare the final flush the same error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
