"""Independent reference verdicts from sympy, and the checks against them.

sympy shares no code with sextic. run.py calls this module in its own
process, after the measured worker has exited, so sympy counts toward
neither set-up time nor the worker's memory.

For a sextic the reference is the exact discriminant of the monic
polynomial, irreducibility over Q, and for irreducible inputs the Galois
group: solvable unless it is PSL2F5, PGL2F5, A6 or S6, and alternating
exactly when the discriminant is a square. For a quintic found by the
parameter search it is irreducibility and a solvable Galois group.

Print the reference for one corpus (it is recomputed on every run):

    python3 perfbench/reference.py --workload reduced --seed 1 [--limit N]
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

import sympy as sp
from sympy.polys.numberfields.galoisgroups import galois_group

import corpus

X = sp.Symbol("x")
NOT_SOLVABLE = {"PSL2F5", "PGL2F5", "A6", "S6", "A5", "S5"}

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _poly(coeffs) -> sp.Poly:
    """sympy polynomial from low-to-high "p/q" strings."""
    return sp.Poly([sp.Rational(str(c)) for c in reversed(coeffs)], X, domain="QQ")


def reduced_coeffs(d, e) -> tuple:
    """x^6 + x^2 + d x + e, low to high."""
    return (str(e), str(d), "1", "0", "0", "0", "1")


def quintic_coeffs(a, b) -> tuple:
    """x^5 + a x + b, low to high."""
    return (str(b), str(a), "0", "0", "0", "1")


@lru_cache(maxsize=None)
def polynomial_reference(coeffs: tuple) -> dict:
    p = _poly(coeffs).monic()
    disc = p.discriminant()
    ref = {"discriminant": Fraction(int(disc.p), int(disc.q)), "irreducible": None,
           "solvable": None, "alternating": None}
    if disc == 0:
        return ref
    ref["irreducible"] = bool(p.is_irreducible)
    if ref["irreducible"]:
        group, alternating = galois_group(p, by_name=True)
        ref["solvable"] = group.name not in NOT_SOLVABLE
        ref["alternating"] = bool(alternating)
    return ref


def _sextic_mismatch(ref: dict, disc: str, irreducible: bool, square: bool, solvable: str):
    """Reason a completed verdict disagrees with the reference, or None."""
    if Fraction(disc) != ref["discriminant"]:
        return f"discriminant {disc} != {ref['discriminant']}"
    if ref["discriminant"] == 0:
        return "verdict on a polynomial with repeated roots"
    if irreducible != ref["irreducible"]:
        return f"irreducible={irreducible}, reference {ref['irreducible']}"
    if not irreducible:
        return None if solvable == "NotApplicable" else f"reducible but solvable={solvable}"
    if (solvable == "Yes") != ref["solvable"]:
        return f"solvable={solvable}, reference {ref['solvable']}"
    if square != ref["alternating"]:
        return f"square discriminant={square}, reference alternating={ref['alternating']}"
    return None


def _refusal(error: str, ref: dict) -> str:
    # refusing a polynomial with repeated roots is the correct answer
    if error == "DegenerateSextic" and ref["discriminant"] == 0:
        return OK
    return FAILED


def check_sextic(op: dict, outcome: dict) -> list:
    """[(status, detail)] for one classify op."""
    ref = polynomial_reference(tuple(op["coeffs"]))
    if "error" in outcome:
        if outcome["error"] == "InconsistentRepeat":
            return [(WRONG, f"repeat gave another outcome: {outcome}")]
        return [(_refusal(outcome["error"], ref), outcome["error"])]
    why = _sextic_mismatch(ref, outcome["discriminant"], outcome["irreducible"],
                           outcome["square"], outcome["solvable"])
    return [(WRONG, why) if why else (OK, "")]


_ERROR_LINE = re.compile(r"^d=(\S+) e=(\S+): (\w+): ")


def check_grid_row(op: dict, outcome: dict) -> list:
    """[(status, detail)] for each grid point of one `search` row."""
    if "error" in outcome:
        status = WRONG if outcome["error"] == "InconsistentRepeat" else FAILED
        return [(status, f"row d={op['d']}: {outcome['error']}")] * (op["e_hi"] - op["e_lo"] + 1)
    d = Fraction(op["d"])
    points = {Fraction(e): None for e in range(op["e_lo"], op["e_hi"] + 1)}
    bad = []
    for line in outcome["stdout"].splitlines():
        hit = json.loads(line)
        key = Fraction(hit["e"])
        if Fraction(hit["d"]) != d or key not in points:
            bad.append(f"hit outside the row: {line[:80]}")
        else:
            points[key] = ("hit", hit["report"])
    for line in outcome["stderr"].splitlines():
        m = _ERROR_LINE.match(line)
        if not m or Fraction(m.group(1)) != d or Fraction(m.group(2)) not in points:
            bad.append(f"unexpected stderr: {line[:80]}")
        else:
            points[Fraction(m.group(2))] = ("error", m.group(3))
    if outcome["rc"] != 0:
        bad.append(f"exit code {outcome['rc']}")
    out = [(WRONG, b) for b in bad]
    for e, seen in points.items():
        ref = polynomial_reference(reduced_coeffs(d, e))
        where = f"(d, e) = ({d}, {e})"
        if seen is None:  # no line: neither a solvable hit nor a refusal
            if ref["discriminant"] == 0:
                out.append((WRONG, f"{where}: repeated roots not refused"))
            elif ref["irreducible"] and ref["solvable"]:
                out.append((WRONG, f"{where}: solvable point missing from the hits"))
            else:
                out.append((OK, ""))
        elif seen[0] == "error":
            out.append((_refusal(seen[1], ref), f"{where}: {seen[1]}"))
        else:
            r = seen[1]
            why = _sextic_mismatch(ref, r["discriminant"], r["irreducible"],
                                   r["sqrt_discriminant"] is not None, r["solvable"])
            if why is None and not (r["irreducible"] and r["solvable"] == "Yes"):
                why = "hit that is not irreducible and solvable"
            out.append((WRONG, f"{where}: {why}") if why else (OK, ""))
    return out


def check_quintic(op: dict, outcome: dict) -> list:
    """[(status, detail)] for one (a, b) query."""
    if "error" in outcome:
        status = WRONG if outcome["error"] == "InconsistentRepeat" else FAILED
        return [(status, outcome["error"])]
    if not outcome["found"]:
        # the search is complete only up to its height bound, so a miss is
        # checked only on a pair built from parameters inside that bound
        if op["class"] == "built":
            return [(WRONG, "no parameters found for a pair built inside the height bound")]
        return [(OK, "")]
    a, b = Fraction(op["a"]), Fraction(op["b"])
    eps, c, e = outcome["params"][0], Fraction(outcome["params"][1]), Fraction(outcome["params"][2])
    denom = c**2 + 1
    if (5 * e**4 * (3 - 4 * eps * c) / denom, -4 * e**5 * (11 * eps + 2 * c) / denom) != (a, b):
        return [(WRONG, f"parameters {outcome['params']} do not give (a, b) = ({a}, {b})")]
    ref = polynomial_reference(quintic_coeffs(a, b))
    if outcome["irreducible"] != ref["irreducible"]:
        return [(WRONG, f"irreducible={outcome['irreducible']}, reference {ref['irreducible']}")]
    if ref["irreducible"] and not ref["solvable"]:
        return [(WRONG, "parameters found for a quintic whose group is not solvable")]
    roots = [complex(float(re_), float(im)) for re_, im in outcome["roots"]]
    scale = 1 + abs(a) + abs(b)
    for z in roots:
        if abs(z**5 + float(a) * z + float(b)) > 1e-9 * scale * max(1.0, abs(z)) ** 5:
            return [(WRONG, f"radical root {z} does not solve x^5 + {a}x + {b}")]
    distinct = ref["discriminant"] != 0
    for i, z in enumerate(roots):
        for w in roots[i + 1:]:
            if distinct and cmath.isclose(z, w, rel_tol=1e-12, abs_tol=1e-12):
                return [(WRONG, "radical roots repeat a root")]
    return [(OK, "")]


CHECKS = {"reduced": check_sextic, "general": check_sextic, "grid": check_grid_row,
          "quintic": check_quintic}


def _jsonable(ref: dict) -> dict:
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in ref.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--limit", type=int, default=20, help="ops to print (default 20)")
    args = ap.parse_args()
    for op in corpus.make(args.workload, args.seed)[: args.limit]:
        if args.workload == "grid":
            refs = {e: _jsonable(polynomial_reference(reduced_coeffs(op["d"], e)))
                    for e in range(op["e_lo"], op["e_hi"] + 1)}
        elif args.workload == "quintic":
            refs = _jsonable(polynomial_reference(quintic_coeffs(op["a"], op["b"])))
        else:
            refs = _jsonable(polynomial_reference(tuple(op["coeffs"])))
        print(json.dumps({"op": op, "reference": refs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
