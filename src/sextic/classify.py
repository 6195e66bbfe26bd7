"""Solvability decision pipeline for degree-6 polynomials.

An irreducible sextic is solvable by radicals exactly when its Galois group
lies in the order-48 matching-stabilizer group or the order-72
partition-stabilizer group, which happens exactly when the corresponding
resolvent (degree 15 or 10) has a rational root. A rational square
discriminant further pushes the group into the alternating group, refining
each bound to its even part; rational roots in both resolvents pin the
group inside the order-12 dihedral intersection.

Reduced-shape inputs (x^6 + x^2 + d*x + e) use the audited closed-form
resolvent tables; everything else goes through the numeric orbit oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .errors import (
    DegenerateSextic,
    NonConvergence,
    PrecisionExhausted,
    RepeatedRootSuspected,
    SexticError,
    ZeroD,
)
from .exact import (
    IntPoly,
    RatPoly,
    is_rational_square,
    poly_divide_exact,
    rational_roots,
    resultant,
)
from .resolvents import (
    ReducedSextic,
    ResolventKind,
    discriminant_exact,
    f_verified,
    g_verified,
    resolvent_numeric_in_frame,
)
from .roots import PRECISION_CAP, PRECISION_START, find_roots, min_separation, precision_ladder


class GroupBound(Enum):
    """Where the pipeline can place the Galois group inside S6."""

    SUBGROUP_OF_J = "SubgroupOfJ"  # matching stabilizer, order 48
    SUBGROUP_OF_K = "SubgroupOfK"  # partition stabilizer, order 72
    SUBGROUP_OF_L = "SubgroupOfL"  # J meet A6, order 24
    SUBGROUP_OF_M = "SubgroupOfM"  # K meet A6, order 36
    SUBGROUP_OF_D6 = "SubgroupOfD6"  # J meet K, dihedral of order 12
    NOT_SOLVABLE = "NotSolvableBound"
    INCONCLUSIVE = "Inconclusive"


class Solvable(Enum):
    YES = "Yes"
    NO = "No"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ClassificationReport:
    input: RatPoly
    irreducible: bool
    f_roots: frozenset
    g_roots: frozenset
    discriminant: Fraction
    sqrt_discriminant: Optional[Fraction]
    bound: GroupBound
    solvable: Solvable
    notes: tuple


def _subset_error_bound(n: int, k: int, radius, root_err):
    """Rigorous-side bound on the error of subset elementary symmetric
    functions when each root is off by at most root_err."""
    return 8 * (2**k) * k * (radius + 1) ** k * root_err


def is_irreducible(p: RatPoly, precision: int = PRECISION_START) -> bool:
    """Exact irreducibility over the rationals for degree <= 6.

    Degree-1 factors come from the rational root theorem. Degree-2 and -3
    factors are recovered by grouping subsets of certified high-precision
    complex roots, rounding the subset's symmetric functions to integers,
    and verifying the candidate by exact division; the subset loop certifies
    non-integrality through the propagated error bound, so a True answer is
    a proof, never a guess.
    """
    n = p.degree
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if n == 1:
        return True
    if n > 6:
        raise ValueError("irreducibility test is specialized to degree <= 6")
    if not p.coeffs[0]:
        return False  # divisible by x
    if resultant(p, p.derivative()) == 0:
        return False  # repeated factor
    if rational_roots(p):
        return False
    if n <= 3:
        return True
    # monic integer model y^n + ...: q(y) = lead^(n-1) * P(y/lead)
    _, prim = p.primitive()
    a = prim.coeffs[-1]
    q = RatPoly([c * a ** (n - 1 - j) for j, c in enumerate(prim.coeffs)])
    for prec in precision_ladder(precision, PRECISION_CAP):
        try:
            rts = find_roots(q, prec)
        except (NonConvergence, RepeatedRootSuspected):
            continue
        with mp.workprec(prec + 32):
            err = rts.error_radius
            radius = max(abs(z) for z in rts.roots)
            if min_separation(rts.roots) <= 2 * err:
                continue  # cannot separate the roots at this precision
            certified = True
            for k in range(2, n // 2 + 1):
                bound = _subset_error_bound(n, k, radius, err)
                if bound >= 0.25:
                    certified = False
                    break
                for subset in itertools.combinations(range(n), k):
                    cand = _integer_factor_candidate(rts.roots, subset, bound)
                    if cand is None:
                        continue
                    if poly_divide_exact(q, cand.to_rat()) is not None:
                        return False
            if certified:
                return True
    raise PrecisionExhausted("cannot certify irreducibility at the precision cap")


def _integer_factor_candidate(roots, subset, bound) -> Optional[IntPoly]:
    """Monic integer polynomial whose roots are the chosen subset, when all
    its coefficients sit within bound of integers."""
    coeffs = [mp.mpc(1)]
    for idx in subset:
        nxt = [mp.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * roots[idx]
        coeffs = nxt
    out = []
    for c in coeffs:
        nearest = mp.nint(c.real)
        if abs(c.imag) > bound or abs(c.real - nearest) > bound:
            return None
        out.append(int(nearest))
    return IntPoly(out)


def _as_reduced(p: RatPoly) -> Optional[ReducedSextic]:
    c = p.coeffs
    if c[2] == 1 and not c[3] and not c[4] and not c[5]:
        return ReducedSextic(c[1], c[0])
    return None


def classify(p: RatPoly, precision: int = PRECISION_START) -> ClassificationReport:
    """Run the full decision tree on a degree-6 polynomial.

    Raises DegenerateSextic when p has a repeated root. Reducible inputs get
    solvable=NotApplicable (their factors have degree <= 5 and are handled
    classically); the containment tests only mean anything for irreducible
    inputs.
    """
    if p.degree != 6:
        raise ValueError("classification expects degree exactly 6")
    monic = p.monic()
    disc = discriminant_exact(monic)
    if disc == 0:
        raise DegenerateSextic("repeated roots: the solvability criteria do not apply")
    notes = []
    irreducible = is_irreducible(monic, precision)
    reduced = _as_reduced(monic)
    if reduced is not None:
        f = f_verified(reduced)
        g = g_verified(reduced)
    else:
        notes.append("resolvents built numerically from the root orbits")
        f = resolvent_numeric_in_frame(monic, ResolventKind.MATCHING, precision)
        g = resolvent_numeric_in_frame(monic, ResolventKind.PARTITION, precision)
    f_roots = frozenset(rational_roots(f))
    g_roots = frozenset(rational_roots(g))
    sqrt_disc = is_rational_square(disc)
    if resultant(f, f.derivative()) == 0:
        notes.append("degree-15 resolvent has repeated roots; containment test may be ambiguous")
    if resultant(g, g.derivative()) == 0:
        notes.append("degree-10 resolvent has repeated roots; containment test may be ambiguous")
    if not irreducible:
        notes.append("reducible over the rationals: solvability criteria not applicable")
        bound, solvable = GroupBound.INCONCLUSIVE, Solvable.NOT_APPLICABLE
    else:
        has_f, has_g = bool(f_roots), bool(g_roots)
        square = sqrt_disc is not None
        if has_f and has_g:
            bound = GroupBound.SUBGROUP_OF_D6
            if square:
                notes.append("square discriminant: group also lies in the alternating group")
        elif has_f:
            bound = GroupBound.SUBGROUP_OF_L if square else GroupBound.SUBGROUP_OF_J
        elif has_g:
            bound = GroupBound.SUBGROUP_OF_M if square else GroupBound.SUBGROUP_OF_K
        else:
            bound = GroupBound.NOT_SOLVABLE
        solvable = Solvable.YES if (has_f or has_g) else Solvable.NO
    return ClassificationReport(
        input=p,
        irreducible=irreducible,
        f_roots=f_roots,
        g_roots=g_roots,
        discriminant=disc,
        sqrt_discriminant=sqrt_disc,
        bound=bound,
        solvable=solvable,
        notes=tuple(notes),
    )


def vanishing_constant_family(d) -> ReducedSextic:
    """The vanishing-constant-term family e = (32 d^4 + 3) / (144 d^2).

    Every member's degree-15 resolvent has the rational root 0, so the
    family is solvable whenever the sextic is irreducible.
    """
    d = Fraction(d)
    if d == 0:
        raise ZeroD("the family needs d != 0")
    return ReducedSextic(d, (32 * d**4 + 3) / (144 * d**2))


def scan_point(point):
    """Classify one grid point (d, e, precision) of x^6 + x^2 + d*x + e.

    Returns (d, e, report, error): report only for an irreducible solvable
    point, error "Type: message" only for a SexticError; other exceptions
    propagate. Module-level so a process pool can pickle it.
    """
    d, e, precision = point
    d, e = Fraction(d), Fraction(e)
    try:
        report = classify(ReducedSextic(d, e).to_poly(), precision)
    except SexticError as exc:
        return d, e, None, f"{type(exc).__name__}: {exc}"
    if report.irreducible and report.solvable is Solvable.YES:
        return d, e, report, None
    return d, e, None, None


def search_reduced(d_values, e_values, precision: int = PRECISION_START):
    """Classify x^6 + x^2 + d*x + e over a finite grid.

    Returns (hits, errors): hits are (d, e, report) triples for irreducible
    solvable points in grid order; points that raise a SexticError are
    collected as (d, e, message) and never abort the scan.
    """
    results = [scan_point((d, e, precision)) for d in d_values for e in e_values]
    hits = [(d, e, report) for d, e, report, _ in results if report is not None]
    errors = [(d, e, error) for d, e, _, error in results if error is not None]
    return hits, errors
