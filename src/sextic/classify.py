"""Solvability decision pipeline for degree-6 polynomials.

An irreducible sextic is solvable by radicals exactly when its Galois group
lies in the order-48 matching-stabilizer group or the order-72
partition-stabilizer group, which happens exactly when the corresponding
resolvent (degree 15 or 10) has a rational root. A rational square
discriminant further pushes the group into the alternating group, refining
each bound to its even part; rational roots in both resolvents pin the
group inside the order-12 dihedral intersection.

Every step is exact and no verdict involves floating point.
Irreducibility is decided by degree analysis: the factor degrees mod a few
primes usually leave no room for a factor over the rationals. Only when
they do is the input factored mod the best of those primes and Hensel
lifted (is_irreducible). Reduced-shape inputs (x^6 + x^2 + d*x + e) read
their resolvents off the audited closed-form tables; every other sextic
builds them by p-adic lifting of its roots (resolvents.resolvents_exact).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import modp
from .errors import DegenerateSextic, SexticError, ZeroD
from .exact import (
    RatPoly,
    _exact_quotient,
    _odd_primes,
    _rational_roots,
    _squarefree_prime,
    is_rational_square,
    monic_model,
    rational_roots,
    resultant,  # noqa: F401  not called; perfbench/spans.py requires the binding
    squarefree,
)
from .resolvents import (
    ReducedSextic,
    ResolventKind,
    discriminant_exact,
    f_verified,
    g_verified,
    resolvents_exact,
)
from .roots import find_roots  # noqa: F401  not called; perfbench/spans.py requires the binding

# Odd primes, squarefree for the input, whose factor degrees is_irreducible
# intersects before it lifts. On the reduced benchmark corpora of seeds 1-3
# (786 inputs) the lift is still needed for 117 inputs after 2 primes, 41
# after 3 and 13 after 4; beyond 3 the time saved is lost in the noise.
DEGREE_SIEVE_PRIMES = 3


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


def is_irreducible(p: RatPoly) -> bool:
    """Exact irreducibility over the rationals for degree <= 6.

    Degree-1 factors come from the exact rational roots. For the rest, the
    monic integer model q (exact.monic_model) is split into distinct-degree
    parts mod each of the first DEGREE_SIEVE_PRIMES odd primes at which it
    is squarefree. A degree-k factor of q over the integers is a product of
    modular factors at every such prime, so k must be a subset sum of the
    factor degrees at each of them; when no k in 2..n//2 is, q is
    irreducible (Musser's degree analysis, J. ACM 25, 1978).

    Otherwise the prime with the fewest modular factors finishes the proof
    (Zassenhaus, J. Number Theory 1, 1969): its distinct-degree parts are
    split into irreducibles (Cantor-Zassenhaus), and every product of them
    whose degree k survived the sieve is Hensel-lifted above twice the
    Mignotte bound C(k, k//2)*|q|_2 on the coefficients of a degree-k
    factor of q, reduced symmetrically and trial-divided in integer
    arithmetic. Finding no factor proves irreducibility.
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
    if not squarefree(p):
        return False  # repeated factor
    if rational_roots(p):
        return False
    if n <= 3:
        return True
    q = monic_model(p.primitive()[1])
    possible = set(range(2, n // 2 + 1))
    primes, sieved = _odd_primes(), []
    for _ in range(DEGREE_SIEVE_PRIMES):
        prime = _squarefree_prime(q, primes)
        q_mod = modp.reduce(q, prime)
        parts = modp.distinct_degree(q_mod, prime)
        sums, count = {0}, 0
        for g, d in parts:
            for _ in range((len(g) - 1) // d):
                sums |= {s + d for s in sums}
                count += 1
        possible &= sums
        if not possible:
            return True
        sieved.append((count, prime, q_mod, parts))
    _, prime, q_mod, parts = min(sieved, key=lambda entry: entry[0])
    factors = [h for g, d in parts for h in modp.equal_degree(g, d, prime)]
    norm2 = sum(c * c for c in q)
    for r in range(1, len(factors)):
        for subset in itertools.combinations(factors, r):
            k = sum(len(f) - 1 for f in subset)
            if k not in possible:
                continue
            lifts = 1  # until prime^lifts > 2 * C(k, k//2) * |q|_2
            while prime ** (2 * lifts) <= 4 * math.comb(k, k // 2) ** 2 * norm2:
                lifts += 1
            g = [1]
            for f in subset:
                g = modp.mul(g, f, prime)
            lifted, _ = modp.hensel_lift(q, g, modp.div_rem(q_mod, g, prime)[0], prime, lifts)
            modulus = prime**lifts
            cand = [modp.symmetric(c, modulus) for c in lifted]
            try:
                _exact_quotient(q, cand)
            except ArithmeticError:
                continue
            return False
    return True


def _as_reduced(p: RatPoly) -> Optional[ReducedSextic]:
    c = p.coeffs
    if c[2] == 1 and not c[3] and not c[4] and not c[5]:
        return ReducedSextic(c[1], c[0])
    return None


def classify(p: RatPoly) -> ClassificationReport:
    """Run the full decision tree on a degree-6 polynomial.

    Raises DegenerateSextic when p has a repeated root. Reducible inputs get
    solvable=NotApplicable (their factors have degree <= 5 and are handled
    classically); the containment tests only mean anything for irreducible
    inputs. Every step is exact.
    """
    if p.degree != 6:
        raise ValueError("classification expects degree exactly 6")
    monic = p.monic()
    disc = discriminant_exact(monic)
    if disc == 0:
        raise DegenerateSextic("repeated roots: the solvability criteria do not apply")
    notes = []
    irreducible = is_irreducible(monic)
    reduced = _as_reduced(monic)
    if reduced is not None:
        f = f_verified(reduced)
        g = g_verified(reduced)
    else:
        notes.append("resolvents built exactly by p-adic lifting of the roots")
        f, g = resolvents_exact(monic, (ResolventKind.MATCHING, ResolventKind.PARTITION))
    f_roots, f_simple = _rational_roots(f)
    g_roots, g_simple = _rational_roots(g)
    f_roots, g_roots = frozenset(f_roots), frozenset(g_roots)
    sqrt_disc = is_rational_square(disc)
    if not f_simple:
        notes.append("degree-15 resolvent has repeated roots; containment test may be ambiguous")
    if not g_simple:
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
    """Classify one grid point (d, e) of x^6 + x^2 + d*x + e.

    Returns (d, e, report, error): report only for an irreducible solvable
    point, error "Type: message" only for a SexticError; other exceptions
    propagate. Module-level so a process pool can pickle it.
    """
    d, e = map(Fraction, point)
    try:
        report = classify(ReducedSextic(d, e).to_poly())
    except SexticError as exc:
        return d, e, None, f"{type(exc).__name__}: {exc}"
    if report.irreducible and report.solvable is Solvable.YES:
        return d, e, report, None
    return d, e, None, None


def search_reduced(d_values, e_values):
    """Classify x^6 + x^2 + d*x + e over a finite grid.

    Returns (hits, errors): hits are (d, e, report) triples for irreducible
    solvable points in grid order; points that raise a SexticError are
    collected as (d, e, message) and never abort the scan.
    """
    results = [scan_point((d, e)) for d in d_values for e in e_values]
    hits = [(d, e, report) for d, e, report, _ in results if report is not None]
    errors = [(d, e, error) for d, e, _, error in results if error is not None]
    return hits, errors
