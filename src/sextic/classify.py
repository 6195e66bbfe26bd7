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

scan_point, the step of `sextic search`, first reduces the two reduced-form
resolvents mod the odd primes below 100 (ROOT_SIEVE_PRIMES). A point at
which each has no root mod some prime has no rational resolvent root, so it
is no hit and skips classify; that is 398 of the 505 points of d = -50..50,
e = -2..2, and each point left has a resolvent with the root 0. Its
zero-discriminant test evaluates the closed-form discriminant table
(discriminant_reduced), not a resultant; the tests prove the two
discriminants equal up to sign as polynomials in d and e.
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
    _F_VERIFIED,
    _G_VERIFIED,
    ReducedSextic,
    ResolventKind,
    _table_integers,
    discriminant_exact,
    discriminant_reduced,
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

# Odd primes at which scan_point looks for roots of the two reduced-sextic
# resolvents before it calls classify: the 24 below 100, each about 16
# big-integer products (modp.has_root). On the grid d = -50..50, e = -2..2,
# 398 of the 505 points have no root in either resolvent mod one of them;
# each of the other 107 has a resolvent with a zero constant term.
ROOT_SIEVE_PRIMES = tuple(itertools.takewhile(lambda r: r < 100, _odd_primes()))


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


def _resolvents_rootless(d: Fraction, e: Fraction) -> bool:
    """True when the verified degree-15 and degree-10 resolvents of
    x^6 + x^2 + d*x + e provably have no rational root.

    Each resolvent is nums / den with integers nums (monic: the leading one
    is den), from resolvents._table_integers. A zero constant numerator is
    the rational root 0, so no prime can settle the point (d = 0, e = 0 and
    the vanishing-constant family). At a prime r not dividing den the
    coefficients are r-integral, so a rational root y is r-integral too (the
    rational root theorem over Z localized at r) and reduces to a root of
    nums mod r in 0..r-1. A resolvent with no such root (modp.has_root) at
    some prime of ROOT_SIEVE_PRIMES therefore has no rational root.
    """
    tables = [_table_integers(_F_VERIFIED, d, e), _table_integers(_G_VERIFIED, d, e)]
    if not all(nums[0] for nums, _ in tables):
        return False
    for r in ROOT_SIEVE_PRIMES:
        tables = [(nums, den) for nums, den in tables if not den % r or modp.has_root(nums, r)]
        if not tables:
            return True
    return False


def scan_point(point):
    """Classify one grid point (d, e) of x^6 + x^2 + d*x + e.

    Returns (d, e, report, error): report only for an irreducible solvable
    point, error "Type: message" only for a SexticError; other exceptions
    propagate.

    A hit needs a rational root of the degree-15 or the degree-10 resolvent.
    A point with a nonzero discriminant whose two resolvents
    _resolvents_rootless rules out therefore returns (d, e, None, None)
    without classify: it is not a hit, reducible or not, and classify raises
    a SexticError only for a zero discriminant. Every other point goes
    through classify, so hits, errors and their order are those of classify
    alone. The zero test is discriminant_reduced, the closed-form table,
    which is minus the resultant discriminant as a polynomial in d and e
    (test_disc_table_is_minus_the_resultant_discriminant).
    """
    d, e = map(Fraction, point)
    s = ReducedSextic(d, e)
    if discriminant_reduced(s) and _resolvents_rootless(d, e):
        return d, e, None, None
    try:
        report = classify(s.to_poly())
    except SexticError as exc:
        return d, e, None, f"{type(exc).__name__}: {exc}"
    if report.irreducible and report.solvable is Solvable.YES:
        return d, e, report, None
    return d, e, None, None
