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
they do are the roots lifted p-adically and the lifted factors recombined
(is_irreducible). Reduced-shape inputs (x^6 + x^2 + d*x + e) read their
resolvents off the audited closed-form tables, and whether each has
repeated roots off the factored discriminants of those tables
(resolvents.verified_squarefree); every other sextic builds them, and
those flags, from the same p-adic lift of its roots
(resolvents.resolvents_exact). Both paths then search each resolvent for
rational roots with exact.rational_roots.

scan_point, the step of `sextic search`, calls classify only at a point
where the root sieve (_resolvents_rootless) leaves a resolvent that may have
a rational root. The sieve works on residue classes: whether a resolvent
table has a root mod a small prime r depends only on (d, e) mod r, so it is
decided once per class, by one modp.has_root, and kept in a byte of a
lazily allocated r * r row per (table, prime) (_root_classes, at most
131,584 bytes for both tables over the odd primes below 100).
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
    is_rational_square,
    model_discriminant,
    monic_model,
    rational_roots,
    resultant,  # noqa: F401  not called; perfbench/spans.py requires the binding
)
from .resolvents import (
    _DISC,
    _F_VERIFIED,
    _G_VERIFIED,
    F_VERIFIED_TABLE,
    G_VERIFIED_TABLE,
    ReducedSextic,
    ResolventKind,
    _compile,
    _table_integers,
    discriminant_exact,
    f_verified,
    g_verified,
    resolvents_exact,
    verified_squarefree,
)
from .roots import find_roots  # noqa: F401  not called; perfbench/spans.py requires the binding

# Odd primes, squarefree for the input, whose factor degrees is_irreducible
# reads before it may stop to lift at one whose degrees are all <= 2. Over
# the squarefree inputs of the benchmark corpora of seeds 1-3, 779 reduced
# and 293 general, the lift is still needed for 34 and 17 inputs at 2
# primes, 12 and 10 at 3, 12 and 6 at 4, 12 and 4 at 5. A prime costs a root
# count and at most one power, so the mean is_irreducible time (in-process,
# 2-CPU Xeon container, median of 5) goes 0.106/0.116 ms at 2 primes,
# 0.101/0.115 at 3, 0.102/0.113 at 4, 0.103/0.114 at 5: within 2% from 3 on.
DEGREE_SIEVE_PRIMES = 4

# Odd primes at which scan_point looks for roots of the two reduced-sextic
# resolvents before it calls classify: the 24 below 100. On the grid
# d = -50..50, e = -2..2, 398 of the 505 points have no root in either
# resolvent mod one of them; each of the other 107 has a resolvent with a
# zero constant term.
ROOT_SIEVE_PRIMES = tuple(itertools.takewhile(lambda r: r < 100, _odd_primes()))

# The tables _resolvents_rootless sieves, degree 15 then degree 10, and their
# z^0 rows alone as the rows 0 and 1 of one table, which it evaluates exactly
# at every point (one set of powers of d and e for both).
_SIEVE_TABLES = (_F_VERIFIED, _G_VERIFIED)
_CONSTANT_TERMS = _compile({0: F_VERIFIED_TABLE[0], 1: G_VERIFIED_TABLE[0]}, 1)

# The residue classes the sieve has met: _root_classes[k, r][x * r + y] is 0
# until _class_has_root first asks about the class (x, y) of (d, e) mod r,
# then 1 when _SIEVE_TABLES[k] has a root mod r there and 2 when it has none.
# A row of r * r bytes is allocated on first use, so the store never exceeds
# the sum of r^2 over ROOT_SIEVE_PRIMES per table, 65,792 bytes, however
# large the grid.
_root_classes = {}


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
    monic integer model q (exact.monic_model) of p's primitive part A has
    the roots of p times lc(A), so disc q = model_discriminant(p, lc(A)),
    and is_irreducible walks once over the odd primes not dividing it, where
    q is squarefree. At each, modp.factor_degrees reads the factor degrees
    of q off its roots mod the prime and the quadratic character of disc q
    (Stickelberger's theorem in Swan's form, Pacific J. Math. 12, 1962). A
    degree-k factor of q over the integers is a product of modular factors
    at every such prime, so k must be a subset sum of the factor degrees at
    each of them; when no k in 2..n//2 is, q is irreducible (Musser's
    degree analysis, J. ACM 25, 1978).

    The walk reads at least DEGREE_SIEVE_PRIMES primes and stops at the
    first prime r from then on at which every factor of q mod r has degree
    <= 2. There the p-adic lift of resolvents_exact finishes the proof
    (Zassenhaus's recombination, J. Number Theory 1, 1969):
    modp.lift_small_factors lifts the roots of q mod r the walk already
    has to a power r^N above twice the Mignotte bound C(k, k//2)*|q|_2 on
    the coefficients of a factor of q of degree k, the largest degree left.
    They give the factors x - a and x^2 - 2a x + (a^2 - z b^2) of q mod r^N,
    for the linear roots a and the roots a + b sqrt z of the quadratic
    factors, z the least non-residue mod r. q is squarefree mod r, so its
    r-adic roots are distinct, and the roots of an integer factor of q are
    closed under sqrt z -> -sqrt z: every integer factor is the product of
    some of these. Each product of a degree that survived the sieve (a
    split into halves from one side only) is reduced symmetrically and
    trial-divided in integer arithmetic. Finding no factor proves
    irreducibility.
    """
    n = p.degree
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if n == 1:
        return True
    if n > 6:
        raise ValueError("irreducibility test is specialized to degree <= 6")
    if not p.num[0]:
        return False  # divisible by x
    A = p.primitive()[1]
    disc = int(model_discriminant(p, A[-1]))
    if not disc:
        return False  # repeated factor
    if rational_roots(p):
        return False
    if n <= 3:
        return True
    q = monic_model(A)
    possible = set(range(2, n // 2 + 1))
    for count, r in enumerate((r for r in _odd_primes() if disc % r), 1):
        found, degrees = modp.factor_degrees(modp.reduce(q, r), r, disc)
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            return True
        if count >= DEGREE_SIEVE_PRIMES and degrees[-1] <= 2:
            break
    k = max(possible)
    bound = 2 * math.comb(k, k // 2) * (math.isqrt(sum(c * c for c in q)) + 1)
    modulus, z, linear, quadratic = modp.lift_small_factors(q, r, found, bound)
    factors = [[-a, 1] for a in linear] + [[a * a - z * b * b, -2 * a, 1] for a, b in quadratic]
    for size in range(1, len(factors)):
        for subset in itertools.combinations(factors, size):
            k = sum(len(f) - 1 for f in subset)
            if k not in possible or (2 * k == n and subset[0] is not factors[0]):
                continue  # a split into halves is tried once, from the side of factors[0]
            g = [1]
            for f in subset:
                g = modp.mul(g, f, modulus)
            try:
                _exact_quotient(q, [modp.symmetric(c, modulus) for c in g])
            except ArithmeticError:
                continue
            return False
    return True


def _as_reduced(p: RatPoly) -> Optional[ReducedSextic]:
    c, den = p.num, p.den
    if c[2] == den and not c[3] and not c[4] and not c[5]:
        return ReducedSextic(Fraction(c[1], den), Fraction(c[0], den))
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
        f, g = f_verified(reduced), g_verified(reduced)
        f_simple, g_simple = verified_squarefree(reduced)
    else:
        notes.append("resolvents built exactly by p-adic lifting of the roots")
        kinds = (ResolventKind.MATCHING, ResolventKind.PARTITION)
        (f, f_simple), (g, g_simple) = resolvents_exact(monic, kinds)
    f_roots, g_roots = frozenset(rational_roots(f)), frozenset(rational_roots(g))
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


def _class_has_root(k: int, r: int, x: int, y: int) -> bool:
    """Whether _SIEVE_TABLES[k] at d = x, e = y has a root mod r: the byte of
    _root_classes, filled the first time by one modp.has_root on the table's
    integers at (x, y)."""
    row = _root_classes.get((k, r))
    if row is None:
        row = _root_classes[k, r] = bytearray(r * r)
    cell = x * r + y
    if not row[cell]:
        row[cell] = 1 if modp.has_root(_table_integers(_SIEVE_TABLES[k], x, y)[0], r) else 2
    return row[cell] == 1


def _resolvents_rootless(d: Fraction, e: Fraction) -> bool:
    """True when the verified degree-15 and degree-10 resolvents of
    x^6 + x^2 + d*x + e provably have no rational root: each in turn has no
    root mod some prime r of ROOT_SIEVE_PRIMES that divides neither
    denominator of d = a/b, e = u/v.

    A zero constant term is the rational root 0 (d = 0, e = 0 and the
    vanishing-constant family), which no prime can rule out, so both z^0
    rows (_CONSTANT_TERMS; f(0; d, e) = d^2 e^15 (32 d^4 - 144 d^2 e + 3))
    are evaluated exactly before any prime is looked at.

    At a prime r dividing neither b nor v, whether a table has a root mod r
    depends only on the class (x, y) = (a/b mod r, u/v mod r): the table is
    monic in z with coefficients in Z[d, e], so its integers nums over den
    (resolvents._table_integers) satisfy nums = den * table(x, y) mod r with
    den = b^m v^n a unit, and both have the same roots mod r. A rational
    root of the table is r-integral and would reduce to one of them, so a
    table without roots mod r has no rational root. _class_has_root answers
    from _root_classes. The primes skipped are those where den vanishes mod
    r, the same ones exact._rootless would skip on nums.
    """
    if not all(_table_integers(_CONSTANT_TERMS, d, e)[0]):
        return False
    a, b, u, v = d.numerator, d.denominator, e.numerator, e.denominator
    for k in (0, 1):
        for r in ROOT_SIEVE_PRIMES:
            if b % r and v % r and not _class_has_root(k, r, a * pow(b, -1, r) % r, u * pow(v, -1, r) % r):
                break
        else:
            return False
    return True


def scan_point(point):
    """Classify one grid point (d, e) of x^6 + x^2 + d*x + e.

    Returns (d, e, report, error): report only for an irreducible solvable
    point, error "Type: message" only for a SexticError; other exceptions
    propagate.

    A hit needs a rational root of the degree-15 or the degree-10 resolvent,
    and classify raises a SexticError only for a zero discriminant. A point
    with a nonzero discriminant whose two resolvents _resolvents_rootless
    rules out therefore returns (d, e, None, None) without classify, reducible
    or not; every other point goes through classify, so hits, errors and
    their order are those of classify alone. The zero test reads the
    integer numerator of discriminant_reduced (resolvents._table_integers on
    the closed-form table, minus the resultant discriminant as a polynomial
    in d and e: test_disc_table_is_minus_the_resultant_discriminant), which
    vanishes exactly when the discriminant does.

    Per point, only that numerator and the two resolvents' constant terms
    are evaluated; the root sieve reads a byte per residue class of (d, e)
    (_root_classes), so neither resolvent table is evaluated at the point.
    """
    d, e = map(Fraction, point)
    if _table_integers(_DISC, d, e)[0][0] and _resolvents_rootless(d, e):
        return d, e, None, None
    try:
        report = classify(ReducedSextic(d, e).to_poly())
    except SexticError as exc:
        return d, e, None, f"{type(exc).__name__}: {exc}"
    if report.irreducible and report.solvable is Solvable.YES:
        return d, e, report, None
    return d, e, None, None
