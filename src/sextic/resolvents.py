"""Resolvent polynomials of sextics, and the audit of the closed forms for
the reduced sextic x^6 + x^2 + d*x + e.

Three construction routes, reconciled against each other:

* reference closed forms: the degree-15 and degree-10 coefficient tables
  transcribed verbatim from the source material (f_reduced, g_reduced),
  kept exactly as transcribed, typos included, so they can be audited;
* exact resolvents of arbitrary squarefree sextics by p-adic lifting of
  the roots (resolvents_exact), with no floating point: the lifted roots go
  through the from-roots construction (resolvent_from_roots), which pairs
  the orbit values by the conjugation of the lifting field, evaluates one
  value per pair, multiplies one integer factor mod r^N per value or pair
  and rounds the coefficients to integers;
* an interpolation reconstruction (reconstruct_reduced) that re-derives
  the closed-form tables from exact samples and diffs them term by term
  against the transcription.

The reconstruction is the authority when the closed forms disagree;
verified tables (f_verified, g_verified) carry its output. The
classification pipeline consumes those tables for reduced-shape input and
resolvents_exact for every other sextic, and takes from here whether each
resolvent is squarefree on both paths: verified_squarefree for the tables,
the orbit images of resolvent_from_roots for resolvents_exact.
Discrepancies are reported, never silently patched. The tests cross-check
resolvents_exact against an orbit product of their own over complex roots
from roots.find_roots (tests/oracles.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm, prod

from . import modp
from .errors import DegenerateSextic, FitInconsistent, NotNearInteger
from .exact import RatPoly, _derivative_resultant, _odd_primes, _root_bound
from .exact import model_discriminant, squarefree, trial_split
from .exact import resultant  # noqa: F401  not called; perfbench/spans.py requires the binding
from .exact import factorize  # noqa: F401  not called; perfbench/spans.py requires the binding
from .groups import MATCHING_INVARIANT, PARTITION_INVARIANT, Perm, act, eval_monomial_sum, orbit
from .roots import expand_from_roots, round_to_int_poly
from .roots import find_roots  # noqa: F401  not called; perfbench/spans.py requires the binding

# d enters with weight 5 and e with weight 6 (they stand in for the degree-5
# and degree-6 elementary symmetric functions of the roots).
D_WEIGHT, E_WEIGHT = 5, 6


@dataclass(frozen=True)
class ReducedSextic:
    """The trinomial-plus sextic x^6 + x^2 + d*x + e."""

    d: Fraction
    e: Fraction

    def __init__(self, d, e):
        object.__setattr__(self, "d", Fraction(d))
        object.__setattr__(self, "e", Fraction(e))

    def to_poly(self) -> RatPoly:
        return RatPoly([self.e, self.d, 1, 0, 0, 0, 1])


class ResolventKind(Enum):
    """Which invariant orbit the resolvent is built from."""

    MATCHING = "matching"  # degree-8 invariant, 15 conjugates
    PARTITION = "partition"  # degree-4 invariant, 10 conjugates

    @property
    def degree(self) -> int:
        return 15 if self is ResolventKind.MATCHING else 10

    @property
    def invariant(self):
        return MATCHING_INVARIANT if self is ResolventKind.MATCHING else PARTITION_INVARIANT

    @property
    def weight(self) -> int:
        """Total degree of the invariant in the roots."""
        return 8 if self is ResolventKind.MATCHING else 4


# ---------------------------------------------------------------------------
# reference closed forms (verbatim transcription; audited by reconstruct)
# ---------------------------------------------------------------------------

# coefficient of x^power = sum over (i, j) of A * d^i * e^j
F_REFERENCE_TABLE = {
    15: {(0, 0): 1},
    13: {(0, 2): -6},
    12: {(0, 4): -42, (0, 3): -3},
    11: {(0, 4): 7},
    10: {(0, 6): 222, (2, 5): -21},
    9: {(0, 8): 453, (0, 7): 57, (0, 6): 8},
    8: {(0, 8): -340, (2, 7): 109},
    # the transcription shows no e-power on the x^7 coefficient, unlike all
    # of its neighbours; reconstruct_reduced arbitrates (see f_verified)
    7: {(0, 2): -1716, (2, 1): 288, (0, 0): -17},
    6: {(0, 12): -1232, (0, 10): 300, (2, 9): -144},
    5: {(0, 12): 1534, (2, 11): 538, (4, 10): -353, (0, 10): 2},
    4: {(0, 14): 2592, (2, 13): -96, (0, 12): -258, (2, 11): 48},
    3: {(0, 16): -1728, (0, 14): -1012, (2, 13): 284, (4, 12): -94, (0, 12): 9},
    2: {(0, 16): 432, (2, 15): -2160, (4, 14): 792, (0, 14): 118, (2, 13): 5},
    1: {(2, 17): 1296, (0, 16): -27, (2, 15): 138, (4, 14): -60, (0, 14): -4},
    0: {(4, 16): 144, (6, 15): -32, (2, 15): -3},
}

G_REFERENCE_TABLE = {
    10: {(0, 0): 1},
    9: {(0, 0): 4},
    8: {(0, 0): 6},
    7: {(0, 2): -66, (0, 0): 4},
    6: {(0, 2): -324, (2, 1): 58, (0, 0): 1},
    5: {(0, 2): -642, (2, 1): 192, (4, 0): -11},
    4: {(0, 4): 129, (0, 2): -640, (2, 1): 246, (4, 0): -22},
    3: {(0, 4): 384, (2, 3): -74, (0, 2): -320, (2, 1): 144, (4, 0): -16},
    2: {(0, 4): 384, (2, 3): -108, (4, 2): 4, (0, 2): -64, (2, 1): 32, (4, 0): -4},
    1: {(0, 6): -64, (0, 4): 128, (2, 3): 32, (4, 2): -40, (6, 1): 6},
    0: {(0, 6): -64, (2, 5): 16, (2, 3): 64, (4, 2): -48, (6, 1): 12, (8, 0): -1},
}

# The degree-15 table re-derived by reconstruct_reduced and validated on
# holdout points, frozen here so classification does not pay the
# reconstruction cost: the transcription with the four rows it corrects.
# The negated constant term has the same vanishing locus, so the
# vanishing-constant family is unaffected. A slow test recomputes this
# table from scratch.
F_VERIFIED_TABLE = {
    **F_REFERENCE_TABLE,
    12: {(0, 4): -42},
    9: {(0, 8): 453, (0, 6): 8},
    7: {(0, 10): -1716, (2, 9): 288, (0, 8): -17},
    0: {(4, 16): -144, (6, 15): 32, (2, 15): 3},
}

# the degree-10 transcription is confirmed term for term
G_VERIFIED_TABLE = G_REFERENCE_TABLE

# Δ-style discriminant of the reduced sextic, transcribed verbatim; equals
# the product over ordered root pairs, i.e. MINUS the conventional
# squared-difference discriminant (empirical sign relation pinned in tests).
_DISC_TABLE = {
    (0, 5): 46656,
    (0, 3): 13824,
    (2, 2): -43200,
    (4, 1): 22500,
    (0, 1): 1024,
    (6, 0): -3125,
    (2, 0): -256,
}

# The z-discriminants of the two verified tables factor over Z[d, e] with
# content 1, where Δ is minus _DISC_TABLE, the discriminant of the sextic:
#   disc_z f = d^8 e^210 Δ^6 H_F^2,  disc_z g = d^6 Δ^3 H_G^2,
# H_F of total degree 20 and H_G of total degree 24, both in even powers of d
# only (test_verified_discriminants_factor_as_stated recomputes both).
# Both tables are monic in z, so for a sextic with Δ != 0, f is squarefree
# exactly when d e H_F(d, e) != 0, and g exactly when d H_G(d, e) != 0.
_H_F_TABLE = {
    (20, 0): 5032843750000000000,
    (18, 1): -85936846875000000000,
    (16, 2): 756679041937500000000, (16, 0): 730714961250000000,
    (14, 5): 1698687380070000000000, (14, 3): -4033519774838750000000,
    (14, 1): -6471547790906250000,
    (12, 6): -11862354887208000000000, (12, 4): 13912671323353875000000,
    (12, 2): 1660575205496250000, (12, 0): 248616980375990625,
    (10, 7): 44832452560274160000000, (10, 5): -31611880046182441200000,
    (10, 3): 209454341504170950000, (10, 1): -879840561840120000,
    (8, 10): -24484978153102694400000, (8, 8): -89621697827377267200000,
    (8, 6): 46433427547371162040000, (8, 4): -858464558169391260000, (8, 2): -6883343563586745600,
    (8, 0): 30182348268624384,
    (6, 11): 60252325613749831680000, (6, 9): 83656435650046680960000,
    (6, 7): -38308193320933212508800, (6, 5): 984178087873765774848, (6, 3): 32323480912644360192,
    (6, 1): -240190290724773888,
    (4, 12): -47628116288751436185600, (4, 10): -25172805427397654658048,
    (4, 8): 12190353569074368297216, (4, 6): -18376197970837819392, (4, 4): -43220644056113061888,
    (4, 2): 393247372042764288, (4, 0): 3678762147840000,
    (2, 15): 15174503046991641378816, (2, 13): 15174168214476385492992,
    (2, 11): -5377478291293157406720, (2, 9): 957624846023713480704,
    (2, 7): -322369971420796747776, (2, 5): 16773070101472346112, (2, 3): -102180447774572544,
    (2, 1): -9055414517760000,
    (0, 14): -316135480145659195392, (0, 12): -305883373167241297920,
    (0, 10): 140847105493291696128, (0, 8): -16167092447339347968, (0, 6): 2063667313511497728,
    (0, 4): -92759531615944704, (0, 2): 5572562780160000,
}

_H_G_TABLE = {
    (24, 0): 3125,
    (22, 1): -101250,
    (20, 2): 1451000, (20, 0): 12,
    (18, 5): 116500, (18, 3): -12067320, (18, 1): -212,
    (16, 6): -2935800, (16, 4): 64169096, (16, 2): 1016, (16, 0): 8,
    (14, 7): 31892576, (14, 5): -226301856, (14, 3): 3824, (14, 1): -192,
    (12, 10): -13451088, (12, 8): -195069440, (12, 6): 530015232, (12, 4): -60384, (12, 2): 1920,
    (10, 11): 242119584, (10, 9): 736230496, (10, 7): -798868416, (10, 5): 265216, (10, 3): -10240,
    (8, 12): -1743340032, (8, 10): -1767558400, (8, 8): 715864704, (8, 6): -552448, (8, 4): 30720,
    (6, 15): 941192000, (6, 13): 6284111232, (6, 11): 2681959680, (6, 9): -317292544,
    (6, 7): 520192, (6, 5): -49152,
    (4, 16): -10164873600, (4, 14): -11376624000, (4, 12): -2451100160, (4, 10): 39041024,
    (4, 8): -172032, (4, 6): 32768,
    (2, 17): 36593544960, (2, 15): 8411655168, (2, 13): 1164201984, (2, 11): 32768, (2, 9): 131072,
    (0, 18): -43912253952, (0, 16): -341397504, (0, 14): -152395776, (0, 12): -589824,
    (0, 10): -131072,
}


def _compile(table: dict, degree: int) -> tuple:
    """(m, n, rows) for _table_integers, once per table: its largest d- and
    e-exponents, and the cells (c, i, j) of each power 0..degree."""
    m = max(i for terms in table.values() for i, _ in terms)
    n = max(j for terms in table.values() for _, j in terms)
    rows = [[(c, i, j) for (i, j), c in table.get(power, {}).items()] for power in range(degree + 1)]
    return m, n, rows


def _table_integers(compiled: tuple, d: Fraction, e: Fraction) -> tuple[list, int]:
    """Integers (nums, den) such that nums[power] / den is the sum of
    c * d^i * e^j over the cells (c, i, j) of a _compile'd table's row power.

    With d = a/b, e = u/v in lowest terms and m, n the table's largest d- and
    e-exponents, den = b^m v^n and each numerator is the integer sum of
    c * a^i b^(m-i) * u^j v^(n-j). Nothing here takes a gcd.
    """
    m, n, rows = compiled
    a, b, u, v = d.numerator, d.denominator, e.numerator, e.denominator
    dp = [a**i * b ** (m - i) for i in range(m + 1)]
    ep = [u**j * v ** (n - j) for j in range(n + 1)]
    return [sum(c * dp[i] * ep[j] for c, i, j in row) for row in rows], b**m * v**n


def _eval_table(compiled: tuple, d: Fraction, e: Fraction) -> RatPoly:
    """The polynomial whose x^power coefficient is the sum of c * d^i * e^j
    over the cells of a _compile'd table's row power: the integers of
    _table_integers over their common denominator, with one gcd.
    """
    return RatPoly.from_ints(*_table_integers(compiled, d, e))


_F_REFERENCE = _compile(F_REFERENCE_TABLE, 15)
_G_REFERENCE = _compile(G_REFERENCE_TABLE, 10)
_F_VERIFIED = _compile(F_VERIFIED_TABLE, 15)
_G_VERIFIED = _G_REFERENCE
_DISC = _compile({0: _DISC_TABLE}, 0)
_H_F = _compile({0: _H_F_TABLE}, 0)
_H_G = _compile({0: _H_G_TABLE}, 0)


def f_reduced(s: ReducedSextic) -> RatPoly:
    """Reference degree-15 matching resolvent, exactly as transcribed."""
    return _eval_table(_F_REFERENCE, s.d, s.e)


def g_reduced(s: ReducedSextic) -> RatPoly:
    """Reference degree-10 partition resolvent, exactly as transcribed."""
    return _eval_table(_G_REFERENCE, s.d, s.e)


def f_verified(s: ReducedSextic) -> RatPoly:
    """Degree-15 matching resolvent from the audited coefficient table."""
    return _eval_table(_F_VERIFIED, s.d, s.e)


def g_verified(s: ReducedSextic) -> RatPoly:
    """Degree-10 partition resolvent from the audited coefficient table."""
    return _eval_table(_G_VERIFIED, s.d, s.e)


def verified_squarefree(s: ReducedSextic) -> tuple[bool, bool]:
    """(f_ok, g_ok): whether f_verified(s) and g_verified(s) have no
    repeated root, read off the factored discriminants of the two tables
    (_H_F_TABLE, _H_G_TABLE). Valid only when s has a nonzero discriminant:
    the factor Δ of both is then nonzero, and the flags need only whether
    d, e, H_F(d, e) and H_G(d, e) vanish, evaluated exactly by
    _table_integers.
    """
    d, e = s.d, s.e
    f_ok = bool(d and e and _table_integers(_H_F, d, e)[0][0])
    g_ok = bool(d and _table_integers(_H_G, d, e)[0][0])
    return f_ok, g_ok


def discriminant_reduced(s: ReducedSextic) -> Fraction:
    """Reference discriminant formula for x^6 + x^2 + d*x + e."""
    return _eval_table(_DISC, s.d, s.e)[0]


def discriminant_exact(p: RatPoly) -> Fraction:
    """Conventional discriminant (-1)^(n(n-1)/2) * Res(p, p') / lc(p)."""
    n = p.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _derivative_resultant(p) / p.leading()


# ---------------------------------------------------------------------------
# exact resolvents by p-adic lifting
# ---------------------------------------------------------------------------


def resolvents_exact(p: RatPoly, kinds: tuple) -> tuple:
    """One (resolvent, squarefree) pair per kind in kinds: the resolvent of
    p itself (rational coefficients), by p-adic lifting of the roots (K.
    Yokoyama, J. Pure Appl. Algebra 117-118, 1997; K. Geissler and J.
    Klüners, J. Symbolic Comput. 30, 2000). No floating point is involved.

    q(y) = m^6 p(y/m) is the monic integer sextic of monic_integer_rescale,
    with the roots y = m * x. The lifting prime is the first odd prime r with
    x^(r^2) == x mod (q, r): q mod r is then squarefree with factors of
    degree <= 2, so its six roots lie in F_r(sqrt n), n the least
    non-residue. _lifted_roots walks the odd primes, skips the r dividing
    disc q = exact.model_discriminant(p, m) and rejects r from the
    number c of roots mod r, from one packed evaluation, and the quadratic
    character of the discriminant (modp.small_factor_roots): every factor
    has degree <= 2 only if c is even and the character is (-1)^((6 - c)/2).
    Only a sextic with no root mod r and a non-square discriminant costs
    one power x^(r^2) mod (q, r). At the prime it accepts, the roots are
    the linear factors, and modp.lift_small_factors, the lift
    is_irreducible shares, splits the quotient by them with equal_degree.
    One root of each factor is Newton-lifted in (Z/r^N)[sqrt n], and
    _lifted_roots adds the conjugate of each quadratic root. The
    conjugation sqrt n -> -sqrt n, the Frobenius at r, fixes the roots of
    the linear factors and swaps the two roots of each quadratic one, so it
    pairs the orbit values too: resolvent_from_roots evaluates one value per
    pair and builds the integer resolvent R_q mod r^N as a product of
    integer linear and quadratic factors.

    Bound: a product of distinct roots of q has modulus at most the Mahler
    measure M(q) <= |q|_2 (Landau's inequality), and one root at most
    Fujiwara's bound R (exact._root_bound). A matching value is
    q(0) * (a sum of three pair products) and a partition value
    prod_A * sum_A + prod_B * sum_B over a split into blocks A, B of three,
    so a matching value is at most V = 3 |q(0)| min(M, R^2), a partition
    value at most V = 6 R min(M, R^3), and the coefficient of z^(deg - k)
    of R_q at most C(deg, k) V^k. r^N exceeds twice the largest of these,
    so the symmetric residues are the integer coefficients. The result is
    R_p(z) = m^(-w deg) R_q(m^w z), w the invariant's weight.

    squarefree: R_p has no repeated root. Distinct orbit images mod r^N
    (resolvent_from_roots) prove it; only a kind whose images collide pays
    for the exact test of gcd(R_q, R_q') (exact.squarefree).

    Raises ValueError unless p has degree 6, and DegenerateSextic when p has
    a repeated root.
    """
    if p.degree != 6:
        raise ValueError("resolvent construction expects a degree-6 polynomial")
    p = p.monic()
    q, m = monic_integer_rescale(p)
    disc = int(model_discriminant(p, m))
    roots = _lifted_roots(list(q.num), kinds, disc)
    out = []
    for kind in kinds:
        res, distinct = resolvent_from_roots(roots, kind)
        simple = distinct or squarefree(res)  # on R_q, whose coefficients are smaller
        if m != 1:  # R_q[k] m^(wk) / m^(w deg), R_q an integer polynomial
            mw = m**kind.weight
            res = RatPoly.from_ints([c * mw**k for k, c in enumerate(res.num)], mw**kind.degree)
        out.append((res, simple))
    return tuple(out)


# perfbench/spans.py traces resolvent construction under this name; the
# tracer wraps by identity, so calls to resolvents_exact count there too.
# ROADMAP item 2 (the benchmark change) removes it.
resolvent_numeric_in_frame = resolvents_exact


class _Lifted:
    """a + b sqrt(n) in (Z/M)[sqrt n], M = r^N: a root lifted r-adically, or
    a value computed from such roots, with the ring arithmetic that
    eval_monomial_sum uses."""

    __slots__ = ("a", "b", "n", "modulus")

    def __init__(self, a: int, b: int, n: int, modulus: int):
        self.a, self.b, self.n, self.modulus = a, b, n, modulus

    def _make(self, a: int, b: int) -> "_Lifted":
        return _Lifted(a % self.modulus, b % self.modulus, self.n, self.modulus)

    def __add__(self, other: "_Lifted") -> "_Lifted":
        return self._make(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "_Lifted") -> "_Lifted":
        return self._make(self.a * other.a + self.n * self.b * other.b,
                          self.a * other.b + self.b * other.a)

    def __pow__(self, e: int) -> "_Lifted":
        out = self._make(1, 0)
        for _ in range(e):
            out = out * self
        return out


def _lifted_roots(q: list, kinds: tuple, disc: int) -> list:
    """The six roots of the monic integer sextic q (coefficients low to
    high) with discriminant disc = -Res(q, q'), as _Lifted values modulo a
    power of the lifting prime above twice the resolvent coefficient bound
    of resolvents_exact for the given kinds, at its lifting prime: a root
    of a linear factor, and the two conjugate roots of a quadratic one.
    DegenerateSextic when disc is 0."""
    if not disc:
        raise DegenerateSextic("repeated roots; resolvent criteria need distinct roots")
    R = _root_bound(q)
    M = isqrt(sum(c * c for c in q)) + 1
    value_bound = {
        ResolventKind.MATCHING: 3 * abs(q[0]) * min(M, R**2),
        ResolventKind.PARTITION: 6 * R * min(M, R**3),
    }
    bound = max(comb(kind.degree, k) * value_bound[kind] ** k
                for kind in kinds for k in range(kind.degree + 1))
    for r in _odd_primes():
        if disc % r:
            found = modp.small_factor_roots(modp.reduce(q, r), r, disc)
            if found is not None:
                break
    modulus, n, linear, quadratic = modp.lift_small_factors(q, r, found, 2 * bound)
    return [_Lifted(a, 0, n, modulus) for a in linear] + [
        _Lifted(a, t, n, modulus) for a, b in quadratic for t in (b, -b % modulus)
    ]


# ---------------------------------------------------------------------------
# resolvents from the roots
# ---------------------------------------------------------------------------


def monic_integer_rescale(p: RatPoly) -> tuple[RatPoly, int]:
    """An integer m such that q(y) = m^n p(y/m) has integer coefficients for
    monic p; returns (q, m).

    The denominator of the x^j coefficient splits as s_j * c_j
    (exact.trial_split): s_j has only small prime factors, c_j none. m is
    the product of the least powers of those small primes with
    s_j | m^(n-j), times the lcm of the c_j, so den_j | m^(n-j). Nothing is
    factored beyond trial division, so this cannot fail. m is the least
    such integer when no c_j has a repeated prime factor; a larger m only
    lengthens the lift.
    """
    n, num, den = p.degree, p.num, p.den
    m_factors: dict = {}
    rest = 1
    for j, c in enumerate(num[:-1]):
        small, cofactor = trial_split(den // gcd(den, c))
        for prime, a in small.items():
            need = -(-a // (n - j))  # ceil
            m_factors[prime] = max(m_factors.get(prime, 0), need)
        rest = lcm(rest, cofactor)
    m = rest * prod(prime**a for prime, a in m_factors.items())
    q = RatPoly.from_ints([c * m ** (n - j) // den for j, c in enumerate(num)])
    return q, m


@lru_cache(maxsize=None)
def _conjugate_orbit(kind: ResolventKind, sigma: tuple) -> tuple:
    """(fixed, paired): the positions in orbit(kind.invariant) of the
    images that the involution sigma of the roots (a Perm's image tuple)
    fixes, and of the first image of each pair of images it swaps."""
    images = [m for m, _ in orbit(kind.invariant)]
    where = {m: i for i, m in enumerate(images)}
    s = Perm(sigma)
    fixed, paired = [], []
    for i, m in enumerate(images):
        j = where[act(s, m)]
        if j == i:
            fixed.append(i)
        elif i < j:
            paired.append(i)
    return tuple(fixed), tuple(paired)


def resolvent_from_roots(roots, kind: ResolventKind) -> tuple[RatPoly, bool]:
    """(R, distinct): the integer resolvent R of the given kind from the six
    lifted roots of a sextic (_Lifted values mod M in (Z/M)[sqrt n]), one
    orbit value per conjugate pair, and whether the deg orbit values have
    pairwise distinct images mod M, which proves R squarefree.

    The conjugation sqrt n -> -sqrt n permutes the roots by an involution
    sigma (root j is the conjugate of root i when a_j = a_i and
    b_j = -b_i), and so the orbit values (_conjugate_orbit). Each value
    gives one integer factor mod M: z - a for a value a of a fixed image,
    and z^2 - 2a z + (a^2 - n b^2) for the value a + b sqrt n of one image
    of each swapped pair. The resolvent is their product, that of the
    linear factors from expand_from_roots; its symmetric residues mod M are
    the integer coefficients (round_to_int_poly). The images are (a, 0) for
    a fixed value, and v and its conjugate for a pair. One monomial memo
    serves the whole orbit (eval_monomial_sum). Raises NotNearInteger when a
    root has no conjugate among the roots.
    """
    n, modulus = roots[0].n, roots[0].modulus
    where = {(v.a, v.b): i for i, v in enumerate(roots)}
    sigma = tuple(where.get((v.a, -v.b % modulus), -1) for v in roots)
    if -1 in sigma:
        raise NotNearInteger("a lifted root has no conjugate among the roots")
    fixed, paired = _conjugate_orbit(kind, sigma)
    images = orbit(kind.invariant)
    memo: dict = {}
    values = [eval_monomial_sum(images[i][0], roots, memo).a for i in fixed]
    coeffs = expand_from_roots(values)
    seen = {(a, 0) for a in values}
    for i in paired:
        v = eval_monomial_sum(images[i][0], roots, memo)
        seen |= {(v.a, v.b), (v.a, -v.b % modulus)}
        quadratic = [(v.a * v.a - n * v.b * v.b) % modulus, -2 * v.a % modulus, 1]
        coeffs = modp.mul(coeffs, quadratic, modulus)
    return round_to_int_poly(coeffs, modulus), len(seen) == kind.degree


# ---------------------------------------------------------------------------
# interpolation reconstruction of the closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One (x-power, d-power, e-power) cell of the reference or the fitted
    table, with its coefficient in each (0 where the table lacks it)."""

    x_power: int
    d_power: int
    e_power: int
    reference: int
    fitted: int


@dataclass(frozen=True)
class ReconstructionReport:
    kind: ResolventKind
    fitted: dict
    terms: tuple  # every cell of either table, sorted by (x, d, e) power
    holdout_points: tuple
    notes: tuple = field(default_factory=tuple)

    @property
    def discrepancies(self) -> tuple:
        """The terms where fit and reference differ."""
        return tuple(t for t in self.terms if t.reference != t.fitted)

    def matches_reference(self) -> bool:
        return not self.discrepancies


def _candidate_exponents(kind: ResolventKind, x_power: int) -> list:
    """Admissible (d-power, e-power) cells for one resolvent coefficient.

    The coefficient of x^(degree-j) is a weight-(w*j) symmetric function of
    the roots; expressed in the elementary symmetric basis every monomial has
    that exact weight, and substituting sigma_4 = 1 leaves a gap divisible
    by 4.
    """
    j = kind.degree - x_power
    w = kind.weight * j
    out = []
    for i in range(w // D_WEIGHT + 1):
        for k in range((w - D_WEIGHT * i) // E_WEIGHT + 1):
            if (w - D_WEIGHT * i - E_WEIGHT * k) % 4 == 0:
                out.append((i, k))
    return out


def _interp(xs: list, ys: list) -> list:
    """Exact Newton interpolation; returns monomial coefficients low to high."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]
    for i in range(n):
        for k, c in enumerate(basis):
            coeffs[k] += dd[i] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for k, c in enumerate(basis):
            nxt[k + 1] += c
            nxt[k] -= xs[i] * c
        basis = nxt
    return coeffs


def _alternating(limit: int, include_zero: bool):
    """The first limit values of 0 (if included), 1, -1, 2, -2, ..."""
    vals = [0] if include_zero else []
    return (vals + [s * k for k in range(1, limit + 1) for s in (1, -1)])[:limit]


# reconstruct_reduced validates its fit on this many random grid points
HOLDOUTS, HOLDOUT_SEED = 20, 20250811


@lru_cache(maxsize=2)
def reconstruct_reduced(kind: ResolventKind) -> ReconstructionReport:
    """Re-derive the closed-form coefficient table from exact samples.

    Samples resolvents_exact on an integer (d, e) grid large enough to pin
    every admissible monomial, interpolates exactly, checks the fit against
    the weighted-degree support, validates on random holdout points, and
    pairs every cell of the reference transcription or the fit with its
    coefficient in both (terms; discrepancies are the pairs that differ).

    The result depends only on the kind, so it is cached (the degree-15
    run takes seconds); callers share it and must not mutate it.
    """
    deg, w = kind.degree, kind.weight
    nd = (w * deg) // D_WEIGHT + 1
    ne = (w * deg) // E_WEIGHT + 1
    d_vals = _alternating(nd, include_zero=False)
    e_vals = _alternating(ne, include_zero=True)
    # drop values creating degenerate grid points (repeated-root sextics)
    e_vals = [e for e in e_vals if all(_grid_ok(d, e) for d in d_vals)]
    k = max(abs(v) for v in e_vals) + 1
    while len(e_vals) < ne:
        for cand in (k, -k):
            if len(e_vals) < ne and all(_grid_ok(d, cand) for d in d_vals):
                e_vals.append(cand)
        k += 1
    samples = {}
    for d in d_vals:
        for e in e_vals:
            poly = ReducedSextic(d, e).to_poly()
            samples[(d, e)] = resolvents_exact(poly, (kind,))[0][0]
    fitted: dict = {}
    for x_power in range(deg):
        rows = []
        for d in d_vals:
            ys = [samples[(d, e)][x_power] for e in e_vals]
            row = _interp(e_vals, ys)
            for c in row:
                if c.denominator != 1:
                    raise FitInconsistent(f"non-integer e-fit at x^{x_power}, d={d}")
            rows.append(row)
        cells: dict = {}
        allowed = set(_candidate_exponents(kind, x_power))
        for beta in range(ne):
            col = _interp(d_vals, [rows[i][beta] for i in range(nd)])
            for alpha, c in enumerate(col):
                if not c:
                    continue
                if c.denominator != 1:
                    raise FitInconsistent(f"non-integer d-fit at x^{x_power}")
                if (alpha, beta) not in allowed:
                    raise FitInconsistent(
                        f"fitted support d^{alpha} e^{beta} at x^{x_power} "
                        "violates the weighted-degree bound"
                    )
                cells[(alpha, beta)] = int(c)
        if cells:
            fitted[x_power] = cells
    fitted[deg] = {(0, 0): 1}

    rng = random.Random(HOLDOUT_SEED)
    used = set(samples)
    holdout_points = []
    while len(holdout_points) < HOLDOUTS:
        d = rng.randint(-30, 30)
        e = rng.randint(-30, 30)
        if (d, e) in used or not _grid_ok(d, e):
            continue
        used.add((d, e))
        holdout_points.append((d, e))
        ((exact, _),) = resolvents_exact(ReducedSextic(d, e).to_poly(), (kind,))
        if _eval_table(_compile(fitted, deg), Fraction(d), Fraction(e)) != exact:
            raise FitInconsistent(f"holdout mismatch at (d, e) = ({d}, {e})")

    reference = F_REFERENCE_TABLE if kind is ResolventKind.MATCHING else G_REFERENCE_TABLE
    terms = []
    notes = []
    for x_power in range(deg + 1):
        ref = reference.get(x_power, {})
        fit = fitted.get(x_power, {})
        for cell in sorted(set(ref) | set(fit)):
            terms.append(Term(x_power, *cell, ref.get(cell, 0), fit.get(cell, 0)))
        if ref and fit and ref != fit:
            shift = _e_shift(ref, fit)
            if shift:
                notes.append(
                    f"x^{x_power}: fitted coefficient equals the reference "
                    f"terms times e^{shift}"
                )
    return ReconstructionReport(
        kind=kind,
        fitted=fitted,
        terms=tuple(terms),
        holdout_points=tuple(holdout_points),
        notes=tuple(notes),
    )


def _grid_ok(d: int, e: int) -> bool:
    # exact squarefree test, independent of the transcribed formulas
    return squarefree(ReducedSextic(d, e).to_poly())


def _e_shift(ref: dict, fit: dict):
    """Detect fit == ref * e^s; returns s > 0 or None."""
    if len(ref) != len(fit):
        return None
    shifts = set()
    for (i, j), c in ref.items():
        match = [(fi, fj) for (fi, fj), fc in fit.items() if fi == i and fc == c]
        if len(match) != 1:
            return None
        shifts.add(match[0][1] - j)
    if len(shifts) == 1:
        s = shifts.pop()
        return s if s > 0 else None
    return None
