"""Resolvent polynomials of sextics, and the audit of the closed forms for
the reduced sextic x^6 + x^2 + d*x + e.

Three construction routes, reconciled against each other:

* reference closed forms: the degree-15 and degree-10 coefficient tables
  transcribed verbatim from the source material (f_reduced, g_reduced),
  kept exactly as transcribed, typos included, so they can be audited;
* exact resolvents of arbitrary squarefree sextics by p-adic lifting of
  the roots (resolvents_exact), with no floating point: the lifted roots go
  through the generic from-roots construction (resolvent_from_roots), which
  evaluates the full invariant orbit, expands the product and rounds the
  coefficients to integers;
* an interpolation reconstruction (reconstruct_reduced) that re-derives
  the closed-form tables from exact samples and diffs them term by term
  against the transcription.

The reconstruction is the authority when the closed forms disagree;
verified tables (f_verified, g_verified) carry its output. The
classification pipeline consumes those tables for reduced-shape input and
resolvents_exact for every other sextic. Discrepancies are reported, never
silently patched. The tests cross-check resolvents_exact against an
orbit product of their own over complex roots from roots.find_roots
(tests/oracles.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm, prod

from . import modp
from .errors import DegenerateSextic, FitInconsistent
from .exact import RatPoly, _derivative_resultant, _odd_primes, _root_bound
from .exact import resultant, squarefree, trial_split
from .exact import factorize  # noqa: F401  not called; perfbench/spans.py requires the binding
from .groups import MATCHING_INVARIANT, PARTITION_INVARIANT, eval_monomial_sum, orbit
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
# holdout points (kept frozen here so classification does not pay the
# reconstruction cost). It differs from the transcription in four places:
# the x^7 coefficient carries the e^8 factor its neighbours have, the x^9
# and x^12 coefficients lose one spurious term each, and the constant term
# is negated (same vanishing locus, so the vanishing-constant family is
# unaffected). A slow test recomputes this table from scratch.
F_VERIFIED_TABLE = {
    15: {(0, 0): 1},
    13: {(0, 2): -6},
    12: {(0, 4): -42},
    11: {(0, 4): 7},
    10: {(0, 6): 222, (2, 5): -21},
    9: {(0, 8): 453, (0, 6): 8},
    8: {(0, 8): -340, (2, 7): 109},
    7: {(0, 10): -1716, (2, 9): 288, (0, 8): -17},
    6: {(0, 12): -1232, (0, 10): 300, (2, 9): -144},
    5: {(0, 12): 1534, (2, 11): 538, (4, 10): -353, (0, 10): 2},
    4: {(0, 14): 2592, (2, 13): -96, (0, 12): -258, (2, 11): 48},
    3: {(0, 16): -1728, (0, 14): -1012, (2, 13): 284, (4, 12): -94, (0, 12): 9},
    2: {(0, 16): 432, (2, 15): -2160, (4, 14): 792, (0, 14): 118, (2, 13): 5},
    1: {(2, 17): 1296, (0, 16): -27, (2, 15): 138, (4, 14): -60, (0, 14): -4},
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
    over the cells of a _compile'd table's row power; the integers of
    _table_integers over their common denominator, so only the final
    Fraction of each coefficient takes a gcd.
    """
    nums, den = _table_integers(compiled, d, e)
    return RatPoly([Fraction(c, den) for c in nums])


_F_REFERENCE = _compile(F_REFERENCE_TABLE, 15)
_G_REFERENCE = _compile(G_REFERENCE_TABLE, 10)
_F_VERIFIED = _compile(F_VERIFIED_TABLE, 15)
_G_VERIFIED = _compile(G_VERIFIED_TABLE, 10)
_DISC = _compile({0: _DISC_TABLE}, 0)


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
    """Resolvents of p itself (rational coefficients), one per kind in kinds,
    by p-adic lifting of the roots (K. Yokoyama, J. Pure Appl. Algebra
    117-118, 1997; K. Geissler and J. Klüners, J. Symbolic Comput. 30, 2000).
    No floating point is involved.

    q(y) = m^6 p(y/m) is the monic integer sextic of monic_integer_rescale,
    with the roots y = m * x. The lifting prime is the first odd prime r with
    x^(r^2) == x mod (q, r): q mod r is then squarefree with factors of
    degree <= 2, so its six roots lie in F_r(sqrt n), n the least
    non-residue. The sieve (_split_small) skips the r dividing
    disc q = m^30 Res(p, p') and rejects r unless x^(r^2) == x mod (q, r),
    one packed modp.powmod per prime. At the prime it accepts, modp.factor
    splits q mod r into its linear and quadratic factors. Each root is
    Newton-lifted in (Z/r^N)[sqrt n] (_lifted_roots), and the orbit
    product expands from those roots (resolvent_from_roots) to the integer
    resolvent R_q mod r^N, whose sqrt n part must vanish.

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

    Raises ValueError unless p has degree 6, and DegenerateSextic when p has
    a repeated root.
    """
    if p.degree != 6:
        raise ValueError("resolvent construction expects a degree-6 polynomial")
    p = p.monic()
    q, m = monic_integer_rescale(p)
    disc = int(m**30 * _derivative_resultant(p))  # Res(q, q'), the roots scaled by m
    roots = _lifted_roots([int(c) for c in q.coeffs], kinds, disc)
    out = []
    for kind in kinds:
        res = resolvent_from_roots(roots, kind)
        if m != 1:
            res = res.substitute_scaled(Fraction(m) ** kind.weight).scale(
                Fraction(1, m ** (kind.weight * kind.degree))
            )
        out.append(res)
    return tuple(out)


# perfbench/spans.py traces resolvent construction under this name; the
# tracer wraps by identity, so calls to resolvents_exact count there too.
# ROADMAP item 2 (the benchmark change) removes it.
resolvent_numeric_in_frame = resolvents_exact


class _Lifted:
    """a + b sqrt(n) in (Z/M)[sqrt n], M = r^N: a root lifted r-adically, or
    a value computed from such roots, with the ring arithmetic that
    eval_monomial_sum and expand_from_roots use; round_to_int_poly reads the
    integer a coefficient stands for."""

    __slots__ = ("a", "b", "n", "modulus")

    def __init__(self, a: int, b: int, n: int, modulus: int):
        self.a, self.b, self.n, self.modulus = a, b, n, modulus

    def _make(self, a: int, b: int) -> "_Lifted":
        return _Lifted(a % self.modulus, b % self.modulus, self.n, self.modulus)

    def __add__(self, other: "_Lifted") -> "_Lifted":
        return self._make(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "_Lifted") -> "_Lifted":
        return self._make(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "_Lifted":
        return self._make(-self.a, -self.b)

    def __mul__(self, other: "_Lifted") -> "_Lifted":
        return self._make(self.a * other.a + self.n * self.b * other.b,
                          self.a * other.b + self.b * other.a)

    def __pow__(self, e: int) -> "_Lifted":
        out = self._make(1, 0)
        for _ in range(e):
            out = out * self
        return out


def _split_small(f: list, r: int):
    """The sorted monic irreducible factors of the monic sextic f, squarefree
    mod r, when none has degree above 2 (x^(r^2) == x mod (f, r)); else None.
    The sieve of resolvents_exact."""
    x = [0, 1]
    if modp.powmod(x, r * r, f, r) != x:
        return None
    return modp.factor(f, r)


def _lifted_roots(q: list, kinds: tuple, disc=None) -> list:
    """The six roots of the monic integer sextic q (coefficients low to
    high) as _Lifted values, modulo a power of r above twice the resolvent
    coefficient bound of resolvents_exact for the given kinds. disc is
    Res(q, q'), computed when not given; DegenerateSextic when it is 0."""
    if disc is None:
        disc = resultant(RatPoly(q), RatPoly(q).derivative())
    if not disc:
        raise DegenerateSextic("repeated roots; resolvent criteria need distinct roots")
    for prime in _odd_primes():
        factors = _split_small(modp.reduce(q, prime), prime) if disc % prime else None
        if factors:
            break
    R = _root_bound(q)
    M = isqrt(sum(c * c for c in q)) + 1
    value_bound = {
        ResolventKind.MATCHING: 3 * abs(q[0]) * min(M, R**2),
        ResolventKind.PARTITION: 6 * R * min(M, R**3),
    }
    bound = max(comb(kind.degree, k) * value_bound[kind] ** k
                for kind in kinds for k in range(kind.degree + 1))
    modulus = prime
    while modulus <= 2 * bound:
        modulus *= prime

    n = modp.nonresidue(prime)
    half = pow(2, -1, prime)
    roots = []
    for f in factors:
        if len(f) == 2:
            roots.append(modp.newton_lift(q, (-f[0] % prime, 0), n, prime, modulus))
        else:  # x^2 + b x + c: roots (-b +- s sqrt n) / 2 with s^2 n = b^2 - 4c
            c, b = f[0], f[1]
            s = modp.sqrt((b * b - 4 * c) * pow(n, -1, prime), prime)
            a, t = modp.newton_lift(q, (-b * half % prime, s * half % prime), n, prime, modulus)
            roots += [(a, t), (a, -t % modulus)]  # the conjugate lifts the conjugate
    return [_Lifted(a, b, n, modulus) for a, b in roots]


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
    n = p.degree
    m_factors: dict = {}
    rest = 1
    for j, c in enumerate(p.coeffs[:-1]):
        small, cofactor = trial_split(c.denominator)
        for prime, a in small.items():
            need = -(-a // (n - j))  # ceil
            m_factors[prime] = max(m_factors.get(prime, 0), need)
        rest = lcm(rest, cofactor)
    m = rest * prod(prime**a for prime, a in m_factors.items())
    q = RatPoly([c * Fraction(m) ** (n - j) for j, c in enumerate(p.coeffs)])
    return q, m


def resolvent_from_roots(roots, kind: ResolventKind) -> RatPoly:
    """Expand the invariant-orbit product over the six lifted roots (_Lifted
    values) and read off its integer coefficients (round_to_int_poly). One
    monomial memo serves the whole orbit (eval_monomial_sum)."""
    memo: dict = {}
    values = [eval_monomial_sum(m, roots, memo) for m, _ in orbit(kind.invariant)]
    return round_to_int_poly(expand_from_roots(values))


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
            samples[(d, e)] = resolvents_exact(poly, (kind,))[0]
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
        (exact,) = resolvents_exact(ReducedSextic(d, e).to_poly(), (kind,))
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
