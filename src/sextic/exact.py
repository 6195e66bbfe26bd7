"""Exact rational scalars and univariate polynomials.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always normalized
with positive denominator, which matches the invariants we need). Polynomials
store coefficients lowest degree first; the zero polynomial is the empty
coefficient tuple with degree -1. Everything here is exact: no floating
point enters this module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from . import modp
from .errors import FactoringExhausted

Rat = Fraction

# Library code only trial-divides (resolvents.monic_integer_rescale splits
# input denominators with trial_split, which cannot fail). factorize adds
# Brent's rho up to a hard budget, after which it refuses rather than return
# a partial answer; nothing in the decision pipeline calls it.
TRIAL_DIVISION_LIMIT = 10**6
RHO_ITERATION_BUDGET = 4 * 10**6


def _strip(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class RatPoly:
    """Univariate polynomial over the rationals, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = _strip([Fraction(c) for c in coeffs])

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly([])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.degree else Fraction(0)

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = RatPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "RatPoly":
        c = Fraction(c)
        return RatPoly([a * c for a in self.coeffs])

    def derivative(self) -> "RatPoly":
        return RatPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RatPoly":
        return self.scale(1 / self.leading())

    def substitute_scaled(self, m: Fraction) -> "RatPoly":
        """Return q(x) = p(m*x)."""
        m = Fraction(m)
        return RatPoly([c * m**k for k, c in enumerate(self.coeffs)])

    def __call__(self, x):
        return poly_eval(self, x)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def primitive(self) -> tuple[Fraction, list]:
        """Split into (rational content, primitive integer coefficients).

        The coefficients are a list of ints, lowest degree first, with gcd 1
        ([] for the zero polynomial); content times them gives self, so they
        keep the sign of the leading coefficient.
        """
        if self.is_zero():
            return Fraction(0), []
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        return Fraction(g, den), [c // g for c in ints]


def poly_eval(p: RatPoly, x) -> Fraction:
    """Exact Horner evaluation."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_divmod(p: RatPoly, q: RatPoly) -> tuple[RatPoly, RatPoly]:
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dq, lq = q.degree, q.leading()
    quot = [Fraction(0)] * max(len(rem) - dq, 0)
    for k in range(len(rem) - dq - 1, -1, -1):
        c = rem[dq + k] / lq
        quot[k] = c
        if c:
            for i, b in enumerate(q.coeffs):
                rem[i + k] -= c * b
    return RatPoly(quot), RatPoly(rem)


def poly_divide_exact(p: RatPoly, q: RatPoly) -> Optional[RatPoly]:
    """p/q when the division leaves no remainder, else None."""
    quot, rem = poly_divmod(p, q)
    return quot if rem.is_zero() else None


def is_rational_square(q) -> Optional[Fraction]:
    """Nonnegative rational square root of q, or None if q is not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# integer factoring
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_primes():
    """3, 5, 7, 11, ... without end."""
    return (r for r in itertools.count(3, 2) if _is_probable_prime(r))


def _squarefree_prime(F: list, primes: Iterable[int]) -> Optional[int]:
    """The first odd prime r of primes at which the monic integer polynomial
    F is squarefree mod r, or None.

    F is monic, so disc(F mod r) = disc F mod r: such an r proves F
    squarefree, and every root of F mod r is simple. When F is squarefree,
    a search over _odd_primes() ends at the first prime not dividing disc F.
    """
    return next((r for r in primes if modp.is_squarefree(modp.reduce(F, r), r)), None)


def _brent_rho(n: int, budget: list) -> int:
    """One nontrivial factor of composite odd n, or raise FactoringExhausted."""
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise FactoringExhausted(f"rho budget exhausted on {n}")
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise FactoringExhausted(f"rho budget exhausted on {n}")
        if g != n:
            return g
    raise FactoringExhausted(f"rho failed on {n}")


def trial_split(n: int) -> tuple[dict, int]:
    """({prime: multiplicity} for the primes up to TRIAL_DIVISION_LIMIT that
    divide n >= 1, cofactor): their product is n, and the cofactor has no
    prime factor up to the limit. Trial division only, so it cannot fail."""
    if n < 1:
        raise ValueError("factoring expects a positive integer")
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 30-wheel
    p, wheel = 7, (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= TRIAL_DIVISION_LIMIT and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += wheel[i]
        i = (i + 1) % 8
    if 1 < n <= TRIAL_DIVISION_LIMIT:  # no prime factor below p, and n < p*p
        out[n] = out.get(n, 0) + 1
        n = 1
    return out, n


def factorize(n: int) -> dict:
    """Prime factorization {prime: multiplicity} of n >= 1.

    trial_split, then Brent rho on the cofactor within a fixed budget;
    raises FactoringExhausted rather than returning a partial answer.
    """
    out, n = trial_split(n)
    budget = [RHO_ITERATION_BUDGET]
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list:
    """All positive divisors of n >= 1, unordered beyond determinism."""
    divs = [1]
    for p, k in sorted(factorize(n).items()):
        divs = [d * p**j for d in divs for j in range(k + 1)]
    return divs


# ---------------------------------------------------------------------------
# rational roots (p-adic lifting)
# ---------------------------------------------------------------------------


def _horner(coeffs: list, y: int, m: int = 0) -> int:
    """Integer polynomial value at y, reduced mod m unless m is 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * y + c) % m if m else acc * y + c
    return acc


def _squarefree_part(A: list) -> list:
    """A / gcd(A, A') for a primitive integer polynomial A, by primitive PRS."""
    g, r = A, [k * c for k, c in enumerate(A)][1:]
    while r:
        g, b = [c // math.gcd(*r) for c in r], g
        r = _pseudo_rem(b, g)
    return A if len(g) == 1 else _exact_quotient(A, g)


def _exact_quotient(A: list, B: list) -> list:
    """A / B for integer polynomials, B dividing A over the integers (as a
    primitive B dividing A over the rationals does, by Gauss's lemma)."""
    R, dB = list(A), len(B) - 1
    Q = [0] * (len(A) - dB)
    for k in range(len(Q) - 1, -1, -1):
        c, r = divmod(R[dB + k], B[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        Q[k] = c
        for i, b in enumerate(B):
            R[i + k] -= c * b
    if any(R[:dB]):
        raise ArithmeticError("inexact polynomial division")
    return Q


def _root_bound(F: list) -> int:
    """Fujiwara's bound 2 max |c_i|^(1/(n-i)) on the roots of a monic integer
    polynomial F of degree n >= 1, each term rounded up to a power of two."""
    n = len(F) - 1
    return 2 * max(1 << -(-abs(c).bit_length() // (n - i)) for i, c in enumerate(F[:-1]))


def monic_model(A: list) -> list:
    """The monic integer polynomial lead^(n-1) * A(y/lead) of an integer
    polynomial A of degree n >= 1, lowest degree first."""
    n, lead = len(A) - 1, A[-1]
    return [c * lead ** (n - 1 - i) for i, c in enumerate(A[:-1])] + [1]


# Odd primes below 30, tried in order for a squarefree certificate. Every
# squarefree resolvent of the benchmark corpora is certified by one of them.
CERTIFICATE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def rational_roots(p: RatPoly) -> set:
    """All rational roots of p (multiplicities not reported).

    p-adic lifting (Loos 1983). 0 is a root when x divides p; the others are
    y/lead for the integer roots y of the monic model F(y) = lead^(n-1) A(y/lead)
    (monic_model) of the primitive part A of p/x^k. The lifting prime is the
    first of CERTIFICATE_PRIMES at which F is squarefree: that certifies A
    squarefree, and all roots of F mod it simple. When none certifies, A is
    replaced by its squarefree part (subresultant PRS) and the first odd prime
    at which that part's model is squarefree is used. Each root of F mod the
    prime is Newton-lifted above twice Fujiwara's root bound, reduced
    symmetrically (modp.newton_lift, modp.symmetric), checked exactly.
    """
    return _rational_roots(p)[0]


def _rational_roots(p: RatPoly) -> tuple[set, bool]:
    """(rational_roots(p), True when p has no repeated complex root); the
    flag is read off the certificate, or the squarefree part, that the
    roots need anyway."""
    if p.is_zero():
        raise ValueError("rational_roots expects a nonzero polynomial")
    coeffs = p.primitive()[1]
    k = next(i for i, c in enumerate(coeffs) if c)
    roots = {Fraction(0)} if k else set()
    A = coeffs[k:]
    if len(A) < 2:
        return roots, k <= 1
    F = monic_model(A)
    prime = _squarefree_prime(F, CERTIFICATE_PRIMES)
    simple = k <= 1
    if prime is None:
        A = _squarefree_part(A)
        simple = simple and len(A) == len(coeffs) - k
        F = monic_model(A)
        prime = _squarefree_prime(F, _odd_primes())
    lead, bound, target = A[-1], 2 * _root_bound(F), prime
    while target <= bound:
        target *= prime
    for y in (y for y in range(prime) if not _horner(F, y, prime)):
        y = modp.symmetric(modp.newton_lift(F, (y, 0), 0, prime, target)[0], target)
        if not _horner(F, y):
            roots.add(Fraction(y, lead))
    return roots, simple


# ---------------------------------------------------------------------------
# resultants (fraction-free subresultant PRS)
# ---------------------------------------------------------------------------


def _pseudo_rem(A: list, B: list) -> list:
    """lc(B)^(deg A - deg B + 1) * A mod B over the integers."""
    dA, dB = len(A) - 1, len(B) - 1
    lb = B[-1]
    R = list(A)
    for k in range(dA - dB, -1, -1):
        top = R[dB + k]
        R = [lb * c for c in R]
        if top:
            for i, bc in enumerate(B):
                R[i + k] -= top * bc
        del R[-1]
    while R and not R[-1]:
        del R[-1]
    return R


def _exact_div(coeffs: list, q: int) -> list:
    out = []
    for c in coeffs:
        d, r = divmod(c, q)
        if r:
            raise ArithmeticError("inexact division in subresultant PRS")
        out.append(d)
    return out


def _resultant_int(A: list, B: list) -> int:
    """Resultant of primitive integer polynomials, both nonzero."""
    s = 1
    if len(A) - 1 < len(B) - 1:
        if ((len(A) - 1) * (len(B) - 1)) % 2:
            s = -s
        A, B = B, A
    if len(B) - 1 == 0:
        return s * B[0] ** (len(A) - 1)
    g = h = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            s = -s
        R = _pseudo_rem(A, B)
        if not R:
            return 0
        A = B
        B = _exact_div(R, g * h**delta)
        g = A[-1]
        if delta:
            num = g**delta
            den = h ** (delta - 1)
            h, r = divmod(num, den)
            if r:
                raise ArithmeticError("inexact h update in subresultant PRS")
        if len(B) - 1 == 0:
            dA = len(A) - 1
            num = B[0] ** dA
            den = h ** (dA - 1)
            q, r = divmod(num, den)
            if r:
                raise ArithmeticError("inexact final division in subresultant PRS")
            return s * q


def resultant(p: RatPoly, q: RatPoly) -> Fraction:
    """Exact resultant Res(p, q) = lc(p)^deg(q) * prod q(alpha_i)."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant expects nonzero polynomials")
    cp, P = p.primitive()
    cq, Q = q.primitive()
    base = _resultant_int(P, Q)
    return cp**q.degree * cq**p.degree * base


@lru_cache(maxsize=1)
def _derivative_resultant(p: RatPoly) -> Fraction:
    """Res(p, p'), kept for the last p only: classifying a sextic asks for it
    three times in a row for the same monic polynomial (its discriminant,
    the repeated-root test of is_irreducible, and the lifting-prime sieve of
    resolvents_exact)."""
    return resultant(p, p.derivative())


def squarefree(p: RatPoly) -> bool:
    """True when p has no repeated complex root."""
    if p.degree < 2:
        return True
    return _derivative_resultant(p) != 0
