"""Brute-force reference implementations the tests check the library against.

Kept deliberately naive and independent of the library's own algorithms.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath as mp

from sextic.errors import NonConvergence, NotNearInteger, RepeatedRootSuspected
from sextic.exact import divisors, is_rational_square
from sextic.quintic import QuinticParams, ab_from_params
from sextic.resolvents import monic_integer_rescale, resolvent_from_roots
from sextic.roots import PRECISION_CAP, find_roots, to_mpf


def sylvester_resultant(p, q) -> Fraction:
    """Resultant via the Sylvester matrix determinant with plain fraction
    Gaussian elimination."""
    m, n = p.degree, q.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(p.coeffs)):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(q.coeffs)):
            row[i + k] = c
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c2 in range(col, size):
                    rows[r][c2] -= factor * rows[col][c2]
    return det


def rational_roots_by_divisors(p) -> set:
    """Rational roots by the rational root theorem: every +-(divisor of the
    constant)/(divisor of the leading coefficient) of the primitive integer
    form with the power of x stripped, each checked by exact evaluation of
    den^n * p(num/den)."""
    coeffs = list(p.primitive()[1].coeffs)
    roots = {Fraction(0)} if not coeffs[0] else set()
    while not coeffs[0]:
        del coeffs[0]
    if len(coeffs) == 1:
        return roots
    n = len(coeffs) - 1
    for num in divisors(abs(coeffs[0])):
        for den in divisors(abs(coeffs[-1])):
            for s in (num, -num):
                if not sum(c * s**i * den ** (n - i) for i, c in enumerate(coeffs)):
                    roots.add(Fraction(s, den))
    return roots


def resolvent_by_complex_roots(p, kind, precision: int = 256):
    """The resolvent of the given kind of the squarefree sextic p, the same
    polynomial as resolvents_exact(p, (kind,))[0], from complex roots.

    The roots of the monic integer model q(y) = m^6 p(y/m) come from
    find_roots; the orbit product is rounded to integers within 2^-(bits/8),
    a tolerance not derived from the root radius, so this is a cross-check
    and not a proof. The working precision doubles from max(precision, 64)
    while root finding or rounding fails, up to PRECISION_CAP; the last
    failure propagates. The integer resolvent R_q maps back to
    m^(-w deg) R_q(m^w z), w the invariant's weight.
    """
    q, m = monic_integer_rescale(p.monic())
    bits = max(precision, 64)
    while True:
        try:
            roots = find_roots(q, bits)
            with mp.workprec(bits + 32):
                res = resolvent_from_roots(roots, kind, mp.mpf(2) ** -(bits // 8))
            break
        except (NonConvergence, NotNearInteger, RepeatedRootSuspected):
            if 2 * bits > PRECISION_CAP:
                raise
            bits *= 2
    w, deg = kind.weight, kind.degree
    return res.to_rat().substitute_scaled(Fraction(m) ** w).scale(Fraction(1, m ** (w * deg)))


def radical_roots_by_search(p, precision: int):
    """(u, roots, residual) of the quintic radical tower for parameters p,
    found by trying all 5^4 fifth-root branch assignments in lexicographic
    order and returning the first whose five values solve x^5 + a*x + b to
    within 2^-(precision/2) (1 + |a| + |b|); None when none does."""
    a, b = ab_from_params(p)
    with mp.workprec(precision + 32):
        D = to_mpf(p.c**2 + 1)
        sD = mp.sqrt(D)
        minus = mp.sqrt(mp.mpc(D - p.epsilon * sD))
        plus = mp.sqrt(mp.mpc(D + p.epsilon * sD))
        v1, v2, v3, v4 = sD + minus, -sD - plus, -sD + plus, sD - minus
        bases = (v1**2 * v3 / D**2, v3**2 * v4 / D**2, v2**2 * v1 / D**2, v4**2 * v2 / D**2)
        branches = [[mp.root(base, 5, k) for k in range(5)] for base in bases]
        omega = mp.expjpi(mp.mpf(2) / 5)
        e_val, a_val, b_val = to_mpf(p.e), to_mpf(a), to_mpf(b)
        tol = mp.mpf(2) ** -(precision // 2) * (1 + abs(a_val) + abs(b_val))
        for combo in itertools.product(range(5), repeat=4):
            us = tuple(branches[i][k] for i, k in enumerate(combo))
            xs = tuple(
                e_val * sum(omega ** ((j * k) % 5) * us[k - 1] for k in range(1, 5))
                for j in range(5)
            )
            residual = max(abs(x**5 + a_val * x + b_val) for x in xs)
            if residual <= tol:
                return us, xs, residual
    return None


@lru_cache(maxsize=8)
def _e_candidates(height_bound: int) -> tuple:
    """Positive rationals n/m with |n|, m <= height_bound, in scan order."""
    out = []
    for m in range(1, height_bound + 1):
        for n in range(1, height_bound + 1):
            if gcd(n, m) == 1:
                out.append((n, m))
    return tuple(out)


def params_by_search(a, b, height_bound: int = 24):
    """Bounded exact search for parameters producing (a, b); None if absent.

    For each candidate (epsilon, e) the a-equation is the quadratic
    a c^2 + 20 epsilon e^4 c + (a - 15 e^4) = 0; rational roots c >= 0
    are kept when the b-equation verifies exactly. The scan order (e height
    ascending, epsilon +1 first, larger quadratic root first, e > 0 first)
    is fixed, so the returned triple is deterministic.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("the parameter search requires a != 0")
    if height_bound < 1:
        raise ValueError(f"height bound must be >= 1, got {height_bound}")
    for n, m in _e_candidates(height_bound):
        n4, m4 = n**4, m**4
        if a.denominator == 1:
            # disc/4 of the c-quadratic, scaled by m^8: pure-integer fast path
            an = a.numerator
            scaled = 100 * n4 * n4 + 15 * an * n4 * m4 - an * an * m4 * m4
            if scaled < 0:
                continue
            s = isqrt(scaled)
            if s * s != scaled:
                continue
            sqrt_disc = Fraction(2 * s, m4)
        else:
            t4 = Fraction(n4, m4)
            sqrt_disc = is_rational_square(400 * t4 * t4 - 4 * a * (a - 15 * t4))
            if sqrt_disc is None:
                continue
        e4 = Fraction(n4, m4)
        for eps in (1, -1):
            for sign in (1, -1):
                c = (-20 * eps * e4 + sign * sqrt_disc) / (2 * a)
                if c < 0:
                    continue
                denom = c**2 + 1
                if a != 5 * e4 * (3 - 4 * eps * c) / denom:
                    continue
                for e in (Fraction(n, m), Fraction(-n, m)):
                    if b == -4 * e**5 * (11 * eps + 2 * c) / denom:
                        return QuinticParams(eps, c, e)
    return None
