"""Brute-force reference implementations the tests check the library against.

Kept deliberately naive and independent of the library's own algorithms.
"""

import itertools
from fractions import Fraction

import mpmath as mp

from sextic.exact import divisors
from sextic.quintic import ab_from_params
from sextic.roots import to_mpf


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
