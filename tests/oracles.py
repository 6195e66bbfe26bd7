"""Brute-force reference implementations the tests check the library against.

Kept deliberately naive and independent of the library's own algorithms.
"""

from fractions import Fraction

from sextic.exact import divisors


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
