"""Dense polynomials over F_p and Z/p^k: arithmetic, root finding, the
factor degrees of a polynomial of degree <= 6, Newton lifting of roots;
symmetric residues.

A polynomial is a list of ints, lowest degree first, with no trailing zeros
(the zero polynomial is []). Every function takes the modulus m (or the
prime p) explicitly and returns residues in 0..m-1, except symmetric, which
maps one into (-m/2, m/2] to read off the integer it stands for. Division
needs a divisor whose leading coefficient is a unit mod m; gcd and
factoring need a prime modulus, and factoring a squarefree input.

The factor degrees of a squarefree f of degree <= 6 mod an odd prime p
need no factoring: factor_degrees reads them off the roots of f mod p and
the quadratic character of its discriminant (Stickelberger, in Swan's
form), with at most one power x^(p^2) mod f, for the degree analysis of
classify.is_irreducible. small_factor_roots asks only whether every degree
is <= 2: the root count and the character reject most primes, and the
power is taken only for an f with no root and a non-square discriminant.
lift_small_factors, the one p-adic lift of the decision pipeline (for
is_irreducible and resolvents_exact), lifts at a prime its caller found so,
from the roots found there: it splits the product of the quadratic factors
with equal_degree, which refuses an input that is not a product of
distinct factors of the given degree, reads a square root off roots, and
lifts one root of each factor by quadratic Newton steps, in Z/p^k or in
(Z/p^k)[sqrt n]. factor, distinct-degree then Cantor-Zassenhaus
equal-degree splitting (Math. Comp. 36, 1981), has no caller in the
library: it is the reference factorer of the tests.

Powers mod (f, m) (powmod) run on packed residues. With n = deg f, a
polynomial of degree below 2n - 1 is one int with one coefficient in each
w-bit slot, so a product is one integer multiplication. Slots n..2n-2 fold
back through the packed rows x^n..x^(2n-2) mod f, and every slot is
reduced mod m at once by exact division by multiplication (Granlund and
Montgomery, PLDI 1994): q = (v * c >> u) masked to the slots, then v - q*m.
For slot values up to top, u is the bit length of top plus that of m and
c = ceil(2^u / m); w is the bit length of top * c, so no slot carries into
the next (_slot_reduction). roots and has_root evaluate a polynomial of
degree n at every residue y = 0..m-1 at once (_zero_slots): with V_k
holding y^k mod m in slot y (built once per (m, n)), sum (a_k mod m) V_k
holds a(y), at most top = (m-1) max_y sum_k (y^k mod m), in slot y. One
reduction leaves a(y) mod m, and adding 2^(w-1) - 1 to each slot sets its
top bit unless 0; the slots whose top bit stays clear are the roots.
Nothing here uses floating point or randomness.
"""

from __future__ import annotations

import functools
import itertools


def symmetric(c: int, m: int) -> int:
    """The residue of c in 0..m-1 taken into (-m/2, m/2]: the integer an
    r-adic lift stands for once m exceeds twice its size."""
    return c - m if c > m // 2 else c


def trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def reduce(a, m: int) -> list:
    return trim([c % m for c in a])


def add(a: list, b: list, m: int) -> list:
    return reduce([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], m)


def sub(a: list, b: list, m: int) -> list:
    return add(a, [-c for c in b], m)


def mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return reduce(out, m)


def div_rem(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b mod m."""
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = q[k] = r[db + k] * inv % m
        if c:
            for i, y in enumerate(b):
                r[i + k] -= c * y
    return trim(q), reduce(r[:db], m)


def monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a: list, b: list, p: int) -> list:
    """Monic gcd mod p ([] when both are zero)."""
    while b:
        a, b = b, div_rem(a, b, p)[1]
    return monic(a, p) if a else []


def _slot_reduction(top: int, m: int, slots: int):
    """(w, residues): a slot width w and the function that takes an integer
    of `slots` w-bit slots, each at most top, to the one whose slots hold
    their residues mod m (see the module docstring)."""
    u = top.bit_length() + m.bit_length()
    c = -(-(1 << u) // m)
    w = (top * c).bit_length()  # v // m == v * c >> u for 0 <= v <= top
    quotient_bits = ((1 << w - u) - 1) * (((1 << slots * w) - 1) // ((1 << w) - 1))
    return w, lambda v: v - ((v * c >> u) & quotient_bits) * m


@functools.cache
def _residue_powers(m: int, degree: int) -> tuple:
    """(rows, residues, high, lows, w) for _zero_slots: rows[k] has y^k mod
    m in slot y for y = 0..m-1; high holds the top bit of each w-bit slot,
    and lows the bits below it."""
    powers = [[pow(y, k, m) for y in range(m)] for k in range(degree + 1)]
    top = (m - 1) * max(map(sum, zip(*powers)))
    w, residues = _slot_reduction(top, m, m)
    rows = [sum(p << y * w for y, p in enumerate(row)) for row in powers]
    high = (((1 << m * w) - 1) // ((1 << w) - 1)) << w - 1
    return rows, residues, high, high - (high >> w - 1), w


def _zero_slots(a: list, m: int) -> tuple[int, int]:
    """(z, w): z has the top bit of w-bit slot y set exactly when the
    integer polynomial a (any ints, at least one) vanishes at y mod m, from
    one packed evaluation at every residue (see the module docstring)."""
    rows, residues, high, lows, w = _residue_powers(m, len(a) - 1)
    v = residues(sum(c % m * row for c, row in zip(a, rows)))
    return (v + lows) & high ^ high, w


def has_root(a: list, m: int) -> bool:
    """Whether the integer polynomial a (any ints, at least one) has a root
    mod m."""
    return bool(_zero_slots(a, m)[0])


def roots(a: list, m: int) -> list:
    """The roots y = 0..m-1 of the integer polynomial a (any ints, at least
    one) mod m, in increasing order."""
    z, w = _zero_slots(a, m)
    out = []
    while z:
        bit = z & -z
        out.append(bit.bit_length() // w - 1)
        z ^= bit
    return out


def powmod(a: list, e: int, f: list, m: int) -> list:
    """a^e mod (f, m) by left-to-right square and multiply on packed
    residues (see the module docstring); every slot is reduced mod m after
    each product and again after its fold."""
    n = len(f) - 1
    if not n:
        return []
    # a slot value is at most n(m-1)^2, after a product and after a fold
    w, residues = _slot_reduction(n * (m - 1) ** 2, m, 2 * n - 1)
    slot = (1 << w) - 1
    low = (1 << n * w) - 1

    inv, row, base = pow(f[-1], -1, m), 0, 0
    for k in reversed(f[:n]):
        row = row << w | -k * inv % m
    rows = [row]  # x^(n+k) = x * x^(n+k-1), folding its slot n
    for _ in range(n - 2):
        rows.append(residues((rows[-1] << w & low) + (rows[-1] >> (n - 1) * w) * row))

    def product(v, b):
        v = residues(v * b)
        high, v = v >> n * w, v & low
        for row in rows:
            v += (high & slot) * row
            high >>= w
        return residues(v)

    for k in reversed(div_rem(a, f, m)[1]):
        base = base << w | k
    result = base if e else 1
    for bit in bin(e)[3:]:
        result = product(result, result)
        if bit == "1":
            result = product(result, base)
    return trim([result >> i * w & slot for i in range(n)])


def derivative(a: list, m: int) -> list:
    return reduce([k * c for k, c in enumerate(a)][1:], m)


def is_squarefree(f: list, p: int) -> bool:
    return gcd(f, derivative(f, p), p) == [1]


def distinct_degree(f: list, p: int) -> list:
    """(g, d) pairs, g the product of the degree-d irreducible factors of
    monic squarefree f mod p. For factor, the tests' reference."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, p, f, p)
        g = gcd(f, sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = div_rem(f, g, p)[0]
            h = div_rem(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def equal_degree(g: list, d: int, p: int) -> list:
    """Irreducible factors of monic squarefree g mod odd p, all of degree d.

    The test polynomials a run through every polynomial of degree 1 to
    deg g - 1, read off the base-p digits of p, p + 1, ... For two distinct
    factors some such a is a square mod one and a non-square mod the other,
    so gcd(g, a^((p^d - 1)/2) - 1) splits g before the enumeration ends.
    The first test power, h = x^((p^d - 1)/2) mod g, also checks the input:
    g must divide x h^2 - x = x^(p^d) - x and have degree a multiple of d,
    else ValueError, where the enumeration would never end. A g of degree d
    is returned as it is.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    for t in itertools.count(p):
        a = []
        while t:
            t, digit = divmod(t, p)
            a.append(digit)
        h = powmod(a, e, g, p)
        if a == [0, 1] and (n % d or div_rem(mul([0, 1], sub(mul(h, h, p), [1], p), p), g, p)[1]):
            raise ValueError(f"not a product of distinct irreducible factors of degree {d} mod {p}")
        h = gcd(g, sub(h, [1], p), p)
        if 0 < len(h) - 1 < n:
            return equal_degree(h, d, p) + equal_degree(div_rem(g, h, p)[0], d, p)


def factor(f: list, p: int) -> list:
    """Monic irreducible factors of monic squarefree f mod odd prime p,
    sorted: the reference factorer of the tests, not called by the library."""
    return sorted(h for part, d in distinct_degree(f, p) for h in equal_degree(part, d, p))


def factor_degrees(f: list, p: int, disc: int) -> tuple[list, tuple]:
    """(roots(f, p), the sorted degrees of the irreducible factors of f mod
    p) for monic f of degree n <= 6 and odd prime p not dividing disc, the
    discriminant of f.

    The c roots are the linear factors. Stickelberger's theorem in Swan's
    form (Pacific J. Math. 12, 1962) gives the number k of factors by
    (-1)^(n-k) = (disc/p), which leaves one pattern for the parts of degree
    >= 2 when n - c <= 5: (2, 2) or (4), (5) or (2, 3). When n - c = 6 one
    power h = x^(p^2) mod (f, p) decides: h = x for (2, 2, 2); otherwise
    (disc/p) = -1 for (6), and gcd(f, h - x) of degree 2 for (2, 4), of
    degree 0 for (3, 3).
    """
    found = roots(f, p)
    rest = len(f) - 1 - len(found)
    square = pow(disc, (p - 1) // 2, p) == 1
    if rest < 4:
        parts = (rest,) if rest else ()
    elif rest == 4:
        parts = (2, 2) if square else (4,)
    elif rest == 5:
        parts = (5,) if square else (2, 3)
    else:
        x = [0, 1]
        h = powmod(x, p * p, f, p)
        if h == x:
            parts = (2, 2, 2)
        elif not square:
            parts = (6,)
        else:
            parts = (2, 4) if len(gcd(f, sub(h, x, p), p)) == 3 else (3, 3)
    return found, (1,) * len(found) + parts


def small_factor_roots(f: list, p: int, disc: int):
    """roots(f, p) when no irreducible factor of f mod p has degree above
    2, else None; f, p and disc as in factor_degrees.

    With c roots, the other factors are all quadratics only if n - c is
    even and (disc/p) = (-1)^((n - c)/2) (Stickelberger). One power
    x^(p^2) mod (f, p) then separates (2, 2, 2), where it is x, from (6),
    and is taken only there: n - c = 6 and disc a non-square mod p.
    """
    found = roots(f, p)
    rest = len(f) - 1 - len(found)
    if rest % 2 or pow(disc, (p - 1) // 2, p) != (1 if rest % 4 == 0 else p - 1):
        return None
    if rest == 6 and powmod([0, 1], p * p, f, p) != [0, 1]:
        return None
    return found


def nonresidue(p: int) -> int:
    """The least quadratic non-residue mod odd prime p."""
    return next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)


def newton_lift(q: list, root: tuple, n: int, p: int, target: int) -> tuple:
    """The root a + b sqrt n of the integer polynomial q mod target, a power
    of p, that reduces to the given simple root (a, b) mod p, by quadratic
    Newton steps in (Z/p^k)[sqrt n]. A root in Z/target is the case b = 0,
    for any n."""
    a, b = root
    m = p
    while m < target:
        m = min(m * m, target)
        fa, fb, da, db = q[-1], 0, 0, 0  # q and q' by Horner
        for c in reversed(q[:-1]):
            da, db = (da * a + n * db * b + fa) % m, (da * b + db * a + fb) % m
            fa, fb = (fa * a + n * fb * b + c) % m, (fa * b + fb * a) % m
        inv = pow(da * da - n * db * db, -1, m)  # the norm of q'(root) is a unit
        a = (a - (fa * da - n * fb * db) * inv) % m
        b = (b - (fb * da - fa * db) * inv) % m
    return a, b


def lift_small_factors(q: list, r: int, found: list, bound: int) -> tuple:
    """(M, n, linear, quadratic): the roots of the monic integer polynomial
    q of degree <= 6 lifted to M, the least power of r above bound, from
    found = roots(q, r), at an odd prime r not dividing disc q at which no
    irreducible factor of q mod r has degree above 2.

    linear holds one root in Z/M for each linear factor mod r, and
    quadratic one root a + b sqrt n in (Z/M)[sqrt n], as (a, b), for each
    quadratic factor, n the least non-residue mod r; its conjugate
    a - b sqrt n is the other root, so x^2 - 2a x + (a^2 - n b^2) is the
    factor of q mod M. The roots mod r are simple because r does not divide
    disc q, so each lifts by newton_lift; the quotient of q mod r by its
    linear factors is split by equal_degree, which raises ValueError when
    it is not a product of quadratics.
    """
    f = reduce(q, r)
    for y in found:
        f = div_rem(f, [-y % r, 1], r)[0]
    modulus = r
    while modulus <= bound:
        modulus *= r
    n, half = nonresidue(r), pow(2, -1, r)
    linear = [newton_lift(q, (y, 0), n, r, modulus)[0] for y in found]
    quadratic = []
    for c, b, _ in equal_degree(f, 2, r) if len(f) > 1 else ():
        # x^2 + b x + c has the roots (-b +- s sqrt n) / 2, s a root of
        # y^2 - (b^2 - 4c) / n
        s = roots([-(b * b - 4 * c) * pow(n, -1, r), 0, 1], r)[0]
        quadratic.append(newton_lift(q, (-b * half % r, s * half % r), n, r, modulus))
    return modulus, n, linear, quadratic
