"""Dense polynomials over F_p and Z/p^k: arithmetic, factoring, Hensel
lifting, Newton lifting of roots; square roots in F_p; symmetric residues.

A polynomial is a list of ints, lowest degree first, with no trailing zeros
(the zero polynomial is []). Every function takes the modulus m (or the
prime p) explicitly and returns residues in 0..m-1, except symmetric, which
maps one into (-m/2, m/2] to read off the integer it stands for. Division
needs a divisor whose leading coefficient is a unit mod m; gcd, xgcd and
factoring need a prime modulus, and factoring a squarefree input.

Factoring over F_p (odd p) is distinct-degree splitting followed by
Cantor-Zassenhaus equal-degree splitting (Math. Comp. 36, 1981). factor
runs both, for classify.is_irreducible at its Zassenhaus prime. The
factor degrees of a squarefree f of degree <= 6 need neither:
factor_degrees reads them off the roots of f mod p and the quadratic
character of its discriminant (Stickelberger, in Swan's form), with at most
one power x^(p^2) mod f. It serves the degree analysis of is_irreducible
and the lifting-prime sieve of resolvents_exact, which splits only the
product of quadratic factors with equal_degree. The two-factor lift is
the quadratic Hensel step (von zur Gathen & Gerhard, Modern Computer
Algebra, Alg. 15.10). A simple root lifts by quadratic Newton steps, in
Z/p^k or in (Z/p^k)[sqrt n]. Square roots are Tonelli-Shanks.

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


def xgcd(a: list, b: list, p: int) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b == g, the monic gcd, mod p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = div_rem(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    inv = [pow(r0[-1], -1, p)]
    return mul(r0, inv, p), mul(s0, inv, p), mul(t0, inv, p)


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
    monic squarefree f mod p."""
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
        h = gcd(g, sub(powmod(a, e, g, p), [1], p), p)
        if 0 < len(h) - 1 < n:
            return equal_degree(h, d, p) + equal_degree(div_rem(g, h, p)[0], d, p)


def factor(f: list, p: int) -> list:
    """Monic irreducible factors of monic squarefree f mod odd prime p, sorted."""
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


def nonresidue(p: int) -> int:
    """The least quadratic non-residue mod odd prime p."""
    return next(z for z in itertools.count(2) if pow(z, (p - 1) // 2, p) == p - 1)


def sqrt(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod odd prime p (Tonelli-Shanks)."""
    a %= p
    if not a:
        return 0
    q, s = p - 1, 0
    while not q % 2:
        q //= 2
        s += 1
    c, t, r = pow(nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def hensel_lift(f: list, g: list, h: list, p: int, k: int) -> tuple[list, list]:
    """(G, H) with f == G*H mod p^k and G == g, H == h mod p.

    f is a monic integer polynomial, and g, h are monic and coprime mod p
    with f == g*h mod p. The lift is unique, so G is the reduction mod p^k
    of any monic integer factor of f that reduces to g mod p.
    """
    _, s, t = xgcd(g, h, p)
    m, target = p, p**k
    while m < target:
        m = min(m * m, target)
        e = sub(f, mul(g, h, m), m)
        q, r = div_rem(mul(s, e, m), h, m)
        g = add(g, add(mul(t, e, m), mul(q, g, m), m), m)
        h = add(h, r, m)
        b = sub(add(mul(s, g, m), mul(t, h, m), m), [1], m)
        c, d = div_rem(mul(s, b, m), h, m)
        s = sub(s, d, m)
        t = sub(t, add(mul(t, b, m), mul(c, g, m), m), m)
    return g, h


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
