"""sextic.modp against brute force over small prime fields."""

import itertools
import math
import random

import pytest

from sextic import modp
from sextic.classify import ROOT_SIEVE_PRIMES


def _monic_polys(p, degree):
    for low in itertools.product(range(p), repeat=degree):
        yield list(low) + [1]


def _brute_irreducible(f, p):
    # no monic divisor of degree 1..deg f // 2
    return all(
        modp.div_rem(f, g, p)[1]
        for k in range(1, (len(f) - 1) // 2 + 1)
        for g in _monic_polys(p, k)
    )


@pytest.mark.parametrize("p", [3, 5])
def test_factor_matches_brute_force(p):
    squarefree = 0
    for degree in range(5):
        for f in _monic_polys(p, degree):
            if not modp.is_squarefree(f, p):
                continue
            squarefree += 1
            factors = modp.factor(f, p)
            product = [1]
            for g in factors:
                assert g[-1] == 1 and len(g) > 1
                assert _brute_irreducible(g, p), (f, g)
                product = modp.mul(product, g, p)
            assert product == f
            assert factors == sorted(factors)
            assert len(set(map(tuple, factors))) == len(factors)
    assert squarefree == 1 + p + sum(p**n - p ** (n - 1) for n in (2, 3, 4))  # p^n - p^(n-1) per degree


def test_factor_degree_patterns_of_squarefree_sextics_mod_7():
    # a squarefree f factors into distinct irreducibles whose degrees sum to 6
    rng = random.Random(4)
    for _ in range(200):
        f = [rng.randrange(7) for _ in range(6)] + [1]
        if not modp.is_squarefree(f, 7):
            continue
        factors = modp.factor(f, 7)
        assert len(set(map(tuple, factors))) == len(factors)
        assert sum(len(g) - 1 for g in factors) == 6


def test_xgcd_and_division_identities():
    rng = random.Random(9)
    p = 13
    for _ in range(200):
        a = modp.reduce([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
        b = modp.reduce([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
        if not a or not b:
            continue
        g, s, t = modp.xgcd(a, b, p)
        assert g == modp.gcd(a, b, p) and g[-1] == 1
        assert modp.add(modp.mul(s, a, p), modp.mul(t, b, p), p) == g
        q, r = modp.div_rem(a, b, p)
        assert len(r) < len(b)
        assert modp.add(modp.mul(q, b, p), r, p) == a


def test_powmod_matches_repeated_multiplication():
    f = [3, 0, 5, 1, 1]
    for a, m in itertools.product(([2, 1, 4], [0, 1]), (7, 7**3)):
        acc = [1]
        for e in range(41):
            assert modp.powmod(a, e, f, m) == acc, (a, m, e)
            acc = modp.div_rem(modp.mul(acc, a, m), f, m)[1]


def _powmod_by_lists(a, e, f, m):
    """a^e mod (f, m) by right-to-left square and multiply in list arithmetic."""
    result, base = modp.div_rem([1], f, m)[1], modp.div_rem(a, f, m)[1]
    while e:
        if e & 1:
            result = modp.div_rem(modp.mul(result, base, m), f, m)[1]
        base = modp.div_rem(modp.mul(base, base, m), f, m)[1]
        e >>= 1
    return result


def test_packed_powmod_matches_list_arithmetic():
    # every modulus 3..181, prime or not, a prime power, a Mersenne prime and
    # a prime near 10^30; f of degree 1..8 with a unit leading coefficient
    # that is not 1 every other time. The bases are [], x, one of degree
    # >= deg f, one with negative and unreduced coefficients, and n
    # coefficients m - 1, whose square puts the largest value n(m-1)^2 in
    # a slot: the one that needs the full slot width and the full shift u
    rng = random.Random(16)
    moduli = list(range(3, 182)) + [7**3, 2**61 - 1, 10**30 + 57]
    for case, (m, n) in enumerate(itertools.product(moduli, range(1, 9))):
        lead = rng.randrange(2, m) if case % 2 else 1
        while math.gcd(lead, m) > 1:
            lead += 1
        f = [rng.randrange(m) for _ in range(n)] + [lead]
        a = [[], [0, 1], [rng.randrange(m) for _ in range(n)] + [rng.randrange(1, m)],
             [rng.randrange(-3 * m, 3 * m) for _ in range(rng.randint(1, 2 * n + 2))]][case % 4]
        for base, e in itertools.product((a, [m - 1] * n), (0, 1, 2, m, m * m, rng.getrandbits(48))):
            assert modp.powmod(base, e, f, m) == _powmod_by_lists(base, e, f, m), (base, e, f, m)


def _has_root_by_horner(a, m):
    for y in range(m):
        value = 0
        for c in reversed(a):
            value = (value * y + c) % m
        if not value:
            return True
    return False


@pytest.mark.parametrize("r", ROOT_SIEVE_PRIMES)
def test_has_root_matches_horner_at_every_residue(r):
    # degrees 10 and 15, as in the resolvent sieve: roots planted at 0 and at
    # r - 1, rootless polynomials, all coefficients 0 mod r, and every
    # coefficient r - 1 but the constant, which plants a root at y, so that
    # slot y is near the largest value the slot width allows. Then each case
    # again with negative 100-digit coefficients in the same residue classes.
    rng = random.Random(r)
    big = 10**99
    for degree in (10, 15):
        cases, rootless = [[0] * (degree + 1)], 0
        while rootless < 5:
            a = [rng.randrange(r) for _ in range(degree + 1)]
            rootless += not _has_root_by_horner(a, r)
            for y in (0, r - 1):
                value = sum(c * y**k for k, c in enumerate(a))
                cases.append([(a[0] - value) % r] + a[1:])
            cases.append(a)
        cases += [[c - r * rng.randrange(big, 10 * big) for c in a] for a in cases]
        for y in range(r):
            a = [r - 1] * (degree + 1)
            a[0] = (a[0] - sum(c * y**k for k, c in enumerate(a))) % r
            cases.append(a)
        for a in cases:
            assert modp.has_root(a, r) == _has_root_by_horner(a, r), (a, r)


@pytest.mark.parametrize("k", [1, 2, 5, 13])
def test_hensel_lift_is_a_factorization_mod_p_to_the_k(k):
    rng = random.Random(k)
    for _ in range(40):
        n, p = rng.randint(2, 6), rng.choice([3, 5, 7, 11])
        f = [rng.randint(-50, 50) for _ in range(n)] + [1]
        f_mod = modp.reduce(f, p)
        if not modp.is_squarefree(f_mod, p):
            continue
        factors = modp.factor(f_mod, p)
        if len(factors) < 2:
            continue
        g = factors[0]
        h = modp.div_rem(f_mod, g, p)[0]
        G, H = modp.hensel_lift(f, g, h, p, k)
        assert modp.sub(f, modp.mul(G, H, p**k), p**k) == []
        assert modp.reduce(G, p) == g and modp.reduce(H, p) == h
        assert G[-1] == 1 and len(G) == len(g)


def test_hensel_lift_recovers_an_integer_factor():
    # (x^2 + 3x - 7)(x^3 - 5x + 11) is squarefree mod 7; 7^8 > 2 * 11
    g_int, f = [-7, 3, 1], [-77, 68, -4, -12, 3, 1]
    p, k = 7, 8
    f_mod = modp.reduce(f, p)
    assert modp.is_squarefree(f_mod, p)
    g = modp.reduce(g_int, p)
    G, _ = modp.hensel_lift(f, g, modp.div_rem(f_mod, g, p)[0], p, k)
    assert [c - p**k if c > p**k // 2 else c for c in G] == g_int


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 193, 257, 65537])
def test_sqrt_of_every_residue_and_the_least_nonresidue(p):
    # p - 1 = 2^s * q covers s = 1 (3, 7), s = 2 (5, 13), s = 4 (17) up to 16
    squares = {x * x % p for x in range(min(p, 3000))}
    z = modp.nonresidue(p)
    assert pow(z, (p - 1) // 2, p) == p - 1
    assert all(pow(k, (p - 1) // 2, p) == 1 for k in range(1, z))
    for a in sorted(squares):
        r = modp.sqrt(a, p)
        assert 0 <= r < p and r * r % p == a


def test_newton_lift_in_z_and_in_the_quadratic_extension():
    p, target = 7, 7**9
    # (x - 12345)(x^2 + 1): 12345 = 4 mod 7 is a simple root, and the
    # symmetric residue of its lift is the integer root
    q = [-12345, 1, -12345, 1]
    a, b = modp.newton_lift(q, (12345 % p, 0), 0, p, target)
    assert b == 0 and modp.symmetric(a, target) == 12345
    assert modp.symmetric(target - 5, target) == -5 and modp.symmetric(5, target) == 5
    # x^2 - x - 1 has roots (1 +- sqrt 5)/2; 5 = 3 * 2^2 mod 7, n = 3 the
    # least non-residue, so (4, 1) = (1 + 2 sqrt 3)/2 is a root mod 7
    q, n = [-1, -1, 1], modp.nonresidue(p)
    a, b = modp.newton_lift(q, (4, 1), n, p, target)
    assert (a - 4) % p == 0 and (b - 1) % p == 0
    # q(a + b sqrt n) = (a^2 + n b^2 - a - 1) + (2ab - b) sqrt n
    assert (a * a + n * b * b - a - 1) % target == 0 and (2 * a * b - b) % target == 0
