import math
import random
from fractions import Fraction as F

import pytest

from sextic import exact
from sextic.classify import classify
from sextic.errors import DegenerateSextic, FactoringExhausted
from sextic.exact import (
    RatPoly,
    divisors,
    factorize,
    is_rational_square,
    poly_divide_exact,
    poly_eval,
    rational_roots,
    resultant,
    squarefree,
)
from sextic.resolvents import ReducedSextic, f_reduced, f_verified, g_reduced, g_verified

from oracles import rational_roots_by_divisors, sylvester_resultant

X2_MINUS_1 = RatPoly([-1, 0, 1])
X2_PLUS_1 = RatPoly([1, 0, 1])


def test_poly_eval_trivial():
    assert poly_eval(RatPoly([0, 0, 1, 0, 0, 0, 1]), 0) == 0  # x^6 + x^2
    assert poly_eval(X2_MINUS_1, 1) == 0
    assert poly_eval(RatPoly([1, 2, 3]), F(1, 2)) == F(11, 4)


def test_resolvent_constant_vanishes_on_family():
    # e = (32 d^4 + 3) / (144 d^2) kills the constant term at d = 1/2
    s = ReducedSextic(F(1, 2), F(5, 36))
    assert poly_eval(f_reduced(s), 0) == 0
    assert poly_eval(f_verified(s), 0) == 0


def test_rational_roots_trivial():
    assert rational_roots(X2_MINUS_1) == {F(1), F(-1)}
    assert rational_roots(X2_PLUS_1) == set()


def test_rational_roots_of_degree_ten_resolvent():
    assert F(0) in rational_roots(g_reduced(ReducedSextic(2, 1)))


def test_rational_roots_strips_x_powers():
    p = RatPoly([0, 0, -2, 0, 1])  # x^2 (x^2 - 2)
    assert rational_roots(p) == {F(0)}


def test_rational_roots_with_leading_denominator():
    # 6x^2 - x - 1 = (3x + 1)(2x - 1)
    assert rational_roots(RatPoly([-1, -1, 6])) == {F(-1, 3), F(1, 2)}


def test_rational_roots_product_union_property():
    rng = random.Random(42)
    for _ in range(25):
        roots = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        p = RatPoly([1])
        for r in roots:
            p = p * RatPoly([-r, 1])
        q = RatPoly([rng.randint(1, 5), 0, 1])  # x^2 + positive: no real roots
        assert rational_roots(p * q) == rational_roots(p) | rational_roots(q)
        for r in rational_roots(p):
            assert poly_eval(p, r) == 0


def test_is_rational_square():
    assert is_rational_square(F(4, 9)) == F(2, 3)
    assert is_rational_square(2) is None
    assert is_rational_square(0) == 0
    assert is_rational_square(-4) is None
    rng = random.Random(1)
    for _ in range(50):
        q = F(rng.randint(-40, 40), rng.randint(1, 30))
        assert is_rational_square(q * q) == abs(q)


def test_poly_divide_exact():
    assert poly_divide_exact(X2_MINUS_1, RatPoly([-1, 1])) == RatPoly([1, 1])
    assert poly_divide_exact(X2_PLUS_1, RatPoly([-1, 1])) is None
    p = RatPoly([0, 0, 1, 0, 0, 0, 1])
    assert poly_divide_exact(p, p) == RatPoly([1])


def test_resultant_examples():
    assert resultant(RatPoly([-3, 1]), RatPoly([-1, 1])) == 2
    # disc(x^2 + 1) convention check: res(x^2 + bx + c, 2x + b) = 4 at b=0, c=1
    assert resultant(X2_PLUS_1, RatPoly([0, 2])) == 4
    p = RatPoly([0, 0, 1, 0, 0, 0, 1])
    assert resultant(p, p.derivative()) == 0


def test_resultant_against_sylvester_oracle():
    rng = random.Random(99)
    for _ in range(60):
        dp, dq = rng.randint(1, 6), rng.randint(1, 6)
        p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dp)] + [F(rng.randint(1, 9))])
        q = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dq)] + [F(rng.randint(1, 9))])
        assert resultant(p, q) == sylvester_resultant(p, q)
        assert resultant(q, p) == sylvester_resultant(q, p)
        shared = RatPoly([-2, 1])
        assert resultant(p * shared, q * shared) == 0


def test_resultant_zero_iff_repeated_root():
    rng = random.Random(5)
    for _ in range(20):
        base = RatPoly([rng.randint(-5, 5), rng.randint(-5, 5), 1])
        squared = base * base * RatPoly([rng.randint(1, 5), 1])
        assert resultant(squared, squared.derivative()) == 0
        assert not squarefree(squared)
    assert squarefree(RatPoly([1, 1, 0, 0, 0, 0, 1]))


def test_primitive_split():
    content, prim = RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1]).primitive()
    assert content == F(1, 36)
    assert prim == [5, 18, 36, 0, 0, 0, 36]


def test_factorize_roundtrip():
    rng = random.Random(3)
    primes = [2, 3, 5, 7, 11, 10007, 65537, 2**31 - 1]
    for _ in range(15):
        n = 1
        expected = {}
        for p in rng.sample(primes, rng.randint(1, 4)):
            k = rng.randint(1, 3)
            n *= p**k
            expected[p] = k
        assert factorize(n) == expected
    assert sorted(divisors(12)) == [1, 2, 3, 4, 6, 12]


# two fixed 150-bit primes: their product is far beyond the rho budget
HARD_P = 1427247692705959881058285969449495136382746689
HARD_Q = 1427247692705959881058285969449495136382746837


def test_factoring_exhausted_on_hard_semiprime(monkeypatch):
    # the budget is shrunk so the refusal is reached in milliseconds; the
    # code path is the one the full budget ends in
    monkeypatch.setattr(exact, "RHO_ITERATION_BUDGET", 10**4)
    with pytest.raises(FactoringExhausted):
        factorize(HARD_P * HARD_Q)


def test_rational_roots_need_no_factoring():
    assert rational_roots(RatPoly([HARD_P * HARD_Q, 0, 1])) == set()
    # (x - p)(x - q) and (p x - q)(q x + p)
    assert rational_roots(RatPoly([HARD_P * HARD_Q, -HARD_P - HARD_Q, 1])) == {HARD_P, HARD_Q}
    skew = RatPoly([-HARD_Q, HARD_P]) * RatPoly([HARD_P, HARD_Q])
    assert rational_roots(skew) == {F(HARD_Q, HARD_P), F(-HARD_P, HARD_Q)}


def _random_poly_with_planted_roots(rng):
    p = RatPoly([rng.choice([-6, -3, -2, -1, 1, 2, 5])])
    for _ in range(rng.randint(0, 4)):
        root = F(rng.randint(-9, 9), rng.randint(1, 5))  # 0 gives a zero constant term
        p = p * RatPoly([-root, 1]) ** rng.randint(1, 3)
    degree = rng.randint(0, 3)
    cofactor = RatPoly([rng.randint(-20, 20) for _ in range(degree)] + [rng.choice([-3, -1, 1, 4])])
    return p * cofactor


def test_rational_roots_against_divisor_oracle():
    rng = random.Random(2024)
    polys = [_random_poly_with_planted_roots(rng) for _ in range(200)]
    # constants, degree 1, a negative leading coefficient
    polys += [RatPoly([7]), RatPoly([F(-2, 3)]), RatPoly([3, -6]), RatPoly([0, -5]),
              RatPoly([4, 0, 0, -9])]
    for d in range(-2, 3):
        for e in range(-2, 3):
            polys += [f_verified(ReducedSextic(d, e)), g_verified(ReducedSextic(d, e))]
    for p in polys:
        assert rational_roots(p) == rational_roots_by_divisors(p), p


def test_rational_roots_report_repeated_roots_like_the_resultant():
    # the flag comes from the squarefree part, not from Res(p, p')
    rng = random.Random(19)
    x = RatPoly([0, 1])
    cases = [x, x * x, x * RatPoly([1, 1]), x * x * RatPoly([1, 1]), RatPoly([5])]
    for _ in range(150):
        factors = [
            RatPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.choice((1, 3))])
            for _ in range(rng.randint(1, 3))
        ]
        p = RatPoly([F(rng.randint(1, 5), rng.randint(1, 5))])
        for f in factors:
            p = p * f ** rng.choice((1, 1, 2))
        cases.append(p * x ** rng.choice((0, 0, 1, 2)))
    flags = set()
    for p in cases:
        roots, simple = exact._rational_roots(p)
        assert roots == rational_roots(p)
        assert simple == exact.squarefree(p), p
        flags.add(simple)
    assert flags == {True, False}


def _spy_squarefree_part(monkeypatch):
    calls = []
    original = exact._squarefree_part

    def spy(A):
        calls.append(list(A))
        return original(A)

    monkeypatch.setattr(exact, "_squarefree_part", spy)
    return calls


def test_rational_roots_fall_back_to_the_squarefree_part(monkeypatch):
    # (x - 1 - B) = (x - 1) mod every certificate prime, so no prime in the
    # list certifies (x - 1)(x - 1 - B), squarefree as it is
    B = math.prod(exact.CERTIFICATE_PRIMES)
    calls = _spy_squarefree_part(monkeypatch)
    p = RatPoly([-1, 1]) * RatPoly([-1 - B, 1])
    assert exact._rational_roots(p) == ({1, 1 + B}, True)
    assert len(calls) == 1
    assert exact._rational_roots(RatPoly([-1, 1]) * p) == ({1, 1 + B}, False)
    assert len(calls) == 2


def test_classify_on_the_small_reduced_grid_needs_no_prs(monkeypatch):
    calls = _spy_squarefree_part(monkeypatch)
    for d in (-3, -2, -1, 1, 2, 3):
        for e in range(-3, 4):
            try:
                classify(RatPoly([e, d, 1, 0, 0, 0, 1]))
            except DegenerateSextic:
                continue
    assert calls == []
    classify(RatPoly([1, 0, 1, 0, 0, 0, 1]))  # even: its resolvents have repeated roots
    assert calls


def test_squarefree_prime_certifies_only_squarefree_models():
    # squares of factors with no root mod small primes: their roots mod r
    # are all simple, yet F mod r is not squarefree
    x2_plus_x_plus_1 = RatPoly([1, 1, 1])
    cases = [X2_PLUS_1**2 * RatPoly([-2, 1]), x2_plus_x_plus_1**2 * X2_PLUS_1, X2_PLUS_1 * x2_plus_x_plus_1]
    rng = random.Random(11)
    cases += [_random_poly_with_planted_roots(rng) for _ in range(200)]
    outcomes = set()
    for p in cases:
        if p.degree < 1:
            continue
        F = exact.monic_model(p.primitive()[1])
        r = exact._squarefree_prime(F, exact.CERTIFICATE_PRIMES)
        assert r is None or squarefree(p), p
        if squarefree(p):
            assert exact._squarefree_prime(F, exact._odd_primes()) is not None
        outcomes.add((r is None, squarefree(p)))
    assert {(False, True), (True, False)} <= outcomes


def test_exact_quotient_raises_on_a_remainder():
    assert exact._exact_quotient([-2, -1, 1], [1, 1]) == [-2, 1]  # (x + 1)(x - 2)
    with pytest.raises(ArithmeticError):
        exact._exact_quotient([-1, 0, 1], [1, 2])  # 2x + 1 divides only over Q
    with pytest.raises(ArithmeticError):
        exact._exact_quotient([1, 0, 1], [1, 1])
