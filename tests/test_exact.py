import math
import random
from fractions import Fraction as F

import pytest

from sextic import exact, modp
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
    # for the root sieve: c x^k, and leading coefficients divisible by each
    # prime it reads, which it must skip (a root s/r is no root mod r)
    polys += [RatPoly([0] * k + [c]) for k in range(1, 5) for c in (1, -3, F(2, 7))]
    for r in exact.CERTIFICATE_PRIMES:
        polys += [RatPoly([-1, r]), RatPoly([0, 0, -5, r])]
        for _ in range(16):
            p = RatPoly([rng.randint(-30, 30) for _ in range(rng.randint(0, 4))] + [r * rng.choice([1, -2, 3])])
            if rng.random() < 0.5:
                p = p * RatPoly([rng.randint(-9, 9), r])
            if rng.random() < 0.5:
                p = p * RatPoly([rng.choice([-4, -1, 2, 7]), 1])
            polys.append(p * RatPoly([0, 1]) ** rng.choice([0, 0, 1, 2]))
    denominators = set()
    for p in polys:
        roots = rational_roots(p)
        assert roots == rational_roots_by_divisors(p), p
        denominators |= {q.denominator for q in roots}
    assert set(exact.CERTIFICATE_PRIMES) <= denominators


def test_root_sieve_stops_before_the_lift_and_only_lifted_polynomials_are_certified(monkeypatch):
    lifts, certified, sieved = [], [], []
    real_lift, real_search, real_rootless = modp.newton_lift, exact._simple_roots, exact._rootless
    monkeypatch.setattr(modp, "newton_lift", lambda *args: lifts.append(args) or real_lift(*args))
    monkeypatch.setattr(exact, "_simple_roots",
                        lambda F, primes: certified.append(len(F) - 1) or real_search(F, primes))

    def rootless(A, primes):
        answered = real_rootless(A, primes)
        sieved.append((len(A) - 1, answered))
        return answered

    monkeypatch.setattr(exact, "_rootless", rootless)
    # (x^2 + 1)(x^2 - 6x - 5) is (x^2 + 1)^2 mod 3: no root mod 3, so the
    # sieve answers before any prime search or lift
    p = RatPoly([1, 0, 1]) * RatPoly([-5, -6, 1])
    assert not modp.has_root(p.primitive()[1], 3)
    assert rational_roots(p) == set()
    assert (lifts, certified) == ([], [])
    # the rational root 1 is a root mod every prime: the sieve cannot answer
    assert rational_roots(RatPoly([-1, 1]) * p) == {1}
    assert lifts and certified == [5]
    # classify takes its flags from resolvents, reduced or not, so it runs
    # _simple_roots exactly where rational_roots lifts: on none of
    # x^6 + x^2 + 2x + 1 and x^6 + x^4 + x^2 + 2x + 1, on both resolvents of
    # x^6 + x^5 + x - 1
    for coeffs, lifted in (([1, 2, 1, 0, 0, 0, 1], []), ([1, 2, 1, 0, 1, 0, 1], []),
                           ([-1, 1, 0, 0, 0, 1, 1], [15, 10])):
        certified.clear()
        sieved.clear()
        report = classify(RatPoly(coeffs))
        assert certified == [degree for degree, answered in sieved if not answered] == lifted
        assert len(sieved) == 3
        assert not any("repeated roots" in note for note in report.notes)


def test_repeated_factors_match_the_divisor_oracle_and_the_resultant(monkeypatch):
    # the lift needs simple roots: a repeated rational root is a repeated
    # root mod every prime, so rational_roots lifts from the squarefree part;
    # squarefree reads the same part, and must agree with Res(p, p')
    calls = _spy_squarefree_part(monkeypatch)
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
    for p in cases:
        assert rational_roots(p) == rational_roots_by_divisors(p), p
    assert calls
    for p in cases:
        assert squarefree(p) == (p.degree < 2 or resultant(p, p.derivative()) != 0), p
    assert {squarefree(p) for p in cases} == {True, False}


def _spy_squarefree_part(monkeypatch):
    calls = []
    original = exact._squarefree_part

    def spy(A):
        calls.append(list(A))
        return original(A)

    monkeypatch.setattr(exact, "_squarefree_part", spy)
    return calls


def test_rational_roots_fall_back_to_the_squarefree_part(monkeypatch):
    # (x - 1 - B) = (x - 1) mod every certificate prime, so 1 is a double
    # root of (x - 1)(x - 1 - B) at each, squarefree as it is
    B = math.prod(exact.CERTIFICATE_PRIMES)
    calls = _spy_squarefree_part(monkeypatch)
    p = RatPoly([-1, 1]) * RatPoly([-1 - B, 1])
    assert rational_roots(p) == {1, 1 + B}
    assert len(calls) == 1
    assert rational_roots(RatPoly([-1, 1]) * p) == {1, 1 + B}
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
    # even: the resolvents of x^6 + x^2 + 1 have repeated roots, but none
    # rational, so some certificate prime has simple roots only; those of
    # x^6 + x^2 +- 2 have a repeated rational root
    classify(RatPoly([1, 0, 1, 0, 0, 0, 1]))
    assert calls == []
    for e in (2, -2):
        classify(RatPoly([e, 0, 1, 0, 0, 0, 1]))
        assert [len(A) - 1 for A in calls] == [10]
        calls.clear()


def _derivative_unit(F, y, r):
    return sum(k * c * y ** (k - 1) for k, c in enumerate(F) if k) % r != 0


def test_lifting_prime_needs_simple_roots_not_a_squarefree_model(monkeypatch):
    # squares of factors with no root mod some small prime: F mod r is not
    # squarefree there, yet each root of F mod r is simple, so the lift runs
    # without the squarefree part. A repeated rational root is a repeated
    # root mod every prime, and so takes the fallback.
    calls = _spy_squarefree_part(monkeypatch)
    x2_plus_x_plus_1 = RatPoly([1, 1, 1])
    for p in (X2_PLUS_1**2 * RatPoly([-2, 1]), x2_plus_x_plus_1**2 * X2_PLUS_1):
        F = exact.monic_model(p.primitive()[1])
        r, found = exact._simple_roots(F, exact.CERTIFICATE_PRIMES)
        assert found == modp.roots(F, r) and found
        assert all(_derivative_unit(F, y, r) for y in found)
        assert rational_roots(p) == rational_roots_by_divisors(p)
        assert calls == []
        assert not squarefree(p)
        calls.clear()
    p = RatPoly([-2, 1]) ** 2 * X2_PLUS_1
    assert exact._simple_roots(exact.monic_model(p.primitive()[1]), exact.CERTIFICATE_PRIMES) is None
    assert rational_roots(p) == {2}
    assert len(calls) == 1
    # on squarefree models the search over _odd_primes() ends, and its
    # roots are simple
    rng = random.Random(11)
    for p in [X2_PLUS_1 * x2_plus_x_plus_1] + [_random_poly_with_planted_roots(rng) for _ in range(200)]:
        if p.degree < 1 or not squarefree(p):
            continue
        F = exact.monic_model(p.primitive()[1])
        r, found = exact._simple_roots(F, exact._odd_primes())
        assert found == modp.roots(F, r)
        assert all(_derivative_unit(F, y, r) for y in found)
        assert rational_roots(p) == rational_roots_by_divisors(p), p


def test_exact_quotient_raises_on_a_remainder():
    assert exact._exact_quotient([-2, -1, 1], [1, 1]) == [-2, 1]  # (x + 1)(x - 2)
    with pytest.raises(ArithmeticError):
        exact._exact_quotient([-1, 0, 1], [1, 2])  # 2x + 1 divides only over Q
    with pytest.raises(ArithmeticError):
        exact._exact_quotient([1, 0, 1], [1, 1])


# ---------------------------------------------------------------------------
# RatPoly against a plain list-of-Fractions reference
# ---------------------------------------------------------------------------


def _ref_strip(cs: list) -> list:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _ref_strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a: list, b: list) -> list:
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_strip(out)


def _ref_divmod(a: list, b: list) -> tuple:
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for i, y in enumerate(b):
            rem[i + k] -= c * y
    return _ref_strip(quot), _ref_strip(rem)


def _random_coeffs(rng: random.Random) -> list:
    """Up to 8 Fractions with small or large parts, often with zeros and
    trailing zeros; sometimes all integers, sometimes empty."""
    size = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 8])
    big = rng.random() < 0.2
    dens = (1,) if rng.random() < 0.3 else (1, 2, 3, 4, 6, 9, 10, 12, 35)
    cs = []
    for _ in range(size):
        if rng.random() < 0.2:
            cs.append(F(0))
        else:
            n = rng.randint(-(10**30), 10**30) if big else rng.randint(-20, 20)
            cs.append(F(n, rng.choice(dens)))
    return cs + [F(0)] * rng.choice([0, 0, 1, 3])


def _routes(cs: list) -> list:
    """The same polynomial built every way RatPoly can be built."""
    den = math.lcm(*(c.denominator for c in cs)) * 6  # 6 divides every numerator too
    polys = [
        RatPoly(cs),
        RatPoly([f"{c.numerator}/{c.denominator}" for c in cs]),
        RatPoly.from_ints([int(c * den) for c in cs], den),
        RatPoly.from_ints([-int(c * den) for c in cs], -den),
    ]
    if all(c.denominator == 1 for c in cs):
        polys.append(RatPoly([int(c) for c in cs]))
        polys.append(RatPoly.from_ints([int(c) for c in cs]))
    return polys


def _check_against_reference(p: RatPoly, ref: list):
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1]
    assert p.coeffs == tuple(ref) and all(type(c) is F for c in p.coeffs)
    assert p.degree == len(ref) - 1 and bool(p) == bool(ref) and p.is_zero() == (not ref)
    for k in range(-1, len(ref) + 2):
        assert p[k] == (ref[k] if 0 <= k < len(ref) else 0)
    if not ref:
        assert p.primitive() == (0, [])
        assert (p.num, p.den) == ((), 1)
        with pytest.raises(ValueError):
            p.leading()
        return
    assert p.leading() == ref[-1]
    content, ints = p.primitive()
    assert content > 0 and math.gcd(*ints) == 1 and all(type(c) is int for c in ints)
    assert [content * c for c in ints] == ref and (ints[-1] > 0) == (ref[-1] > 0)


def test_ratpoly_matches_a_list_of_fractions_reference():
    rng = random.Random(34)
    cases = [[], [F(0)], [F(0), F(0)], [F(5)], [F(0), F(1)], [F(1, 2), F(0), F(3, 4), F(0)]]
    cases += [_random_coeffs(rng) for _ in range(320)]
    for cs in cases:
        ref = _ref_strip(cs)
        polys = _routes(cs)
        p = polys[0]
        for q in polys:
            _check_against_reference(q, ref)
            assert q == p and hash(q) == hash(p) and (q.num, q.den) == (p.num, p.den)
        other = _ref_strip(_random_coeffs(rng))
        o = RatPoly(other)
        c = rng.choice([F(0), F(1), F(-1), F(rng.randint(-9, 9), rng.randint(1, 9))])
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        _check_against_reference(p.derivative(), [k * a for k, a in enumerate(ref)][1:])
        _check_against_reference(p.scale(c), _ref_strip([a * c for a in ref]))
        _check_against_reference(p.substitute_scaled(c), _ref_strip([a * c**k for k, a in enumerate(ref)]))
        _check_against_reference(p + o, _ref_add(ref, other))
        _check_against_reference(p - o, _ref_add(ref, [-a for a in other]))
        _check_against_reference(-p, [-a for a in ref])
        _check_against_reference(p * o, _ref_mul(ref, other))
        _check_against_reference(c * p, _ref_strip([a * c for a in ref]))
        assert poly_eval(p, x) == sum((a * x**k for k, a in enumerate(ref)), F(0)) == p(x)
        if ref:
            m = p.monic()
            _check_against_reference(m, [a / ref[-1] for a in ref])
            assert m.monic() is m and (m is p) == (ref[-1] == 1)
        else:
            with pytest.raises(ValueError):
                p.monic()
        if other:
            quot, rem = exact.poly_divmod(p, o)
            ref_quot, ref_rem = _ref_divmod(ref, other)
            _check_against_reference(quot, ref_quot)
            _check_against_reference(rem, ref_rem)
    assert len(cases) >= 300


def test_ratpoly_from_ints_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatPoly.from_ints([1, 2], 0)


def test_derivative_resultant_cache_hits_across_construction_routes():
    a = RatPoly([F(-1, 2), 0, F(3, 4), 0, 0, 0, 1])
    b = RatPoly.from_ints([-20, 0, 30, 0, 0, 0, 40], 40)
    assert a == b and hash(a) == hash(b) and a is not b
    exact._derivative_resultant.cache_clear()
    first = exact._derivative_resultant(a)
    assert exact._derivative_resultant(b) == first
    assert exact._derivative_resultant.cache_info().hits == 1
