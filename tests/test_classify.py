import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from sextic.classify import (
    ClassificationReport,
    GroupBound,
    Solvable,
    classify,
    vanishing_constant_family,
    is_irreducible,
    scan_point,
)
from sextic import exact, groups, modp
from sextic.errors import DegenerateSextic, SexticError, ZeroD
from sextic.exact import RatPoly, _is_probable_prime, monic_model, poly_eval, rational_roots
from sextic.resolvents import ReducedSextic, f_verified, g_verified


def test_irreducible_scaled_family_sextic():
    assert is_irreducible(RatPoly([5, 18, 36, 0, 0, 0, 36]))


REDUCIBLE_CASES = [
    RatPoly([-1, 0, 0, 0, 0, 0, 1]),  # root 1
    # (x^2 + 1)(x^4 + 2): no rational root, so the split must be found
    RatPoly([1, 0, 1]) * RatPoly([2, 0, 0, 0, 1]),
    # x^5 + x + 1 = (x^2 + x + 1)(x^3 - x^2 + 1)
    RatPoly([1, 1, 0, 0, 0, 1]),
    # repeated factor
    RatPoly([1, 1]) * RatPoly([1, 1]),
    RatPoly([0, 1, 1]),  # divisible by x
    # (7x^2 + 1)(7x^2 + 2): the monic model's leading coefficient must be
    # exactly 1, and 49 * (1/49) is not 1.0 in floating point
    RatPoly([2, 0, 21, 0, 49]),
]

IRREDUCIBLE_CASES = [
    RatPoly([-1, 1]),  # degree 1
    RatPoly([1, 1, 1]),
    RatPoly([32, 20, 0, 0, 0, 1]),  # x^5 + 20x + 32
    RatPoly([1, 2, 1, 0, 0, 0, 1]),
    # cubic-in-x^2 sextics and cyclotomic-like inputs
    RatPoly([1, 0, 1, 0, 0, 0, 1]),
    RatPoly([1, 1, 1, 1, 1, 1, 1]),
]


def test_reducible_cases():
    for p in REDUCIBLE_CASES:
        assert not is_irreducible(p), p


def test_irreducible_misc():
    for p in IRREDUCIBLE_CASES:
        assert is_irreducible(p), p


def test_classify_scaled_family_sextic():
    report = classify(RatPoly([5, 18, 36, 0, 0, 0, 36]))
    assert report.irreducible
    assert report.f_roots == frozenset({F(0)})
    assert report.bound is GroupBound.SUBGROUP_OF_J
    assert report.solvable is Solvable.YES
    assert report.sqrt_discriminant is None


def test_classify_partition_example():
    report = classify(RatPoly([1, 2, 1, 0, 0, 0, 1]))
    assert report.irreducible
    assert report.g_roots == frozenset({F(0)})
    assert not report.f_roots
    assert report.bound is GroupBound.SUBGROUP_OF_K
    assert report.solvable is Solvable.YES


def test_classify_printed_minus_x2_example_is_not_solvable():
    report = classify(RatPoly([1, 2, -1, 0, 0, 0, 1]))
    assert report.irreducible
    assert not report.f_roots and not report.g_roots
    assert report.bound is GroupBound.NOT_SOLVABLE
    assert report.solvable is Solvable.NO


def test_minus_x2_example_group_has_order_five_elements():
    # independent witness that the NotSolvable verdict for x^6 - x^2 + 2x + 1
    # is right: mod 11 it factors as (irreducible quintic) * (linear), so the
    # Galois group contains an order-5 element, and 5 divides neither 48
    # (matching stabilizer) nor 72 (partition stabilizer)
    q = 11
    fq = modp.reduce([1, 2, -1, 0, 0, 0, 1], q)

    def frob_fixed_part(poly, power):
        return modp.gcd(poly, modp.sub(modp.powmod([0, 1], q**power, poly, q), [0, 1], q), q)

    linear = frob_fixed_part(fq, 1)
    assert len(linear) - 1 == 1
    quintic = modp.div_rem(fq, linear, q)[0]
    assert len(quintic) - 1 == 5
    for k in (1, 2):
        assert frob_fixed_part(quintic, k) == [1]  # no degree-1/2 factors
    assert modp.factor(fq, q) == sorted([linear, quintic])


def test_classify_x6_x_1_regression():
    report = classify(RatPoly([1, 1, 0, 0, 0, 0, 1]))
    assert report.irreducible
    assert report.solvable is Solvable.NO
    assert report.bound is GroupBound.NOT_SOLVABLE


def test_classify_dihedral_bound():
    report = classify(RatPoly([-2, 0, 0, 0, 0, 0, 1]))  # x^6 - 2
    assert report.irreducible
    assert report.f_roots and report.g_roots
    assert report.bound is GroupBound.SUBGROUP_OF_D6
    assert report.solvable is Solvable.YES
    report = classify(RatPoly([1, 1, 1, 1, 1, 1, 1]))  # 7th cyclotomic
    assert report.bound is GroupBound.SUBGROUP_OF_D6
    assert report.f_roots == frozenset({F(3)}) and report.g_roots == frozenset({F(-1)})


def test_classify_even_refinement():
    report = classify(RatPoly([-4, 0, 1, 0, 0, 0, 1]))  # x^6 + x^2 - 4
    assert report.irreducible
    assert report.sqrt_discriminant == 6976
    assert report.f_roots and not report.g_roots
    assert report.bound is GroupBound.SUBGROUP_OF_L
    assert report.solvable is Solvable.YES


def test_classify_even_bound_invariant():
    # a SubgroupOfL verdict must come with a square discriminant and an
    # f-root; conversely J means the discriminant is not square
    for coeffs in ([-4, 0, 1, 0, 0, 0, 1], [5, 18, 36, 0, 0, 0, 36], [-8, 0, 1, 0, 0, 0, 1]):
        report = classify(RatPoly(coeffs))
        if report.bound is GroupBound.SUBGROUP_OF_L:
            assert report.sqrt_discriminant is not None and report.f_roots
        if report.bound is GroupBound.SUBGROUP_OF_J:
            assert report.sqrt_discriminant is None and report.f_roots


def test_classify_reducible():
    report = classify(RatPoly([-1, 0, 0, 0, 0, 0, 1]))
    assert not report.irreducible
    assert report.solvable is Solvable.NOT_APPLICABLE
    assert report.bound is GroupBound.INCONCLUSIVE


def test_classify_degenerate():
    with pytest.raises(DegenerateSextic):
        classify(RatPoly([0, 0, 1, 0, 0, 0, 1]))


def test_classify_computes_one_resultant(monkeypatch):
    # the discriminant, the irreducibility test and the p-adic resolvents all
    # need Res(p, p') of the same monic sextic; it is computed once
    real, calls = exact.resultant, []
    monkeypatch.setattr(exact, "resultant", lambda p, q: calls.append(p) or real(p, q))
    exact._derivative_resultant.cache_clear()
    reduced, general = RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1]), RatPoly([3, 1, -2, 0, 1, 0, 2])
    for p in (reduced, general, reduced):
        calls.clear()
        report = classify(p)
        assert report.irreducible and len(calls) == 1, p


def test_classify_sign_flip_invariance():
    # x -> -x maps (d, e) to (-d, e); verdicts must agree
    rng = random.Random(23)
    for _ in range(8):
        d, e = rng.randint(-6, 6), rng.randint(-6, 6)
        try:
            a = classify(ReducedSextic(d, e).to_poly())
            b = classify(ReducedSextic(-d, e).to_poly())
        except DegenerateSextic:
            continue
        assert a.solvable is b.solvable
        assert a.irreducible == b.irreducible


def test_solvable_roots_satisfy_resolvent_exactly():
    for coeffs in ([5, 18, 36, 0, 0, 0, 36], [1, 2, 1, 0, 0, 0, 1]):
        report = classify(RatPoly(coeffs))
        reduced = ReducedSextic(
            report.input.monic().coeffs[1], report.input.monic().coeffs[0]
        )
        for r in report.f_roots:
            assert poly_eval(f_verified(reduced), r) == 0
        for r in report.g_roots:
            assert poly_eval(g_verified(reduced), r) == 0


def test_vanishing_constant_family():
    assert vanishing_constant_family(F(1, 2)) == ReducedSextic(F(1, 2), F(5, 36))
    assert vanishing_constant_family(1) == ReducedSextic(1, F(35, 144))
    with pytest.raises(ZeroD):
        vanishing_constant_family(0)


def test_vanishing_constant_family_always_has_f_root_zero():
    rng = random.Random(12)
    for _ in range(20):
        d = F(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice([1, -1])
        member = vanishing_constant_family(d)
        assert f_verified(member)[0] == 0
        assert poly_eval(f_verified(member), 0) == 0


def test_scan_point_propagates_errors_that_are_not_sextic_errors(monkeypatch):
    # only SexticError is per-point data; anything else is a bug and must surface
    module = importlib.import_module("sextic.classify")  # the attribute is the function

    def broken(*args, **kwargs):
        raise RuntimeError("bug inside classify")

    monkeypatch.setattr(module, "classify", broken)
    with pytest.raises(RuntimeError, match="bug inside classify"):
        scan_point((F(1, 2), F(5, 36)))  # a hit, so the root sieve passes it on


def _scan_by_classify(point):
    """scan_point without the resolvent-root sieve: classify every point."""
    d, e = map(F, point)
    try:
        report = classify(ReducedSextic(d, e).to_poly())
    except SexticError as exc:
        return d, e, None, f"{type(exc).__name__}: {exc}"
    if report.irreducible and report.solvable is Solvable.YES:
        return d, e, report, None
    return d, e, None, None


def _sieve_test_points():
    rng = random.Random(20)
    halves_thirds = [(F(rng.randint(-24, 24), 2), F(rng.randint(-15, 15), 3)) for _ in range(150)]
    thirds_halves = [(F(rng.randint(-24, 24), 3), F(rng.randint(-15, 15), 2)) for _ in range(150)]
    family = [vanishing_constant_family(F(p, q))
              for p in range(-5, 6) if p for q in (1, 2, 3)]
    # t is a double root of x^6 + x^2 + d*x + e: DegenerateSextic points
    double_root = [(-6 * t**5 - 2 * t, 5 * t**6 + t**2)
                   for t in {F(p, q) for p in range(-6, 7) for q in (1, 2, 3)}]
    return (
        list(itertools.product(range(-20, 21), range(-5, 6)))
        + halves_thirds
        + thirds_halves
        + [(0, F(e, 2)) for e in range(-40, 41)]
        + [(s.d, s.e) for s in family]
        + sorted(double_root)
    )


def test_scan_point_agrees_with_classify_on_every_point():
    # the sieve may only skip points that are neither hits nor errors
    points = _sieve_test_points()
    results = [scan_point(point) for point in points]
    assert results == [_scan_by_classify(point) for point in points]
    assert sum(report is not None for _, _, report, _ in results) >= 30  # the family members
    assert sum(error is not None for _, _, _, error in results) >= 29  # the double-root points


def test_root_sieve_rules_out_only_resolvents_without_rational_roots():
    # reducible points included: the sieve's claim holds whatever classify says
    module = importlib.import_module("sextic.classify")
    for d, e in _sieve_test_points():
        s = ReducedSextic(d, e)
        if module._resolvents_rootless(s.d, s.e):
            assert not rational_roots(f_verified(s)) and not rational_roots(g_verified(s)), (d, e)


def test_root_sieve_reduces_only_where_the_resolvent_stays_monic(monkeypatch):
    # a rational root reduces to a root mod r only when r divides no
    # denominator, i.e. not the leading numerator of the monic resolvent.
    # The last three points carry the denominators 43, 47 * 53 and 97 and
    # stay in the sieve past them; (216/97, 5) keeps a resolvent through 89.
    module = importlib.import_module("sextic.classify")
    seen = []
    original = modp.has_root

    def spy(nums, r):
        seen.append((nums[-1], r))
        return original(nums, r)

    monkeypatch.setattr(modp, "has_root", spy)
    for d, e in [(F(1, 3), 1), (F(2, 5), F(1, 7)), (F(-7, 15), F(3, 11)), (F(1, 2), F(5, 36)),
                 (F(4, 43), 1), (F(13, 47 * 53), 1), (F(216, 97), 5)]:
        module._resolvents_rootless(F(d), F(e))
    assert seen and all(lead % r for lead, r in seen)
    assert {53, 71, 89} <= {r for _, r in seen}


def test_root_sieve_evaluates_no_prime_when_a_constant_term_is_zero(monkeypatch):
    # a zero constant numerator is the rational root 0: the e = 0 row, the
    # d = 0 column, the vanishing-constant family and (2, 1), where the
    # degree-10 constant vanishes
    module = importlib.import_module("sextic.classify")
    seen = []
    monkeypatch.setattr(modp, "has_root", lambda nums, r: seen.append(r) or True)
    for d, e in [(5, 0), (F(-1, 3), 0), (0, 1), (0, F(-7, 2)), (F(1, 2), F(5, 36)), (2, 1), (-2, 1)]:
        assert not module._resolvents_rootless(F(d), F(e)), (d, e)
    assert not seen


def test_root_sieve_settles_most_of_the_benchmark_grid(monkeypatch):
    # every point of d = -50..50, e = -2..2 that still reaches classify has
    # a resolvent with a zero constant term (the e = 0 row, (0, +-1),
    # (0, +-2) and (+-2, 1)) or is a hit
    module = importlib.import_module("sextic.classify")
    calls = []
    original = module.classify

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(module, "classify", counting)
    for d, e in itertools.product(range(-50, 51), range(-2, 3)):
        before = len(calls)
        hit = scan_point((d, e))[2] is not None
        if len(calls) > before and not hit:
            s = ReducedSextic(F(d), F(e))
            assert not f_verified(s).coeffs[0] or not g_verified(s).coeffs[0], (d, e)
    assert len(calls) == 107


@pytest.mark.parametrize(
    "d", [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, F(1, 2), F(-1, 3), F(2, 3), F(-5, 3)]
)
def test_vanishing_constant_family_is_solvable(d):
    report = classify(vanishing_constant_family(d).to_poly())
    assert report.irreducible
    assert F(0) in report.f_roots
    assert report.bound in (GroupBound.SUBGROUP_OF_J, GroupBound.SUBGROUP_OF_D6)
    assert report.solvable is Solvable.YES


def _random_factor(rng, degree):
    return RatPoly([rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([1, 1, 2, 7])])


def _sympy_irreducible(p):
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly([c for c in reversed(p.coeffs)], x, domain="QQ"))
    return len(factors) == 1 and factors[0][1] == 1


def test_is_irreducible_agrees_with_sympy_factor_list():
    rng = random.Random(2024)
    cases = [RatPoly([108, 0, 0, 0, 0, 0, 1])]  # x^6 + 108: every Frobenius type fits a split
    for _ in range(90):
        n = rng.randint(4, 6)
        lead = rng.choice([1, 2, 7, 49])
        cases.append(RatPoly([rng.randint(-9, 9) for _ in range(n)] + [lead]))
    for degrees in ((2, 4), (3, 3), (2, 2, 2), (2, 3), (2, 2)):
        for _ in range(35):
            product = RatPoly([1])
            for degree in degrees:
                product = product * _random_factor(rng, degree)
            cases.append(product)
    for a in range(-6, 7):
        for b in range(-4, 5):
            if a:
                cases.append(RatPoly([b, a, 0, 0, 0, 1]))  # Bring-Jerrard quintics
    cases += [RatPoly([c * 49 for c in coeffs]) for coeffs in ([2, 0, 2, 0, 1, 0, 1], [1, 1, 0, 1])]
    assert len(cases) >= 300
    split_without_rational_root = 0
    for p in cases:
        expected = _sympy_irreducible(p)
        assert is_irreducible(p) == expected, p
        if not expected and p.coeffs[0] and not rational_roots(p):
            split_without_rational_root += 1
    # enough reducible inputs that only recombination and lifting can refute
    assert split_without_rational_root >= 100


@pytest.mark.parametrize("coeffs", [
    [2, 3, 1, 0, 0, 0, 1],  # degrees (2, 4) mod 3, then (6) mod 5
    [5, 3, 1, 0, 0, 0, 1],  # (2, 4) mod 3, (1, 1, 2, 2) mod 5, (3, 3) mod 7
    # the walk goes on past the fourth prime until the degrees at one prime
    # are all <= 2, and proves these on the way: x^6 + x^2 - 30x + 7, then
    # six benchmark inputs whose degrees at the first four primes fit a factor
    [7, -30, 1, 0, 0, 0, 1],
    [3, F(-5, 2), 1, 0, 0, 0, 1],
    [5, -3, -3, -2, -3, -1, 1],
    [-3, 1, -3, 0, 4, 5, 1],
    [-3, 0, 4, 0, 3, 1, 1],
    [1, 1, 0, F(2, 3), F(-1, 2), F(2, 3), 1],
    [-1, 0, -2, -3, 5, 3, 3],
])
def test_factor_degrees_mod_three_primes_prove_irreducibility_without_lifting(monkeypatch, coeffs):
    def refuse(*args, **kwargs):
        raise AssertionError("lift_small_factors called")

    monkeypatch.setattr(modp, "lift_small_factors", refuse)
    assert is_irreducible(RatPoly(coeffs))


def test_is_irreducible_derives_the_discriminant_of_its_monic_model():
    # non-monic rational p of degree 4 to 6, leading coefficients of both
    # signs: the discriminant read off Res(p, p'), the content and the
    # leading coefficient is that of the model q, by its own resultant
    from sextic.classify import _integer_model

    rng = random.Random(23)
    checked = 0
    while checked < 120:
        n = rng.choice([4, 5, 6])
        lead = F(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 7))
        p = RatPoly([F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)] + [lead])
        if not exact.squarefree(p):
            continue
        q, disc = _integer_model(p)
        assert q == monic_model(p.primitive()[1])
        sign = (-1) ** (n * (n - 1) // 2)
        assert disc == sign * exact.resultant(RatPoly(q), RatPoly(q).derivative()), p
        checked += 1


def _rootless_factor(rng, degree, leads):
    while True:
        factor = RatPoly([rng.randint(-7, 7) for _ in range(degree)] + [rng.choice(leads)])
        if factor.coeffs[0] and not rational_roots(factor):
            return factor


def test_zassenhaus_fallback_agrees_with_sympy_when_factor_degrees_fit(monkeypatch):
    # Products without a rational root keep a fitting degree at every prime,
    # and so, at three primes, do many imprimitive irreducibles (x^6 + a,
    # x^6 + a x^3 + b, even sextics, cyclotomics); only lifting decides them.
    rng = random.Random(15)
    cases = []
    for degrees in ((3, 3), (2, 4), (2, 2, 2)):
        for i in range(25):
            product = RatPoly([1])
            for degree in degrees:
                product = product * _rootless_factor(rng, degree, (1, 1, 3) if i % 3 else (1,))
            cases.append(product)
    for _ in range(15):
        a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(3))
        cases += [RatPoly([a, 0, 0, 0, 0, 0, 1]), RatPoly([b, 0, 0, a, 0, 0, 1]),
                  RatPoly([c, 0, b, 0, a, 0, 1])]
    cases += [RatPoly([1, 1, 1, 1, 1, 1, 1]), RatPoly([1, 0, 0, 1, 0, 0, 1])]  # Phi_7, Phi_9
    # quartics and a quintic, which split mod every prime into factors
    # whose degrees fit: x^4 + 1, (x^2 + 1)(x^2 + 2), (x^2 - 2)(x^3 + x + 1)
    small = [RatPoly([1, 0, 0, 0, 1]), RatPoly([2, 0, 3, 0, 1]), RatPoly([-2, -2, 1, -1, 0, 1])]
    from sextic.classify import DEGREE_SIEVE_PRIMES, _integer_model

    lifted = []
    real = modp.lift_small_factors

    def spy(*args):
        lifted.append(args)
        return real(*args)

    monkeypatch.setattr(modp, "lift_small_factors", spy)
    reached = Counter()
    for i, p in enumerate(cases + small):
        lifted.clear()
        expected = _sympy_irreducible(p)
        assert is_irreducible(p) == expected, p
        assert lifted or i < len(cases), p
        if lifted:
            reached[expected] += 1
            # the lifting prime is the first, from the fourth prime not
            # dividing disc q on, at which every factor has degree <= 2
            q, disc = _integer_model(p)
            primes = (r for r in exact._odd_primes() if disc % r)
            prime = next(r for r in itertools.islice(primes, DEGREE_SIEVE_PRIMES - 1, None)
                         if all(len(g) <= 3 for g in modp.factor(modp.reduce(q, r), r)))
            assert [args[:3] for args in lifted] == [(q, prime, modp.roots(q, prime))], p
    assert reached[False] >= 1 and reached[True] >= 1, reached


def test_lifted_factors_recover_an_integer_factor_without_a_rational_root(monkeypatch):
    # (x^2 + 3x - 7)(x^3 - 5x + 11): no rational root, and a quadratic
    # factor at every prime, so only the lift finds the split
    lifted = []
    real = modp.lift_small_factors
    monkeypatch.setattr(modp, "lift_small_factors", lambda *args: lifted.append(args) or real(*args))
    p = RatPoly([-7, 3, 1]) * RatPoly([11, -5, 0, 1])
    assert p == RatPoly([-77, 68, -4, -12, 3, 1]) and not rational_roots(p)
    assert not is_irreducible(p)
    assert len(lifted) == 1


def test_exact_path_calls_no_mpmath(monkeypatch):
    from sextic.resolvents import ResolventKind, resolvents_exact

    class Refuse:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath used: mp.{name}")

    monkeypatch.setattr(importlib.import_module("sextic.roots"), "mp", Refuse())
    general = [RatPoly([1, 1, 1, 1, 1, 1, 1]), RatPoly([120, 3, 1, 0, 0, 1, 1]),
               RatPoly([F(1, 3), F(-1, 2), 0, 2, F(1, 6), 1, 1]), RatPoly([F(5, 7), 0, 3, 0, 0, 0, 2])]
    for p in general:
        assert classify(p).notes[0] == "resolvents built exactly by p-adic lifting of the roots"
    kinds = (ResolventKind.MATCHING, ResolventKind.PARTITION)
    resolvents = resolvents_exact(RatPoly([-2, 0, 0, 0, 0, 0, 1]), kinds)
    assert [r.degree for r in resolvents] == [15, 10]


def test_reduced_pipeline_never_finds_roots_numerically(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numeric path called")

    for name in ("sextic.roots", "sextic.classify", "sextic.resolvents", "sextic.groups"):
        module = importlib.import_module(name)
        for attr in ("find_roots", "expand_from_roots", "round_to_int_poly", "eval_monomial_sum"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for p in REDUCIBLE_CASES:
        assert not is_irreducible(p)
    for p in IRREDUCIBLE_CASES + [RatPoly([108, 0, 0, 0, 0, 0, 1])]:
        assert is_irreducible(p)
    assert is_irreducible(RatPoly([5, 18, 36, 0, 0, 0, 36]))
    points = [(d, e) for d in range(-3, 4) for e in range(-3, 4) if (d, e) != (0, 0)]
    points += [(F(1, 2), F(5, 36)), (1, F(35, 144)), (F(-5, 3), 0)]
    for d, e in points:
        classify(ReducedSextic(d, e).to_poly())
    assert classify(vanishing_constant_family(F(-5, 3)).to_poly()).solvable is Solvable.YES
    # nor does any other sextic find roots numerically: its resolvents are
    # expanded from p-adic lifts of the roots
    monkeypatch.undo()
    for name in ("sextic.roots", "sextic.classify", "sextic.resolvents"):
        monkeypatch.setattr(importlib.import_module(name), "find_roots", refuse)
    rng = random.Random(41)
    general = [RatPoly([1, 1, 1, 1, 1, 1, 1]), RatPoly([120, 3, 1, 0, 0, 1, 1]),
               RatPoly([F(1, 3), F(-1, 2), 0, 2, F(1, 6), 1, 1]), RatPoly([0, 3, 0, 0, 2, 0, 5])]
    general += [RatPoly([rng.randint(-5, 5) for _ in range(6)] + [rng.choice((1, 2, 7))])
                for _ in range(20)]
    classified = 0
    for p in general:
        try:
            report = classify(p)
        except DegenerateSextic:
            continue
        classified += 1
        assert report.notes[0] == "resolvents built exactly by p-adic lifting of the roots"
    assert classified >= 20


def test_classify_huge_coefficients():
    # complex root finding does not converge on x^6 - 10^400 =
    # (x^3 - 10^200)(x^3 + 10^200) below 4096 bits; the lifted resolvents
    # need no precision
    report = classify(RatPoly([-(10**400), 0, 0, 0, 0, 0, 1]))
    assert not report.irreducible and report.solvable is Solvable.NOT_APPLICABLE
    # x^6 - 10^-400, the CLI's --coeffs=-10^400,0,0,0,0,0,1 (highest first)
    report = classify(RatPoly([1, 0, 0, 0, 0, 0, -(10**400)]))
    assert not report.irreducible and report.solvable is Solvable.NOT_APPLICABLE
    # one root near -10^50 and five of modulus about 10^-10
    report = classify(RatPoly([3, 0, 0, 0, 0, 10**50, 1]))
    assert report.irreducible and report.solvable is Solvable.NO
    assert report.bound is GroupBound.NOT_SOLVABLE


def test_classify_semiprime_denominator_needs_no_factoring():
    # N = P*Q with P = nextprime(10^20), Q = nextprime(3*10^20) is beyond
    # the rho budget of exact.factorize; the monic frame takes N as it is
    import sympy

    N = 30000000000000000017000000000000000002067
    report = classify(RatPoly([1, F(1, N), 0, 0, 0, 0, 1]))
    assert report.irreducible and report.solvable is Solvable.NO
    assert report.bound is GroupBound.NOT_SOLVABLE
    x = sympy.Symbol("x")
    group, _ = sympy.galois_group(sympy.Poly(x**6 + x / N + 1, x, domain="QQ"), by_name=True)
    assert group.name == "S6"


def _claimed_group(report):
    J, K = groups.matching_group(), groups.partition_group()
    group = {
        GroupBound.SUBGROUP_OF_J: J,
        GroupBound.SUBGROUP_OF_K: K,
        GroupBound.SUBGROUP_OF_L: groups.matching_group_even(),
        GroupBound.SUBGROUP_OF_M: groups.partition_group_even(),
        GroupBound.SUBGROUP_OF_D6: groups.intersect(J, K),
        GroupBound.NOT_SOLVABLE: groups.symmetric_group(),
    }[report.bound]
    if report.sqrt_discriminant is not None:
        group = groups.intersect(group, groups.alternating_group())
    return group


def _cycle_type(perm):
    lengths = [len(c) for c in perm.cycles()]
    return tuple(sorted(lengths + [1] * (6 - sum(lengths))))


def _frobenius_cycle_types(p, count=20):
    """(prime, factor degrees of p mod prime) at the first count odd primes
    where the monic model of p is squarefree: the cycle type of a Frobenius
    element, which lies in the Galois group and so in any bound on it."""
    q = monic_model(p.primitive()[1])
    good = (r for r in range(3, 10**4, 2)
            if _is_probable_prime(r) and modp.is_squarefree(modp.reduce(q, r), r))
    for prime in itertools.islice(good, count):
        yield prime, tuple(sorted(len(f) - 1 for f in modp.factor(modp.reduce(q, prime), prime)))


def test_frobenius_cycle_types_lie_in_the_claimed_group():
    inputs = [ReducedSextic(d, e).to_poly() for d in range(-3, 4) for e in range(-3, 4)]
    inputs += [vanishing_constant_family(d).to_poly() for d in (1, F(1, 2), F(-5, 3))]
    inputs += [RatPoly(c) for c in ([-2, 0, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1, 1],
                                    [-4, 0, 1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 1])]
    seen_bounds = set()
    for p in inputs:
        try:
            report = classify(p)
        except DegenerateSextic:
            continue
        if not report.irreducible:
            continue
        seen_bounds.add(report.bound)
        allowed = {_cycle_type(g) for g in _claimed_group(report)}
        for prime, pattern in _frobenius_cycle_types(p):
            assert pattern in allowed, (p, report.bound, prime, pattern)
    assert len(seen_bounds) >= 4


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the D6 bound rests on a repeated rational root of "
    "the resolvent; the Galois group is G36m, and Frobenius at 37 and at 19 "
    "has cycle type (3,1,1,1), which D6 lacks",
)
def test_frobenius_cycle_types_lie_in_the_bound_from_a_repeated_resolvent_root():
    for p in (RatPoly([2, 0, 0, 1, 0, 0, 1]), RatPoly([3, 0, 0, 2, 0, 0, 1])):  # x^6+x^3+2, x^6+2x^3+3
        report = classify(p)
        allowed = {_cycle_type(g) for g in _claimed_group(report)}
        for prime, pattern in _frobenius_cycle_types(p):
            assert pattern in allowed, (p, report.bound, prime, pattern)
