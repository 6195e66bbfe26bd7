import importlib
import random
from fractions import Fraction as F

import pytest

from sextic.classify import (
    ClassificationReport,
    GroupBound,
    Solvable,
    classify,
    vanishing_constant_family,
    is_irreducible,
    search_reduced,
)
from sextic.errors import DegenerateSextic, ZeroD
from sextic.exact import RatPoly, poly_eval
from sextic.resolvents import ReducedSextic


def test_irreducible_scaled_family_sextic():
    assert is_irreducible(RatPoly([5, 18, 36, 0, 0, 0, 36]))


def test_reducible_cases():
    assert not is_irreducible(RatPoly([-1, 0, 0, 0, 0, 0, 1]))  # root 1
    # (x^2 + 1)(x^4 + 2): found through the degree-2 root subset
    assert not is_irreducible(RatPoly([1, 0, 1]) * RatPoly([2, 0, 0, 0, 1]))
    # x^5 + x + 1 = (x^2 + x + 1)(x^3 - x^2 + 1)
    assert not is_irreducible(RatPoly([1, 1, 0, 0, 0, 1]))
    # repeated factor
    assert not is_irreducible(RatPoly([1, 1]) * RatPoly([1, 1]))
    assert not is_irreducible(RatPoly([0, 1, 1]))  # divisible by x


def test_irreducible_misc():
    assert is_irreducible(RatPoly([-1, 1]))  # degree 1
    assert is_irreducible(RatPoly([1, 1, 1]))
    assert is_irreducible(RatPoly([32, 20, 0, 0, 0, 1]))  # x^5 + 20x + 32
    assert is_irreducible(RatPoly([1, 2, 1, 0, 0, 0, 1]))
    # cubic-in-x^2 sextics and cyclotomic-like inputs
    assert is_irreducible(RatPoly([1, 0, 1, 0, 0, 0, 1]))
    assert is_irreducible(RatPoly([1, 1, 1, 1, 1, 1, 1]))


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
    from ff_oracle import _polydiv_exact, _polygcd, _poly_powmod, _trim

    q = 11
    fq = [c % q for c in [1, 2, -1, 0, 0, 0, 1]]

    def frob_fixed_part(poly, power):
        xqk = [0, 1]
        for _ in range(power):
            xqk = _poly_powmod(xqk, q, poly, q)
        diff = _trim([(a - b) % q for a, b in zip(xqk + [0] * 7, [0, 1] + [0] * 7)][: len(poly)])
        return _polygcd(poly, diff, q) if diff else poly

    linear = frob_fixed_part(fq, 1)
    assert len(linear) - 1 == 1
    quintic = _polydiv_exact(fq, linear, q)
    assert len(quintic) - 1 == 5
    for k in (1, 2):
        assert len(frob_fixed_part(quintic, k)) - 1 == 0  # no degree-1/2 factors


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
    from sextic.resolvents import f_verified, g_verified

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
    from sextic.resolvents import f_verified

    for _ in range(20):
        d = F(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice([1, -1])
        member = vanishing_constant_family(d)
        assert f_verified(member)[0] == 0
        assert poly_eval(f_verified(member), 0) == 0


def test_search_reduced():
    hits, errors = search_reduced([F(1, 2)], [F(5, 36)])
    assert len(hits) == 1 and hits[0][:2] == (F(1, 2), F(5, 36))
    assert hits[0][2].solvable is Solvable.YES
    hits, errors = search_reduced([], [])
    assert hits == [] and errors == []
    hits, errors = search_reduced([0, 2], [0, 1])
    assert [(h[0], h[1]) for h in hits] == [(0, 1), (2, 1)]
    assert errors and "DegenerateSextic" in errors[0][2]  # the (0, 0) point


def test_search_reduced_propagates_errors_that_are_not_sextic_errors(monkeypatch):
    # only SexticError is per-point data; anything else is a bug and must surface
    module = importlib.import_module("sextic.classify")  # the attribute is the function

    def broken(*args, **kwargs):
        raise RuntimeError("bug inside classify")

    monkeypatch.setattr(module, "classify", broken)
    with pytest.raises(RuntimeError, match="bug inside classify"):
        search_reduced([1], [1])


def test_classify_rejects_negative_precision():
    # used to die with ZeroDivisionError inside the root finder
    with pytest.raises(ValueError, match="between 1 and 4096"):
        classify(ReducedSextic(1, 2).to_poly(), -64)
