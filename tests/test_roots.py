import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from sextic import roots as roots_module
from sextic.errors import NotNearInteger, NumericFailure
from sextic.exact import RatPoly
from sextic.resolvents import ReducedSextic, ResolventKind, f_verified, resolvent_from_roots
from sextic.roots import (
    ComplexRootSet,
    expand_from_roots,
    find_roots,
    round_to_int_poly,
)


def _coeff_error(p: RatPoly, roots) -> mp.mpf:
    with mp.workprec(roots.precision_bits + 64):
        expanded = expand_from_roots(roots.roots)
        worst = mp.mpf(0)
        for k, c in enumerate(p.monic().coeffs):
            target = mp.mpf(c.numerator) / c.denominator
            worst = max(worst, abs(expanded[k] - target))
        return worst


def test_sixth_roots_of_unity():
    rs = find_roots(RatPoly([-1, 0, 0, 0, 0, 0, 1]), 256)
    assert len(rs) == 6
    with mp.workprec(300):
        for k, z in enumerate(sorted(rs.roots, key=lambda w: mp.arg(w))):
            assert abs(abs(z) - 1) <= rs.error_radius
        assert any(abs(z - 1) <= rs.error_radius for z in rs.roots)
        assert any(abs(z + 1) <= rs.error_radius for z in rs.roots)


def test_quadratic_imaginary():
    rs = find_roots(RatPoly([1, 0, 1]), 256)
    with mp.workprec(300):
        assert abs(rs.roots[0] + mp.mpc(0, 1)) <= rs.error_radius
        assert abs(rs.roots[1] - mp.mpc(0, 1)) <= rs.error_radius


def test_reduced_sextic_symmetric_function_roundtrip():
    p = RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1])
    rs = find_roots(p, 256)
    assert _coeff_error(p, rs) < mp.mpf(10) ** -60


def test_roundtrip_error_on_random_integer_sextics():
    rng = random.Random(2024)
    for _ in range(10):
        coeffs = [rng.randint(-20, 20) for _ in range(6)] + [1]
        p = RatPoly(coeffs)
        rs = find_roots(p, 512)
        assert _coeff_error(p, rs) < mp.mpf(10) ** -60


def test_deterministic_output():
    p = RatPoly([3, 1, 1, 0, 0, 0, 1])
    a = find_roots(p, 256)
    b = find_roots(p, 256)
    assert a.roots == b.roots
    assert a.error_radius == b.error_radius


def test_doubling_precision_does_not_worsen():
    p = RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1])
    errs = [find_roots(p, bits).error_radius for bits in (256, 512, 1024)]
    assert errs[1] <= errs[0]
    assert errs[2] <= errs[1]


def test_certified_radius_meets_contract():
    for bits in (256, 512):
        rs = find_roots(RatPoly([1, 1, 0, 0, 0, 0, 1]), bits)
        assert rs.error_radius <= mp.mpf(2) ** -(bits // 2)


def test_round_to_int_poly():
    with mp.workprec(256):
        ip = round_to_int_poly([mp.mpc(1.0), mp.mpc(2.0, 1e-40)], mp.mpf(1e-30))
        assert ip.full_coeffs() == (1, 2)
        with pytest.raises(NotNearInteger):
            round_to_int_poly([mp.mpc(0.5)], mp.mpf(1e-30))
        with pytest.raises(NotNearInteger):
            round_to_int_poly([mp.mpc(1, 1e-20)], mp.mpf(1e-30))


def test_matching_orbit_product_rounds_to_integers_at_512_bits():
    # integer inputs force an integer resolvent; frozen closed form must agree
    p = RatPoly([2, 3, 1, 0, 0, 0, 1])
    rs = find_roots(p, 512)
    with mp.workprec(512 + 32):
        res = resolvent_from_roots(rs, ResolventKind.MATCHING, mp.mpf(2) ** -64)
    assert res.degree == 15
    assert res.to_rat() == f_verified(ReducedSextic(3, 2))


def test_root_order_is_sorted():
    rs = find_roots(RatPoly([-1, 0, 0, 0, 0, 0, 1]), 256)
    keys = [(z.real, z.imag) for z in rs.roots]
    assert keys == sorted(keys)


def test_squarefree_resultant_agrees_with_root_separation():
    from sextic.exact import squarefree

    rng = random.Random(606)
    for _ in range(15):
        p = RatPoly([rng.randint(-9, 9) for _ in range(6)] + [1])
        if squarefree(p):
            rs = find_roots(p, 256)
            with mp.workprec(300):
                gaps = [
                    abs(a - b)
                    for i, a in enumerate(rs.roots)
                    for b in rs.roots[i + 1 :]
                ]
            assert min(gaps) > 4 * rs.error_radius


def _outcome(p: RatPoly, bits: int = 256):
    try:
        rs = find_roots(p, bits)
    except NumericFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    return rs.roots, rs.error_radius


@pytest.mark.parametrize(
    "p, converges",
    [
        (RatPoly([1, 1, 0, 0, 0, 0, 10**400]), True),  # monic coefficients underflow to 0
        (RatPoly([-(10**400), 0, 0, 0, 0, 0, 1]), False),  # 1e400 overflows
    ],
    ids=["underflow", "overflow"],
)
def test_coefficients_outside_double_range_start_from_the_circle(monkeypatch, p, converges):
    seeds = []
    seed_in_double = roots_module._seed_in_double

    def spy(coeffs, starts):
        seeds.append(seed_in_double(coeffs, starts))
        return seeds[-1]

    monkeypatch.setattr(roots_module, "_seed_in_double", spy)
    outcome = _outcome(p)
    assert seeds == [None]
    assert isinstance(outcome, tuple) == converges
    # without the double stage find_roots is the circle-start iteration alone
    monkeypatch.setattr(roots_module, "_seed_in_double", lambda coeffs, starts: None)
    assert _outcome(p) == outcome


def test_double_seeding_moves_roots_only_within_the_radius(monkeypatch):
    rng = random.Random(808)
    polys = [RatPoly([rng.randint(-9, 9) for _ in range(6)] + [1]) for _ in range(8)]
    polys += [RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1]), RatPoly([1, 0, 1])]
    seeded = [find_roots(p, 256) for p in polys]
    monkeypatch.setattr(roots_module, "_seed_in_double", lambda coeffs, starts: None)
    for p, a in zip(polys, seeded):
        b = find_roots(p, 256)
        with mp.workprec(300):
            for z in a.roots:
                assert min(abs(z - w) for w in b.roots) <= a.error_radius + b.error_radius
