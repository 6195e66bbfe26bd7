import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from sextic import roots as roots_module
from sextic.errors import NonConvergence, NotNearInteger, NumericFailure
from sextic.exact import RatPoly
from sextic.resolvents import ReducedSextic, ResolventKind, f_verified
from sextic.roots import expand_from_roots, find_roots

from oracles import orbit_product, round_within


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
    # the complex rounding lives in the tests' oracle
    with mp.workprec(256):
        ip = round_within([mp.mpc(1.0), mp.mpc(2.0, 1e-40)], mp.mpf(1e-30))
        assert ip == RatPoly([1, 2])
        with pytest.raises(NotNearInteger):
            round_within([mp.mpc(0.5)], mp.mpf(1e-30))
        with pytest.raises(NotNearInteger):
            round_within([mp.mpc(1, 1e-20)], mp.mpf(1e-30))


def test_matching_orbit_product_rounds_to_integers_at_512_bits():
    # integer inputs force an integer resolvent; frozen closed form must agree
    p = RatPoly([2, 3, 1, 0, 0, 0, 1])
    rs = find_roots(p, 512)
    with mp.workprec(512 + 32):
        res = round_within(orbit_product(rs.roots, ResolventKind.MATCHING), mp.mpf(2) ** -64)
    assert res.degree == 15
    assert res == f_verified(ReducedSextic(3, 2))


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


def test_coefficients_beyond_double_range_are_certified_once_the_precision_reaches_the_roots():
    # 10^400 fits no double; polyroots runs on p rescaled by a power of two
    rs = find_roots(RatPoly([1, 1, 0, 0, 0, 0, 10**400]), 256)
    assert rs.error_radius <= mp.mpf(2) ** -128
    with mp.workprec(300):
        gaps = [abs(a - b) for i, a in enumerate(rs.roots) for b in rs.roots[i + 1 :]]
    assert min(gaps) > 4 * rs.error_radius  # roots of modulus about 10^-66.7, told apart
    # roots of modulus about 10^66.7: no absolute radius <= 2^-128 at 288 working bits
    big = RatPoly([-(10**400), 0, 0, 0, 0, 0, 1])
    with pytest.raises(NonConvergence):
        find_roots(big, 256)
    rs = find_roots(big, 512)
    assert rs.error_radius <= mp.mpf(2) ** -256
    with mp.workprec(700):
        true = [mp.root(mp.mpf(10) ** 400, 6) * mp.expjpi(mp.mpf(k) / 3) for k in range(6)]
        nearest = sorted(min(range(6), key=lambda k: abs(z - true[k])) for z in rs.roots)
        assert nearest == list(range(6))  # one entry per root
        assert all(min(abs(z - w) for w in true) <= rs.error_radius for z in rs.roots)


def test_exhausted_iteration_budget_is_nonconvergence(monkeypatch):
    monkeypatch.setattr(roots_module, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence):
        find_roots(RatPoly([3, 1, 1, 0, 0, 0, 1]), 256)


@pytest.mark.parametrize(
    "p, true_roots",
    [
        (RatPoly([1, -2, 1, 0, 1, -2, 1]),
         lambda: [1, 1] + [mp.expjpi(mp.mpf(2 * k + 1) / 4) for k in range(4)]),
        (RatPoly([0, 0, 0, 0, 0, 0, 1]), lambda: [0] * 6),
        (RatPoly([-8, 0, 12, 0, -6, 0, 1]), lambda: [mp.sqrt(2), -mp.sqrt(2)] * 3),
    ],
    ids=["(x-1)^2(x^4+1)", "x^6", "(x^2-2)^3"],
)
def test_repeated_roots_fail_or_stay_within_the_radius(p, true_roots):
    try:
        rs = find_roots(p, 256)
    except NumericFailure:
        return
    with mp.workprec(600):
        true = true_roots()
        for z in rs.roots:
            assert min(abs(z - w) for w in true) <= rs.error_radius
