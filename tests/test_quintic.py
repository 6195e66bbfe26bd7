import importlib
import random
from collections import Counter
from fractions import Fraction as F

import mpmath as mp
import pytest
from oracles import params_by_search, radical_roots_by_search

import sextic.quintic as quintic
from sextic.quintic import (
    QuinticParams,
    ab_from_params,
    params_from_ab,
    radical_roots,
    search_quintics,
)

SOLVABLE_BOX_40 = {(20, 32), (20, -32), (15, 12), (15, -12), (-5, 12), (-5, -12)}

# epsilon = 1, c = 37/11, e = 53/29: e lies above the old search's height bound 24
HEIGHT_EXAMPLE = (F(-9981458465, 210769738), F(-358811732994, 3056161201))


def test_param_validation():
    with pytest.raises(ValueError):
        QuinticParams(2, 1, 1)
    with pytest.raises(ValueError):
        QuinticParams(1, -1, 1)
    with pytest.raises(ValueError):
        QuinticParams(1, 1, 0)
    assert QuinticParams(-1, 0, 1).c == 0


def test_ab_from_params_known_values():
    assert ab_from_params(QuinticParams(-1, F(1, 2), 1)) == (20, 32)
    assert ab_from_params(QuinticParams(-1, F(1, 2), -1)) == (20, -32)
    assert ab_from_params(QuinticParams(-1, F(4, 3), 1)) == (15, 12)
    assert ab_from_params(QuinticParams(1, 2, -1)) == (-5, 12)


def test_e_negation_flips_b():
    rng = random.Random(4)
    for _ in range(20):
        p = QuinticParams(rng.choice([1, -1]), F(rng.randint(1, 9), rng.randint(1, 5)),
                          F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1]))
        a, b = ab_from_params(p)
        a2, b2 = ab_from_params(QuinticParams(p.epsilon, p.c, -p.e))
        assert (a2, b2) == (a, -b)


def test_params_from_ab_round_trip():
    p = params_from_ab(20, 32)
    assert p == QuinticParams(-1, F(1, 2), 1)
    assert params_from_ab(1, 1) is None
    p = params_from_ab(15, 12)
    assert p is not None and ab_from_params(p) == (15, 12)
    rng = random.Random(9)
    for _ in range(10):
        source = QuinticParams(rng.choice([1, -1]), F(rng.randint(1, 5), rng.randint(1, 3)),
                               F(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1]))
        a, b = ab_from_params(source)
        if a == 0:
            continue
        found = params_from_ab(a, b)
        assert found is not None
        assert ab_from_params(found) == (a, b)


def test_params_from_ab_requires_nonzero_a():
    with pytest.raises(ValueError):
        params_from_ab(0, 5)


def test_radical_roots_residuals_and_vieta():
    tower = radical_roots(QuinticParams(-1, F(1, 2), 1), 256)
    assert (tower.a, tower.b) == (20, 32)
    assert tower.residual < mp.mpf(10) ** -30
    with mp.workprec(288):
        assert abs(sum(tower.roots)) < mp.mpf(10) ** -30
        prod = mp.mpc(1)
        for z in tower.roots:
            prod *= z
        assert abs(prod + 32) < mp.mpf(10) ** -30
        assert abs(tower.omega**5 - 1) < mp.mpf(10) ** -70
    assert tower.D == F(5, 4)


def test_radical_roots_rejects_precision_outside_range():
    # at -64 bits the tower used to return five non-roots with residual 64
    params = QuinticParams(-1, F(1, 2), 1)
    for bits in (-64, 0, 8192):
        with pytest.raises(ValueError, match="between 1 and 4096"):
            radical_roots(params, bits)


def test_radical_roots_all_six():
    for a, b in sorted(SOLVABLE_BOX_40):
        params = params_from_ab(a, b)
        assert params is not None
        tower = radical_roots(params, 256)
        assert tower.residual < mp.mpf(10) ** -30


def test_search_small_boxes():
    assert list(search_quintics(4)) == []
    hits = list(search_quintics(12))
    assert [(a, b) for a, b, _ in hits] == [(-5, -12), (-5, 12)]
    assert all(params == params_from_ab(a, b) for a, b, params in hits)


def test_search_box_40_matches_published_six():
    assert {(a, b) for a, b, _ in search_quintics(40)} == SOLVABLE_BOX_40


def test_search_solves_each_candidate_pair_once(monkeypatch, capsys):
    # search --quintic prints the parameters the search found, not a re-solve
    from sextic.cli import main

    calls = Counter()

    def counting(a, b):
        calls[(a, b)] += 1
        return params_from_ab(a, b)

    for name in ("sextic.quintic", "sextic.cli"):
        monkeypatch.setattr(importlib.import_module(name), "params_from_ab", counting)
    assert main(["search", "--quintic", "--box", "12"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert len(calls) == 24 * 25  # a in -12..12 without 0, b in -12..12
    assert set(calls.values()) == {1}


def test_search_prints_each_hit_when_it_is_found(monkeypatch):
    # the first hit (-5, -12) is pair 176 in scan order: 7 values of a before
    # -5, 25 values of b each, then b = -12; a search that builds the whole
    # box first prints only after all 600 pairs
    import io
    import sys

    from sextic.cli import main

    calls = 0
    printed_after = []

    def counting(a, b):
        nonlocal calls
        calls += 1
        return params_from_ab(a, b)

    class Stdout(io.StringIO):
        def write(self, text):
            printed_after.append(calls)
            return super().write(text)

    monkeypatch.setattr(quintic, "params_from_ab", counting)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["search", "--quintic", "--box", "12"]) == 0
    first = sys.stdout.getvalue().splitlines()[0]
    assert first.startswith('{"a": "-5", "b": "-12", ')
    assert printed_after[0] <= 176
    assert calls == 600


def _seeded_params(seed, count):
    """Triples with both epsilon, c = 0 among them, and c, e of height <= 60."""
    rng = random.Random(seed)
    out = [QuinticParams(1, 0, -1), QuinticParams(-1, 0, F(3, 7))]
    while len(out) < count:
        c = F(rng.randint(1, 60), rng.randint(1, 60))
        e = F(rng.choice([1, -1]) * rng.randint(1, 60), rng.randint(1, 60))
        out.append(QuinticParams(rng.choice([1, -1]), c, e))
    return out


def test_radical_roots_equal_the_branch_search_bit_for_bit():
    # the search returns the one valid assignment with u1 principal, which
    # is the one the tower's product relations pick
    for params in _seeded_params(6, 8):
        for bits in (64, 256, 1024):
            tower = radical_roots(params, bits)
            found = radical_roots_by_search(params, bits)
            assert found is not None
            assert (tower.u, tower.roots, tower.residual) == found, (params, bits)


def test_radical_roots_take_at_most_seven_fifth_roots(monkeypatch):
    calls = []
    real_root = mp.root

    def counting_root(*args, **kwargs):
        calls.append(args)
        return real_root(*args, **kwargs)

    monkeypatch.setattr(mp, "root", counting_root)
    for params in _seeded_params(8, 4):
        calls.clear()
        radical_roots(params, 256)
        assert len(calls) <= 7, params


def test_low_precision_radical_roots_are_roots():
    # at these precisions a branch search accepts assignments whose values
    # are up to 0.7 away from every root, because its tolerance is absolute
    cases = [QuinticParams(-1, F(17, 10), F(-1, 14)), QuinticParams(-1, F(2, 5), F(9, 16)),
             QuinticParams(1, F(27, 14), F(-1, 4))] + _seeded_params(3, 6)
    for params in cases:
        reference = radical_roots(params, 256).roots
        for bits in (1, 8, 16, 24, 29):
            roots = radical_roots(params, bits).roots
            bound = mp.mpf(2) ** -(bits // 2)
            for got, want in zip(roots, reference):
                assert abs(got - want) <= bound * (1 + abs(want)), (params, bits)


def test_root_certificate_scales_with_the_roots():
    # the roots of this tower have modulus at most 0.15; an absolute
    # tolerance 2^-12 (1 + |a| + |b|) at 24 bits accepts the residual of
    # some of them shifted by 0.09, while the inclusion radius rejects all
    params = QuinticParams(-1, F(17, 10), F(-1, 14))
    a, b = ab_from_params(params)
    roots = radical_roots(params, 256).roots
    with mp.workprec(56):
        a_val, b_val = quintic.to_mpf(a), quintic.to_mpf(b)
        absolute = mp.mpf(2) ** -12 * (1 + abs(a_val) + abs(b_val))
        shifted = [x + mp.mpf(0.09) for x in roots]
        assert max(abs(x) for x in roots) <= 0.15
        assert any(abs(y**5 + a_val * y + b_val) <= absolute for y in shifted)
        for x in roots:
            assert quintic._near_a_root(x, abs(x**5 + a_val * x + b_val), a_val, 24)
        for y in shifted:
            assert not quintic._near_a_root(y, abs(y**5 + a_val * y + b_val), a_val, 24)
    for bits in (1, 8, 24, 256):
        assert len(radical_roots(params, bits).roots) == 5


def test_radical_roots_refuses_a_wrong_branch(monkeypatch):
    from sextic.errors import NoConsistentBranch

    params = QuinticParams(-1, F(17, 10), F(-1, 14))
    monkeypatch.setattr(quintic, "_branch", lambda base, target: mp.root(base, 5, 1))
    for bits in (8, 24, 256):
        with pytest.raises(NoConsistentBranch):
            radical_roots(params, bits)


def test_c_zero_parameters_solve_x5_plus_15x_plus_44():
    import sympy

    x = sympy.Symbol("x")
    assert params_from_ab(15, 44) == QuinticParams(1, 0, -1)
    assert params_from_ab(15, -44) == QuinticParams(1, 0, 1)
    for eps in (1, -1):
        for e in (1, -1):
            tower = radical_roots(QuinticParams(eps, 0, e), 256)
            assert (tower.a, tower.b) == (15, -44 * eps * e)
            assert tower.residual < mp.mpf(10) ** -60
    for b in (44, -44):
        group, _ = sympy.galois_group(sympy.Poly(x**5 + 15 * x + b, x))
        assert group.order() == 20 and group.is_solvable


def _agrees_with_bounded_search(a, b):
    found = params_from_ab(a, b)
    expected = params_by_search(a, b)
    if expected is not None:
        assert found == expected, (a, b)
    elif found is not None:
        assert ab_from_params(found) == (a, b), (a, b)


def test_params_equal_the_bounded_search_on_box_40():
    for a in range(-40, 41):
        if a:
            for b in range(-40, 41):
                _agrees_with_bounded_search(a, b)


def test_params_equal_the_bounded_search_on_built_pairs():
    # both epsilon, c = 0 among them, and e of height <= 24, the search's bound
    rng = random.Random(7)
    sources = [QuinticParams(1, 0, F(-5, 3)), QuinticParams(-1, 0, F(2, 9))]
    while len(sources) < 120:
        c = F(rng.randint(0, 40), rng.randint(1, 40))
        e = F(rng.choice([1, -1]) * rng.randint(1, 24), rng.randint(1, 24))
        sources.append(QuinticParams(rng.choice([1, -1]), c, e))
    for source in sources:
        a, b = ab_from_params(source)
        if a:
            assert params_by_search(a, b) is not None, source
            _agrees_with_bounded_search(a, b)
    for a, b in [(15, 44), (15, -44), (4, 0), (F(81, 4), 0)]:
        assert params_by_search(a, b) is not None
        _agrees_with_bounded_search(a, b)


def test_params_above_the_old_height_bound_are_recovered():
    assert params_by_search(*HEIGHT_EXAMPLE) is None
    assert params_from_ab(*HEIGHT_EXAMPLE) == QuinticParams(1, F(37, 11), F(53, 29))


def test_one_rational_root_solve_per_call(monkeypatch):
    calls = []
    real = quintic.rational_roots

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(quintic, "rational_roots", counting)
    for a, b in [(20, 32), (1, 1), HEIGHT_EXAMPLE, (4, 0), (3, 0)]:
        calls.clear()
        params_from_ab(a, b)
        assert len(calls) == (b != 0), (a, b)


def _dummit_has_rational_root(a, b):
    """Whether Dummit's sextic resolvent of x^5 + a*x + b has a linear factor
    over Q, by sympy alone (Dummit, Math. Comp. 57, 1991)."""
    import sympy

    a, b = sympy.Rational(a), sympy.Rational(b)
    coeffs = [1, 8 * a, 40 * a**2, 160 * a**3, 400 * a**4, 512 * a**5 - 3125 * b**4,
              256 * a**6 - 9375 * a * b**4]
    _, factors = sympy.Poly(coeffs, sympy.Symbol("x")).factor_list()
    return any(f.degree() == 1 for f, _ in factors)


def test_params_exist_exactly_when_dummits_resolvent_has_a_rational_root():
    import sympy

    x = sympy.Symbol("x")
    pairs = [(a, b) for a in range(-25, 26) if a for b in range(-25, 26)]
    pairs.append(tuple(str(v) for v in HEIGHT_EXAMPLE))
    solvable = []
    for a, b in pairs:
        poly = sympy.Poly([1, 0, 0, 0, sympy.Rational(a), sympy.Rational(b)], x)
        _, factors = poly.factor_list()
        if len(factors) > 1 or factors[0][1] > 1:
            continue
        found = params_from_ab(F(a), F(b)) is not None
        assert found == _dummit_has_rational_root(a, b), (a, b)
        if found:
            solvable.append((a, b))
    assert len(solvable) == 5
