import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from sextic.quintic import (
    QuinticParams,
    ab_from_params,
    params_from_ab,
    radical_roots,
    search_quintics,
)

SOLVABLE_BOX_40 = {(20, 32), (20, -32), (15, 12), (15, -12), (-5, 12), (-5, -12)}


def test_param_validation():
    with pytest.raises(ValueError):
        QuinticParams(2, 1, 1)
    with pytest.raises(ValueError):
        QuinticParams(1, -1, 1)
    with pytest.raises(ValueError):
        QuinticParams(1, 1, 0)


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
    p = params_from_ab(20, 32, 10)
    assert p == QuinticParams(-1, F(1, 2), 1)
    assert params_from_ab(1, 1, 10) is None
    p = params_from_ab(15, 12, 10)
    assert p is not None and ab_from_params(p) == (15, 12)
    rng = random.Random(9)
    for _ in range(10):
        source = QuinticParams(rng.choice([1, -1]), F(rng.randint(1, 5), rng.randint(1, 3)),
                               F(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1]))
        a, b = ab_from_params(source)
        if a == 0:
            continue
        found = params_from_ab(a, b, 12)
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
        params = params_from_ab(a, b, 24)
        assert params is not None
        tower = radical_roots(params, 256)
        assert tower.residual < mp.mpf(10) ** -30


def test_search_small_boxes():
    assert search_quintics(4) == []
    assert search_quintics(12) == [(-5, -12), (-5, 12)]


def test_search_box_40_matches_published_six():
    assert set(search_quintics(40)) == SOLVABLE_BOX_40
