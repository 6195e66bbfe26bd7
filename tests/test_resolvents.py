import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from sextic.errors import DegenerateSextic
from sextic.exact import RatPoly, rational_roots, resultant
from sextic.resolvents import (
    _DISC_TABLE,
    F_REFERENCE_TABLE,
    F_VERIFIED_TABLE,
    G_REFERENCE_TABLE,
    G_VERIFIED_TABLE,
    ReducedSextic,
    ResolventKind,
    _lifted_roots,
    discriminant_exact,
    discriminant_reduced,
    f_reduced,
    f_verified,
    g_reduced,
    g_verified,
    monic_integer_rescale,
    reconstruct_reduced,
    resolvent_from_roots,
    resolvents_exact,
)

from oracles import resolvent_by_complex_roots

# frozen output of the finite-field CRT oracle (tests/ff_oracle.py), which
# shares no code with the numeric pipeline
F_TRUE_1_1 = [-109, 1343, -813, -2541, 2286, 1721, -1076, -1445, -231, 461, 201, 7, -42, -6, 0, 1]
F_TRUE_3_2 = [884736, 1488060416, 444669952, -140038144, 35217408, -13077504,
              -5402624, -434432, 38528, 116480, 8160, 112, -672, -24, 0, 1]
G_TRUE_2_1 = [0, -64, 16, 88, 121, -50, -91, -62, 6, 4, 1]
G_TRUE_MINUS_X2_2_1 = [-1920, 960, 1136, -1832, 2105, -1586, 557, -70, 6, -4, 1]


def test_f_reference_trivial_cases():
    assert f_verified(ReducedSextic(0, 0)) == RatPoly([0] * 15 + [1])
    # the transcription's anomalous x^7 term -(1716e^2 - 288d^2 e + 17)
    # survives at d = e = 0; the audited form restores its e^8 factor
    assert f_reduced(ReducedSextic(0, 0)) == RatPoly([0] * 7 + [-17] + [0] * 7 + [1])
    assert f_reduced(ReducedSextic(F(1, 2), F(5, 36)))[0] == 0
    assert f_verified(ReducedSextic(F(1, 2), F(5, 36)))[0] == 0


def test_f_transcription_vs_true_at_1_1():
    # the reference transcription disagrees with both exact oracles in
    # exactly three coefficients at (1, 1): x^0 (sign), x^9, x^12
    printed = f_reduced(ReducedSextic(1, 1))
    true = RatPoly(F_TRUE_1_1)
    assert f_verified(ReducedSextic(1, 1)) == true
    mismatches = {k for k in range(16) if printed[k] != true[k]}
    assert mismatches == {0, 9, 12}
    assert printed[0] == 109 and true[0] == -109
    assert printed[9] == 518 and true[9] == 461
    assert printed[12] == -45 and true[12] == -42


def test_f_verified_matches_ff_oracle_at_3_2():
    assert f_verified(ReducedSextic(3, 2)) == RatPoly(F_TRUE_3_2)
    assert resolvent_by_complex_roots(ReducedSextic(3, 2).to_poly(), ResolventKind.MATCHING) \
        == RatPoly(F_TRUE_3_2)


def test_g_reference_cases():
    assert g_reduced(ReducedSextic(2, 1))[0] == 0
    assert g_reduced(ReducedSextic(4, 4))[0] == 0
    # d = e = 0 collapses to x^6 (x+1)^4
    expansion = RatPoly([0, 0, 0, 0, 0, 0, 1]) * RatPoly([1, 1]) ** 4
    assert g_reduced(ReducedSextic(0, 0)) == expansion
    assert g_verified(ReducedSextic(2, 1)) == RatPoly(G_TRUE_2_1)
    assert g_reduced(ReducedSextic(2, 1)) == RatPoly(G_TRUE_2_1)


def test_discriminant_reduced_values():
    assert discriminant_reduced(ReducedSextic(0, 0)) == 0
    assert discriminant_reduced(ReducedSextic(0, 1)) == 46656 + 13824 + 1024
    assert discriminant_reduced(ReducedSextic(1, 0)) == -3125 - 256


def test_discriminant_exact_values():
    assert discriminant_exact(RatPoly([1, 0, 1])) == -4
    assert discriminant_exact(RatPoly([0, 0, 1, 0, 0, 0, 1])) == 0
    assert discriminant_exact(RatPoly([-2, 1])* RatPoly([-3, 1])) == 1  # (x-2)(x-3): (2-3)^2


def test_discriminant_sign_relation_constant():
    rng = random.Random(17)
    seen = set()
    for _ in range(100):
        d, e = rng.randint(-10, 10), rng.randint(-10, 10)
        s = ReducedSextic(d, e)
        reduced = discriminant_reduced(s)
        exact = discriminant_exact(s.to_poly())
        assert abs(reduced) == abs(exact)
        if exact:
            seen.add(reduced / exact)
    assert seen == {F(-1)}


def test_disc_table_is_minus_the_resultant_discriminant():
    # Both sides are polynomials in d and e. The discriminant of a sextic is
    # isobaric of weight 30 with the x^2, x and 1 coefficients of weights 4,
    # 5 and 6, so each monomial d^i e^j has 5i + 6j <= 30: i <= 6 and j <= 5,
    # as in _DISC_TABLE. A polynomial of bidegree (6, 5) vanishing on a
    # 7 x 6 grid is zero, so equality here is the identity, not a sample.
    for d, e in itertools.product(range(7), range(6)):
        s = ReducedSextic(d, e)
        assert discriminant_reduced(s) == -discriminant_exact(s.to_poly()), (d, e)


def test_resolvent_numeric_refuses_repeated_roots():
    # the CLI's numeric method is resolvents_exact, one kind at a time
    with pytest.raises(DegenerateSextic):
        resolvents_exact(RatPoly([0, 0, 1, 0, 0, 0, 1]), (ResolventKind.MATCHING,))
    with pytest.raises(DegenerateSextic):
        resolvents_exact(RatPoly([4, 4, -1, 0, 0, 0, 1]), (ResolventKind.PARTITION,))


def test_minus_x2_partition_resolvent_has_no_rational_root():
    # the minus-x^2 reading of the d=2, e=1 example is not partition-solvable
    res = resolvent_by_complex_roots(RatPoly([1, 2, -1, 0, 0, 0, 1]), ResolventKind.PARTITION)
    assert res == RatPoly(G_TRUE_MINUS_X2_2_1)
    assert rational_roots(res) == set()


def test_plus_x2_examples_have_partition_root_zero():
    for d, e in [(2, 1), (4, 4)]:
        s = ReducedSextic(d, e)
        assert F(0) in rational_roots(g_verified(s))
        numeric = resolvent_by_complex_roots(s.to_poly(), ResolventKind.PARTITION)
        assert numeric == g_verified(s)


def test_resolvent_numeric_agrees_with_tables_on_random_points():
    rng = random.Random(31)
    for _ in range(5):
        d, e = rng.randint(-9, 9), rng.randint(-9, 9)
        s = ReducedSextic(d, e)
        if discriminant_exact(s.to_poly()) == 0:
            continue
        assert resolvent_by_complex_roots(s.to_poly(), ResolventKind.MATCHING) == f_verified(s)
        assert resolvent_by_complex_roots(s.to_poly(), ResolventKind.PARTITION) == g_verified(s)


def _discriminant(q: list) -> int:
    """The discriminant (-1)^(n(n-1)/2) Res(q, q') of the monic integer
    polynomial q of degree n (coefficients low to high)."""
    n = len(q) - 1
    return (-1) ** (n * (n - 1) // 2) * int(resultant(RatPoly(q), RatPoly(q).derivative()))


def test_root_order_invariance():
    rng = random.Random(55)
    q, _ = monic_integer_rescale(ReducedSextic(3, 2).to_poly())
    q = [int(c) for c in q.coeffs]
    roots = _lifted_roots(q, (ResolventKind.MATCHING,), _discriminant(q))
    baseline = resolvent_from_roots(roots, ResolventKind.MATCHING)
    assert baseline == f_verified(ReducedSextic(3, 2))
    for _ in range(10):
        shuffled = list(roots)
        rng.shuffle(shuffled)
        assert resolvent_from_roots(shuffled, ResolventKind.MATCHING) == baseline


def test_monic_integer_rescale():
    p = RatPoly([F(5, 36), F(1, 2), 1, 0, 0, 0, 1])
    q, m = monic_integer_rescale(p)
    assert m == 6
    assert q == RatPoly([6480, 3888, 1296, 0, 0, 0, 1])
    q2, m2 = monic_integer_rescale(RatPoly([2, 3, 1, 0, 0, 0, 1]))
    assert m2 == 1 and q2 == RatPoly([2, 3, 1, 0, 0, 0, 1])


def test_resolvent_in_frame_matches_closed_form_for_rational_input():
    s = ReducedSextic(F(1, 2), F(5, 36))
    in_frame = resolvent_by_complex_roots(s.to_poly(), ResolventKind.MATCHING)
    assert in_frame == f_verified(s)
    assert F(0) in rational_roots(in_frame)
    # different denominator structure, both kinds
    s = ReducedSextic(F(2, 3), F(-1, 4))
    assert monic_integer_rescale(s.to_poly())[1] == 6
    assert resolvent_by_complex_roots(s.to_poly(), ResolventKind.MATCHING) == f_verified(s)
    assert resolvent_by_complex_roots(s.to_poly(), ResolventKind.PARTITION) == g_verified(s)


def test_ladder_escalates_from_starved_start():
    # 64 starting bits cannot round the coefficients at (3, 120), which reach
    # the 1e31 scale; the oracle must climb until rounding succeeds
    s = ReducedSextic(3, 120)
    assert resolvent_by_complex_roots(s.to_poly(), ResolventKind.MATCHING, 64) == f_verified(s)


def test_reconstruct_partition_confirms_reference():
    report = reconstruct_reduced(ResolventKind.PARTITION)
    assert report.matches_reference()
    assert not report.discrepancies
    assert len(report.holdout_points) == 20
    assert report.fitted[9] == {(0, 0): 4}


@pytest.mark.slow
def test_reconstruct_matching_pins_exactly_the_known_defects():
    report = reconstruct_reduced(ResolventKind.MATCHING)
    assert not report.matches_reference()
    bad_powers = {diff.x_power for diff in report.discrepancies}
    assert bad_powers == {0, 7, 9, 12}
    assert any("times e^8" in note for note in report.notes)
    # the fitted table is exactly the frozen verified one
    from sextic.resolvents import F_VERIFIED_TABLE

    assert report.fitted == F_VERIFIED_TABLE


def _ff_batch(rng):
    """One seeded squarefree sextic off the reduced shape from each family:
    monic integer, monic with denominators 3 and 6 (rescaled by m = 3 and
    6), and leading coefficient 2 or 3. The oracle needs about 4 s per S6
    sextic, since only one prime in 720 splits it completely."""
    families = [
        lambda: [rng.randint(-6, 6) for _ in range(6)] + [1],
        lambda: [F(rng.randint(-3, 3), 3) for _ in range(5)] + [F(rng.choice((-1, 1)), 3), 1],
        lambda: [F(rng.randint(-3, 3), 6) for _ in range(5)] + [F(rng.choice((-1, 1)), 6), 1],
        lambda: [rng.randint(-5, 5) for _ in range(6)] + [rng.choice((2, 3))],
    ]
    batch = []
    for family in families:
        p = RatPoly(family())
        while not p.coeffs[5] or discriminant_exact(p) == 0:
            p = RatPoly(family())
        batch.append(p)
    return batch


@pytest.mark.slow
def test_ff_oracle_agrees_with_numeric_on_random_sextic():
    import sys, os
    sys.path.insert(0, os.path.dirname(__file__))
    from ff_oracle import resolvent_ff

    both = (ResolventKind.MATCHING, ResolventKind.PARTITION)
    batch = _ff_batch(random.Random(71))
    assert {monic_integer_rescale(p.monic())[1] for p in batch} >= {1, 3, 6}
    for p in batch:
        q, m = monic_integer_rescale(p.monic())
        exact = resolvents_exact(p, both)
        oracle = resolvent_ff([int(c) for c in q.coeffs], ("matching", "split"))
        for kind, expected, res in zip(both, oracle, exact):
            assert resolvent_by_complex_roots(p, kind) == res, (p, kind)
            # the in-frame resolvent is m^(-w*deg) R_q(m^w x)
            w, deg = kind.weight, kind.degree
            assert [c * m ** (w * (deg - k)) for k, c in enumerate(res.coeffs)] == expected


BOTH = (ResolventKind.MATCHING, ResolventKind.PARTITION)


def _exact_batch(rng, per_class=2):
    """(family, sextic) pairs: seeded squarefree sextics off the reduced
    shape, per_class from each family: 4-digit coefficients, leading
    coefficient 5-9, denominators 7, 11 and 13 with lcm 1001 (scale
    m = 1001), and multiples of x."""
    families = {
        "digits4": lambda: [rng.randint(-9999, 9999) for _ in range(6)] + [1],
        "lead": lambda: [rng.randint(-9, 9) for _ in range(6)] + [rng.randint(5, 9)],
        "den1001": lambda: [F(rng.randint(-9, 9), rng.choice((7, 11, 13))) for _ in range(6)]
        + [1],
        "by_x": lambda: [0] + [rng.randint(-9, 9) for _ in range(5)] + [1],
    }
    batch = []
    for name, family in families.items():
        for _ in range(per_class):
            p = RatPoly(family())
            while discriminant_exact(p) == 0 or (
                name == "den1001" and math.lcm(*(c.denominator for c in p.coeffs)) != 1001
            ):
                p = RatPoly(family())
            batch.append((name, p))
    return batch


def test_resolvents_exact_matches_numeric_on_a_seeded_batch():
    batch = [p for _, p in _exact_batch(random.Random(8))] + _ff_batch(random.Random(71))
    for p in batch:
        exact = resolvents_exact(p, BOTH)
        assert exact == tuple(resolvent_by_complex_roots(p, kind) for kind in BOTH), p
        # one kind alone is the same polynomial
        assert resolvents_exact(p, (ResolventKind.PARTITION,)) == exact[1:]
    assert any(not p.coeffs[0] for p in batch)


def test_resolvents_exact_matches_the_tables_and_pinned_values():
    rng = random.Random(32)
    points = [(1, 1), (3, 2), (2, 1), (F(1, 2), F(5, 36)), (F(2, 3), F(-1, 4)), (3, 120)]
    points += [(F(1, 2), F(-3, 2)), (F(-5, 3), F(1, 3)), (F(7, 2), F(2, 3)), (F(-1, 3), F(-5, 2))]
    points += [(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9)))
               for _ in range(6)]
    for d, e in points:
        s = ReducedSextic(d, e)
        if discriminant_exact(s.to_poly()) == 0:
            continue
        assert resolvents_exact(s.to_poly(), BOTH) == (f_verified(s), g_verified(s)), (d, e)
    (g,) = resolvents_exact(RatPoly([1, 2, -1, 0, 0, 0, 1]), (ResolventKind.PARTITION,))
    assert g == RatPoly(G_TRUE_MINUS_X2_2_1)


def _naive_eval(terms: dict, d: F, e: F) -> F:
    return sum((c * d**i * e**j for (i, j), c in terms.items()), F(0))


def test_tables_evaluate_exactly_at_rational_points():
    # the integer evaluation over one common denominator against the plain
    # Fraction sum, at zero, negative and large-denominator (d, e)
    rng = random.Random(1009)

    def value():
        den = rng.choice((1, 2, 3, rng.randint(1, 10**3), rng.randint(10**5, 10**6)))
        return F(rng.randint(-(10**6), 10**6), den)

    points = [(0, 0), (0, F(-7, 3)), (F(5, 2), 0), (-1, -1), (F(1, 2), F(5, 36)),
              (F(-999983, 10**6), F(3, 999979))]
    points += [(value(), value()) for _ in range(30)]
    closed = ((f_reduced, F_REFERENCE_TABLE, 15), (f_verified, F_VERIFIED_TABLE, 15),
              (g_reduced, G_REFERENCE_TABLE, 10), (g_verified, G_VERIFIED_TABLE, 10))
    for d, e in points:
        s = ReducedSextic(d, e)
        for evaluate, table, degree in closed:
            naive = [_naive_eval(table.get(k, {}), s.d, s.e) for k in range(degree + 1)]
            assert evaluate(s) == RatPoly(naive), (evaluate.__name__, d, e)
        assert discriminant_reduced(s) == _naive_eval(_DISC_TABLE, s.d, s.e), (d, e)


def test_resolvents_exact_refuses_repeated_roots_and_other_degrees():
    with pytest.raises(DegenerateSextic):
        resolvents_exact(RatPoly([0, 0, 1, 0, 0, 0, 1]), BOTH)
    with pytest.raises(DegenerateSextic):
        resolvents_exact(RatPoly([4, 4, -1, 0, 0, 0, 1]), BOTH)
    with pytest.raises(ValueError):
        resolvents_exact(RatPoly([1, 0, 0, 0, 0, 1]), BOTH)


def test_lifted_roots_refuses_a_repeated_root():
    # x^2 divides x^6 + x^2 mod every prime, so no lifting prime exists
    q = [0, 0, 1, 0, 0, 0, 1]
    assert _discriminant(q) == 0
    with pytest.raises(DegenerateSextic):
        _lifted_roots(q, BOTH, _discriminant(q))


def _lifting_prime_by_definition(q: list) -> int:
    """The first odd prime r with x^(r^2) == x mod (q, r), tested directly:
    the reference the sieve of _lifted_roots must match."""
    from sextic import modp
    from sextic.exact import _odd_primes

    return next(r for r in _odd_primes() if modp.powmod([0, 1], r * r, modp.reduce(q, r), r) == [0, 1])


def _seeded_models(count: int) -> list:
    """Squarefree monic integer sextics: random ones, models m^6 p(y/m) of
    rational ones (m > 1), and ones with a square factor mod 3, 5 or 7."""
    rng = random.Random(1414)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            q = [rng.randint(-30, 30) for _ in range(6)] + [1]
        elif kind == 1:
            p = RatPoly([F(rng.randint(-9, 9), rng.choice([2, 3, 4, 5, 6, 9, 10])) for _ in range(6)] + [1])
            model, m = monic_integer_rescale(p)
            assert m > 1
            q = [int(c) for c in model.coeffs]
        else:  # q == s^2 t mod r
            r = rng.choice([3, 5, 7])
            s = [rng.randint(-4, 4), 1]
            t = [rng.randint(-9, 9) for _ in range(4)] + [1]
            st = RatPoly(s) * RatPoly(s) * RatPoly(t)
            q = [int(c) + r * rng.randint(-3, 3) for c in st.coeffs[:6]] + [1]
        if _discriminant(q):
            out.append(q)
    return out


def _seeded_small_models(count: int) -> list:
    """Squarefree monic integer quartics and quintics."""
    rng = random.Random(1515)
    out = []
    while len(out) < count:
        q = [rng.randint(-30, 30) for _ in range(4 + len(out) % 2)] + [1]
        if _discriminant(q):
            out.append(q)
    return out


def _lifting_prime(monkeypatch, q: list) -> int:
    """The prime _lifted_roots hands to modp.lift_small_factors for q, which
    must come with the roots of q mod that prime."""
    from sextic import modp

    primes = []
    real = modp.lift_small_factors

    def spy(q, r, found, bound):
        assert found == modp.roots(q, r), (q, r)
        primes.append(r)
        return real(q, r, found, bound)

    monkeypatch.setattr(modp, "lift_small_factors", spy)
    _lifted_roots(q, BOTH, _discriminant(q))
    monkeypatch.setattr(modp, "lift_small_factors", real)
    assert len(primes) == 1, q
    return primes[0]


def test_lifting_sieve_picks_the_first_prime_with_small_factors(monkeypatch):
    for q in _seeded_models(330) + _seeded_small_models(100):
        assert _lifting_prime(monkeypatch, q) == _lifting_prime_by_definition(q), q


def _small_factors_by_enumeration(f: list, r: int):
    """The monic linear and irreducible quadratic divisors of the squarefree
    f mod r, found by trying every one, when their degrees add up to deg f;
    else None."""
    from sextic import modp

    found = []
    for k in (1, 2):
        for low in itertools.product(range(r), repeat=k):
            g = list(low) + [1]
            irreducible = k == 1 or all((g[0] + g[1] * x + x * x) % r for x in range(r))
            if irreducible and not modp.div_rem(f, g, r)[1]:
                found.append(g)
    return sorted(found) if sum(len(g) - 1 for g in found) == len(f) - 1 else None


def test_lifting_sieve_matches_factoring_mod_every_small_prime():
    # small_factor_roots at every prime r: None when some factor mod r has
    # degree above 2, else the roots that lift_small_factors, with bound 1
    # so that the lift stops at r, completes to the factors
    from sextic import modp
    from sextic.exact import _odd_primes

    outcomes = Counter()
    for q in _seeded_models(60) + _seeded_small_models(20):
        disc = _discriminant(q)
        for r in itertools.takewhile(lambda r: r < 200, _odd_primes()):
            if disc % r == 0:
                continue
            f = modp.reduce(q, r)
            factors = modp.factor(f, r)
            expected = factors if all(len(g) <= 3 for g in factors) else None
            found = modp.small_factor_roots(f, r, disc)
            if found is not None:
                modulus, n, linear, quadratic = modp.lift_small_factors(q, r, found, 1)
                assert modulus == r
                found = sorted([[-a % r, 1] for a in linear]
                               + [[(a * a - n * b * b) % r, -2 * a % r, 1] for a, b in quadratic])
            assert found == expected, (q, r)
            if r <= 13:
                assert _small_factors_by_enumeration(f, r) == expected, (q, r)
            outcomes[expected is None] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_factor_degrees_match_the_degrees_of_factoring_mod_every_small_prime():
    # seeded squarefree monic quartics, quintics and sextics, and the
    # _seeded_models sextics (a third of them models of rational sextics),
    # at every odd prime below 200 that does not divide the discriminant
    from sextic import modp
    from sextic.exact import _odd_primes

    rng = random.Random(2323)
    models = _seeded_models(60)
    while len(models) < 150:
        q = [rng.randint(-30, 30) for _ in range(rng.choice([4, 5, 6]))] + [1]
        if _discriminant(q):
            models.append(q)
    decided_by_sign = Counter()
    for q in models:
        n = len(q) - 1
        disc = _discriminant(q)
        for r in itertools.takewhile(lambda r: r < 200, _odd_primes()):
            if disc % r == 0:
                continue
            f = modp.reduce(q, r)
            factors = modp.factor(f, r)
            roots, degrees = modp.factor_degrees(f, r, disc)
            assert degrees == tuple(sorted(len(g) - 1 for g in factors)), (q, r)
            assert roots == sorted(-g[0] % r for g in factors if len(g) == 2), (q, r)
            if n - len(roots) >= 4:  # the sign of (disc/r) picks the pattern
                decided_by_sign[pow(disc, (r - 1) // 2, r) == 1, r % 4] += 1
    # (-disc/r) = -(disc/r) when r = 3 mod 4, so a flipped sign fails here
    assert len(decided_by_sign) == 4 and min(decided_by_sign.values()) >= 100, decided_by_sign


def test_monic_integer_rescale_takes_large_smooth_denominators():
    assert monic_integer_rescale(RatPoly([F(-1, 10**400), 0, 0, 0, 0, 0, 1]))[1] == 10**67
    p = RatPoly([F(1, 2**400 * 3), F(1, 1009**2), 0, 0, 0, 0, 1])
    assert monic_integer_rescale(p)[1] == 2**67 * 3 * 1009


def test_monic_integer_rescale_takes_large_cofactors_as_they_are():
    # the least m is 3PQ; the cofactor P^2 Q of trial division enters whole
    P, Q = 100000000000000000039, 300000000000000000053
    s = ReducedSextic(F(1, P * P * Q), F(2, 3))
    assert monic_integer_rescale(s.to_poly())[1] == 3 * P * P * Q
    assert resolvents_exact(s.to_poly(), BOTH) == (f_verified(s), g_verified(s))


def test_lifted_values_round_to_their_symmetric_residue():
    from sextic.errors import NotNearInteger
    from sextic.resolvents import _Lifted
    from sextic.roots import expand_from_roots, round_to_int_poly

    modulus = 7**20
    # 3 + sqrt 3 and 3 - sqrt 3 (3 is a non-residue mod 7): x^2 - 6x + 6
    r, s = _Lifted(3, 1, 3, modulus), _Lifted(3, modulus - 1, 3, modulus)
    assert round_to_int_poly(expand_from_roots([r, s])) == RatPoly([6, -6, 1])
    # one of the pair alone leaves a sqrt 3 part
    with pytest.raises(NotNearInteger):
        round_to_int_poly(expand_from_roots([r]))


# one sextic (c6 first) for each pattern of factor degrees at its lifting
# prime (43, 41, 43 and 79 respectively), by its number of linear factors
LIFTING_PATTERNS = {
    "1,-1,-1,3,2,3,-1": 6,
    "1,-4,-1,4,-4,1,-3": 4,
    "1,-3,-1,-3,2,2,-3": 2,
    "1,4,-3,-4,2,-2,1": 0,
}


def _pattern_roots(coeffs: str) -> tuple:
    """(p, the lifted roots of its monic integer model) for c6-first coeffs."""
    p = RatPoly([F(c) for c in coeffs.split(",")][::-1])
    q, _ = monic_integer_rescale(p.monic())
    q = [int(c) for c in q.coeffs]
    return p, _lifted_roots(q, BOTH, _discriminant(q))


@pytest.mark.parametrize("coeffs", sorted(LIFTING_PATTERNS))
def test_conjugate_pairs_give_the_resolvents_on_every_lifting_pattern(coeffs):
    # a root lifted from a linear factor is its own conjugate (b = 0); one
    # from a quadratic factor is not, so the count fixes the pattern
    p, roots = _pattern_roots(coeffs)
    assert sum(1 for v in roots if not v.b) == LIFTING_PATTERNS[coeffs]
    exact = resolvents_exact(p, BOTH)
    assert exact == tuple(resolvent_by_complex_roots(p, kind) for kind in BOTH)


@pytest.mark.parametrize("kind", BOTH)
def test_resolvent_from_roots_refuses_a_root_without_its_conjugate(kind):
    from sextic.errors import NotNearInteger
    from sextic.resolvents import _Lifted

    p, roots = _pattern_roots("1,-3,-1,-3,2,2,-3")
    assert resolvent_from_roots(roots, kind) == resolvents_exact(p, (kind,))[0]
    quadratic = next(i for i, v in enumerate(roots) if v.b)
    linear = next(i for i, v in enumerate(roots) if not v.b)
    for i in (quadratic, linear):
        v = roots[i]
        changed = list(roots)
        changed[i] = _Lifted(v.a + 1, v.b or 1, v.n, v.modulus)
        with pytest.raises(NotNearInteger):
            resolvent_from_roots(changed, kind)


def test_lifting_sieve_takes_a_power_only_at_primes_without_roots_and_with_a_non_square_discriminant(
    monkeypatch,
):
    from sextic import modp
    from sextic.exact import _odd_primes

    calls = []
    powmod = modp.powmod

    def counted(a, e, f, m):
        calls.append((e, m))
        return powmod(a, e, f, m)

    monkeypatch.setattr(modp, "powmod", counted)
    sieved = Counter()
    for q in _seeded_models(90):
        disc = _discriminant(q)
        calls.clear()
        prime = _lifting_prime(monkeypatch, q)
        powers = [m for e, m in calls if e == m * m]
        # the other powers are equal_degree's, at the lifting prime
        assert all(m == prime for e, m in calls if e != m * m), q
        expected = [
            r for r in itertools.takewhile(lambda r: r <= prime, _odd_primes())
            if disc % r and not modp.roots(q, r) and pow(disc, (r - 1) // 2, r) == r - 1
        ]
        assert powers == expected, q
        sieved["power"] += len(powers)
        sieved["no power"] += sum(1 for r in itertools.takewhile(lambda r: r <= prime, _odd_primes())
                                  if disc % r) - len(powers)
    assert sieved["no power"] > 3 * sieved["power"] > 0, sieved


@pytest.mark.slow
def test_resolvents_exact_matches_the_ff_oracle():
    import os
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from ff_oracle import resolvent_ff

    # the oracle tries about |G| primes per split prime for Galois group G.
    # For S6 the batch's 4-digit member takes about 20 s and its 1001 member
    # 15 s, so those two are checked against the numeric path only, and a
    # product of a quadratic and a quartic (|G| <= 48) stands in for the
    # 1001 scale here
    batch = [p for name, p in _exact_batch(random.Random(8), 1) if name in ("lead", "by_x")]
    batch.append(RatPoly([F(3, 7), F(-2, 11), 1]) * RatPoly([F(5, 13), F(1, 7), F(-4, 11), 0, 1]))
    assert monic_integer_rescale(batch[-1].monic())[1] == 1001
    for p in batch:
        monic = p.monic()
        q, m = monic_integer_rescale(monic)
        q = [int(c) for c in q.coeffs]
        oracle = resolvent_ff(q, ("matching", "split"))
        for kind, res, expected in zip(BOTH, resolvents_exact(p, BOTH), oracle):
            w, deg = kind.weight, kind.degree
            assert [res[k] * m ** (w * (deg - k)) for k in range(deg + 1)] == expected, (p, kind)
