import itertools
import math
import random

import mpmath as mp
import pytest

from sextic.exact import RatPoly, rational_roots
from sextic import groups
from sextic.groups import (
    MATCHING_EVEN_GENERATORS,
    MATCHING_GROUP_GENERATORS,
    MATCHING_INVARIANT,
    PARTITION_EVEN_GENERATORS,
    PARTITION_INVARIANT,
    MonomialSum,
    act,
    eval_monomial_sum,
    orbit,
)
from sextic.resolvents import ReducedSextic, g_verified
from sextic.roots import find_roots

from permgroups import (
    Perm,
    alternating_group,
    generate,
    intersect,
    matching_group,
    matching_group_even,
    parity_subgroup,
    parse_perm,
    partition_group,
    partition_group_even,
    stabilizer,
    symmetric_group,
)

# ---------------------------------------------------------------------------
# conjugate tables as printed, one entry per coset representative.
# Entry 3's label and entry 13's second term are transcription defects
# (checked explicitly below): applying (35) to the base invariant gives
# entry 6, and the printed second term of entry 13 has total degree 7
# inside a degree-8 invariant.
# ---------------------------------------------------------------------------

MATCHING_BASE_TERMS = [(1, 1, 2, 1, 1, 2), (1, 2, 1, 1, 2, 1), (2, 1, 1, 2, 1, 1)]

MATCHING_CONJUGATES = {
    2: ("(45)", [(1, 1, 2, 1, 1, 2), (1, 2, 1, 2, 1, 1), (2, 1, 1, 1, 2, 1)]),
    3: ("(35)", [(1, 1, 2, 1, 1, 2), (2, 2, 1, 1, 1, 1), (1, 1, 1, 2, 2, 1)]),
    4: ("(56)", [(1, 1, 2, 1, 2, 1), (2, 1, 1, 2, 1, 1), (1, 2, 1, 1, 1, 2)]),
    5: ("(46)", [(1, 1, 2, 2, 1, 1), (2, 1, 1, 1, 1, 2), (1, 2, 1, 1, 2, 1)]),
    6: ("(26)", [(1, 2, 2, 1, 1, 1), (2, 1, 1, 2, 1, 1), (1, 1, 1, 1, 2, 2)]),
    7: ("(34)", [(2, 1, 2, 1, 1, 1), (1, 2, 1, 1, 2, 1), (1, 1, 1, 2, 1, 2)]),
    8: ("(16)(24)", [(2, 1, 2, 1, 1, 1), (1, 2, 1, 1, 1, 2), (1, 1, 1, 2, 2, 1)]),
    9: ("(15)(34)", [(1, 1, 2, 1, 2, 1), (2, 2, 1, 1, 1, 1), (1, 1, 1, 2, 1, 2)]),
    10: ("(13)(45)", [(1, 1, 2, 1, 2, 1), (2, 1, 1, 1, 1, 2), (1, 2, 1, 2, 1, 1)]),
    11: ("(24)(35)", [(1, 1, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1), (1, 1, 1, 1, 2, 2)]),
    12: ("(23)(45)", [(1, 1, 2, 2, 1, 1), (2, 1, 1, 1, 2, 1), (1, 2, 1, 1, 1, 2)]),
    13: ("(26)(45)", [(1, 2, 2, 1, 1, 1), (1, 1, 1, 1, 2, 1), (1, 1, 1, 2, 1, 2)]),
    14: ("(26)(15)", [(1, 2, 2, 1, 1, 1), (2, 1, 1, 1, 1, 2), (1, 1, 1, 2, 2, 1)]),
    15: ("(26)(34)", [(2, 1, 2, 1, 1, 1), (1, 2, 1, 2, 1, 1), (1, 1, 1, 1, 2, 2)]),
}

# second term of entry 13 with the u1 exponent restored to keep degree 8
MATCHING_ENTRY_13_CORRECTED = [(1, 2, 2, 1, 1, 1), (2, 1, 1, 1, 2, 1), (1, 1, 1, 2, 1, 2)]

PARTITION_BASE_TERMS = [
    (1, 1, 2, 0, 0, 0),
    (2, 1, 1, 0, 0, 0),
    (1, 2, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 2),
    (0, 0, 0, 2, 1, 1),
    (0, 0, 0, 1, 2, 1),
]

PARTITION_CONJUGATES = {
    2: ("(14)", [(0, 1, 2, 1, 0, 0), (0, 1, 1, 2, 0, 0), (0, 2, 1, 1, 0, 0),
                 (1, 0, 0, 0, 1, 2), (2, 0, 0, 0, 1, 1), (1, 0, 0, 0, 2, 1)]),
    3: ("(15)", [(0, 1, 2, 0, 1, 0), (0, 1, 1, 0, 2, 0), (0, 2, 1, 0, 1, 0),
                 (1, 0, 0, 1, 0, 2), (1, 0, 0, 2, 0, 1), (2, 0, 0, 1, 0, 1)]),
    4: ("(16)", [(0, 1, 2, 0, 0, 1), (0, 1, 1, 0, 0, 2), (0, 2, 1, 0, 0, 1),
                 (2, 0, 0, 1, 1, 0), (1, 0, 0, 2, 1, 0), (1, 0, 0, 1, 2, 0)]),
    5: ("(24)", [(1, 0, 2, 1, 0, 0), (2, 0, 1, 1, 0, 0), (1, 0, 1, 2, 0, 0),
                 (0, 1, 0, 0, 1, 2), (0, 2, 0, 0, 1, 1), (0, 1, 0, 0, 2, 1)]),
    6: ("(25)", [(1, 0, 2, 0, 1, 0), (2, 0, 1, 0, 1, 0), (1, 0, 1, 0, 2, 0),
                 (0, 1, 0, 1, 0, 2), (0, 1, 0, 2, 0, 1), (0, 2, 0, 1, 0, 1)]),
    7: ("(26)", [(1, 0, 2, 0, 0, 1), (2, 0, 1, 0, 0, 1), (1, 0, 1, 0, 0, 2),
                 (0, 2, 0, 1, 1, 0), (0, 1, 0, 2, 1, 0), (0, 1, 0, 1, 2, 0)]),
    8: ("(34)", [(1, 1, 0, 2, 0, 0), (2, 1, 0, 1, 0, 0), (1, 2, 0, 1, 0, 0),
                 (0, 0, 1, 0, 1, 2), (0, 0, 2, 0, 1, 1), (0, 0, 1, 0, 2, 1)]),
    9: ("(35)", [(1, 1, 0, 0, 2, 0), (2, 1, 0, 0, 1, 0), (1, 2, 0, 0, 1, 0),
                 (0, 0, 1, 1, 0, 2), (0, 0, 1, 2, 0, 1), (0, 0, 2, 1, 0, 1)]),
    10: ("(36)", [(1, 1, 0, 0, 0, 2), (2, 1, 0, 0, 0, 1), (1, 2, 0, 0, 0, 1),
                  (0, 0, 2, 1, 1, 0), (0, 0, 1, 2, 1, 0), (0, 0, 1, 1, 2, 0)]),
}


def test_invariant_bases_match_tables():
    assert MATCHING_INVARIANT == MonomialSum(MATCHING_BASE_TERMS)
    assert PARTITION_INVARIANT == MonomialSum(PARTITION_BASE_TERMS)


def test_perm_parse_and_format():
    p = parse_perm("(123)(456)")
    assert str(p) == "(123)(456)"
    assert parse_perm(" (1 2 3) (4,5,6) ") == p
    assert parse_perm("()") == Perm.identity()
    assert p * p.inverse() == Perm.identity()
    with pytest.raises(ValueError):
        parse_perm("(12)(23)")
    with pytest.raises(ValueError):
        parse_perm("(17)")


def test_act_identity_and_composition():
    assert act(Perm.identity(), MATCHING_INVARIANT) == MATCHING_INVARIANT
    rng = random.Random(11)
    elems = symmetric_group().elements
    sums = [MATCHING_INVARIANT, PARTITION_INVARIANT]
    for _ in range(40):
        s, t = rng.choice(elems), rng.choice(elems)
        m = rng.choice(sums)
        assert act(s * t, m) == act(s, act(t, m))


def test_act_transposition_45_gives_second_conjugate():
    assert act(parse_perm("(45)"), MATCHING_INVARIANT) == MonomialSum(MATCHING_CONJUGATES[2][1])


def test_act_transposition_14_gives_second_partition_conjugate():
    assert act(parse_perm("(14)"), PARTITION_INVARIANT) == MonomialSum(PARTITION_CONJUGATES[2][1])


def test_partition_conjugate_table_fully_consistent():
    for idx, (label, terms) in PARTITION_CONJUGATES.items():
        assert act(parse_perm(label), PARTITION_INVARIANT) == MonomialSum(terms), idx


def test_matching_conjugate_table_with_known_defects():
    for idx, (label, terms) in MATCHING_CONJUGATES.items():
        image = act(parse_perm(label), MATCHING_INVARIANT)
        if idx == 3:
            # mislabel: (35) actually lands on entry 6's invariant; the printed
            # entry-3 invariant belongs to the coset of (24)
            assert image == MonomialSum(MATCHING_CONJUGATES[6][1])
            assert act(parse_perm("(24)"), MATCHING_INVARIANT) == MonomialSum(terms)
        elif idx == 13:
            # printed second term has degree 7; the corrected term matches
            with pytest.raises(ValueError):
                MonomialSum(terms)
            assert image == MonomialSum(MATCHING_ENTRY_13_CORRECTED)
        else:
            assert image == MonomialSum(terms), idx


def test_generate_matching_group():
    g = matching_group()
    assert g.order == 48
    assert g.index == 15


def test_generate_published_partition_even_generators_fall_short():
    # (14)(25)(36) is odd, so these two cannot generate the order-36 even
    # partition group; they give an order-18 group instead
    g = generate(PARTITION_EVEN_GENERATORS)
    assert not parse_perm("(14)(25)(36)").is_even()
    assert g.order == 18
    assert all(p in partition_group() for p in g)


def test_generate_empty():
    assert generate([]).order == 1


def test_stabilizers():
    stab_matching = stabilizer(MATCHING_INVARIANT)
    assert stab_matching.elements == matching_group().elements
    assert stab_matching.order == 48
    stab_partition = stabilizer(PARTITION_INVARIANT)
    assert stab_partition.order == 72
    assert stab_partition.index == 10
    fully_symmetric = MonomialSum([(1, 1, 1, 1, 1, 1)])
    assert stabilizer(fully_symmetric).order == 720


def test_stabilizer_is_exactly_the_fixing_set():
    for p in symmetric_group():
        fixes = act(p, MATCHING_INVARIANT) == MATCHING_INVARIANT
        assert fixes == (p in matching_group())


def test_orbits():
    matching_orbit = orbit(MATCHING_INVARIANT)
    partition_orbit = orbit(PARTITION_INVARIANT)
    assert len(matching_orbit) == 15
    assert len(partition_orbit) == 10
    printed_matching_images = {MonomialSum(MATCHING_BASE_TERMS)}
    for idx, (_, terms) in MATCHING_CONJUGATES.items():
        printed_matching_images.add(MonomialSum(MATCHING_ENTRY_13_CORRECTED if idx == 13 else terms))
    assert {m for m, _ in matching_orbit} == printed_matching_images
    printed_partition_images = {MonomialSum(PARTITION_BASE_TERMS)} | {MonomialSum(t) for _, t in PARTITION_CONJUGATES.values()}
    assert {m for m, _ in partition_orbit} == printed_partition_images
    assert len(orbit(MonomialSum([(1, 1, 1, 1, 1, 1)]))) == 1
    for m, witness in matching_orbit:
        assert act(witness, MATCHING_INVARIANT) == m


def test_intersections_and_parity():
    J, K, A6 = matching_group(), partition_group(), alternating_group()
    assert A6.order == 360
    L = intersect(J, A6)
    M = intersect(K, A6)
    assert (L.order, L.index) == (24, 30)
    assert (M.order, M.index) == (36, 20)
    assert L.elements == matching_group_even().elements
    assert L.elements == generate(MATCHING_EVEN_GENERATORS).elements
    assert M.elements == partition_group_even().elements
    assert parity_subgroup(symmetric_group()).elements == A6.elements
    JK = intersect(J, K)
    assert JK.order == 12
    assert not JK.is_abelian()
    assert JK.element_order_multiset() == {1: 1, 2: 7, 3: 2, 6: 2}  # dihedral fingerprint


def test_orbit_is_computed_once_and_shared():
    for m in (MATCHING_INVARIANT, PARTITION_INVARIANT):
        first = orbit(m)
        assert isinstance(first, tuple)  # callers cannot mutate the shared value
        assert orbit(m) is first
        fresh = {}
        for p in sorted(groups.Perm(t) for t in itertools.permutations(range(6))):
            fresh.setdefault(act(p, m), p)
        assert first == tuple(sorted(fresh.items(), key=lambda kv: kv[0].terms))


def test_orbit_stabilizer_products():
    rng = random.Random(8)
    sums = [MATCHING_INVARIANT, PARTITION_INVARIANT]
    for _ in range(5):
        terms = []
        deg_parts = [rng.randint(0, 2) for _ in range(6)]
        for _ in range(rng.randint(1, 3)):
            perm = list(deg_parts)
            rng.shuffle(perm)
            terms.append(tuple(perm))
        sums.append(MonomialSum(terms))
    for m in sums:
        assert len(orbit(m)) * stabilizer(m).order == 720


def test_eval_monomial_sum_vieta():
    p = RatPoly([2, 1, 1, 0, 0, 0, 1])  # x^6 + x^2 + x + 2
    rs = find_roots(p, 256)
    with mp.workprec(300):
        sigma1 = eval_monomial_sum(MonomialSum([
            (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
        ]), rs.roots)
        assert abs(sigma1) < mp.mpf(10) ** -50
        sigma6 = eval_monomial_sum(MonomialSum([(1, 1, 1, 1, 1, 1)]), rs.roots)
        assert abs(sigma6 - 2) < mp.mpf(10) ** -50


def _term_by_term(m: MonomialSum, roots) -> int:
    return sum(math.prod(v**e for v, e in zip(roots, t)) for t in m.terms)


def test_factored_evaluation_equals_term_by_term():
    roots = [2, -3, 5, 7, -11, 13]
    mixed = [
        MonomialSum([tuple(int(i == j) for j in range(6)) for i in range(6)]),  # sigma1
        MonomialSum([(1, 1, 1, 1, 1, 1)]),  # sigma6
        MonomialSum([(2, 1, 0, 0, 0, 0), (0, 0, 2, 1, 0, 0), (0, 0, 0, 0, 1, 2)]),
        MonomialSum([(2, 1, 1, 0, 0, 0), (1, 1, 2, 0, 0, 0), (0, 1, 0, 3, 0, 0)]),
        MonomialSum([(0, 0, 0, 0, 0, 0)]),
    ]
    images = [m for inv in (MATCHING_INVARIANT, PARTITION_INVARIANT) for m, _ in orbit(inv)]
    shared: dict = {}
    for m in images + mixed:
        expected = _term_by_term(m, roots)
        assert eval_monomial_sum(m, roots) == expected, m
        assert eval_monomial_sum(m, roots, shared) == expected, m


def test_orbit_values_share_the_monomial_memo():
    # one product of all six roots for the matching orbit, one per pair
    roots = [2, -3, 5, 7, -11, 13]
    memo: dict = {}
    for m, _ in orbit(MATCHING_INVARIANT):
        eval_monomial_sum(m, roots, memo)
    assert memo[(1, 1, 1, 1, 1, 1)] == math.prod(roots)
    assert sorted(t for t in memo if sum(t) == 2) == sorted(
        tuple(int(k in (i, j)) for k in range(6)) for i, j in itertools.combinations(range(6), 2)
    )


def test_expand_from_roots_on_integer_roots():
    from sextic.roots import expand_from_roots

    # (z - 2)(z + 3)(z - 5) = z^3 - 4z^2 - 11z + 30
    assert expand_from_roots([2, -3, 5]) == [30, -11, -4, 1]
    assert expand_from_roots([7]) == [-7, 1]
    assert expand_from_roots([]) == [1]
    roots = [2, -3, 5, 7, -11, 13]
    coeffs = expand_from_roots(roots)
    for z in range(-4, 5):
        assert sum(c * z**k for k, c in enumerate(coeffs)) == math.prod(z - v for v in roots)


def test_eval_monomial_sum_needs_six_roots():
    with pytest.raises(ValueError):
        eval_monomial_sum(MATCHING_INVARIANT, [mp.mpc(1)] * 5)


def test_partition_invariant_value_is_resolvent_root():
    p = ReducedSextic(2, 1).to_poly()
    rs = find_roots(p, 256)
    g = g_verified(ReducedSextic(2, 1))
    with mp.workprec(300):
        value = eval_monomial_sum(PARTITION_INVARIANT, rs.roots)
        acc = mp.mpc(0)
        for c in reversed(g.coeffs):
            acc = acc * value + int(c)
        assert abs(acc) < mp.mpf(10) ** -40
    assert 0 in rational_roots(g)
