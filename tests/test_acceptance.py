"""Acceptance suite: one test per criterion, at the stated tolerances.

Four sub-claims transcribe defects in the source material and cannot hold;
they are implemented verbatim and marked strict-xfail so each defect stays
pinned loudly rather than hidden (details in the tests' docstrings and in
the conjugate tables of test_groups):

* the minus-x^2 worked examples are not partition-solvable as printed;
* (123) with (14)(25)(36) generates an order-18 group, not the order-36
  even partition group (the second generator is odd);
* conjugate entry 3 is mislabeled, and entry 13 carries a degree-7 term
  inside a degree-8 invariant (two separate pins).
"""

import random
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

from sextic.classify import GroupBound, Solvable, classify
from sextic.exact import RatPoly, rational_roots
from sextic.groups import (
    MATCHING_EVEN_GENERATORS,
    MATCHING_GROUP_GENERATORS,
    MATCHING_INVARIANT,
    PARTITION_EVEN_GENERATORS,
    PARTITION_INVARIANT,
    MonomialSum,
    act,
    alternating_group,
    generate,
    intersect,
    orbit,
    parse_perm,
    stabilizer,
)
from sextic.quintic import params_from_ab, radical_roots, search_quintics
from sextic.resolvents import (
    ReducedSextic,
    ResolventKind,
    _lifted_roots,
    discriminant_exact,
    discriminant_reduced,
    g_reduced,
    monic_integer_rescale,
    reconstruct_reduced,
    resolvent_from_roots,
    resolvents_exact,
)
from sextic.roots import expand_from_roots, find_roots

from test_groups import PARTITION_CONJUGATES, MATCHING_ENTRY_13_CORRECTED, MATCHING_CONJUGATES


def test_criterion_01_reduced_family_classification():
    start = time.monotonic()
    report = classify(RatPoly([5, 18, 36, 0, 0, 0, 36]))
    assert report.irreducible
    assert report.f_roots == frozenset({F(0)})
    assert report.bound is GroupBound.SUBGROUP_OF_J
    assert report.solvable is Solvable.YES
    assert time.monotonic() - start < 5


def test_criterion_02_partition_examples():
    start = time.monotonic()
    assert g_reduced(ReducedSextic(2, 1))[0] == 0
    assert g_reduced(ReducedSextic(4, 4))[0] == 0
    assert F(0) in rational_roots(g_reduced(ReducedSextic(2, 1)))
    assert F(0) in rational_roots(g_reduced(ReducedSextic(4, 4)))
    # the solvability claim holds under the plus-x^2 reading of the examples
    for d, e in [(2, 1), (4, 4)]:
        (res,) = resolvents_exact(ReducedSextic(d, e).to_poly(), (ResolventKind.PARTITION,))
        assert rational_roots(res)
    assert time.monotonic() - start < 60


@pytest.mark.xfail(
    strict=True,
    reason="transcription defect: as printed (with -x^2) one example has no "
    "rational partition-resolvent root and the other has a repeated root",
)
def test_criterion_02_printed_minus_x2_examples():
    for coeffs in ([1, 2, -1, 0, 0, 0, 1], [4, 4, -1, 0, 0, 0, 1]):
        (res,) = resolvents_exact(RatPoly(coeffs), (ResolventKind.PARTITION,))
        assert rational_roots(res)


def test_criterion_03_group_suite():
    start = time.monotonic()
    J = generate(MATCHING_GROUP_GENERATORS)
    assert (J.order, J.index) == (48, 15)
    stab_partition = stabilizer(PARTITION_INVARIANT)
    assert (stab_partition.order, stab_partition.index) == (72, 10)
    A6 = alternating_group()
    L = intersect(J, A6)
    assert (L.order, L.index) == (24, 30)
    assert L.elements == generate(MATCHING_EVEN_GENERATORS).elements
    M = intersect(stab_partition, A6)
    assert (M.order, M.index) == (36, 20)
    JK = intersect(J, stab_partition)
    assert JK.order == 12
    assert not JK.is_abelian()
    assert JK.element_order_multiset() == {1: 1, 2: 7, 3: 2, 6: 2}
    assert time.monotonic() - start < 5


@pytest.mark.xfail(
    strict=True,
    reason="source defect: (14)(25)(36) is odd, so these generators give an "
    "order-18 group, not the order-36 even partition group",
)
def test_criterion_03_even_partition_generator_claim():
    M = intersect(stabilizer(PARTITION_INVARIANT), alternating_group())
    assert generate(PARTITION_EVEN_GENERATORS).elements == M.elements


def test_criterion_04_orbits_and_coset_witnesses():
    start = time.monotonic()
    matching_orbit = orbit(MATCHING_INVARIANT)
    partition_orbit = orbit(PARTITION_INVARIANT)
    assert len(matching_orbit) == 15
    assert len(partition_orbit) == 10
    for idx, (label, terms) in PARTITION_CONJUGATES.items():
        assert act(parse_perm(label), PARTITION_INVARIANT) == MonomialSum(terms), idx
    for idx, (label, terms) in MATCHING_CONJUGATES.items():
        if idx == 3:
            continue  # mislabeled entry, pinned below
        expected = MonomialSum(MATCHING_ENTRY_13_CORRECTED if idx == 13 else terms)
        assert act(parse_perm(label), MATCHING_INVARIANT) == expected, idx
    assert time.monotonic() - start < 5


@pytest.mark.xfail(
    strict=True,
    reason="transcription defect: (35) maps the base invariant to entry 6; "
    "the printed entry 3 belongs to the coset of (24)",
)
def test_criterion_04_entry3_label_claim():
    label, terms = MATCHING_CONJUGATES[3]
    assert act(parse_perm(label), MATCHING_INVARIANT) == MonomialSum(terms)


@pytest.mark.xfail(
    strict=True,
    reason="transcription defect: entry 13's printed second term has total "
    "degree 7 inside a degree-8 invariant",
)
def test_criterion_04_entry13_term_claim():
    label, terms = MATCHING_CONJUGATES[13]
    assert act(parse_perm(label), MATCHING_INVARIANT) == MonomialSum(terms)


def test_criterion_05_resolvent_audit():
    start = time.monotonic()
    partition = reconstruct_reduced(ResolventKind.PARTITION)
    assert partition.matches_reference()
    assert len(partition.holdout_points) >= 20
    matching = reconstruct_reduced(ResolventKind.MATCHING)
    assert len(matching.holdout_points) >= 20
    # the x^7 e-power question is resolved: the fit is the reference times e^8
    assert any(note.startswith("x^7") and "e^8" in note for note in matching.notes)
    assert {d.x_power for d in matching.discrepancies} == {0, 7, 9, 12}
    from sextic.resolvents import F_VERIFIED_TABLE, G_VERIFIED_TABLE

    assert matching.fitted == F_VERIFIED_TABLE
    assert partition.fitted == G_VERIFIED_TABLE
    assert time.monotonic() - start < 600


def test_criterion_06_discriminant_relation():
    start = time.monotonic()
    assert discriminant_reduced(ReducedSextic(0, 0)) == 0
    rng = random.Random(2718)
    signs = set()
    checked = 0
    while checked < 100:
        d, e = rng.randint(-10, 10), rng.randint(-10, 10)
        s = ReducedSextic(d, e)
        reduced = discriminant_reduced(s)
        exact = discriminant_exact(s.to_poly())
        assert abs(reduced) == abs(exact)
        checked += 1
        if exact:
            signs.add(reduced / exact)
    assert len(signs) == 1  # one globally constant sign relation
    assert time.monotonic() - start < 30


def test_criterion_07_parametric_family_bound():
    start = time.monotonic()
    for t in range(1, 11):
        p = RatPoly([1, 6, t + 9, 2 * t - 2, t - 6, 0, 1])
        (res,) = resolvents_exact(p, (ResolventKind.PARTITION,))
        roots = rational_roots(res)
        assert roots, f"t={t}"
        for r in roots:
            assert res(r) == 0
    assert time.monotonic() - start < 120


def test_criterion_08_quintic_exhaustive_box():
    start = time.monotonic()
    hits = {(a, b) for a, b, _ in search_quintics(40)}
    assert hits == {(20, 32), (20, -32), (15, 12), (15, -12), (-5, 12), (-5, -12)}
    assert len(hits) == 6
    assert time.monotonic() - start < 300


def test_criterion_09_radical_construction():
    start = time.monotonic()
    for a, b in [(20, 32), (20, -32), (15, 12), (15, -12), (-5, 12), (-5, -12)]:
        params = params_from_ab(a, b)
        tower = radical_roots(params, 256)
        assert tower.residual < mp.mpf(10) ** -30
        with mp.workprec(288):
            assert abs(sum(tower.roots)) < mp.mpf(10) ** -30
            sym = expand_from_roots(tower.roots)
            for power, expected in ((4, 0), (3, 0), (2, 0), (1, a), (0, b)):
                assert abs(sym[power] - expected) < mp.mpf(10) ** -30
    assert time.monotonic() - start < 60


def test_criterion_10a_resolvent_root_order_invariance():
    start = time.monotonic()
    rng = random.Random(1009)
    sextics = 0
    while sextics < 10:
        coeffs = [rng.randint(-8, 8) for _ in range(6)] + [1]
        p = RatPoly(coeffs)
        if discriminant_exact(p) == 0:
            continue
        sextics += 1
        q, _ = monic_integer_rescale(p)
        roots = _lifted_roots([int(c) for c in q.coeffs], (ResolventKind.PARTITION,))
        baseline = resolvent_from_roots(roots, ResolventKind.PARTITION)
        for _ in range(20):
            shuffled = list(roots)
            rng.shuffle(shuffled)
            assert resolvent_from_roots(shuffled, ResolventKind.PARTITION) == baseline
    assert time.monotonic() - start < 200


def test_criterion_10b_orbit_stabilizer_products():
    rng = random.Random(4242)
    sums = [MATCHING_INVARIANT, PARTITION_INVARIANT]
    while len(sums) < 7:
        degrees = [rng.randint(0, 2) for _ in range(6)]
        terms = set()
        for _ in range(rng.randint(1, 3)):
            shuffled = list(degrees)
            rng.shuffle(shuffled)
            terms.add(tuple(shuffled))
        sums.append(MonomialSum(terms))
    for m in sums:
        assert len(orbit(m)) * stabilizer(m).order == 720


def test_criterion_10c_root_coefficient_roundtrip():
    start = time.monotonic()
    rng = random.Random(31337)
    done = 0
    while done < 50:
        coeffs = [rng.randint(-20, 20) for _ in range(6)] + [1]
        p = RatPoly(coeffs)
        if discriminant_exact(p) == 0:
            continue
        done += 1
        rs = find_roots(p, 512)
        with mp.workprec(576):
            expanded = expand_from_roots(rs.roots)
            for k, c in enumerate(p.coeffs):
                assert abs(expanded[k] - int(c)) < mp.mpf(10) ** -60
    assert time.monotonic() - start < 300
