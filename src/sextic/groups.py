"""Permutations of six points and their action on root-monomial sums.

The solvability criteria hinge on two formal invariants in the roots
u1..u6, each housed here as a MonomialSum:

* the degree-8 matching invariant, sum of u1u2u3^2u4u5u6^2-type terms --
  one term per pair of a perfect matching of the six points, stabilized
  by an order-48 wreath-product subgroup (15 conjugates);
* the degree-4 partition invariant, u1u2u3(u1+u2+u3) + u4u5u6(u4+u5+u6),
  stabilized by an order-72 wreath-product subgroup (10 conjugates).

The resolvents need only the orbits of these invariants under S6, with
a witness permutation for each image: orbit runs over all 720
permutations. The group-theoretic facts about them (generators,
stabilizers, their orders) are claims that the tests check; the
generator constants below are those claims, kept as data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul

N_POINTS = 6


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation of {1..6}, stored as a 0-based image tuple."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(N_POINTS)):
            raise ValueError(f"not a permutation of 6 points: {self.images}")


@dataclass(frozen=True)
class MonomialSum:
    """Formal sum of monomials in u1..u6, as a multiset of exponent tuples.

    Terms are kept sorted, so equal sums compare equal; all terms must share
    one total degree.
    """

    terms: tuple

    def __init__(self, terms):
        terms = tuple(sorted(tuple(int(e) for e in t) for t in terms))
        if not terms:
            raise ValueError("empty monomial sum")
        degs = {sum(t) for t in terms}
        if len(degs) != 1:
            raise ValueError(f"mixed total degrees {sorted(degs)} in monomial sum")
        if any(len(t) != N_POINTS or min(t) < 0 for t in terms):
            raise ValueError("terms must be length-6 nonnegative exponent tuples")
        object.__setattr__(self, "terms", terms)


def act(s: Perm, m: MonomialSum) -> MonomialSum:
    """Substitute u_i -> u_{s(i)} in every term and re-canonicalize."""
    out = []
    for t in m.terms:
        b = [0] * N_POINTS
        for i, e in enumerate(t):
            b[s.images[i]] = e
        out.append(tuple(b))
    return MonomialSum(out)


# the two invariants the resolvents are built from
MATCHING_INVARIANT = MonomialSum(
    [(1, 1, 2, 1, 1, 2), (1, 2, 1, 1, 2, 1), (2, 1, 1, 2, 1, 1)]
)
PARTITION_INVARIANT = MonomialSum(
    [
        (1, 1, 2, 0, 0, 0),
        (2, 1, 1, 0, 0, 0),
        (1, 2, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 2),
        (0, 0, 0, 2, 1, 1),
        (0, 0, 0, 1, 2, 1),
    ]
)

MATCHING_GROUP_GENERATORS = ("(123)(456)", "(12)(45)", "(14)")
MATCHING_EVEN_GENERATORS = ("(123)(456)", "(12)(45)", "(14)(25)")
# claimed generating pair for the even partition group, kept as an audited
# witness: (14)(25)(36) is odd, so the pair actually generates an order-18
# subgroup, not the order-36 even part (pinned in the tests)
PARTITION_EVEN_GENERATORS = ("(123)", "(14)(25)(36)")


@lru_cache(maxsize=None)
def orbit(m: MonomialSum) -> tuple:
    """Distinct images of m under S6 in canonical order.

    Returns (image, witness) pairs where witness is the smallest permutation
    mapping m to that image; images are sorted by their term tuples. The
    result depends on m alone, so it is cached and shared by all callers.
    """
    images: dict = {}
    # permutations of a sorted tuple come in sorted order, so witnesses are minimal
    for p in map(Perm, itertools.permutations(range(N_POINTS))):
        im = act(p, m)
        if im not in images:
            images[im] = p
    return tuple(sorted(images.items(), key=lambda kv: kv[0].terms))


@lru_cache(maxsize=None)
def _factored(m: MonomialSum) -> tuple:
    """m as (g, rest) pairs, one per support of its terms: g the exponent-wise
    minimum of the terms with that support, rest their quotients by g (empty
    for a lone term). The matching invariant becomes u1...u6 times
    (u1u4 + u2u5 + u3u6)."""
    groups: dict = {}
    for t in m.terms:
        groups.setdefault(tuple(e > 0 for e in t), []).append(t)
    out = []
    for terms in groups.values():
        g = tuple(map(min, zip(*terms)))
        rest = tuple(tuple(e - f for e, f in zip(t, g)) for t in terms)
        out.append((g, rest if len(terms) > 1 else ()))
    return tuple(out)


def eval_monomial_sum(m: MonomialSum, roots, memo=None):
    """Value of m at a sequence of six roots, in the roots' own ring: the
    p-adic lifts of resolvents._Lifted, or any values with +, * and **.

    m is evaluated in its factored form (_factored), each monomial's value
    kept in memo by exponent tuple. A caller evaluating a whole orbit at the
    same roots passes one dict to every call, so that the product of all six
    roots, say, is computed once.
    """
    vals = tuple(roots)
    if len(vals) != N_POINTS:
        raise ValueError("need exactly six root values")
    memo = {} if memo is None else memo

    def monomial(t):
        if t not in memo:
            factors = [v if e == 1 else v**e for v, e in zip(vals, t) if e]
            memo[t] = reduce(mul, factors) if factors else vals[0] ** 0
        return memo[t]

    return reduce(add, (monomial(g) * reduce(add, map(monomial, rest)) if rest else monomial(g)
                        for g, rest in _factored(m)))
