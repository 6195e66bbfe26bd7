"""Permutations of six points and their action on root-monomial sums.

The solvability criteria hinge on two formal invariants in the roots
u1..u6, each housed here as a MonomialSum:

* the degree-8 matching invariant, sum of u1u2u3^2u4u5u6^2-type terms --
  one term per pair of a perfect matching of the six points, stabilized
  by an order-48 wreath-product subgroup (15 conjugates);
* the degree-4 partition invariant, u1u2u3(u1+u2+u3) + u4u5u6(u4+u5+u6),
  stabilized by an order-72 wreath-product subgroup (10 conjugates).

Groups are explicit element sets: with only 720 permutations, brute force
is exact and trivially testable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import add, mul

N_POINTS = 6
_S6_ORDER = 720


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation of {1..6}, stored as a 0-based image tuple."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(N_POINTS)):
            raise ValueError(f"not a permutation of 6 points: {self.images}")

    @staticmethod
    def identity() -> "Perm":
        return Perm(tuple(range(N_POINTS)))

    @staticmethod
    def from_cycles(cycles) -> "Perm":
        """Build from 1-based cycles, e.g. [(1,2,3),(4,5,6)]."""
        images = list(range(N_POINTS))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b - 1
        return Perm(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        # (s*t)(i) = s(t(i)): apply t first
        return Perm(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * N_POINTS
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def cycles(self) -> list:
        """Nontrivial cycles, 1-based, each starting at its smallest point."""
        seen, out = set(), []
        for i in range(N_POINTS):
            if i in seen or self.images[i] == i:
                continue
            cyc, j = [i], self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(k + 1 for k in cyc))
        return out

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def order(self) -> int:
        return reduce(lambda a, b: a * b // gcd(a, b), (len(c) for c in self.cycles()), 1)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + "".join(str(p) for p in c) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([1-6\s,]*)\)")


def parse_perm(text: str) -> Perm:
    """Parse cycle notation like "(123)(456)"; whitespace-insensitive,
    1-based points. "()" and the empty string are the identity."""
    stripped = re.sub(r"\s+", "", text)
    if stripped in ("", "()", "e"):
        return Perm.identity()
    consumed = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        consumed += len(m.group(0))
        digits = [int(ch) for ch in m.group(1).replace(",", "")]
        if len(set(digits)) != len(digits):
            raise ValueError(f"repeated point in cycle: {m.group(0)}")
        if digits:
            cycles.append(tuple(digits))
    if consumed != len(stripped):
        raise ValueError(f"cannot parse permutation: {text!r}")
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise ValueError(f"cycles are not disjoint in {text!r}")
    return Perm.from_cycles(cycles)


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

    @property
    def degree(self) -> int:
        return sum(self.terms[0])

    def __str__(self) -> str:
        def fmt(t):
            return "".join(
                f"u{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(t)
                if e
            )

        return " + ".join(fmt(t) for t in self.terms)


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


@dataclass(frozen=True)
class PermGroup:
    """A set of permutations closed under composition and inverse."""

    elements: tuple
    generators: tuple = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return _S6_ORDER // self.order

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._members

    def __iter__(self):
        return iter(self.elements)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.elements for b in self.elements)

    def element_order_multiset(self) -> dict:
        out: dict = {}
        for p in self.elements:
            out[p.order()] = out.get(p.order(), 0) + 1
        return out


def generate(gens) -> PermGroup:
    """Closure of the generators (given as Perm or cycle strings)."""
    gens = tuple(g if isinstance(g, Perm) else parse_perm(g) for g in gens)
    seen = {Perm.identity()}
    frontier = [Perm.identity()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return PermGroup(tuple(sorted(seen)), gens)


@lru_cache(maxsize=None)
def symmetric_group() -> PermGroup:
    elems = tuple(sorted(Perm(t) for t in itertools.permutations(range(N_POINTS))))
    return PermGroup(elems, (parse_perm("(12)"), parse_perm("(123456)")))


@lru_cache(maxsize=None)
def alternating_group() -> PermGroup:
    return parity_subgroup(symmetric_group())


def parity_subgroup(g: PermGroup) -> PermGroup:
    """The even elements of g."""
    return PermGroup(tuple(p for p in g.elements if p.is_even()))


def intersect(g1: PermGroup, g2: PermGroup) -> PermGroup:
    return PermGroup(tuple(p for p in g1.elements if p in g2))


def stabilizer(m: MonomialSum) -> PermGroup:
    """All of S6 fixing m (brute force over the 720 elements)."""
    return PermGroup(tuple(p for p in symmetric_group() if act(p, m) == m))


@lru_cache(maxsize=None)
def orbit(m: MonomialSum) -> tuple:
    """Distinct images of m under S6 in canonical order.

    Returns (image, witness) pairs where witness is the smallest permutation
    mapping m to that image; images are sorted by their term tuples. The
    result depends on m alone, so it is cached and shared by all callers.
    """
    images: dict = {}
    for p in symmetric_group():  # elements are sorted, so witnesses are minimal
        im = act(p, m)
        if im not in images:
            images[im] = p
    return tuple(sorted(images.items(), key=lambda kv: kv[0].terms))


@lru_cache(maxsize=None)
def matching_group() -> PermGroup:
    """Order-48 stabilizer of the matching invariant (index 15)."""
    return generate(MATCHING_GROUP_GENERATORS)


@lru_cache(maxsize=None)
def partition_group() -> PermGroup:
    """Order-72 stabilizer of the partition invariant (index 10).

    No small generating set is prescribed anywhere, so the group is defined
    as the stabilizer itself.
    """
    return stabilizer(PARTITION_INVARIANT)


@lru_cache(maxsize=None)
def matching_group_even() -> PermGroup:
    """Even part of the matching group: order 24, index 30."""
    return intersect(matching_group(), alternating_group())


@lru_cache(maxsize=None)
def partition_group_even() -> PermGroup:
    """Even part of the partition group: order 36, index 20."""
    return intersect(partition_group(), alternating_group())


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
