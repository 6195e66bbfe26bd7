"""Permutation groups of six points, for checking the group-theoretic claims
behind the resolvents: generators, stabilizers, their orders and parities.

The library needs only the orbits of its two invariants (sextic.groups.orbit).
Everything here serves the tests. Groups are explicit element sets: with
only 720 permutations, brute force is exact and trivially testable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd

from sextic import groups
from sextic.groups import (
    MATCHING_GROUP_GENERATORS,
    N_POINTS,
    PARTITION_INVARIANT,
    MonomialSum,
    act,
)

_S6_ORDER = 720


class Perm(groups.Perm):
    """sextic.groups.Perm with composition, inverse and cycle structure."""

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
    elems = tuple(map(Perm, itertools.permutations(range(N_POINTS))))  # already sorted
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
