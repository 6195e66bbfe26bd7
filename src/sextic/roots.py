"""Arbitrary-precision complex root finding (all roots at once).

Built on mpmath (gmpy backend). The solver is Aberth-Ehrlich simultaneous
iteration started from perturbed points on a circle, polished by Newton
steps and certified through the Newton residual bound: any z has a true
root within n*|p(z)/p'(z)|, so the maximum of that quantity over the final
iterates is a valid error radius for the whole set.

All iteration schedules are fixed, so identical inputs give bit-identical
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NonConvergence, NotNearInteger, RepeatedRootSuspected
from .exact import IntPoly, RatPoly

PRECISION_START = 256
PRECISION_CAP = 4096
MAX_ITERATIONS = 400
_GUARD_BITS = 32


def check_precision(bits: int, cap: int = PRECISION_CAP) -> int:
    """Return bits when 1 <= bits <= cap; raise ValueError naming the range otherwise."""
    if not 1 <= bits <= cap:
        raise ValueError(f"precision must be between 1 and {cap} bits, got {bits}")
    return bits


def precision_ladder(start: int = PRECISION_START, cap: int = PRECISION_CAP):
    """Yield doubling precisions start, 2*start, ... up to cap."""
    p = check_precision(start, cap)
    while p <= cap:
        yield p
        p *= 2


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of a rational polynomial, with a shared error bound.

    roots are sorted by (real, imaginary); error_radius bounds the distance
    from each entry to some true root of source.
    """

    roots: tuple
    error_radius: object
    source: RatPoly
    precision_bits: int

    def __len__(self):
        return len(self.roots)


def to_mpf(c: Fraction):
    """The rational c at the current working precision."""
    return mp.mpf(c.numerator) / mp.mpf(c.denominator)


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) for mpc coefficients low to high."""
    p = coeffs[-1]
    dp = mp.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def find_roots(p: RatPoly, precision_bits: int = PRECISION_START) -> ComplexRootSet:
    """All complex roots of p, certified to error_radius <= 2^(-precision_bits/2).

    Raises NonConvergence when the iteration budget runs out, and
    RepeatedRootSuspected when the budget runs out with a root cluster
    present (the residual certificate cannot shrink near a multiple root).
    """
    n = p.degree
    if n < 1:
        raise ValueError("find_roots expects degree >= 1")
    with mp.workprec(precision_bits + _GUARD_BITS):
        lead = mp.mpc(to_mpf(p.leading()))
        coeffs = [mp.mpc(to_mpf(c)) / lead for c in p.coeffs]
        radius = 1 + max(abs(c) for c in coeffs[:-1])
        # fixed off-axis start angles; the 0.353 offset avoids symmetry traps
        zs = [
            radius * mp.exp(mp.mpc(0, 2) * mp.pi * (mp.mpf(k) + mp.mpf("0.353")) / n)
            for k in range(n)
        ]
        target = mp.mpf(2) ** (-(precision_bits // 2) - 8)
        worst = mp.inf
        for _ in range(MAX_ITERATIONS):
            worst = mp.mpf(0)
            for k in range(n):
                pv, dv = _horner_pair(coeffs, zs[k])
                if dv == 0:
                    zs[k] += mp.mpf(2) ** (-precision_bits // 3)
                    pv, dv = _horner_pair(coeffs, zs[k])
                    if dv == 0:
                        raise RepeatedRootSuspected("derivative vanishes at iterate")
                w = pv / dv
                worst = max(worst, abs(w))
                acc = mp.mpc(0)
                for j in range(n):
                    if j != k:
                        acc += 1 / (zs[k] - zs[j])
                denom = 1 - w * acc
                zs[k] -= w if denom == 0 else w / denom
            if worst * n <= target:
                break
        else:
            if min_separation(zs) < mp.mpf(2) ** (-precision_bits // 8):
                raise RepeatedRootSuspected(
                    f"residual stalled at {mp.nstr(worst)} with clustered roots"
                )
            raise NonConvergence(f"residual {mp.nstr(worst)} after {MAX_ITERATIONS} iterations")
        # Newton polish, then certify
        err = mp.mpf(0)
        for k in range(n):
            for _ in range(2):
                pv, dv = _horner_pair(coeffs, zs[k])
                if dv == 0:
                    break
                zs[k] -= pv / dv
            pv, dv = _horner_pair(coeffs, zs[k])
            if dv == 0:
                raise RepeatedRootSuspected("derivative vanishes at polished root")
            err = max(err, n * abs(pv / dv))
        if err > mp.mpf(2) ** (-(precision_bits // 2)):
            raise NonConvergence(f"certified radius {mp.nstr(err)} misses target")
        zs.sort(key=lambda z: (z.real, z.imag))
        return ComplexRootSet(tuple(zs), err, p, precision_bits)


def min_separation(zs):
    """Smallest distance between two of the points zs."""
    return min((abs(a - b) for a, b in itertools.combinations(zs, 2)), default=mp.inf)


def expand_from_roots(values, extra_prec: int = _GUARD_BITS):
    """Coefficients (low to high) of the monic polynomial with the given
    complex roots."""
    with mp.workprec(mp.mp.prec + extra_prec):
        coeffs = [mp.mpc(1)]
        for v in values:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * v
            coeffs = nxt
        return coeffs


def round_to_int_poly(coeffs, tolerance) -> IntPoly:
    """Round near-integer complex coefficients to an integer polynomial.

    Every coefficient must have |imag| and |real - nearest int| within
    tolerance; otherwise NotNearInteger reports the worst offender.
    """
    out = []
    worst = mp.mpf(0)
    for c in coeffs:
        c = mp.mpc(c)
        nearest = mp.nint(c.real)
        dist = max(abs(c.imag), abs(c.real - nearest))
        worst = max(worst, dist)
        out.append(int(nearest))
    if worst > tolerance:
        raise NotNearInteger(mp.nstr(worst, 8))
    return IntPoly(out)
